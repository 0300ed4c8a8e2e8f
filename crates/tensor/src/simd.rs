//! AVX2 micro-kernel backend for the GEMM family, behind a runtime
//! dispatch that always has the scalar loop as its bit-exact reference.
//!
//! # Contract
//!
//! The micro-kernels are **bit-identical** to the scalar reference in
//! [`crate::matmul`], not merely close: every output element is produced
//! by the same sequence of f32 operations — a single accumulator, terms
//! added in ascending `p` order, each term a separate round-to-nearest
//! multiply then add (never contracted into an FMA, which rounds once
//! instead of twice), and the reference's `a == 0.0` skip applied per
//! `(row, p)` pair. Vectorization only runs *across* output columns
//! (`j`), where the reference performs independent sums, so lane order
//! cannot reassociate anything. This is what lets the runtime dispatch
//! flip per-call without any observable effect, and what the
//! differential conformance suite (`tests/microkernel_conformance.rs`)
//! enforces to `to_bits` equality.
//!
//! # Tiling
//!
//! The register micro-tile is [`MR`]×[`NR`] = 4×16: eight 8-lane `ymm`
//! accumulators, two panel loads, and one broadcast stay within the 16
//! architectural `ymm` registers. `B` arrives as a [`PackedRhs`] of
//! `NR`-wide column panels, shared read-only by all row workers: packed
//! per call by [`crate::matmul`], or once by an owner of a constant
//! operand. A panel row is either 16 f32 values or 16 sign bits that
//! expand to two ±1.0 vectors through a 256×8 table; the kernels are
//! generic over which ([`PanelRow`]). The `A` tile is repacked p-major
//! per row block inside [`gemm_avx2`]. Row remainders use a 1×16
//! kernel; the last panel is padded to `NR` columns and accumulated
//! through a scratch tile whose pad columns are dropped.
//!
//! # Dispatch
//!
//! [`simd_enabled`] gates every use: the `simd` cargo feature must be
//! compiled in, the CPU must report AVX2 (checked once, cached), and the
//! runtime flag must be on (default yes; `NSHD_SIMD=0` or
//! [`set_simd_enabled`] disable it). Dispatch is decided once per
//! matmul call, before any packing, so a mid-call toggle cannot mix
//! backends within one output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Rows per register micro-tile.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) const MR: usize = 4;

/// Columns per register micro-tile (two 8-lane AVX vectors).
pub(crate) const NR: usize = 16;

/// Runtime kill-switch for the micro-kernels. Defaults to on; the
/// `NSHD_SIMD=0` environment override or [`set_simd_enabled`] turn it
/// off so the scalar reference serves instead.
static SIMD_RUNTIME: AtomicBool = AtomicBool::new(true);

/// Applies the `NSHD_SIMD` environment override exactly once, before
/// the first read or explicit override of the runtime flag.
fn apply_env_default() {
    static ENV_APPLIED: OnceLock<()> = OnceLock::new();
    ENV_APPLIED.get_or_init(|| {
        if std::env::var("NSHD_SIMD").is_ok_and(|v| v == "0") {
            SIMD_RUNTIME.store(false, Ordering::Relaxed);
        }
    });
}

fn runtime_flag() -> bool {
    apply_env_default();
    SIMD_RUNTIME.load(Ordering::Relaxed)
}

/// Whether GEMM dispatch will select the AVX2 micro-kernels for the
/// next call: requires the `simd` cargo feature, an x86-64 CPU that
/// reports AVX2, and the runtime flag (`NSHD_SIMD`,
/// [`set_simd_enabled`]).
#[must_use]
pub fn simd_enabled() -> bool {
    runtime_flag() && avx2_available()
}

/// Whether the micro-kernels are compiled in *and* the CPU supports
/// them, ignoring the runtime flag.
#[must_use]
pub fn simd_available() -> bool {
    avx2_available()
}

/// Turns the micro-kernels on or off at runtime, process-wide.
///
/// Exists for the differential conformance suite, which runs every GEMM
/// shape through both backends. Flipping the flag mid-run is benign
/// because the backends are bit-identical and dispatch is decided once
/// per call.
pub fn set_simd_enabled(on: bool) {
    apply_env_default();
    SIMD_RUNTIME.store(on, Ordering::Relaxed);
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn avx2_available() -> bool {
    false
}

/// A right-hand GEMM operand `B` (`k`×`n`) packed once into 16-column
/// panels, the layout the micro-kernels stream.
///
/// Panel `pj` holds columns `pj*NR .. (pj+1)*NR` in p-major order; the
/// last panel is padded to `NR` columns and the kernels drop the pad
/// columns from the output. A panel row is stored in one of two forms:
///
/// - **f32** ([`from_rows`](PackedRhs::from_rows),
///   [`from_columns`](PackedRhs::from_columns)): the `NR` values
///   themselves, a pure copy of `B`;
/// - **sign** ([`from_sign_rows`](PackedRhs::from_sign_rows)): a ±1
///   matrix kept as `NR` sign bits per panel row, 32× smaller. Each
///   byte selects one 8-lane row of ±1.0 from a 256-entry table, so the
///   kernels multiply by exactly the `±1.0` the f32 form would hold.
///
/// Either way every output element sees the same float sequence as the
/// scalar reference on the unpacked `B`, so a product through a packed
/// operand is **bit-identical** to [`matmul`](crate::matmul) on the
/// equivalent row-major matrix. Packing `B` once and reusing it is what
/// lets a constant operand (a projection basis, a class memory) skip
/// the per-call copy [`matmul`](crate::matmul) makes.
#[derive(Clone)]
pub struct PackedRhs {
    k: usize,
    n: usize,
    panels: Panels,
}

/// The two panel-row forms of a [`PackedRhs`], both indexed
/// `[pj * k + p]`.
#[derive(Clone)]
pub(crate) enum Panels {
    /// The row's `NR` values as two 8-lane halves.
    F32(Vec<[[f32; 8]; 2]>),
    /// The row's `NR` signs, bit `jj` set for `+1.0`.
    Sign(Vec<u16>),
}

impl PackedRhs {
    /// Packs the row-major `k`×`n` matrix `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    #[must_use]
    pub fn from_rows(k: usize, n: usize, b: &[f32]) -> Self {
        let mut packed = PackedRhs::empty();
        packed.repack_rows(k, n, b);
        packed
    }

    /// A 0×0 operand holding no storage: the starting point of a pack
    /// that [`matmul_slice_into`](crate::matmul_slice_into) refills and
    /// reuses.
    #[must_use]
    pub fn empty() -> Self {
        PackedRhs { k: 0, n: 0, panels: Panels::F32(Vec::new()) }
    }

    /// Repacks `self` from the row-major `k`×`n` matrix `b`, reusing
    /// its panel storage: the in-place form of
    /// [`from_rows`](PackedRhs::from_rows), which allocates nothing once
    /// the storage has grown to the operand's size.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub(crate) fn repack_rows(&mut self, k: usize, n: usize, b: &[f32]) {
        assert_eq!(b.len(), k * n, "PackedRhs::repack_rows expects a {k}×{n} matrix");
        let rows = match &mut self.panels {
            Panels::F32(rows) => std::mem::take(rows),
            Panels::Sign(_) => Vec::new(),
        };
        *self = Self::pack_f32(rows, k, n, |p, j0, out| {
            let src = &b[p * n + j0..];
            match out.first_chunk_mut::<NR>() {
                // Fixed-size copy for full panels: no `memcpy` call.
                Some(full) => full.copy_from_slice(&src[..NR]),
                None => out.copy_from_slice(&src[..out.len()]),
            }
        });
    }

    /// Packs `B` from its transpose: `bt` is row-major `n`×`k`, row `j`
    /// holding column `j` of `B` — the layout of `A · Bᵀ` operands such
    /// as a class memory scored against query rows.
    ///
    /// # Panics
    ///
    /// Panics if `bt.len() != n * k`.
    #[must_use]
    pub fn from_columns(k: usize, n: usize, bt: &[f32]) -> Self {
        assert_eq!(bt.len(), n * k, "PackedRhs::from_columns expects an {n}×{k} matrix");
        Self::pack_f32(Vec::new(), k, n, |p, j0, out| {
            for (jj, v) in out.iter_mut().enumerate() {
                *v = bt[(j0 + jj) * k + p];
            }
        })
    }

    /// Builds the f32 form in `rows`' storage: `fill(p, j0, out)` writes
    /// `B[p][j0..]` into the `out.len()` valid columns of one panel row.
    /// Every element is written (pad columns as zero), so stale contents
    /// of reused storage never reach a product.
    fn pack_f32(
        mut rows: Vec<[[f32; 8]; 2]>,
        k: usize,
        n: usize,
        fill: impl Fn(usize, usize, &mut [f32]),
    ) -> Self {
        let np = n.div_ceil(NR);
        rows.resize(np * k, [[0.0f32; 8]; 2]);
        for (pj, panel) in rows.chunks_exact_mut(k.max(1)).take(np).enumerate() {
            let j0 = pj * NR;
            let width = NR.min(n - j0);
            for (p, row) in panel.iter_mut().enumerate() {
                let (valid, pad) = row.as_flattened_mut().split_at_mut(width);
                fill(p, j0, valid);
                pad.fill(0.0);
            }
        }
        PackedRhs { k, n, panels: Panels::F32(rows) }
    }

    /// Packs a ±1 matrix from its sign bits: `rows[p]` is row `p` of `B`
    /// as little-endian `u64` words, bit `j` set for `B[p][j] = +1.0`
    /// and clear for `-1.0` (bits past `n` are ignored). `k` is
    /// `rows.len()`.
    ///
    /// # Panics
    ///
    /// Panics if a row holds fewer than `n` bits.
    #[must_use]
    pub fn from_sign_rows<R: AsRef<[u64]>>(n: usize, rows: &[R]) -> Self {
        let k = rows.len();
        let np = n.div_ceil(NR);
        let mut bits = vec![0u16; np * k];
        for (p, row) in rows.iter().enumerate() {
            let words = row.as_ref();
            assert!(words.len() * 64 >= n, "sign row {p} holds fewer than {n} bits");
            for pj in 0..np {
                let bit = pj * NR;
                // NR divides 64, so a panel row never straddles two words.
                bits[pj * k + p] = (words[bit / 64] >> (bit % 64)) as u16;
            }
        }
        PackedRhs { k, n, panels: Panels::Sign(bits) }
    }

    /// Inner dimension `k` (rows of `B`).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width `n` (columns of `B`).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes the packed panels occupy.
    pub(crate) fn bytes(&self) -> usize {
        match &self.panels {
            Panels::F32(rows) => std::mem::size_of_val(rows.as_slice()),
            Panels::Sign(bits) => std::mem::size_of_val(bits.as_slice()),
        }
    }

    pub(crate) fn panels(&self) -> &Panels {
        &self.panels
    }
}

impl std::fmt::Debug for PackedRhs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let form = match self.panels {
            Panels::F32(_) => "f32",
            Panels::Sign(_) => "sign",
        };
        f.debug_struct("PackedRhs")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("form", &form)
            .finish()
    }
}

/// One stored panel row: the micro-kernels and the scalar panel loop
/// are generic over it, so both [`PackedRhs`] forms run through one set
/// of kernels. A panel is a slice of `k` rows, `p` ascending.
pub(crate) trait PanelRow: Sync {
    /// The row's `NR` values as two 8-lane halves.
    fn halves(&self) -> (&[f32; 8], &[f32; 8]);
}

impl PanelRow for [[f32; 8]; 2] {
    #[inline]
    fn halves(&self) -> (&[f32; 8], &[f32; 8]) {
        (&self[0], &self[1])
    }
}

/// A sign row: each byte expanded through [`SIGNS`].
impl PanelRow for u16 {
    #[inline]
    fn halves(&self) -> (&[f32; 8], &[f32; 8]) {
        (&SIGNS.0[usize::from(self & 0xff)], &SIGNS.0[usize::from(self >> 8)])
    }
}

/// `SIGNS.0[b][l]` is `+1.0` when bit `l` of `b` is set and `-1.0`
/// otherwise: one byte of a sign panel row as an 8-lane B vector.
/// 32-byte aligned so every entry is one aligned `ymm` load.
#[repr(C, align(32))]
struct SignTable([[f32; 8]; 256]);

static SIGNS: SignTable = SignTable(sign_table());

const fn sign_table() -> [[f32; 8]; 256] {
    let mut table = [[-1.0f32; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut l = 0;
        while l < 8 {
            if (b >> l) & 1 == 1 {
                table[b][l] = 1.0;
            }
            l += 1;
        }
        b += 1;
    }
    table
}

/// Copies `rows` rows of `c` (row stride `n`), columns `j0..j0 + width`,
/// into the `NR`-stride `tile`, zeroing its pad columns — the
/// destination the kernels accumulate into for the last, partial panel.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn load_tile(c: &[f32], n: usize, rows: usize, j0: usize, width: usize, tile: &mut [f32]) {
    tile.fill(0.0);
    for r in 0..rows {
        tile[r * NR..r * NR + width].copy_from_slice(&c[r * n + j0..r * n + j0 + width]);
    }
}

/// Writes the valid columns of a [`load_tile`] tile back into `c`,
/// dropping the pad columns.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn store_tile(tile: &[f32], rows: usize, j0: usize, width: usize, n: usize, c: &mut [f32]) {
    for r in 0..rows {
        c[r * n + j0..r * n + j0 + width].copy_from_slice(&tile[r * NR..r * NR + width]);
    }
}

/// Micro-kernel GEMM over one row chunk: `c += a · B`, with `a` a
/// row-major `m`×`k` block, `b` the panels of the packed `k`×`n`
/// operand, and `c` the `m`×`n` destination. Full panels accumulate
/// straight into `c`; the last, partial panel accumulates into an
/// `NR`-wide scratch tile whose pad columns are dropped. Per-element
/// float sequence is identical to the scalar reference.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn gemm_avx2<R: PanelRow>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[R],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    if k == 0 {
        // No terms: `c` is already the sum.
        return;
    }
    let mut apanel = vec![0.0f32; k * MR];
    let mut tile = [0.0f32; MR * NR];
    let full_rows = m - m % MR;
    let mut i0 = 0;
    while i0 < full_rows {
        // Repack the A tile p-major (`apanel[p * MR + r]`) so the
        // kernel broadcast-streams it. Pure copy, like the B packing.
        for p in 0..k {
            for r in 0..MR {
                apanel[p * MR + r] = a[(i0 + r) * k + p];
            }
        }
        let crows = &mut c[i0 * n..(i0 + MR) * n];
        for (pj, bpanel) in b.chunks_exact(k).enumerate() {
            let (j0, width) = (pj * NR, NR.min(n - pj * NR));
            let padded = width < NR;
            let (ctile, stride) = if padded {
                load_tile(crows, n, MR, j0, width, &mut tile);
                (&mut tile[..], NR)
            } else {
                (&mut crows[j0..], n)
            };
            // SAFETY: dispatch (`simd_enabled`) verified AVX2 at runtime
            // before selecting this path, and `ctile` spans at least
            // `(MR - 1) * stride + NR` elements (a full panel of `MR`
            // rows of `c`, or the `MR`×`NR` scratch tile) — the kernel's
            // documented preconditions.
            unsafe { kernel_4x16(stride, &apanel, bpanel, ctile) }
            if padded {
                store_tile(&tile, MR, j0, width, n, crows);
            }
        }
        i0 += MR;
    }
    for i in full_rows..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (pj, bpanel) in b.chunks_exact(k).enumerate() {
            let (j0, width) = (pj * NR, NR.min(n - pj * NR));
            let padded = width < NR;
            let ctile = if padded {
                load_tile(crow, n, 1, j0, width, &mut tile);
                &mut tile[..]
            } else {
                &mut crow[j0..]
            };
            // SAFETY: same dispatch guarantee as above, and `ctile`
            // spans at least `NR` elements (a full panel of `c`'s row or
            // the scratch tile).
            unsafe { kernel_1x16(arow, bpanel, ctile) }
            if padded {
                store_tile(&tile, 1, j0, width, n, crow);
            }
        }
    }
}

/// Scalar-build stub; never reached because [`simd_enabled`] is `false`
/// when the micro-kernels are compiled out.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn gemm_avx2<R: PanelRow>(
    _m: usize,
    _k: usize,
    _n: usize,
    _a: &[f32],
    _b: &[R],
    _c: &mut [f32],
) {
    unreachable!("micro-kernels compiled out");
}

/// Dispatched `c += aip * b` for `matmul_at` rank-1 row updates.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn axpy(aip: f32, b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(b.len(), c.len());
    // SAFETY: callers select this path only after `simd_enabled`
    // verified AVX2 at runtime; the slices have equal length, which is
    // all the kernel requires.
    unsafe { axpy_kernel(aip, b, c) }
}

/// Scalar-build stub; never reached because [`simd_enabled`] is `false`
/// when the micro-kernels are compiled out.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn axpy(_aip: f32, _b: &[f32], _c: &mut [f32]) {
    unreachable!("micro-kernels compiled out");
}

/// 4×16 register micro-tile:
/// `ctile[r * n + jj] += Σ_p apanel[p * MR + r] * B[p][jj]` for
/// `r < MR`, `jj < NR`, with `B`'s row `p` read from `bpanel[p]` (an
/// f32 row, or a sign row expanded through [`SIGNS`]), `p` ascending,
/// separate round-to-nearest multiply and add (no FMA contraction),
/// and the reference's `a == 0.0` skip per `(r, p)` — bit-identical to
/// the scalar loop. `n` is `ctile`'s row stride.
///
/// The product runs over the rows of `bpanel` and the `MR`-wide tiles
/// of `apanel` in step, stopping at the shorter of the two.
///
/// # Safety
///
/// Caller must have verified AVX2 support and pass `ctile` spanning at
/// least `(MR - 1) * n + NR` elements.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
// SAFETY: declaration carries the caller contract spelled out above —
// AVX2 verified by the dispatcher plus the slice-extent preconditions.
unsafe fn kernel_4x16<R: PanelRow>(n: usize, apanel: &[f32], bpanel: &[R], ctile: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let cp = ctile.as_mut_ptr();
    // Accumulators start from the destination tile, so `c +=` semantics
    // and the element's full addition sequence match the reference.
    let mut acc0a = _mm256_loadu_ps(cp);
    let mut acc0b = _mm256_loadu_ps(cp.add(8));
    let mut acc1a = _mm256_loadu_ps(cp.add(n));
    let mut acc1b = _mm256_loadu_ps(cp.add(n + 8));
    let mut acc2a = _mm256_loadu_ps(cp.add(2 * n));
    let mut acc2b = _mm256_loadu_ps(cp.add(2 * n + 8));
    let mut acc3a = _mm256_loadu_ps(cp.add(3 * n));
    let mut acc3b = _mm256_loadu_ps(cp.add(3 * n + 8));
    let (atiles, _) = apanel.as_chunks::<MR>();
    // Zipping two slices keeps one induction variable in the loop.
    for (&[a0, a1, a2, a3], row) in atiles.iter().zip(bpanel) {
        let (lo, hi) = row.halves();
        let b0 = _mm256_loadu_ps(lo.as_ptr());
        let b1 = _mm256_loadu_ps(hi.as_ptr());
        if a0 != 0.0 {
            let av = _mm256_set1_ps(a0);
            acc0a = _mm256_add_ps(acc0a, _mm256_mul_ps(av, b0));
            acc0b = _mm256_add_ps(acc0b, _mm256_mul_ps(av, b1));
        }
        if a1 != 0.0 {
            let av = _mm256_set1_ps(a1);
            acc1a = _mm256_add_ps(acc1a, _mm256_mul_ps(av, b0));
            acc1b = _mm256_add_ps(acc1b, _mm256_mul_ps(av, b1));
        }
        if a2 != 0.0 {
            let av = _mm256_set1_ps(a2);
            acc2a = _mm256_add_ps(acc2a, _mm256_mul_ps(av, b0));
            acc2b = _mm256_add_ps(acc2b, _mm256_mul_ps(av, b1));
        }
        if a3 != 0.0 {
            let av = _mm256_set1_ps(a3);
            acc3a = _mm256_add_ps(acc3a, _mm256_mul_ps(av, b0));
            acc3b = _mm256_add_ps(acc3b, _mm256_mul_ps(av, b1));
        }
    }
    _mm256_storeu_ps(cp, acc0a);
    _mm256_storeu_ps(cp.add(8), acc0b);
    _mm256_storeu_ps(cp.add(n), acc1a);
    _mm256_storeu_ps(cp.add(n + 8), acc1b);
    _mm256_storeu_ps(cp.add(2 * n), acc2a);
    _mm256_storeu_ps(cp.add(2 * n + 8), acc2b);
    _mm256_storeu_ps(cp.add(3 * n), acc3a);
    _mm256_storeu_ps(cp.add(3 * n + 8), acc3b);
}

/// 1×16 row-remainder micro-tile: same per-element float sequence as
/// [`kernel_4x16`] for a single row (`arow` is the raw `k`-element A
/// row, no repacking needed).
///
/// # Safety
///
/// Caller must have verified AVX2 support and pass `ctile` spanning at
/// least `NR` elements.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
// SAFETY: declaration carries the caller contract spelled out above —
// AVX2 verified by the dispatcher plus the slice-extent preconditions.
unsafe fn kernel_1x16<R: PanelRow>(arow: &[f32], bpanel: &[R], ctile: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let cp = ctile.as_mut_ptr();
    let mut acc_a = _mm256_loadu_ps(cp);
    let mut acc_b = _mm256_loadu_ps(cp.add(8));
    for (&aip, row) in arow.iter().zip(bpanel) {
        if aip == 0.0 {
            continue;
        }
        let (lo, hi) = row.halves();
        let av = _mm256_set1_ps(aip);
        let b0 = _mm256_loadu_ps(lo.as_ptr());
        let b1 = _mm256_loadu_ps(hi.as_ptr());
        acc_a = _mm256_add_ps(acc_a, _mm256_mul_ps(av, b0));
        acc_b = _mm256_add_ps(acc_b, _mm256_mul_ps(av, b1));
    }
    _mm256_storeu_ps(cp, acc_a);
    _mm256_storeu_ps(cp.add(8), acc_b);
}

/// 8-lane `c[j] += aip * b[j]` with a scalar tail: vectorizes the
/// independent per-column updates of `matmul_at`'s rank-1 step, leaving
/// each element's multiply-then-add sequence untouched.
///
/// # Safety
///
/// Caller must have verified AVX2 support and pass slices of equal
/// length.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
// SAFETY: declaration carries the caller contract spelled out above —
// AVX2 verified by the dispatcher plus equal slice lengths.
unsafe fn axpy_kernel(aip: f32, b: &[f32], c: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let len = c.len();
    let lanes = len - len % 8;
    let av = _mm256_set1_ps(aip);
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr();
    let mut j = 0;
    while j < lanes {
        let prod = _mm256_mul_ps(av, _mm256_loadu_ps(bp.add(j)));
        _mm256_storeu_ps(cp.add(j), _mm256_add_ps(_mm256_loadu_ps(cp.add(j)), prod));
        j += 8;
    }
    for jj in lanes..len {
        c[jj] += aip * b[jj];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_b_is_p_major_per_panel() {
        let k = 3;
        let n = NR + 5; // one full panel plus a ragged, padded one
        let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
        let packed = PackedRhs::from_rows(k, n, &b);
        let Panels::F32(rows) = packed.panels() else { panic!("f32 form expected") };
        assert_eq!(rows.len(), 2 * k);
        for (pj, panel) in rows.chunks_exact(k).enumerate() {
            for (p, row) in panel.iter().enumerate() {
                for (jj, &v) in row.as_flattened().iter().enumerate() {
                    let j = pj * NR + jj;
                    let want = if j < n { b[p * n + j] } else { 0.0 };
                    assert_eq!(v, want, "panel {pj} row {p} lane {jj}");
                }
            }
        }
        // The transposed packer lays out the same panels.
        let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
        let Panels::F32(cols) = PackedRhs::from_columns(k, n, &bt).panels else {
            panic!("f32 form expected")
        };
        assert_eq!(&cols, rows);
    }

    #[test]
    fn pack_b_handles_narrow_and_empty_matrices() {
        let packed = PackedRhs::from_rows(4, 7, &[1.0; 28]);
        assert_eq!((packed.k(), packed.n()), (4, 7));
        assert_eq!(packed.bytes(), 4 * NR * 4, "one padded panel");
        let packed = PackedRhs::from_rows(0, NR, &[]);
        assert_eq!(packed.bytes(), 0);
        let packed = PackedRhs::from_rows(3, 0, &[]);
        assert_eq!(packed.bytes(), 0);
    }

    #[test]
    fn sign_panels_hold_sixteen_bits_per_row() {
        // Row p's bits 16·pj .. 16·pj + 16 become panel pj's row p.
        let rows = [vec![0x0123_4567_89ab_cdefu64, 0x1], vec![u64::MAX, 0]];
        let packed = PackedRhs::from_sign_rows(70, &rows);
        let Panels::Sign(bits) = packed.panels() else { panic!("sign form expected") };
        assert_eq!(packed.k(), 2);
        assert_eq!(
            bits.as_slice(),
            &[0xcdef, 0xffff, 0x89ab, 0xffff, 0x4567, 0xffff, 0x0123, 0xffff, 0x0001, 0x0000]
        );
        for (b, lanes) in SIGNS.0.iter().enumerate() {
            for (l, &v) in lanes.iter().enumerate() {
                assert_eq!(v, if b >> l & 1 == 1 { 1.0 } else { -1.0 });
            }
        }
        assert_eq!(std::ptr::addr_of!(SIGNS) as usize % 32, 0);
    }

    #[test]
    fn runtime_toggle_round_trips() {
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
        assert_eq!(simd_enabled(), simd_available());
    }
}
