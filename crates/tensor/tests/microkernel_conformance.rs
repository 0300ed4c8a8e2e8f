//! Differential kernel-conformance suite for the GEMM micro-kernels.
//!
//! The numeric contract of every GEMM orientation is: each output
//! element is one f32 accumulator whose terms are added in ascending
//! inner-product (`p`) order, each term a separate round-to-nearest
//! multiply then add, with `a == 0.0` terms skipped. This suite spells
//! that contract out as naive reference loops, then proves that the
//! shipped kernels — scalar cache-blocked reference *and* AVX2
//! micro-kernels — reproduce it to `to_bits` equality across:
//!
//! - a shape grid with ragged M/N/K, sizes below/at/above the 4×16
//!   register tile and the 64-wide cache block, empty dims, and K = 1;
//! - SIMD on × off (runtime toggle; on x86-64 with AVX2 this flips the
//!   real micro-kernel path, elsewhere both legs run the scalar loop);
//! - worker counts 1 and 4 via `par::with_threads` (the same override
//!   `NSHD_THREADS` applies process-wide).
//!
//! Inputs are seeded and salted with exact `0.0`/`-0.0` entries so the
//! zero-skip branch is exercised on every shape.
//!
//! Pre-packed operands ([`PackedRhs`]) are held to the same contract:
//! `matmul_packed` through an f32 operand must equal the reference on
//! the matrix it was packed from, and through a sign operand must equal
//! `matmul` on the unpacked ±1.0 matrix.

use std::sync::Mutex;

use nshd_tensor::{
    matmul, matmul_at, matmul_bt, matmul_bt_into, matmul_into, matmul_packed, par,
    set_simd_enabled, simd_available, simd_enabled, PackedRhs, Tensor,
};

/// Shape grid: (m, k, n) for `matmul`; the bt/at variants derive their
/// operand shapes from the same triple.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 5, 7),     // empty M
    (3, 0, 7),     // empty K: all-zero output
    (3, 5, 0),     // empty N: empty output, no kernel dispatch
    (0, 0, 0),     // fully empty
    (1, 1, 1),     // minimal
    (7, 1, 19),    // K = 1
    (2, 3, 15),    // below every tile edge
    (4, 8, 16),    // exactly one 4×16 register tile
    (5, 9, 17),    // one past each register-tile edge
    (8, 16, 32),   // whole register tiles, several panels
    (13, 33, 47),  // ragged in every dimension
    (16, 64, 80),  // at the 64-wide cache-block edge in K
    (65, 64, 66),  // past the cache block in M/N; large enough to go parallel
    (12, 130, 40), // K spanning two cache blocks plus a tail
    (40, 70, 100), // large enough to go parallel with ragged K
];

/// The global SIMD toggle is process-wide; serialize the tests that flip
/// it so the harness's default test parallelism cannot interleave them.
static TOGGLE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TOGGLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Seeded matrix with exact ±0.0 entries sprinkled in to exercise the
/// kernels' zero-skip branch.
fn seeded(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Tensor::from_fn([rows, cols], |i| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = (state >> 33) as f32 / (1u64 << 31) as f32 - 1.0;
        match i % 13 {
            0 => 0.0,
            7 => -0.0,
            _ => r,
        }
    })
}

/// The contract, verbatim: single accumulator, ascending p, separate
/// multiply and add, `a == 0.0` skip.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let (av, bv) = (a.as_slice(), b.as_slice());
    Tensor::from_fn([m, n], |idx| {
        let (i, j) = (idx / n.max(1), idx % n.max(1));
        let mut acc = 0.0f32;
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == 0.0 {
                continue;
            }
            acc += aip * bv[p * n + j];
        }
        acc
    })
}

/// `A · Bᵀ` under the same contract (`b` is `n×k`).
fn naive_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[0];
    let (av, bv) = (a.as_slice(), b.as_slice());
    Tensor::from_fn([m, n], |idx| {
        let (i, j) = (idx / n.max(1), idx % n.max(1));
        let mut acc = 0.0f32;
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == 0.0 {
                continue;
            }
            acc += aip * bv[j * k + p];
        }
        acc
    })
}

/// `Aᵀ · B` under the same contract (`a` is `k×m`).
fn naive_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let (av, bv) = (a.as_slice(), b.as_slice());
    Tensor::from_fn([m, n], |idx| {
        let (i, j) = (idx / n.max(1), idx % n.max(1));
        let mut acc = 0.0f32;
        for p in 0..k {
            let aip = av[p * m + i];
            if aip == 0.0 {
                continue;
            }
            acc += aip * bv[p * n + j];
        }
        acc
    })
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape mismatch");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs: {g} ({:#010x}) vs {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs `check` under every (threads × SIMD) configuration, labelling
/// failures with the configuration that produced them.
fn for_each_config(check: impl Fn(&str)) {
    for &threads in &[1usize, 4] {
        for &simd_on in &[false, true] {
            set_simd_enabled(simd_on);
            let label = format!(
                "threads={threads} simd_requested={simd_on} simd_active={}",
                simd_enabled()
            );
            par::with_threads(threads, || check(&label));
        }
    }
    set_simd_enabled(true);
}

#[test]
fn matmul_matches_reference_on_grid() {
    let _g = lock();
    for &(m, k, n) in SHAPES {
        let a = seeded(m, k, (m * 131 + k * 17 + n) as u64);
        let b = seeded(k, n, (m + k * 31 + n * 151) as u64 ^ 0xDEAD);
        let want = naive_matmul(&a, &b);
        for_each_config(|label| {
            let got = matmul(&a, &b);
            assert_bits_eq(&got, &want, &format!("matmul {m}x{k}x{n} [{label}]"));
            let mut out = Tensor::full([m, n], f32::NAN);
            matmul_into(&a, &b, &mut out);
            assert_bits_eq(&out, &want, &format!("matmul_into {m}x{k}x{n} [{label}]"));
        });
    }
}

#[test]
fn matmul_bt_matches_reference_on_grid() {
    let _g = lock();
    for &(m, k, n) in SHAPES {
        let a = seeded(m, k, (m * 37 + k + n * 11) as u64 ^ 0xBEEF);
        let b = seeded(n, k, (m * 5 + k * 43 + n) as u64 ^ 0xF00D);
        let want = naive_bt(&a, &b);
        for_each_config(|label| {
            let got = matmul_bt(&a, &b);
            assert_bits_eq(&got, &want, &format!("matmul_bt {m}x{k}x{n} [{label}]"));
            let mut out = Tensor::full([m, n], f32::NAN);
            matmul_bt_into(&a, &b, &mut out);
            assert_bits_eq(&out, &want, &format!("matmul_bt_into {m}x{k}x{n} [{label}]"));
        });
    }
}

#[test]
fn matmul_at_matches_reference_on_grid() {
    let _g = lock();
    for &(m, k, n) in SHAPES {
        let a = seeded(k, m, (m + k * 3 + n * 71) as u64 ^ 0xCAFE);
        let b = seeded(k, n, (m * 19 + k * 7 + n) as u64 ^ 0xBABE);
        let want = naive_at(&a, &b);
        for_each_config(|label| {
            let got = matmul_at(&a, &b);
            assert_bits_eq(&got, &want, &format!("matmul_at {m}x{k}x{n} [{label}]"));
        });
    }
}

#[test]
fn f32_operand_matches_reference_on_grid() {
    let _g = lock();
    for &(m, k, n) in SHAPES {
        let a = seeded(m, k, (m * 7 + k * 61 + n) as u64 ^ 0xACE);
        let b = seeded(k, n, (m + k * 13 + n * 29) as u64 ^ 0xD1CE);
        let want = naive_matmul(&a, &b);
        let rows = PackedRhs::from_rows(k, n, b.as_slice());
        let cols = PackedRhs::from_columns(k, n, b.transposed().as_slice());
        for_each_config(|label| {
            let what = format!("{m}x{k}x{n} [{label}]");
            assert_bits_eq(&matmul_packed(&a, &rows), &want, &format!("from_rows {what}"));
            assert_bits_eq(&matmul_packed(&a, &cols), &want, &format!("from_columns {what}"));
        });
    }
}

/// Seeded sign rows: `k` rows of `n` bits as `u64` words, with random
/// bits past `n` too (the packer must ignore them).
fn sign_words(k: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..k)
        .map(|_| {
            (0..n.div_ceil(64))
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect()
        })
        .collect()
}

#[test]
fn sign_operand_matches_matmul_on_unpacked_signs() {
    let _g = lock();
    for &m in &[1usize, 3, 4, 5, 8] {
        for &n in &[1usize, 8, 15, 16, 17, 130, 3000] {
            for &k in &[0usize, 1, 37, 70] {
                let a = seeded(m, k, (m * 97 + k * 7 + n) as u64 ^ 0x5167);
                let words = sign_words(k, n, (m + 11 * k + 131 * n) as u64);
                let signs = Tensor::from_fn([k, n], |i| {
                    let (p, j) = (i / n, i % n);
                    if words[p][j / 64] >> (j % 64) & 1 == 1 {
                        1.0
                    } else {
                        -1.0
                    }
                });
                let want = naive_matmul(&a, &signs);
                let packed = PackedRhs::from_sign_rows(n, &words);
                assert_eq!((packed.k(), packed.n()), (k, n));
                for_each_config(|label| {
                    let what = format!("{m}x{k}x{n} [{label}]");
                    let got = matmul_packed(&a, &packed);
                    assert_bits_eq(&got, &matmul(&a, &signs), &format!("sign operand {what}"));
                    assert_bits_eq(&got, &want, &format!("sign operand vs contract {what}"));
                });
            }
        }
    }
}

#[test]
fn transposed_sign_operand_multiplies_by_the_transpose() {
    let _g = lock();
    for &k in &[1usize, 15, 16, 17, 70, 130] {
        for &n in &[1usize, 16, 17, 100] {
            let words = sign_words(k, n, (k * 31 + n) as u64);
            let signs_t = Tensor::from_fn([n, k], |i| {
                let (j, p) = (i / k, i % k);
                if words[p][j / 64] >> (j % 64) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                }
            });
            let transposed = PackedRhs::from_sign_rows(n, &words).transposed_signs();
            assert_eq!((transposed.k(), transposed.n()), (n, k));
            for &m in &[1usize, 5] {
                let a = seeded(m, n, (m * 13 + n * 7 + k) as u64);
                for_each_config(|label| {
                    let got = matmul_packed(&a, &transposed);
                    let what = format!("{m}x{n}x{k} [{label}]");
                    assert_bits_eq(&got, &matmul(&a, &signs_t), &format!("transposed {what}"));
                });
            }
        }
    }
}

#[test]
fn simd_and_scalar_backends_are_bit_identical_directly() {
    let _g = lock();
    // Redundant with the grid tests in principle, but this states the
    // headline claim in one place: flipping the backend changes nothing.
    let a = seeded(33, 65, 1);
    let b = seeded(65, 49, 2);
    set_simd_enabled(false);
    let scalar = matmul(&a, &b);
    set_simd_enabled(true);
    let dispatched = matmul(&a, &b);
    assert_bits_eq(&dispatched, &scalar, "backend flip");
    // When the micro-kernels can run, make sure the comparison above
    // actually crossed backends rather than testing scalar twice.
    if simd_available() {
        assert!(simd_enabled(), "runtime toggle should re-enable SIMD");
    }
    set_simd_enabled(true);
}
