//! Hypervector representations: dense bipolar and bit-packed binary.
//!
//! The paper's optimized GPGPU kernels exploit the binary-centric nature
//! of hypervectors (constant-memory bit storage, add/sub-by-sign instead
//! of multiplication). On CPU the analogous optimisation is `u64`
//! bit-packing with popcount similarity — [`PackedHv`]. The reference
//! (unpacked) representation is [`BipolarHv`] with `i8` components.

use std::fmt;

/// A dense bipolar hypervector with components in `{-1, +1}` stored as
/// `i8`.
///
/// # Examples
///
/// ```
/// use nshd_hdc::BipolarHv;
///
/// let h = BipolarHv::from_signs(&[1.0, -2.0, 0.5]);
/// assert_eq!(h.components(), &[1, -1, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BipolarHv {
    comps: Vec<i8>,
}

impl BipolarHv {
    /// Creates a hypervector from raw bipolar components.
    ///
    /// # Panics
    ///
    /// Panics if any component is not `-1` or `+1`.
    pub fn new(comps: Vec<i8>) -> Self {
        assert!(comps.iter().all(|&c| c == 1 || c == -1), "bipolar components must be ±1");
        BipolarHv { comps }
    }

    /// Creates a hypervector by taking the sign of each value (`sign(0)`
    /// maps to `+1`, a fixed tie-break that keeps encoding deterministic).
    pub fn from_signs(values: &[f32]) -> Self {
        BipolarHv { comps: values.iter().map(|&v| if v < 0.0 { -1i8 } else { 1 }).collect() }
    }

    /// Dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.comps.len()
    }

    /// Whether the hypervector has zero dimensions.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// The raw `±1` components.
    pub fn components(&self) -> &[i8] {
        &self.comps
    }

    /// Components widened to `f32` (for accumulation into dense class
    /// vectors).
    pub fn to_f32(&self) -> Vec<f32> {
        self.comps.iter().map(|&c| c as f32).collect()
    }

    /// Flips the sign of component `index` — the dense-side bit-flip used
    /// by fault injection ([`crate::FaultPlan`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn flip(&mut self, index: usize) {
        self.comps[index] = -self.comps[index];
    }

    /// Packs into the binary representation (`+1 → 1`, `-1 → 0`).
    pub fn to_packed(&self) -> PackedHv {
        let dim = self.comps.len();
        let mut words = vec![0u64; dim.div_ceil(64)];
        for (i, &c) in self.comps.iter().enumerate() {
            if c > 0 {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        PackedHv { words, dim }
    }
}

impl fmt::Debug for BipolarHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BipolarHv(dim={}, [", self.dim())?;
        for (i, c) in self.comps.iter().take(16).enumerate() {
            if i > 0 {
                write!(f, "")?;
            }
            write!(f, "{}", if *c > 0 { '+' } else { '-' })?;
        }
        if self.dim() > 16 {
            write!(f, "…")?;
        }
        write!(f, "])")
    }
}

/// `SPREAD[b]` holds byte `j` = `0xFF` where bit `j` of `b` is set and
/// `0x00` where it is clear (little-endian byte order), so one lookup
/// expands eight packed components.
static SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                table[b] |= 0xFF << (8 * j);
            }
            j += 1;
        }
        b += 1;
    }
    table
};

/// A binary hypervector packed 64 components per machine word
/// (`+1 → bit 1`, `-1 → bit 0`).
///
/// Dot products become XNOR + popcount: for bipolar vectors,
/// `dot = D − 2·hamming`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedHv {
    words: Vec<u64>,
    dim: usize,
}

impl PackedHv {
    /// Creates a packed hypervector from raw words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `ceil(dim/64)` long or padding
    /// bits beyond `dim` are set.
    pub fn new(words: Vec<u64>, dim: usize) -> Self {
        assert_eq!(words.len(), dim.div_ceil(64), "word count must match dimension");
        if !dim.is_multiple_of(64) {
            let mask = !0u64 << (dim % 64);
            assert_eq!(
                words.last().copied().unwrap_or(0) & mask,
                0,
                "padding bits beyond dim must be zero"
            );
        }
        PackedHv { words, dim }
    }

    /// Dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words (`ceil(dim/64)` of them; unused high bits are 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bit (as `±1`) at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn sign_at(&self, index: usize) -> i8 {
        assert!(index < self.dim);
        if self.words[index / 64] >> (index % 64) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Flips the bit at `index` — the packed-word single-event-upset used
    /// by fault injection ([`crate::FaultPlan`]). Padding bits beyond
    /// `dim` are unreachable, so the class invariant is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn flip_bit(&mut self, index: usize) {
        assert!(index < self.dim, "bit index out of range");
        self.words[index / 64] ^= 1u64 << (index % 64);
    }

    /// Unpacks to the dense bipolar representation.
    pub fn to_bipolar(&self) -> BipolarHv {
        let mut comps = vec![0i8; self.dim];
        self.expand_into(&mut comps, 1, -1);
        BipolarHv { comps }
    }

    /// Writes one byte per component into `out`: `set` where the bit is
    /// 1, `clear` where it is 0. Expands eight bits at a time through
    /// [`SPREAD`]; the last word's padding bits are never written out.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim`.
    pub(crate) fn expand_into(&self, out: &mut [i8], set: i8, clear: i8) {
        assert_eq!(out.len(), self.dim, "dimension mismatch");
        let set = u64::from_ne_bytes([set as u8; 8]);
        let clear = u64::from_ne_bytes([clear as u8; 8]);
        // The eight components of the low byte of `bits`.
        let lanes = |bits: u64| {
            let spread = SPREAD[(bits & 0xFF) as usize];
            ((spread & set) | (!spread & clear)).to_le_bytes().map(|v| v as i8)
        };
        let (full, tail) = out.as_chunks_mut::<64>();
        for (chunk, &word) in full.iter_mut().zip(&self.words) {
            for (k, bytes) in chunk.as_chunks_mut::<8>().0.iter_mut().enumerate() {
                *bytes = lanes(word >> (8 * k));
            }
        }
        if let Some(&word) = self.words.get(full.len()) {
            for (k, bytes) in tail.chunks_mut(8).enumerate() {
                let n = bytes.len();
                bytes.copy_from_slice(&lanes(word >> (8 * k))[..n]);
            }
        }
    }

    /// Hamming distance to another packed hypervector.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hamming(&self, other: &PackedHv) -> u32 {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        self.words.iter().zip(other.words.iter()).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Bipolar dot product computed via popcount: `D − 2·hamming`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &PackedHv) -> i64 {
        self.dim as i64 - 2 * self.hamming(other) as i64
    }

    /// XOR-binding with another packed hypervector (equivalent to
    /// elementwise multiplication of bipolar vectors).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn bind(&self, other: &PackedHv) -> PackedHv {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        // XNOR preserves the +1·+1 = +1 convention: equal bits → 1.
        let mut words: Vec<u64> =
            self.words.iter().zip(other.words.iter()).map(|(a, b)| !(a ^ b)).collect();
        if !self.dim.is_multiple_of(64) {
            let last = words.len() - 1;
            words[last] &= (1u64 << (self.dim % 64)) - 1;
        }
        PackedHv { words, dim: self.dim }
    }
}

impl fmt::Debug for PackedHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PackedHv(dim={}, words={})", self.dim, self.words.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_signs_maps_zero_to_plus_one() {
        let h = BipolarHv::from_signs(&[0.0, -0.1, 3.0]);
        assert_eq!(h.components(), &[1, -1, 1]);
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn invalid_components_panic() {
        BipolarHv::new(vec![1, 0, -1]);
    }

    #[test]
    fn pack_unpack_round_trips() {
        // Whole words, and ragged last words of 1, 3, 63 and 8 bits.
        for dim in [1usize, 63, 64, 65, 131, 200] {
            let signs: Vec<f32> =
                (0..dim).map(|i| if (i * 7 + i / 5) % 3 == 0 { -1.0 } else { 1.0 }).collect();
            let h = BipolarHv::from_signs(&signs);
            let packed = h.to_packed();
            assert_eq!(packed.dim(), dim);
            assert_eq!(packed.to_bipolar(), h, "dim {dim}");
            for (i, &c) in h.components().iter().enumerate() {
                assert_eq!(packed.sign_at(i), c, "dim {dim} component {i}");
            }
        }
    }

    #[test]
    fn packed_dot_equals_dense_dot() {
        let a = BipolarHv::from_signs(
            &(0..100).map(|i| ((i * 7 % 5) as f32) - 2.0).collect::<Vec<_>>(),
        );
        let b = BipolarHv::from_signs(
            &(0..100).map(|i| ((i * 3 % 7) as f32) - 3.0).collect::<Vec<_>>(),
        );
        let dense_dot: i64 =
            a.components().iter().zip(b.components()).map(|(&x, &y)| (x as i64) * (y as i64)).sum();
        assert_eq!(a.to_packed().dot(&b.to_packed()), dense_dot);
    }

    #[test]
    fn self_dot_is_dim_and_hamming_zero() {
        let h = BipolarHv::from_signs(&(0..77).map(|i| (i as f32) - 38.0).collect::<Vec<_>>());
        let p = h.to_packed();
        assert_eq!(p.dot(&p), 77);
        assert_eq!(p.hamming(&p), 0);
    }

    #[test]
    fn xor_bind_matches_bipolar_multiplication() {
        let a = BipolarHv::from_signs(&(0..70).map(|i| ((i % 2) as f32) - 0.5).collect::<Vec<_>>());
        let b = BipolarHv::from_signs(&(0..70).map(|i| ((i % 3) as f32) - 1.0).collect::<Vec<_>>());
        let bound = a.to_packed().bind(&b.to_packed()).to_bipolar();
        for i in 0..70 {
            assert_eq!(
                bound.components()[i],
                a.components()[i] * b.components()[i],
                "component {i}"
            );
        }
    }

    #[test]
    fn bind_is_self_inverse() {
        let a = BipolarHv::from_signs(
            &(0..64).map(|i| ((i * 13 % 3) as f32) - 1.0).collect::<Vec<_>>(),
        );
        let b = BipolarHv::from_signs(
            &(0..64).map(|i| ((i * 11 % 5) as f32) - 2.0).collect::<Vec<_>>(),
        );
        let pa = a.to_packed();
        let pb = b.to_packed();
        assert_eq!(pa.bind(&pb).bind(&pb), pa);
    }

    #[test]
    fn padding_bits_stay_clear_after_bind() {
        let a = BipolarHv::from_signs(&vec![-1.0; 70]).to_packed();
        let b = BipolarHv::from_signs(&vec![-1.0; 70]).to_packed();
        let bound = a.bind(&b); // (-1)·(-1) = +1 everywhere
        assert_eq!(bound.to_bipolar().components(), &vec![1i8; 70][..]);
        // Reconstruct through new() to assert padding invariant.
        let _ = PackedHv::new(bound.words().to_vec(), 70);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = BipolarHv::from_signs(&vec![1.0; 64]).to_packed();
        let b = BipolarHv::from_signs(&vec![1.0; 65]).to_packed();
        a.dot(&b);
    }
}
