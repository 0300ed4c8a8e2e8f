//! Random-projection encoding — the paper's Φ_P — and its decoding
//! adjoint used by the manifold-learner backward pass.

use crate::hypervector::{BipolarHv, PackedHv};
use nshd_tensor::{matmul_packed, par, PackedRhs, Rng, Tensor};
use std::sync::{Arc, OnceLock};

/// A seeded bipolar random-projection encoder.
///
/// Holds one random bipolar *base hypervector* `P_f ∈ {±1}^D` per input
/// feature, drawn from the seed. Encoding is `H = sign(Σ_f v_f ⊗ P_f)`:
/// binding each feature value to its base vector and bundling.
///
/// The basis is kept only as a GEMM sign operand of the tensor crate
/// ([`PackedRhs::from_sign_rows`], 16 sign bits per panel row: the
/// paper's constant-memory binary layout): `P` (`F` rows of `D` signs)
/// for encoding, shared by `Arc` with every [`BatchEncoder`], and `Pᵀ`
/// (`D` rows of `F` signs, [`PackedRhs::transposed_signs`]) for decoding,
/// built on the first [`decode`](RandomProjection::decode). A single sample is an `m = 1`
/// product against them, so per-sample training runs the same
/// micro-kernels as batched serving. Each term is `x · (±1.0)`, which is
/// exact, and each sum runs in ascending order from `+0.0`, so the
/// results are bit-identical to adding or subtracting each value by its
/// sign bit.
///
/// # Examples
///
/// ```
/// use nshd_hdc::RandomProjection;
///
/// let proj = RandomProjection::new(16, 1024, 42);
/// let hv = proj.encode(&vec![0.5; 16]);
/// assert_eq!(hv.dim(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct RandomProjection {
    features: usize,
    dim: usize,
    seed: u64,
    /// The `F×D` basis as a GEMM sign operand, row `f` = `P_f`.
    signs: Arc<PackedRhs>,
    /// The `D×F` transpose, compiled on the first decode.
    signs_t: OnceLock<PackedRhs>,
}

impl RandomProjection {
    /// Creates a projection for `features` inputs into `dim`-dimensional
    /// hyperspace, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `dim == 0`.
    pub fn new(features: usize, dim: usize, seed: u64) -> Self {
        assert!(features > 0 && dim > 0, "features and dim must be positive");
        let mut rng = Rng::new(seed);
        let rows: Vec<PackedHv> = (0..features)
            .map(|_| {
                let signs: Vec<f32> = (0..dim).map(|_| rng.bipolar()).collect();
                BipolarHv::from_signs(&signs).to_packed()
            })
            .collect();
        let words: Vec<&[u64]> = rows.iter().map(PackedHv::words).collect();
        let signs = Arc::new(PackedRhs::from_sign_rows(dim, &words));
        RandomProjection { features, dim, seed, signs, signs_t: OnceLock::new() }
    }

    /// The seed this projection was built from (sufficient to
    /// reconstruct it exactly — seeded projections need not be stored).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of input features `F`.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The pre-sign accumulator `Σ_f v_f ⊗ P_f` (a dense `D`-vector).
    ///
    /// Exposed separately because the straight-through estimator needs the
    /// pre-binarisation activations. It is row 0 of
    /// [`BatchEncoder::encode_raw_batch`] for a one-row batch.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.features()`.
    pub fn encode_raw(&self, values: &[f32]) -> Vec<f32> {
        assert_eq!(values.len(), self.features, "feature count mismatch");
        // FLOPs are attributed by the nested matmul span; this span
        // names the stage.
        let _sp = nshd_obs::span("hd_encode");
        let row = Tensor::from_fn([1, self.features], |f| values[f]);
        matmul_packed(&row, &self.signs).into_vec()
    }

    /// Encodes a feature vector into a bipolar hypervector:
    /// `sign(encode_raw(values))`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.features()`.
    pub fn encode(&self, values: &[f32]) -> BipolarHv {
        BipolarHv::from_signs(&self.encode_raw(values))
    }

    /// Decodes a dense hyperspace vector back to feature space:
    /// `out_f = ⟨P_f, e⟩ / D` — the paper's HD decoding, which is the
    /// adjoint of `encode_raw` up to the `1/D` normalisation.
    ///
    /// Computed as `e · Pᵀ`, then scaled. The product skips exact-zero
    /// components of `e`, which the definition adds as `±0.0` terms.
    /// Skipping them is exact: each sum starts at `+0.0` and, under
    /// round-to-nearest, never becomes `−0.0`, and adding `±0.0` leaves
    /// every other value unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `hyper.len() != self.dim()`.
    pub fn decode(&self, hyper: &[f32]) -> Vec<f32> {
        assert_eq!(hyper.len(), self.dim, "hyperspace dimension mismatch");
        let _sp = nshd_obs::span("hd_decode");
        let inv_d = 1.0 / self.dim as f32;
        let row = Tensor::from_fn([1, self.dim], |d| hyper[d]);
        let signs_t = self.signs_t.get_or_init(|| self.signs.transposed_signs());
        let mut out = matmul_packed(&row, signs_t).into_vec();
        for s in &mut out {
            *s *= inv_d;
        }
        out
    }

    /// Builds the batched-GEMM encoder for this projection — see
    /// [`BatchEncoder`].
    pub fn batch_encoder(&self) -> BatchEncoder {
        BatchEncoder::new(self)
    }

    /// MACs per encoded sample under the paper's Fig. 5 convention
    /// (binding = one multiply–accumulate per feature per dimension).
    pub fn macs_per_encode(&self) -> u64 {
        (self.features * self.dim) as u64
    }

    /// Parameter count of the projection (one bipolar scalar per cell;
    /// Table II counts these as learning parameters).
    pub fn param_count(&self) -> usize {
        self.features * self.dim
    }
}

/// The batched form of [`RandomProjection`]: a whole batch of feature
/// vectors encodes as one register-tiled matrix product against the
/// projection's sign operand, which the encoder shares by `Arc`. No f32
/// copy of the basis is ever made.
///
/// `encode_raw_batch` is **bit-identical** to per-sample
/// [`RandomProjection::encode_raw`]: both are products against the same
/// operand, and the GEMM computes each output row independently of the
/// others, in the same order at any thread count. The serving runtime's
/// determinism guarantee rests on this equality.
///
/// # Examples
///
/// ```
/// use nshd_hdc::RandomProjection;
/// use nshd_tensor::Tensor;
///
/// let proj = RandomProjection::new(4, 256, 7);
/// let batch = proj.batch_encoder();
/// let values = Tensor::from_fn([3, 4], |i| (i as f32 * 0.3).sin());
/// let hvs = batch.encode_batch(&values);
/// assert_eq!(hvs.len(), 3);
/// assert_eq!(hvs[0], proj.encode(&values.as_slice()[..4]));
/// ```
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    features: usize,
    dim: usize,
    /// The projection's `F×D` sign operand, row `f` = `P_f`.
    signs: Arc<PackedRhs>,
}

impl BatchEncoder {
    /// Shares `proj`'s sign operand.
    pub fn new(proj: &RandomProjection) -> Self {
        BatchEncoder { features: proj.features, dim: proj.dim, signs: Arc::clone(&proj.signs) }
    }

    /// Number of input features `F`.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Pre-sign accumulators for a whole batch: `values · P` as an `N×D`
    /// tensor, row `i` bit-identical to `encode_raw` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not a rank-2 tensor with `F` columns.
    pub fn encode_raw_batch(&self, values: &Tensor) -> Tensor {
        let dims = values.dims();
        assert_eq!(dims.len(), 2, "BatchEncoder expects an N×F value matrix");
        assert_eq!(dims[1], self.features, "feature count mismatch");
        // FLOPs are attributed by the nested matmul span; this span only
        // names the stage.
        let _sp = nshd_obs::span("hd_encode");
        matmul_packed(values, &self.signs)
    }

    /// Encodes a whole batch of feature vectors into bipolar
    /// hypervectors: `sign(encode_raw_batch(values))` row by row.
    ///
    /// The per-sample sign-and-pack step is independent across rows, so
    /// large batches run it in parallel over the `nshd_tensor::par`
    /// worker set; each row is binarised by the same serial code either
    /// way, so results are identical at any thread count (and the GEMM
    /// underneath is itself bit-exact row-parallel).
    ///
    /// # Panics
    ///
    /// Panics if `values` is not a rank-2 tensor with `F` columns.
    pub fn encode_batch(&self, values: &Tensor) -> Vec<BipolarHv> {
        let raw = self.encode_raw_batch(values);
        let rows: Vec<&[f32]> = raw.as_slice().chunks(self.dim).collect();
        let pack_work = (rows.len() * self.dim) as u64;
        if rows.len() > 1 && par::should_parallelize(pack_work) {
            par::par_map(&rows, |row| BipolarHv::from_signs(row))
        } else {
            rows.into_iter().map(BipolarHv::from_signs).collect()
        }
    }

    /// Encodes a whole batch straight to bit-packed hypervectors — the
    /// form [`crate::PackedMemory`] scores — skipping the dense
    /// [`BipolarHv`] intermediate entirely.
    ///
    /// Row `i` equals `encode_batch(values)[i].to_packed()` exactly:
    /// [`crate::payload::pack_signs`] applies the same `< 0.0` sign rule
    /// as [`BipolarHv::from_signs`], just writing bits instead of `i8`s.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not a rank-2 tensor with `F` columns.
    pub fn encode_batch_packed(&self, values: &Tensor) -> Vec<PackedHv> {
        let raw = self.encode_raw_batch(values);
        let rows: Vec<&[f32]> = raw.as_slice().chunks(self.dim).collect();
        let pack_work = (rows.len() * self.dim) as u64;
        if rows.len() > 1 && par::should_parallelize(pack_work) {
            par::par_map(&rows, |row| crate::payload::pack_signs(row))
        } else {
            rows.into_iter().map(crate::payload::pack_signs).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The base hypervectors, drawn again from the projection's seed.
    fn basis(proj: &RandomProjection) -> Vec<PackedHv> {
        let mut rng = Rng::new(proj.seed);
        (0..proj.features)
            .map(|_| {
                let signs: Vec<f32> = (0..proj.dim).map(|_| rng.bipolar()).collect();
                BipolarHv::from_signs(&signs).to_packed()
            })
            .collect()
    }

    /// The bit-serial encoder the GEMM form replaced: add or subtract
    /// each nonzero value by sign bit, 64 dimensions per word.
    fn bit_serial_encode_raw(proj: &RandomProjection, values: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; proj.dim];
        for (row, &v) in basis(proj).iter().zip(values) {
            if v == 0.0 {
                continue;
            }
            let words = row.words();
            // Add/sub by sign bit, 64 dimensions per word.
            for (w, word) in words.iter().enumerate() {
                let base = w * 64;
                let end = (base + 64).min(proj.dim);
                let mut bits = *word;
                for a in &mut acc[base..end] {
                    if bits & 1 == 1 {
                        *a += v;
                    } else {
                        *a -= v;
                    }
                    bits >>= 1;
                }
            }
        }
        acc
    }

    /// The bit-serial decoder the GEMM form replaced: every component
    /// added or subtracted, zeros included, in ascending order.
    fn bit_serial_decode(proj: &RandomProjection, hyper: &[f32]) -> Vec<f32> {
        let inv_d = 1.0 / proj.dim as f32;
        basis(proj)
            .iter()
            .map(|row| {
                let words = row.words();
                let mut s = 0.0;
                for (w, word) in words.iter().enumerate() {
                    let base = w * 64;
                    let end = (base + 64).min(proj.dim);
                    let mut bits = *word;
                    for item in &hyper[base..end] {
                        if bits & 1 == 1 {
                            s += item;
                        } else {
                            s -= item;
                        }
                        bits >>= 1;
                    }
                }
                s * inv_d
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn per_sample_encode_and_decode_match_the_bit_serial_loops() {
        // 70 features span two words of a decode row and a partial
        // panel; 130 dims a partial trailing word and panel.
        let proj = RandomProjection::new(70, 130, 13);
        let mut rng = Rng::new(14);
        let mut v: Vec<f32> = (0..70).map(|_| rng.normal()).collect();
        v[1] = 0.0;
        v[2] = -0.0;
        v[3] = f32::INFINITY;
        let mut e: Vec<f32> = (0..130).map(|_| rng.normal()).collect();
        e[0] = -0.0;
        e[5] = 0.0;
        e[64] = f32::NEG_INFINITY;
        let zeros = vec![-0.0f32; 130];
        assert_eq!(bits(&proj.encode_raw(&v)), bits(&bit_serial_encode_raw(&proj, &v)));
        for e in [&e, &zeros, &proj.encode_raw(&v[4..].repeat(2)[..70])] {
            assert_eq!(bits(&proj.decode(e)), bits(&bit_serial_decode(&proj, e)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RandomProjection::new(8, 256, 5);
        let b = RandomProjection::new(8, 256, 5);
        let v: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
        assert_eq!(a.encode(&v), b.encode(&v));
        let c = RandomProjection::new(8, 256, 6);
        assert_ne!(a.encode(&v), c.encode(&v));
    }

    #[test]
    fn encode_raw_matches_explicit_matrix_product() {
        let proj = RandomProjection::new(5, 130, 1);
        let v = [0.7, -1.2, 0.0, 2.0, -0.4];
        let raw = proj.encode_raw(&v);
        let basis = basis(&proj);
        for (d, &r) in raw.iter().enumerate() {
            let mut expect = 0.0;
            for (f, &vf) in v.iter().enumerate() {
                expect += vf * basis[f].sign_at(d) as f32;
            }
            assert!((r - expect).abs() < 1e-5, "dim {d}");
        }
    }

    #[test]
    fn similar_inputs_encode_to_similar_hypervectors() {
        let proj = RandomProjection::new(32, 4096, 2);
        let mut rng = Rng::new(3);
        let v: Vec<f32> = (0..32).map(|_| rng.normal()).collect();
        let mut v2 = v.clone();
        v2[0] += 0.05; // small perturbation
        let w: Vec<f32> = (0..32).map(|_| rng.normal()).collect(); // unrelated
        let h = proj.encode(&v).to_packed();
        let h2 = proj.encode(&v2).to_packed();
        let hw = proj.encode(&w).to_packed();
        let sim_close = crate::similarity::cosine_packed(&h, &h2);
        let sim_far = crate::similarity::cosine_packed(&h, &hw);
        assert!(sim_close > 0.9, "perturbed input similarity {sim_close}");
        assert!(sim_far < 0.5, "unrelated input similarity {sim_far}");
    }

    #[test]
    fn decode_is_scaled_adjoint_of_encode_raw() {
        // ⟨encode_raw(v), e⟩ == D · ⟨v, decode(e)⟩ for arbitrary v, e.
        let proj = RandomProjection::new(7, 200, 4);
        let v: Vec<f32> = (0..7).map(|i| (i as f32 * 0.77).sin()).collect();
        let e: Vec<f32> = (0..200).map(|i| (i as f32 * 0.13).cos()).collect();
        let lhs: f32 = proj.encode_raw(&v).iter().zip(&e).map(|(a, b)| a * b).sum();
        let dec = proj.decode(&e);
        let rhs: f32 = v.iter().zip(&dec).map(|(a, b)| a * b).sum::<f32>() * 200.0;
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn decode_recovers_feature_direction() {
        // decode(encode_raw(v)) ≈ v up to projection noise: the diagonal
        // of PᵀP/D concentrates at 1.
        let proj = RandomProjection::new(10, 8000, 9);
        let v: Vec<f32> = (0..10).map(|i| (i as f32) - 4.5).collect();
        let rec = proj.decode(&proj.encode_raw(&v));
        // Cosine between v and its reconstruction should be near 1.
        let dot: f32 = v.iter().zip(&rec).map(|(a, b)| a * b).sum();
        let nv: f32 = v.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nr: f32 = rec.iter().map(|a| a * a).sum::<f32>().sqrt();
        let cos = dot / (nv * nr);
        assert!(cos > 0.95, "reconstruction cosine {cos}");
    }

    #[test]
    fn cost_accounting() {
        let proj = RandomProjection::new(100, 3000, 0);
        assert_eq!(proj.macs_per_encode(), 300_000);
        assert_eq!(proj.param_count(), 300_000);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_feature_count_panics() {
        RandomProjection::new(4, 64, 0).encode(&[1.0; 5]);
    }

    #[test]
    fn batch_encoder_is_bit_identical_to_per_sample_encode() {
        // 130 dims exercises the partial trailing word; a zero value
        // exercises the zero-skip paths on both sides.
        let proj = RandomProjection::new(6, 130, 11);
        let batch = proj.batch_encoder();
        assert_eq!(batch.features(), 6);
        assert_eq!(batch.dim(), 130);
        let mut rng = Rng::new(12);
        let mut rows: Vec<Vec<f32>> =
            (0..5).map(|_| (0..6).map(|_| rng.normal()).collect()).collect();
        rows[2][3] = 0.0;
        let values = Tensor::from_vec(rows.concat(), [5, 6]).unwrap();
        let raw = batch.encode_raw_batch(&values);
        let hvs = batch.encode_batch(&values);
        let packed = batch.encode_batch_packed(&values);
        for (i, row) in rows.iter().enumerate() {
            let expect = bit_serial_encode_raw(&proj, row);
            assert_eq!(
                &raw.as_slice()[i * 130..(i + 1) * 130],
                expect.as_slice(),
                "row {i} raw accumulators must be bit-identical"
            );
            assert_eq!(hvs[i], proj.encode(row), "row {i} hypervector");
            assert_eq!(packed[i], hvs[i].to_packed(), "row {i} packed hypervector");
        }
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn batch_encoder_wrong_feature_count_panics() {
        let proj = RandomProjection::new(4, 64, 0);
        proj.batch_encoder().encode_raw_batch(&Tensor::zeros([2, 5]));
    }

    use nshd_tensor::Rng;
}
