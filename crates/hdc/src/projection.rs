//! Random-projection encoding — the paper's Φ_P — and its decoding
//! adjoint used by the manifold-learner backward pass.

use crate::hypervector::{BipolarHv, PackedHv};
use nshd_tensor::{matmul, par, Rng, Tensor};

/// A seeded bipolar random-projection encoder.
///
/// Holds one random bipolar *base hypervector* `P_f ∈ {±1}^D` per input
/// feature, stored bit-packed (the paper's constant-memory binary layout).
/// Encoding is `H = sign(Σ_f v_f ⊗ P_f)` — binding each feature value to
/// its base vector and bundling — computed without multiplications by
/// adding or subtracting `v_f` according to each stored sign bit.
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
    rows: Vec<PackedHv>,
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
        let rows = (0..features)
            .map(|_| {
                let signs: Vec<f32> = (0..dim).map(|_| rng.bipolar()).collect();
                BipolarHv::from_signs(&signs).to_packed()
            })
            .collect();
        RandomProjection { features, dim, seed, rows }
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

    /// The base hypervector for feature `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.features()`.
    pub fn base(&self, f: usize) -> &PackedHv {
        &self.rows[f]
    }

    /// The pre-sign accumulator `Σ_f v_f ⊗ P_f` (a dense `D`-vector).
    ///
    /// Exposed separately because the straight-through estimator needs the
    /// pre-binarisation activations.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.features()`.
    pub fn encode_raw(&self, values: &[f32]) -> Vec<f32> {
        assert_eq!(values.len(), self.features, "feature count mismatch");
        let mut sp = nshd_obs::span("hd_encode");
        sp.add_flops(2 * (self.features * self.dim) as u64);
        sp.add_bytes((self.features * self.dim / 8 + 4 * (self.features + self.dim)) as u64);
        let mut acc = vec![0.0f32; self.dim];
        for (row, &v) in self.rows.iter().zip(values) {
            if v == 0.0 {
                continue;
            }
            let words = row.words();
            // Add/sub by sign bit, 64 dimensions per word.
            for (w, word) in words.iter().enumerate() {
                let base = w * 64;
                let end = (base + 64).min(self.dim);
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
    /// # Panics
    ///
    /// Panics if `hyper.len() != self.dim()`.
    pub fn decode(&self, hyper: &[f32]) -> Vec<f32> {
        assert_eq!(hyper.len(), self.dim, "hyperspace dimension mismatch");
        let mut sp = nshd_obs::span("hd_decode");
        sp.add_flops(2 * (self.features * self.dim) as u64);
        sp.add_bytes((self.features * self.dim / 8 + 4 * (self.features + self.dim)) as u64);
        let inv_d = 1.0 / self.dim as f32;
        self.rows
            .iter()
            .map(|row| {
                let words = row.words();
                let mut s = 0.0;
                for (w, word) in words.iter().enumerate() {
                    let base = w * 64;
                    let end = (base + 64).min(self.dim);
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

    /// Builds the dense-GEMM batch encoder for this projection — see
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

/// The dense-GEMM counterpart of [`RandomProjection`] for batched
/// encoding: the bit-packed base hypervectors unpacked once into an
/// `F×D` ±1 matrix, so a whole batch of feature vectors encodes as a
/// single matrix product instead of `N` bit-serial accumulation passes.
///
/// `encode_raw_batch` is **bit-identical** to per-sample
/// [`RandomProjection::encode_raw`]: the GEMM kernel accumulates the
/// inner (feature) dimension sequentially and skips exact zeros, the
/// same summation order and zero-skip as the bit-serial path, and
/// `±1.0 · v` is exact in IEEE arithmetic. The serving runtime's
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
    /// Row-major `F×D` matrix of ±1.0, row `f` = unpacked `P_f`.
    basis: Tensor,
}

impl BatchEncoder {
    /// Unpacks `proj`'s base hypervectors into the dense basis matrix.
    pub fn new(proj: &RandomProjection) -> Self {
        let (features, dim) = (proj.features, proj.dim);
        let mut data = Vec::with_capacity(features * dim);
        for row in &proj.rows {
            let mut d = 0usize;
            'row: for word in row.words() {
                let mut bits = *word;
                for _ in 0..64 {
                    if d == dim {
                        break 'row;
                    }
                    data.push(if bits & 1 == 1 { 1.0 } else { -1.0 });
                    bits >>= 1;
                    d += 1;
                }
            }
        }
        let basis = Tensor::from_vec(data, [features, dim]).expect("F·D basis entries");
        BatchEncoder { features, dim, basis }
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
        matmul(values, &self.basis)
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
        for (d, &r) in raw.iter().enumerate() {
            let mut expect = 0.0;
            for (f, &vf) in v.iter().enumerate() {
                expect += vf * proj.base(f).sign_at(d) as f32;
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
            let expect = proj.encode_raw(row);
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
