//! The associative class memory: one accumulated hypervector per class.

use crate::hypervector::BipolarHv;
use nshd_tensor::{matmul_packed, PackedRhs, Tensor};
use std::fmt;
use std::sync::OnceLock;

/// Classes [`AssociativeMemory::similarities`] runs as interleaved
/// independent chains.
const CHAINS: usize = 8;

/// Typed rejection for malformed class matrices or out-of-range class
/// indices — the fallible counterpart of the panicking constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// The class matrix has no rows.
    EmptyClasses,
    /// Class rows are zero-dimensional.
    ZeroDim,
    /// Row `class` has `actual` components where `expected` were
    /// required by the first row.
    Ragged {
        /// Index of the offending row.
        class: usize,
        /// Dimensionality established by the first row.
        expected: usize,
        /// Dimensionality of the offending row.
        actual: usize,
    },
    /// `class` does not index into a memory of `num_classes` rows.
    ClassOutOfRange {
        /// The requested class index.
        class: usize,
        /// Number of classes the memory actually holds.
        num_classes: usize,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::EmptyClasses => write!(f, "class matrix has no rows"),
            MemoryError::ZeroDim => write!(f, "zero-dimensional class hypervectors"),
            MemoryError::Ragged { class, expected, actual } => {
                write!(
                    f,
                    "ragged class matrix: row {class} has {actual} components, expected {expected}"
                )
            }
            MemoryError::ClassOutOfRange { class, num_classes } => {
                write!(f, "class {class} out of range for memory of {num_classes} classes")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// An HD associative memory `M = [C_0 … C_{k-1}]` of dense class
/// hypervectors.
///
/// Class vectors are kept as `f32` accumulators (the standard HD learning
/// representation) so that bundling and retraining updates remain exact;
/// queries arrive as bipolar hypervectors and are compared by cosine
/// similarity, the normalised δ of the paper.
///
/// Batch scoring reads a compiled form of the memory: `Cᵀ` packed once
/// into the tensor crate's GEMM panels plus the per-class cosine scales,
/// built at the first batch score and dropped by every method that
/// takes `&mut self`. It is a cache of the class rows, so equality
/// ignores it.
///
/// # Examples
///
/// ```
/// use nshd_hdc::{AssociativeMemory, BipolarHv};
///
/// let mut mem = AssociativeMemory::new(2, 64);
/// let h = BipolarHv::from_signs(&vec![1.0; 64]);
/// mem.bundle(0, &h);
/// assert_eq!(mem.predict(&h), 0);
/// ```
#[derive(Debug, Clone)]
pub struct AssociativeMemory {
    dim: usize,
    classes: Vec<Vec<f32>>,
    /// The batch-scoring operand compiled from `classes`; reset on every
    /// mutation.
    compiled: OnceLock<DenseOperand>,
}

impl PartialEq for AssociativeMemory {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.classes == other.classes
    }
}

/// The class memory compiled for batch scoring: `Cᵀ` (`D`×`k`) packed
/// into GEMM panels, padded to whole 16-column panels so even `k = 10`
/// runs in the micro-kernel, and `col_scale[c] = 1 / (‖C_c‖·√D)` (0 for
/// a zero-norm class, matching [`crate::cosine_dense_bipolar`]).
#[derive(Debug, Clone)]
struct DenseOperand {
    classes_t: PackedRhs,
    col_scale: Vec<f32>,
}

impl DenseOperand {
    fn compile(classes: &[Vec<f32>], dim: usize) -> Self {
        let _sp = nshd_obs::span("assoc_compile");
        let rows: Vec<f32> = classes.concat();
        let classes_t = PackedRhs::from_columns(dim, classes.len(), &rows);
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        let col_scale = classes
            .iter()
            .map(|c| {
                let norm: f32 = c.iter().map(|d| d * d).sum::<f32>().sqrt();
                if norm == 0.0 {
                    0.0
                } else {
                    inv_sqrt_d / norm
                }
            })
            .collect();
        DenseOperand { classes_t, col_scale }
    }
}

impl AssociativeMemory {
    /// Creates a zeroed memory for `num_classes` classes of dimension
    /// `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or `dim == 0`.
    pub fn new(num_classes: usize, dim: usize) -> Self {
        assert!(num_classes > 0 && dim > 0);
        AssociativeMemory::with_classes(dim, vec![vec![0.0; dim]; num_classes])
    }

    /// Rebuilds a memory from raw class accumulators (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, rows are zero-dimensional, or rows
    /// have differing lengths. Use
    /// [`try_from_classes`](AssociativeMemory::try_from_classes) to
    /// reject malformed input with a typed error instead.
    pub fn from_classes(classes: Vec<Vec<f32>>) -> Self {
        match Self::try_from_classes(classes) {
            Ok(memory) => memory,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible counterpart of
    /// [`from_classes`](AssociativeMemory::from_classes): rejects an
    /// empty matrix, zero-dimensional rows, and ragged rows with a
    /// [`MemoryError`] instead of panicking.
    pub fn try_from_classes(classes: Vec<Vec<f32>>) -> Result<Self, MemoryError> {
        let dim = match classes.first() {
            Some(first) => first.len(),
            None => return Err(MemoryError::EmptyClasses),
        };
        if dim == 0 {
            return Err(MemoryError::ZeroDim);
        }
        for (class, row) in classes.iter().enumerate() {
            if row.len() != dim {
                return Err(MemoryError::Ragged { class, expected: dim, actual: row.len() });
            }
        }
        Ok(AssociativeMemory::with_classes(dim, classes))
    }

    fn with_classes(dim: usize, classes: Vec<Vec<f32>>) -> Self {
        AssociativeMemory { dim, classes, compiled: OnceLock::new() }
    }

    /// The batch-scoring operand, compiled on first use.
    fn compiled(&self) -> &DenseOperand {
        self.compiled.get_or_init(|| DenseOperand::compile(&self.classes, self.dim))
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The accumulated class hypervector for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class(&self, class: usize) -> &[f32] {
        &self.classes[class]
    }

    /// Mutable access to the accumulated class hypervector for `class` —
    /// the hook fault injection ([`crate::FaultPlan`]) and rollback
    /// guards use to manipulate memory state directly.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_mut(&mut self, class: usize) -> &mut [f32] {
        self.compiled.take();
        &mut self.classes[class]
    }

    /// Fallible counterpart of [`class`](AssociativeMemory::class):
    /// returns a typed [`MemoryError`] for an out-of-range index instead
    /// of panicking.
    pub fn try_class(&self, class: usize) -> Result<&[f32], MemoryError> {
        self.classes
            .get(class)
            .map(Vec::as_slice)
            .ok_or(MemoryError::ClassOutOfRange { class, num_classes: self.classes.len() })
    }

    /// Fallible counterpart of
    /// [`class_mut`](AssociativeMemory::class_mut): returns a typed
    /// [`MemoryError`] for an out-of-range index instead of panicking.
    pub fn try_class_mut(&mut self, class: usize) -> Result<&mut [f32], MemoryError> {
        self.compiled.take();
        let num_classes = self.classes.len();
        self.classes
            .get_mut(class)
            .map(Vec::as_mut_slice)
            .ok_or(MemoryError::ClassOutOfRange { class, num_classes })
    }

    /// Grows the memory by one zeroed class row and returns the new
    /// class index — the online class-addition primitive HD-Glue uses to
    /// admit previously unseen labels without retraining the rest of the
    /// memory. The new class scores 0 similarity against every query
    /// until samples are bundled into it.
    pub fn add_class(&mut self) -> usize {
        self.compiled.take();
        self.classes.push(vec![0.0; self.dim]);
        self.classes.len() - 1
    }

    /// Whether every accumulated component is finite — the post-epoch /
    /// post-fault health check. A memory with NaN or ±∞ components
    /// scores NaN for those classes, which silently skews every
    /// prediction, so guards call this first.
    pub fn is_finite(&self) -> bool {
        self.classes.iter().all(|c| c.iter().all(|v| v.is_finite()))
    }

    /// Bundles a sample into a class: `C_c += H`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or dimensions disagree.
    pub fn bundle(&mut self, class: usize, hv: &BipolarHv) {
        self.add_scaled(class, hv, 1.0);
    }

    /// Scaled bundle: `C_c += weight · H` — the primitive both MASS and
    /// distillation retraining are built from.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or dimensions disagree.
    pub fn add_scaled(&mut self, class: usize, hv: &BipolarHv, weight: f32) {
        assert_eq!(hv.dim(), self.dim, "dimension mismatch");
        self.compiled.take();
        let mut sp = nshd_obs::span("hd_bundle");
        sp.add_flops(self.dim as u64);
        sp.add_bytes((self.dim + 8 * self.dim) as u64);
        let c = &mut self.classes[class];
        for (a, &s) in c.iter_mut().zip(hv.components()) {
            // Multiplication-free: add or subtract the weight by sign.
            if s > 0 {
                *a += weight;
            } else {
                *a -= weight;
            }
        }
    }

    /// Cosine similarity of a query against every class:
    /// `δ(M, H) ∈ [-1, 1]^k`.
    ///
    /// Each class is [`crate::cosine_dense_bipolar`] of its row, bit for bit:
    /// its norm and its dot are each one sum over ascending `d` from the
    /// same start value, finished by the same `dot / (‖C‖·√D)`. The
    /// classes run eight at a time as independent chains
    /// interleaved in one pass over `d`, so the adds overlap instead of
    /// each waiting on the one before it.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn similarities(&self, hv: &BipolarHv) -> Vec<f32> {
        assert_eq!(hv.dim(), self.dim, "dimension mismatch");
        let mut sp = nshd_obs::span("assoc_search");
        sp.add_flops(2 * (self.classes.len() * self.dim) as u64);
        sp.add_bytes((4 * (self.classes.len() * self.dim) + self.dim) as u64);
        let sqrt_d = (self.dim as f32).sqrt();
        let mut out = Vec::with_capacity(self.classes.len());
        for group in self.classes.chunks(CHAINS) {
            // A short last group repeats its last row; the copies'
            // results are dropped.
            let rows: [&[f32]; CHAINS] =
                std::array::from_fn(|j| &group[j.min(group.len() - 1)][..self.dim]);
            // `Sum for f32` starts at `-0.0`, `dot_dense_bipolar` at `+0.0`.
            let mut norm = [-0.0f32; CHAINS];
            let mut dot = [0.0f32; CHAINS];
            for (d, &c) in hv.components().iter().enumerate() {
                let sign = if c > 0 { 1.0 } else { -1.0 };
                for j in 0..CHAINS {
                    let x = rows[j][d];
                    norm[j] += x * x;
                    // `x · (±1.0)` is exactly `±x`.
                    dot[j] += x * sign;
                }
            }
            out.extend(norm.iter().zip(&dot).take(group.len()).map(|(&sq, &dot)| {
                let norm = sq.sqrt();
                if norm == 0.0 {
                    0.0
                } else {
                    dot / (norm * sqrt_d)
                }
            }));
        }
        out
    }

    /// Predicted class: `argmax δ(M, H)`, ties to the last maximum.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn predict(&self, hv: &BipolarHv) -> usize {
        argmax_last(&self.similarities(hv))
    }

    /// The class accumulators as a row-major `k×D` matrix (batched
    /// similarity search equals `matmul_bt` of the queries against it,
    /// scaled by the class norms).
    pub fn class_matrix(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.classes.len() * self.dim);
        for c in &self.classes {
            data.extend_from_slice(c);
        }
        Tensor::from_vec(data, [self.classes.len(), self.dim]).expect("consistent class dims")
    }

    fn similarities_refs(&self, hvs: &[&BipolarHv]) -> Tensor {
        let n = hvs.len();
        let k = self.classes.len();
        if n == 0 {
            return Tensor::zeros([0, k]);
        }
        // The dominant FLOPs are attributed by the nested matmul span;
        // this span names the stage.
        let _sp = nshd_obs::span("assoc_search");
        let mut qdata = Vec::with_capacity(n * self.dim);
        for hv in hvs {
            assert_eq!(hv.dim(), self.dim, "dimension mismatch");
            qdata.extend(hv.components().iter().map(|&c| c as f32));
        }
        let queries = Tensor::from_vec(qdata, [n, self.dim]).expect("query rows are D long");
        let compiled = self.compiled();
        let mut sims = matmul_packed(&queries, &compiled.classes_t);
        for row in sims.as_mut_slice().chunks_mut(k) {
            for (s, &scale) in row.iter_mut().zip(&compiled.col_scale) {
                *s *= scale;
            }
        }
        sims
    }

    /// Cosine similarities of a whole batch of queries against every
    /// class, as an `N×k` tensor — one GEMM against the compiled class
    /// panel instead of `N·k` scalar dot loops. Bit-identical to
    /// `matmul_bt(queries, class_matrix())` scaled by the class norms.
    /// Each dot sums in the same order as in
    /// [`similarities`](AssociativeMemory::similarities), so the two
    /// differ only in the final scale, `dot·((1/√D)/‖C‖)` here against
    /// `dot/(‖C‖·√D)` there: row `i` can differ from `similarities` of
    /// `hvs[i]` in the last bits.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension disagrees with the memory.
    pub fn similarities_batch(&self, hvs: &[BipolarHv]) -> Tensor {
        let refs: Vec<&BipolarHv> = hvs.iter().collect();
        self.similarities_refs(&refs)
    }

    /// Predicted classes for a whole batch of queries — the batched
    /// counterpart of [`predict`](AssociativeMemory::predict), with the
    /// same last-maximum tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension disagrees with the memory.
    pub fn predict_batch(&self, hvs: &[BipolarHv]) -> Vec<usize> {
        let refs: Vec<&BipolarHv> = hvs.iter().collect();
        self.predict_refs(&refs)
    }

    fn predict_refs(&self, hvs: &[&BipolarHv]) -> Vec<usize> {
        let k = self.classes.len();
        let sims = self.similarities_refs(hvs);
        sims.as_slice().chunks(k).map(argmax_last).collect()
    }

    /// Classification accuracy over a labelled set of hypervectors,
    /// scored through the batched similarity path.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn accuracy(&self, samples: &[(BipolarHv, usize)]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        // Chunked so the N×D query matrix stays modest for large sets.
        let mut correct = 0usize;
        for chunk in samples.chunks(512) {
            let refs: Vec<&BipolarHv> = chunk.iter().map(|(hv, _)| hv).collect();
            let preds = self.predict_refs(&refs);
            correct += preds.iter().zip(chunk).filter(|(p, (_, label))| **p == *label).count();
        }
        correct as f32 / samples.len() as f32
    }

    /// Learning-parameter count (`k·D`, as Table II counts the HD model).
    pub fn param_count(&self) -> usize {
        self.classes.len() * self.dim
    }
}

/// Index of the last maximum in a row — the one class-selection rule
/// every predictor in this crate uses, pointwise and batch, so every
/// scoring backend resolves ties identically. Comparisons with NaN are
/// false: a NaN score never displaces the running maximum (nor is it
/// displaced when it sits in slot 0), so non-finite memories still get
/// an answer instead of a panic.
pub(crate) fn argmax_last(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v >= row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshd_tensor::Rng;

    fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
        BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
    }

    #[test]
    fn bundled_prototype_is_retrieved() {
        let mut rng = Rng::new(1);
        let dim = 2048;
        let mut mem = AssociativeMemory::new(3, dim);
        let prototypes: Vec<BipolarHv> = (0..3).map(|_| random_hv(dim, &mut rng)).collect();
        // Bundle noisy variants of each prototype.
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..10 {
                let noisy = BipolarHv::new(
                    proto
                        .components()
                        .iter()
                        .map(|&s| if rng.chance(0.1) { -s } else { s })
                        .collect(),
                );
                mem.bundle(c, &noisy);
            }
        }
        // Fresh noisy queries retrieve the right class.
        for (c, proto) in prototypes.iter().enumerate() {
            let query = BipolarHv::new(
                proto.components().iter().map(|&s| if rng.chance(0.15) { -s } else { s }).collect(),
            );
            assert_eq!(mem.predict(&query), c);
        }
    }

    #[test]
    fn similarities_are_cosines_in_range() {
        let mut rng = Rng::new(2);
        let mut mem = AssociativeMemory::new(2, 512);
        let h = random_hv(512, &mut rng);
        mem.bundle(0, &h);
        let sims = mem.similarities(&h);
        assert!((sims[0] - 1.0).abs() < 1e-5, "self similarity {sims:?}");
        assert_eq!(sims[1], 0.0, "empty class similarity {sims:?}");
    }

    #[test]
    fn add_scaled_negative_weight_repels() {
        let mut rng = Rng::new(3);
        let mut mem = AssociativeMemory::new(2, 1024);
        let h = random_hv(1024, &mut rng);
        mem.bundle(0, &h);
        mem.bundle(1, &h);
        // Push class 1 away from h.
        mem.add_scaled(1, &h, -0.9);
        let sims = mem.similarities(&h);
        assert!(sims[0] > sims[1]);
        assert_eq!(mem.predict(&h), 0);
    }

    #[test]
    fn accuracy_over_labelled_set() {
        let mut rng = Rng::new(4);
        let dim = 1024;
        let mut mem = AssociativeMemory::new(2, dim);
        let a = random_hv(dim, &mut rng);
        let b = random_hv(dim, &mut rng);
        mem.bundle(0, &a);
        mem.bundle(1, &b);
        let set = vec![(a.clone(), 0), (b.clone(), 1), (a.clone(), 1)];
        assert!((mem.accuracy(&set) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(mem.accuracy(&[]), 0.0);
    }

    #[test]
    fn param_count_is_k_times_d() {
        assert_eq!(AssociativeMemory::new(10, 3000).param_count(), 30_000);
    }

    #[test]
    fn batched_similarities_match_per_sample_path() {
        let mut rng = Rng::new(5);
        let dim = 768;
        let mut mem = AssociativeMemory::new(4, dim);
        for c in 0..4 {
            for _ in 0..6 {
                let hv = random_hv(dim, &mut rng);
                mem.bundle(c, &hv);
            }
        }
        let queries: Vec<BipolarHv> = (0..9).map(|_| random_hv(dim, &mut rng)).collect();
        let batch = mem.similarities_batch(&queries);
        assert_eq!(batch.dims(), &[9, 4]);
        for (i, q) in queries.iter().enumerate() {
            let single = mem.similarities(q);
            for (c, &s) in single.iter().enumerate() {
                let b = batch.at(&[i, c]);
                assert!((b - s).abs() < 1e-5, "query {i} class {c}: {b} vs {s}");
            }
        }
        assert_eq!(
            mem.predict_batch(&queries),
            queries.iter().map(|q| mem.predict(q)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batched_dots_equal_pointwise_dots_bit_for_bit() {
        let mut rng = Rng::new(7);
        let dim = 700;
        let mut mem = AssociativeMemory::new(19, dim);
        for c in 0..19 {
            mem.add_scaled(c, &random_hv(dim, &mut rng), rng.normal());
            mem.add_scaled(c, &random_hv(dim, &mut rng), rng.normal());
        }
        mem.class_mut(3)[9] = -0.0;
        let hvs: Vec<BipolarHv> = (0..5).map(|_| random_hv(dim, &mut rng)).collect();
        let q: Vec<f32> = hvs.iter().flat_map(BipolarHv::to_f32).collect();
        let queries = Tensor::from_vec(q, [hvs.len(), dim]).unwrap();
        let dots = matmul_packed(&queries, &mem.compiled().classes_t);
        for (i, hv) in hvs.iter().enumerate() {
            for c in 0..mem.num_classes() {
                let pointwise = crate::similarity::dot_dense_bipolar(mem.class(c), hv);
                assert_eq!(dots.at(&[i, c]).to_bits(), pointwise.to_bits(), "query {i} class {c}");
            }
        }
    }

    #[test]
    fn pointwise_similarities_are_the_per_class_cosine_chain_bit_for_bit() {
        let mut rng = Rng::new(10);
        // 21 classes leave a short last group of chains; the last class
        // stays all-zero.
        for dim in [1usize, 130, 700] {
            let mut mem = AssociativeMemory::new(21, dim);
            for c in 0..20 {
                mem.add_scaled(c, &random_hv(dim, &mut rng), rng.normal());
            }
            let hv = random_hv(dim, &mut rng);
            let chain: Vec<u32> = (0..21)
                .map(|c| crate::similarity::cosine_dense_bipolar(mem.class(c), &hv).to_bits())
                .collect();
            let got: Vec<u32> = mem.similarities(&hv).iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, chain, "dim {dim}");
            assert_eq!(got[20], 0, "zero-norm class scores +0.0");
        }
    }

    #[test]
    fn batched_zero_class_scores_zero() {
        let mut rng = Rng::new(6);
        let mut mem = AssociativeMemory::new(2, 256);
        let h = random_hv(256, &mut rng);
        mem.bundle(0, &h);
        let sims = mem.similarities_batch(std::slice::from_ref(&h));
        assert!((sims.at(&[0, 0]) - 1.0).abs() < 1e-5);
        assert_eq!(sims.at(&[0, 1]), 0.0, "empty class must score exactly 0");
    }

    #[test]
    fn batched_empty_query_set() {
        let mem = AssociativeMemory::new(3, 64);
        let sims = mem.similarities_batch(&[]);
        assert_eq!(sims.dims(), &[0, 3]);
        assert!(mem.predict_batch(&[]).is_empty());
    }

    /// The per-call dense scoring path the compiled operand replaced:
    /// `matmul_bt` of the queries against `class_matrix()`, then the
    /// class norms recomputed and applied.
    fn per_call_scores(mem: &AssociativeMemory, hvs: &[BipolarHv]) -> Tensor {
        let dim = mem.dim();
        let q: Vec<f32> =
            hvs.iter().flat_map(|h| h.components().iter().map(|&c| c as f32)).collect();
        let queries = Tensor::from_vec(q, [hvs.len(), dim]).unwrap();
        let mut sims = nshd_tensor::matmul_bt(&queries, &mem.class_matrix());
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        let scale: Vec<f32> = (0..mem.num_classes())
            .map(|c| {
                let norm: f32 = mem.class(c).iter().map(|d| d * d).sum::<f32>().sqrt();
                if norm == 0.0 {
                    0.0
                } else {
                    inv_sqrt_d / norm
                }
            })
            .collect();
        for row in sims.as_mut_slice().chunks_mut(mem.num_classes()) {
            for (s, &sc) in row.iter_mut().zip(&scale) {
                *s *= sc;
            }
        }
        sims
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}");
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    #[test]
    fn compiled_scores_equal_the_per_call_path_bit_for_bit() {
        let mut rng = Rng::new(8);
        let dim = 700;
        for classes in [1usize, 10, 16, 17, 100] {
            let mut mem = AssociativeMemory::new(classes, dim);
            // Bundled (non-±1) rows; the last class stays all-zero.
            for c in 0..classes.saturating_sub(1) {
                for _ in 0..3 {
                    mem.bundle(c, &random_hv(dim, &mut rng));
                }
            }
            for n in [1usize, 5] {
                let hvs: Vec<BipolarHv> = (0..n).map(|_| random_hv(dim, &mut rng)).collect();
                let got = mem.similarities_batch(&hvs);
                assert_bits_eq(&got, &per_call_scores(&mem, &hvs), &format!("k={classes} n={n}"));
                assert_eq!(got.at(&[0, classes - 1]), 0.0, "zero-norm class scores 0");
            }
        }
    }

    #[test]
    fn mutations_after_a_score_invalidate_the_compiled_operand() {
        let mut rng = Rng::new(9);
        let dim = 300;
        let mut mem = AssociativeMemory::new(3, dim);
        let hvs: Vec<BipolarHv> = (0..4).map(|_| random_hv(dim, &mut rng)).collect();
        mem.bundle(0, &hvs[0]);
        let check = |mem: &AssociativeMemory, what: &str| {
            assert_bits_eq(&mem.similarities_batch(&hvs), &per_call_scores(mem, &hvs), what);
        };
        check(&mem, "first score");
        mem.bundle(1, &hvs[1]);
        check(&mem, "after bundle");
        mem.class_mut(2).copy_from_slice(&hvs[2].to_f32());
        check(&mem, "after class_mut");
        mem.try_class_mut(0).unwrap()[0] += 5.0;
        check(&mem, "after try_class_mut");
        mem.add_scaled(2, &hvs[3], -0.5);
        check(&mem, "after add_scaled");
        mem.add_class();
        assert_eq!(mem.similarities_batch(&hvs).dims(), &[4, 4]);
        check(&mem, "after add_class");
        // Clones and equality see the class rows, not the cache.
        let scored = mem.clone();
        let fresh = AssociativeMemory::from_classes(
            (0..mem.num_classes()).map(|c| mem.class(c).to_vec()).collect(),
        );
        assert_eq!(scored, fresh);
        check(&scored, "clone of a scored memory");
    }

    #[test]
    fn class_matrix_is_row_major_accumulators() {
        let mut mem = AssociativeMemory::new(2, 3);
        mem.class_mut(1).copy_from_slice(&[1.0, -2.0, 3.0]);
        let m = mem.class_matrix();
        assert_eq!(m.dims(), &[2, 3]);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0, 1.0, -2.0, 3.0]);
    }
}
