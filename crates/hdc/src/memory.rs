//! The associative class memory: one accumulated hypervector per class.

use crate::hypervector::BipolarHv;
use crate::similarity::cosine_dense_bipolar;
use nshd_tensor::{matmul_bt, Tensor};
use std::fmt;

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
#[derive(Debug, Clone, PartialEq)]
pub struct AssociativeMemory {
    dim: usize,
    classes: Vec<Vec<f32>>,
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
        AssociativeMemory { dim, classes: vec![vec![0.0; dim]; num_classes] }
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
        Ok(AssociativeMemory { dim, classes })
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
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn similarities(&self, hv: &BipolarHv) -> Vec<f32> {
        let mut sp = nshd_obs::span("assoc_search");
        sp.add_flops(2 * (self.classes.len() * self.dim) as u64);
        sp.add_bytes((4 * (self.classes.len() * self.dim) + self.dim) as u64);
        self.classes.iter().map(|c| cosine_dense_bipolar(c, hv)).collect()
    }

    /// Predicted class: `argmax δ(M, H)`, ties to the last maximum.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn predict(&self, hv: &BipolarHv) -> usize {
        argmax_last(&self.similarities(hv))
    }

    /// The class accumulators as a row-major `k×D` matrix, the layout
    /// batched similarity search scores against.
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
        // The dominant FLOPs are attributed by the nested matmul_bt span;
        // this span names the stage.
        let _sp = nshd_obs::span("assoc_search");
        let mut qdata = Vec::with_capacity(n * self.dim);
        for hv in hvs {
            assert_eq!(hv.dim(), self.dim, "dimension mismatch");
            qdata.extend(hv.components().iter().map(|&c| c as f32));
        }
        let queries = Tensor::from_vec(qdata, [n, self.dim]).expect("query rows are D long");
        let mut sims = matmul_bt(&queries, &self.class_matrix());
        // Per-class normalisation: dot / (‖C_c‖·√D); zero-norm classes
        // score 0, matching `cosine_dense_bipolar`.
        let inv_sqrt_d = 1.0 / (self.dim as f32).sqrt();
        let col_scale: Vec<f32> = self
            .classes
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
        for row in sims.as_mut_slice().chunks_mut(k) {
            for (s, &scale) in row.iter_mut().zip(&col_scale) {
                *s *= scale;
            }
        }
        sims
    }

    /// Cosine similarities of a whole batch of queries against every
    /// class, as an `N×k` tensor — one [`matmul_bt`] instead of `N·k`
    /// scalar dot loops. Row `i` matches
    /// [`similarities`](AssociativeMemory::similarities) for `hvs[i]` up
    /// to float summation order.
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

    #[test]
    fn class_matrix_is_row_major_accumulators() {
        let mut mem = AssociativeMemory::new(2, 3);
        mem.class_mut(1).copy_from_slice(&[1.0, -2.0, 3.0]);
        let m = mem.class_matrix();
        assert_eq!(m.dims(), &[2, 3]);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0, 1.0, -2.0, 3.0]);
    }
}
