//! Quantised deployments of the associative memory.
//!
//! The paper compiles the trained NSHD model through Vitis-AI, which
//! quantises it to INT8, "with very minor impacts on the prediction
//! quality" (§VI-B); the GPGPU path likewise stores binary hypervectors
//! in constant memory. This module provides both deployment forms —
//! [`QuantizedMemory`] (per-class symmetric INT8) and [`PackedMemory`]
//! (sign-binarised, packed, popcount similarity) — so that claim is
//! testable in-repo.
//!
//! Both forms carry a batch scoring path (`similarities_batch` /
//! `predict_batch`) over *packed* query rows × class rows, row-parallel
//! across the [`nshd_tensor::par`] workers. Batch scores are
//! **bit-identical** to the pointwise `similarities`, so batch and
//! pointwise predictions can never disagree.
//!
//! # INT8 scoring is mask-and-add
//!
//! A bipolar query `s ∈ {±1}^D` against INT8 cells `c` has the dot
//! product `Σ c·s = 2·Σ_{s=+1} c − Σ c`: the paper's multiplication-free
//! associative search, as in Schmuck et al.'s masked accumulate. The
//! batch kernel expands each query's packed sign bits **once** into a
//! byte mask (`0xFF` where the bit is set, `0` otherwise), sums
//! `c & mask` per class, and takes the row sum `Σ c` and the class norm
//! from a cache filled when the memory is compiled — no per-class sign
//! branch, no per-call norm pass, no dense bipolar query.
//!
//! The masked sum runs over blocks of at most [`BLOCK`] = 256 cells.
//! Inside a block, each pair of cells is read as one `i16` word, masked
//! in one operation and split back into its two sign-extended cells,
//! which add into two `i16` lanes of at most 128 cells each. A lane
//! stays within `±128·128 = ±16384` even when every cell is a faulted
//! `-128`, which the INT8 range admits although
//! [`QuantizedMemory::from_memory`] never writes it, so no partial sum
//! can overflow. Each block then widens to `i64`, which is exact for any
//! `D`. Integer addition is exact in any order, so the result is the
//! very `acc` the pointwise reference loop computes; the f32 de-scale is
//! the same expression
//! `(acc as f32 * scale) / (norm * √D)` with the same cached
//! `norm = (Σ c² as f32).sqrt() * scale`, hence bit-identical scores,
//! predictions and tie-breaks. Packed scoring is XNOR+popcount word
//! tiles with the pointwise `dot / D` de-scale, exact for the same
//! reason.
//!
//! **Tie-break rule:** every predictor in this crate, pointwise and
//! batch alike, picks its class with the one `argmax_last` rule: equal
//! scores resolve to the *last* maximum, i.e. the highest class index.
//! The property tests in `tests/packed_scoring.rs` pin this.

use crate::hypervector::{BipolarHv, PackedHv};
use crate::memory::{argmax_last, AssociativeMemory};
use crate::similarity::cosine_packed;
use nshd_tensor::{par, Tensor};

/// Cells per block of the INT8 masked sum: the block's two `i16` lanes
/// hold 128 cells each, so no lane can overflow (module docs).
const BLOCK: usize = 256;

/// An INT8-quantised class memory (symmetric per-class scaling), the
/// DPU-style deployment of a trained [`AssociativeMemory`].
///
/// Equality compares the dimension, cells and scales; the per-class
/// norm and row-sum cache is derived from them.
#[derive(Debug, Clone)]
pub struct QuantizedMemory {
    dim: usize,
    classes: Vec<Vec<i8>>,
    scales: Vec<f32>,
    /// Per-class `(norm, row sum)`, kept in step with `classes` by every
    /// constructor and by [`QuantizedMemory::update_class`].
    stats: Vec<ClassStats>,
}

/// What the batch kernel needs of a class besides its cells.
#[derive(Debug, Clone, Copy)]
struct ClassStats {
    /// `(Σ c² as f32).sqrt() * scale`, the pointwise path's norm.
    norm: f32,
    /// `Σ c`.
    row_sum: i64,
}

impl ClassStats {
    fn of(cells: &[i8], scale: f32) -> Self {
        let norm2: i64 = cells.iter().map(|&c| i64::from(c) * i64::from(c)).sum();
        let row_sum = cells.iter().map(|&c| i64::from(c)).sum();
        ClassStats { norm: (norm2 as f32).sqrt() * scale, row_sum }
    }
}

impl PartialEq for QuantizedMemory {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.classes == other.classes && self.scales == other.scales
    }
}

impl QuantizedMemory {
    /// Quantises a trained memory: each class hypervector is scaled by
    /// `127 / max|component|` and rounded to `i8`.
    pub fn from_memory(memory: &AssociativeMemory) -> Self {
        let dim = memory.dim();
        let mut classes: Vec<Vec<i8>> = Vec::with_capacity(memory.num_classes());
        let mut scales = Vec::with_capacity(memory.num_classes());
        for c in 0..memory.num_classes() {
            let class = memory.class(c);
            let max = class.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
            classes.push(
                class.iter().map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8).collect(),
            );
            scales.push(scale);
        }
        let stats = classes.iter().zip(&scales).map(|(c, &s)| ClassStats::of(c, s)).collect();
        QuantizedMemory { dim, classes, scales, stats }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The quantised cells of one class (fault injection and tests).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class(&self, class: usize) -> &[i8] {
        &self.classes[class]
    }

    /// Applies `edit` to the INT8 cells of one class and refreshes that
    /// class's cached norm and row sum — the hook [`crate::FaultPlan`]
    /// uses to model DPU weight-memory upsets.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn update_class(&mut self, class: usize, edit: impl FnOnce(&mut [i8])) {
        let cells = &mut self.classes[class];
        edit(cells);
        self.stats[class] = ClassStats::of(cells, self.scales[class]);
    }

    /// Cosine similarities of a bipolar query against each quantised
    /// class (integer accumulation, de-scaled at the end). This is the
    /// plain reference loop the batch kernel is tested against.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn similarities(&self, hv: &BipolarHv) -> Vec<f32> {
        assert_eq!(hv.dim(), self.dim, "dimension mismatch");
        let sqrt_d = (self.dim as f32).sqrt();
        self.classes
            .iter()
            .zip(&self.scales)
            .map(|(class, &scale)| {
                let mut acc: i64 = 0;
                let mut norm2: i64 = 0;
                for (&c, &s) in class.iter().zip(hv.components()) {
                    // Multiplication-free accumulate, as in the paper's
                    // binary kernels: add or subtract by the sign bit.
                    if s > 0 {
                        acc += c as i64;
                    } else {
                        acc -= c as i64;
                    }
                    norm2 += (c as i64) * (c as i64);
                }
                let norm = (norm2 as f32).sqrt() * scale;
                if norm == 0.0 {
                    0.0
                } else {
                    (acc as f32 * scale) / (norm * sqrt_d)
                }
            })
            .collect()
    }

    /// Predicted class: `argmax` of the quantised similarities. Ties
    /// resolve to the last maximum (highest class index).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn predict(&self, hv: &BipolarHv) -> usize {
        argmax_last(&self.similarities(hv))
    }

    /// Batch INT8 scoring GEMM: similarities of `queries.len()` packed
    /// query rows against all `num_classes()` quantised class rows, as
    /// an `N×num_classes` tensor.
    ///
    /// Mask-and-add over the query's sign bits with the cached class
    /// norms and row sums (module docs), row-parallel across the [`par`]
    /// workers for large batches — and **bit-identical** to calling
    /// [`Self::similarities`] on each query's bipolar form.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality disagrees.
    pub fn similarities_batch(&self, queries: &[PackedHv]) -> Tensor {
        for q in queries {
            assert_eq!(q.dim(), self.dim, "dimension mismatch");
        }
        let n = queries.len();
        let k = self.classes.len();
        let mut out = Tensor::zeros([n, k]);
        if n == 0 || k == 0 {
            return out;
        }
        let work = 2 * (n as u64) * (k as u64) * (self.dim as u64);
        let mut sp = nshd_obs::span("int8_score");
        sp.add_flops(work);
        sp.add_bytes(
            (n as u64) * (self.dim as u64).div_ceil(8) + (k * self.dim + 4 * n * k) as u64,
        );
        if par::should_parallelize(work) {
            par::par_row_chunks(out.as_mut_slice(), k, |row0, chunk| {
                let rows = chunk.len() / k;
                self.mask_add_rows(&queries[row0..row0 + rows], chunk);
            });
        } else {
            self.mask_add_rows(queries, out.as_mut_slice());
        }
        out
    }

    /// Batch predictions: row-wise `argmax` of
    /// [`Self::similarities_batch`], ties to the last maximum — the same
    /// rule as [`Self::predict`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or the memory has no classes.
    pub fn predict_batch(&self, queries: &[PackedHv]) -> Vec<usize> {
        assert!(!self.classes.is_empty(), "memory has at least one class");
        let sims = self.similarities_batch(queries);
        sims.as_slice().chunks(self.classes.len()).map(argmax_last).collect()
    }

    /// Scores one run of query rows into `out` (`queries.len()` rows of
    /// `num_classes()` scores): one byte-mask expansion per query, then
    /// `acc = 2·masked_sum − row_sum` and the pointwise de-scale per
    /// class.
    fn mask_add_rows(&self, queries: &[PackedHv], out: &mut [f32]) {
        let sqrt_d = (self.dim as f32).sqrt();
        let k = self.classes.len();
        let mut mask = vec![0i8; self.dim];
        for (q, row) in queries.iter().zip(out.chunks_mut(k)) {
            q.expand_into(&mut mask, -1, 0);
            for ((class, stats), (&scale, slot)) in
                self.classes.iter().zip(&self.stats).zip(self.scales.iter().zip(row.iter_mut()))
            {
                let acc = 2 * masked_sum(class, &mask) - stats.row_sum;
                let norm = stats.norm;
                *slot = if norm == 0.0 { 0.0 } else { (acc as f32 * scale) / (norm * sqrt_d) };
            }
        }
    }

    /// Classification accuracy over labelled hypervectors.
    pub fn accuracy(&self, samples: &[(BipolarHv, usize)]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples.iter().filter(|(h, l)| self.predict(h) == *l).count();
        correct as f32 / samples.len() as f32
    }

    /// The per-class dequantisation scales (one `f32` per class).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Deployment bytes: one `i8` per component plus one `f32` scale per
    /// class — vs 4 bytes per component for the f32 memory.
    pub fn size_bytes(&self) -> u64 {
        (self.classes.len() * self.dim) as u64 + (self.classes.len() * 4) as u64
    }
}

/// A fully binarised class memory: each class hypervector reduced to its
/// sign pattern and bit-packed; similarity by popcount — the paper's
/// constant-memory GPGPU representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMemory {
    dim: usize,
    classes: Vec<PackedHv>,
}

impl PackedMemory {
    /// Binarises a trained memory: `sign` of each class accumulator.
    pub fn from_memory(memory: &AssociativeMemory) -> Self {
        let classes = (0..memory.num_classes())
            .map(|c| BipolarHv::from_signs(memory.class(c)).to_packed())
            .collect();
        PackedMemory { dim: memory.dim(), classes }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed class hypervector for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class(&self, class: usize) -> &PackedHv {
        &self.classes[class]
    }

    /// Mutable packed class hypervector — the hook [`crate::FaultPlan`]
    /// uses to model bit upsets in the FPGA's binary class memory.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_mut(&mut self, class: usize) -> &mut PackedHv {
        &mut self.classes[class]
    }

    /// Hamming-based cosine similarities against each binary class.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn similarities(&self, hv: &PackedHv) -> Vec<f32> {
        assert_eq!(hv.dim(), self.dim, "dimension mismatch");
        self.classes.iter().map(|c| cosine_packed(c, hv)).collect()
    }

    /// Predicted class. Ties resolve to the last maximum (highest class
    /// index).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn predict(&self, hv: &PackedHv) -> usize {
        argmax_last(&self.similarities(hv))
    }

    /// Batch popcount scoring GEMM: similarities of `queries.len()`
    /// packed query rows against all `num_classes()` packed class rows,
    /// as an `N×num_classes` tensor.
    ///
    /// The inner product is an XNOR+popcount over 64-bit words, tiled
    /// four words at a time across independent lanes — exact integer
    /// arithmetic, so the tiling cannot change a single bit relative to
    /// the pointwise [`Self::similarities`] (`dot / D` with the same
    /// final f32 division). Row-parallel across the [`par`] workers for
    /// large batches.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimensionality disagrees.
    pub fn similarities_batch(&self, queries: &[PackedHv]) -> Tensor {
        for q in queries {
            assert_eq!(q.dim(), self.dim, "dimension mismatch");
        }
        let n = queries.len();
        let k = self.classes.len();
        let mut out = Tensor::zeros([n, k]);
        if n == 0 || k == 0 {
            return out;
        }
        let mut sp = nshd_obs::span("packed_score");
        sp.add_flops(2 * (n as u64) * (k as u64) * (self.dim as u64));
        sp.add_bytes(((n + k) as u64) * (self.dim as u64).div_ceil(8) + (4 * n * k) as u64);
        let work = 2 * (n as u64) * (k as u64) * (self.dim as u64);
        if par::should_parallelize(work) {
            par::par_row_chunks(out.as_mut_slice(), k, |row0, chunk| {
                let rows = chunk.len() / k;
                self.popcount_rows(&queries[row0..row0 + rows], chunk);
            });
        } else {
            self.popcount_rows(queries, out.as_mut_slice());
        }
        out
    }

    /// Batch predictions: row-wise `argmax` of
    /// [`Self::similarities_batch`], ties to the last maximum — the same
    /// rule as [`Self::predict`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or the memory has no classes.
    pub fn predict_batch(&self, queries: &[PackedHv]) -> Vec<usize> {
        assert!(!self.classes.is_empty(), "memory has at least one class");
        let sims = self.similarities_batch(queries);
        sims.as_slice().chunks(self.classes.len()).map(argmax_last).collect()
    }

    /// Scores one run of query rows into `out`: XNOR+popcount word
    /// tiles, then the pointwise `dot / D` de-scale per element.
    fn popcount_rows(&self, queries: &[PackedHv], out: &mut [f32]) {
        let k = self.classes.len();
        let dim = self.dim as f32;
        for (q, row) in queries.iter().zip(out.chunks_mut(k)) {
            for (class, slot) in self.classes.iter().zip(row.iter_mut()) {
                let ham = hamming_tiled(class.words(), q.words());
                let dot = self.dim as i64 - 2 * ham as i64;
                *slot = dot as f32 / dim;
            }
        }
    }

    /// Classification accuracy over labelled bipolar hypervectors.
    pub fn accuracy(&self, samples: &[(BipolarHv, usize)]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples.iter().filter(|(h, l)| self.predict(&h.to_packed()) == *l).count();
        correct as f32 / samples.len() as f32
    }

    /// Deployment bytes: one bit per component.
    pub fn size_bytes(&self) -> u64 {
        (self.classes.len() as u64) * (self.dim as u64).div_ceil(8)
    }
}

/// `Σ cells[i] & mask[i]`, block by block, exact for any length and any
/// `i8` cells (module docs). Full blocks have a constant trip count, so
/// the compiler vectorises them.
fn masked_sum(cells: &[i8], mask: &[i8]) -> i64 {
    let (blocks, tail) = cells.as_chunks::<BLOCK>();
    let (mask_blocks, mask_tail) = mask.as_chunks::<BLOCK>();
    let full: i64 = blocks
        .iter()
        .zip(mask_blocks)
        .map(|(c, m)| masked_pair_sum(c.as_chunks().0, m.as_chunks().0))
        .sum();
    let (pairs, odd) = tail.as_chunks::<2>();
    let (mask_pairs, mask_odd) = mask_tail.as_chunks::<2>();
    let odd: i64 = odd.iter().zip(mask_odd).map(|(&c, &m)| i64::from(c & m)).sum();
    full + masked_pair_sum(pairs, mask_pairs) + odd
}

/// `Σ c & m` over at most `BLOCK / 2` cell pairs. Each pair is read as
/// one little-endian `i16` word and masked in one operation; the
/// arithmetic shifts `(w << 8) >> 8` and `w >> 8` then recover the two
/// sign-extended cells, which sum into one `i16` lane each (at most 128
/// cells per lane, so `|lane| ≤ 16384`).
fn masked_pair_sum(cells: &[[i8; 2]], mask: &[[i8; 2]]) -> i64 {
    let (mut lo, mut hi) = (0i16, 0i16);
    for (c, m) in cells.iter().zip(mask) {
        let w = i16::from_le_bytes(c.map(|v| v as u8)) & i16::from_le_bytes(m.map(|v| v as u8));
        lo += (w << 8) >> 8;
        hi += w >> 8;
    }
    i64::from(lo) + i64::from(hi)
}

/// Hamming distance over packed words, tiled four words at a time
/// across independent accumulator lanes (XOR+popcount; the XNOR match
/// count is `dim - hamming`). Integer arithmetic is exact in any
/// association, so the tiling is bit-identical to the sequential
/// [`PackedHv::hamming`].
fn hamming_tiled(a: &[u64], b: &[u64]) -> u64 {
    let mut lanes = [0u64; 4];
    let tiles = a.len() / 4;
    for t in 0..tiles {
        let i = t * 4;
        lanes[0] += u64::from((a[i] ^ b[i]).count_ones());
        lanes[1] += u64::from((a[i + 1] ^ b[i + 1]).count_ones());
        lanes[2] += u64::from((a[i + 2] ^ b[i + 2]).count_ones());
        lanes[3] += u64::from((a[i + 3] ^ b[i + 3]).count_ones());
    }
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for i in tiles * 4..a.len() {
        total += u64::from((a[i] ^ b[i]).count_ones());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mass::{bundle_init, MassTrainer};
    use nshd_tensor::Rng;

    fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
        BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
    }

    /// A trained memory on a noisy prototype task plus held-out queries.
    fn trained_task(dim: usize) -> (AssociativeMemory, Vec<(BipolarHv, usize)>) {
        let mut rng = Rng::new(3);
        let classes = 6;
        let prototypes: Vec<BipolarHv> = (0..classes).map(|_| random_hv(dim, &mut rng)).collect();
        let noisy = |proto: &BipolarHv, rng: &mut Rng| {
            BipolarHv::new(
                proto.components().iter().map(|&s| if rng.chance(0.25) { -s } else { s }).collect(),
            )
        };
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..10 {
                train.push((noisy(proto, &mut rng), c));
                test.push((noisy(proto, &mut rng), c));
            }
        }
        let mut memory = bundle_init(classes, dim, &train);
        let trainer = MassTrainer::new(0.2);
        for _ in 0..5 {
            trainer.epoch(&mut memory, &train);
        }
        (memory, test)
    }

    #[test]
    fn int8_quantisation_preserves_accuracy() {
        let (memory, test) = trained_task(2_048);
        let float_acc = memory.accuracy(&test);
        let quant = QuantizedMemory::from_memory(&memory);
        let quant_acc = quant.accuracy(&test);
        assert!(float_acc > 0.9, "float accuracy {float_acc}");
        // The paper's §VI-B claim: quantisation has very minor impact.
        assert!(
            (float_acc - quant_acc).abs() < 0.03,
            "quantisation changed accuracy too much: {float_acc} → {quant_acc}"
        );
    }

    #[test]
    fn binarisation_preserves_most_accuracy() {
        let (memory, test) = trained_task(4_096);
        let float_acc = memory.accuracy(&test);
        let binary = PackedMemory::from_memory(&memory);
        let bin_acc = binary.accuracy(&test);
        assert!(bin_acc > float_acc - 0.1, "binarisation lost too much: {float_acc} → {bin_acc}");
    }

    #[test]
    fn quantised_similarities_track_float_similarities() {
        let (memory, test) = trained_task(1_024);
        let quant = QuantizedMemory::from_memory(&memory);
        for (hv, _) in test.iter().take(10) {
            let f = memory.similarities(hv);
            let q = quant.similarities(hv);
            for (a, b) in f.iter().zip(&q) {
                assert!((a - b).abs() < 0.02, "similarity drift {a} vs {b}");
            }
        }
    }

    #[test]
    fn deployment_sizes_shrink() {
        let (memory, _) = trained_task(1_024);
        let float_bytes = (memory.param_count() * 4) as u64;
        let quant = QuantizedMemory::from_memory(&memory);
        let binary = PackedMemory::from_memory(&memory);
        assert!(quant.size_bytes() < float_bytes / 3);
        assert!(binary.size_bytes() < quant.size_bytes() / 7);
        assert_eq!(quant.num_classes(), memory.num_classes());
        assert_eq!(binary.dim(), memory.dim());
    }

    #[test]
    fn empty_sample_sets_score_zero() {
        let (memory, _) = trained_task(256);
        assert_eq!(QuantizedMemory::from_memory(&memory).accuracy(&[]), 0.0);
        assert_eq!(PackedMemory::from_memory(&memory).accuracy(&[]), 0.0);
    }

    #[test]
    fn all_zero_class_quantises_to_zero_without_panicking() {
        // Class 1 never receives a sample: its accumulator stays all
        // zeros and quantisation must fall back to scale 1.0 instead of
        // dividing by zero.
        let mut rng = Rng::new(31);
        let dim = 512;
        let mut memory = AssociativeMemory::new(3, dim);
        let a = random_hv(dim, &mut rng);
        let c = random_hv(dim, &mut rng);
        memory.bundle(0, &a);
        memory.bundle(2, &c);
        let quant = QuantizedMemory::from_memory(&memory);
        assert!(quant.class(1).iter().all(|&v| v == 0), "zero class must stay zero");
        let sims = quant.similarities(&a);
        assert!(sims.iter().all(|v| v.is_finite()), "{sims:?}");
        assert_eq!(sims[1], 0.0, "empty class similarity {sims:?}");
        assert_eq!(quant.predict(&a), 0);
        // The binary deployment of the same memory stays usable too.
        let binary = PackedMemory::from_memory(&memory);
        assert_eq!(binary.predict(&a.to_packed()), 0);
    }

    #[test]
    fn single_component_classes_round_trip() {
        let memory = AssociativeMemory::from_classes(vec![vec![3.0], vec![-2.0]]);
        let quant = QuantizedMemory::from_memory(&memory);
        assert_eq!(quant.dim(), 1);
        assert_eq!(quant.class(0), &[127]);
        assert_eq!(quant.class(1), &[-127]);
        let plus = BipolarHv::new(vec![1]);
        let minus = BipolarHv::new(vec![-1]);
        assert_eq!(quant.predict(&plus), memory.predict(&plus));
        assert_eq!(quant.predict(&minus), memory.predict(&minus));
    }

    #[test]
    fn quantised_predictions_agree_with_float_memory() {
        let (memory, test) = trained_task(2_048);
        let quant = QuantizedMemory::from_memory(&memory);
        let agree = test.iter().filter(|(hv, _)| quant.predict(hv) == memory.predict(hv)).count();
        // INT8 is a faithful deployment: sample-level decisions match on
        // (almost) every query, not just in aggregate accuracy.
        assert!(
            agree as f32 / test.len() as f32 > 0.95,
            "only {agree}/{} predictions agree",
            test.len()
        );
    }
}
