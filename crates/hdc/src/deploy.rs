//! Quantised serving deployments: scoring backends and wire-shaped
//! queries, so INT8 and bit-packed requests are scored end-to-end
//! without ever densifying to f32.
//!
//! The paper's §VI-B deployments (INT8 via Vitis-AI, binary constant
//! memory on GPGPU) become a [`ScoringMode`] choice here: an
//! [`HdScorer`] holds a trained dense [`AssociativeMemory`] together
//! with the [`ScoringBackend`] compiled from it (identity for
//! [`ScoringMode::Dense`], [`QuantizedMemory`] for
//! [`ScoringMode::Int8`], [`PackedMemory`] for [`ScoringMode::Packed`]),
//! and batch queries are scored by that backend's batch GEMM.
//!
//! # Sign extraction without densifying
//!
//! A wire query arrives as an [`HdQuery`]: raw f32, INT8, or packed
//! signs. Scoring only consumes the query's sign pattern, and
//! [`HdQuery::sign_hv`] extracts it **directly from the compact form**,
//! guaranteed to equal `BipolarHv::from_signs(&query.to_dense())` for
//! every input:
//!
//! - packed payloads already are the sign pattern;
//! - INT8 payloads dequantize as `v as f32 * scale`, so for a normal
//!   positive scale the dense sign is just `v < 0`. The special cases
//!   follow `from_signs`' "`< 0` → −1, else +1" rule through the float
//!   multiply: a zero or NaN scale makes every product `±0`/NaN (all
//!   +1), and a negative scale flips `v > 0` to −1 (`±inf` scales
//!   behave like any other nonzero sign).
//!
//! # Why quantised predictions can match dense ones exactly
//!
//! For the ±1 class memories used in the end-to-end tests, all three
//! backends' score vectors are positive multiples of the same integer
//! dot-product vector (±1 quantises losslessly to ±127 under one common
//! scale; packed scoring divides the same dot by `D`). Monotone
//! per-class de-scaling with a common positive factor cannot reorder or
//! merge distinct dots at serving dimensionalities (`D ≪ 2²⁴`), and
//! every predictor resolves ties to the last maximum — so `argmax` is
//! the *same function* across Dense/Int8/Packed, which
//! `crates/net/tests/e2e.rs` verifies over the wire.

use crate::hypervector::{BipolarHv, PackedHv};
use crate::memory::AssociativeMemory;
use crate::payload::Int8Vec;
use crate::quantized::{PackedMemory, QuantizedMemory};
use std::sync::Arc;

/// Which memory representation a deployment scores against (§VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoringMode {
    /// Full-precision f32 accumulators, dense cosine scoring.
    Dense,
    /// Symmetric per-class INT8 ([`QuantizedMemory`]).
    Int8,
    /// Sign-binarised and bit-packed, popcount scoring
    /// ([`PackedMemory`]).
    Packed,
}

impl ScoringMode {
    /// Stable lowercase name (bench rows, logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScoringMode::Dense => "dense",
            ScoringMode::Int8 => "int8",
            ScoringMode::Packed => "packed",
        }
    }
}

/// A scoring stage compiled from a dense memory for one
/// [`ScoringMode`]. `Dense` carries nothing — it scores the f32 memory
/// it is handed, through the class panel that memory compiles once and
/// caches — while the quantised modes own their compiled deployment.
/// Serving code holds an [`HdScorer`], which pairs the backend with the
/// memory it was compiled from.
#[derive(Debug, Clone)]
pub enum ScoringBackend {
    /// Score against the dense f32 memory.
    Dense,
    /// Score against a compiled INT8 deployment.
    Int8(QuantizedMemory),
    /// Score against a compiled packed deployment.
    Packed(PackedMemory),
}

impl ScoringBackend {
    /// Compiles `memory` for `mode`.
    #[must_use]
    pub fn build(memory: &AssociativeMemory, mode: ScoringMode) -> Self {
        match mode {
            ScoringMode::Dense => ScoringBackend::Dense,
            ScoringMode::Int8 => ScoringBackend::Int8(QuantizedMemory::from_memory(memory)),
            ScoringMode::Packed => ScoringBackend::Packed(PackedMemory::from_memory(memory)),
        }
    }

    /// The mode this backend was compiled for.
    #[must_use]
    pub fn mode(&self) -> ScoringMode {
        match self {
            ScoringBackend::Dense => ScoringMode::Dense,
            ScoringBackend::Int8(_) => ScoringMode::Int8,
            ScoringBackend::Packed(_) => ScoringMode::Packed,
        }
    }

    /// Batch predictions for bipolar queries; `dense` is the f32 memory
    /// the backend was compiled from, scored only by `Dense`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or the memory has no classes.
    pub fn predict_bipolar(&self, dense: &AssociativeMemory, hvs: &[BipolarHv]) -> Vec<usize> {
        self.predict(dense, hvs.iter().cloned().map(QueryHv::Bipolar).collect())
    }

    /// Batch predictions for sign queries in whichever representation
    /// they arrived; see [`HdScorer::predict`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or the memory has no classes.
    pub fn predict_queries(&self, dense: &AssociativeMemory, queries: &[QueryHv]) -> Vec<usize> {
        self.predict(dense, queries.to_vec())
    }

    /// The one scoring dispatch: moves each query into this backend's
    /// native form (a pure repacking — signs are never re-derived) and
    /// runs the backend's batch GEMM. Ties resolve to the last maximum
    /// in every arm.
    fn predict(&self, dense: &AssociativeMemory, queries: Vec<QueryHv>) -> Vec<usize> {
        let packed = |queries: Vec<QueryHv>| -> Vec<PackedHv> {
            queries.into_iter().map(QueryHv::into_packed).collect()
        };
        match self {
            ScoringBackend::Dense => {
                let bipolar: Vec<BipolarHv> =
                    queries.into_iter().map(QueryHv::into_bipolar).collect();
                dense.predict_batch(&bipolar)
            }
            ScoringBackend::Int8(qm) => qm.predict_batch(&packed(queries)),
            ScoringBackend::Packed(pm) => pm.predict_batch(&packed(queries)),
        }
    }
}

/// A class memory and the [`ScoringBackend`] compiled from it — the one
/// HD scoring stage every serving engine holds.
///
/// [`HdScorer::new`] is the only place a backend is compiled, so the
/// memory and its deployment cannot drift apart: a changed memory (class
/// growth, retraining, fault injection) means a new scorer. Cloning
/// copies the compiled rows; share an `Arc<HdScorer>` where a refcount
/// bump is wanted.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use nshd_hdc::{AssociativeMemory, BipolarHv, HdScorer, QueryHv, ScoringMode};
///
/// let memory = AssociativeMemory::from_classes(vec![vec![1.0; 64], vec![-1.0; 64]]);
/// let scorer = HdScorer::new(Arc::new(memory), ScoringMode::Packed);
/// let query = BipolarHv::from_signs(&[-1.0; 64]);
/// assert_eq!(scorer.predict(vec![QueryHv::Bipolar(query)]), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct HdScorer {
    memory: Arc<AssociativeMemory>,
    backend: ScoringBackend,
}

impl HdScorer {
    /// Compiles `memory` for `mode`.
    #[must_use]
    pub fn new(memory: Arc<AssociativeMemory>, mode: ScoringMode) -> Self {
        let backend = ScoringBackend::build(&memory, mode);
        HdScorer { memory, backend }
    }

    /// The dense memory the backend was compiled from.
    #[must_use]
    pub fn memory(&self) -> &Arc<AssociativeMemory> {
        &self.memory
    }

    /// The mode this scorer serves with.
    #[must_use]
    pub fn mode(&self) -> ScoringMode {
        self.backend.mode()
    }

    /// Batch predictions for sign queries in whichever representation
    /// they arrived: each query moves into the backend's native form
    /// (bipolar for `Dense`, packed for `Int8` and `Packed`) and the batch
    /// is scored by one GEMM. Ties resolve to the last maximum.
    ///
    /// # Panics
    ///
    /// Panics if a query's dimensionality disagrees with the memory.
    pub fn predict(&self, queries: Vec<QueryHv>) -> Vec<usize> {
        self.backend.predict(&self.memory, queries)
    }
}

/// A query's sign pattern, in dense-bipolar or bit-packed form.
/// [`BipolarHv::to_packed`]/[`PackedHv::to_bipolar`] are exact inverses,
/// so the two forms are interchangeable representations of one value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryHv {
    /// One `i8` per component.
    Bipolar(BipolarHv),
    /// One bit per component.
    Packed(PackedHv),
}

impl QueryHv {
    /// Component count.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            QueryHv::Bipolar(hv) => hv.dim(),
            QueryHv::Packed(hv) => hv.dim(),
        }
    }

    /// Converts to the dense bipolar form (no-op if already dense).
    #[must_use]
    pub fn into_bipolar(self) -> BipolarHv {
        match self {
            QueryHv::Bipolar(hv) => hv,
            QueryHv::Packed(hv) => hv.to_bipolar(),
        }
    }

    /// Converts to the packed form (no-op if already packed).
    #[must_use]
    pub fn into_packed(self) -> PackedHv {
        match self {
            QueryHv::Bipolar(hv) => hv.to_packed(),
            QueryHv::Packed(hv) => hv,
        }
    }
}

/// A wire-shaped query in one of the three `nshd-wire/v1` payload
/// encodings, kept compact until scoring decides what it needs.
#[derive(Debug, Clone, PartialEq)]
pub enum HdQuery {
    /// Raw f32 components.
    Dense(Vec<f32>),
    /// Symmetric INT8: `component[i] = values[i] as f32 * scale`.
    Int8(Int8Vec),
    /// Bit-packed ±1 signs.
    Packed(PackedHv),
}

impl HdQuery {
    /// Component count.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            HdQuery::Dense(v) => v.len(),
            HdQuery::Int8(v) => v.len(),
            HdQuery::Packed(v) => v.dim(),
        }
    }

    /// The dense f32 view — exactly the vector
    /// `nshd-net`'s `RequestBody::to_tensor` would produce for the same
    /// payload.
    #[must_use]
    pub fn to_dense(&self) -> Vec<f32> {
        match self {
            HdQuery::Dense(v) => v.clone(),
            HdQuery::Int8(v) => v.dequantize(),
            HdQuery::Packed(v) => crate::payload::unpack_signs(v),
        }
    }

    /// Extracts the query's sign pattern **without densifying**,
    /// bit-equal to `BipolarHv::from_signs(&self.to_dense())` for every
    /// input (see the module docs for the INT8 scale edge cases).
    #[must_use]
    pub fn sign_hv(&self) -> QueryHv {
        match self {
            HdQuery::Dense(v) => QueryHv::Bipolar(BipolarHv::from_signs(v)),
            HdQuery::Int8(q) => {
                let scale = q.scale();
                let components: Vec<i8> = if scale.is_nan() || scale == 0.0 {
                    // `v * scale` is ±0 or NaN for every component;
                    // neither is `< 0`, so everything maps to +1.
                    vec![1; q.len()]
                } else if scale < 0.0 {
                    // A negative scale flips the sign of every nonzero
                    // product; `v == 0` still yields ±0 → +1.
                    q.values().iter().map(|&v| if v > 0 { -1 } else { 1 }).collect()
                } else {
                    q.values().iter().map(|&v| if v < 0 { -1 } else { 1 }).collect()
                };
                QueryHv::Bipolar(BipolarHv::new(components))
            }
            HdQuery::Packed(p) => QueryHv::Packed(p.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sign_matches_dense_route(q: &HdQuery) {
        let direct = q.sign_hv().into_bipolar();
        let via_dense = BipolarHv::from_signs(&q.to_dense());
        assert_eq!(direct, via_dense, "query {q:?}");
    }

    #[test]
    fn int8_sign_extraction_matches_dequantized_signs() {
        let values: Vec<i8> = vec![-127, -3, -1, 0, 1, 5, 127];
        for scale in [1.0f32, 0.25, 1e-30, f32::INFINITY] {
            sign_matches_dense_route(&HdQuery::Int8(Int8Vec::from_parts(scale, values.clone())));
        }
        for scale in [0.0f32, -0.0, f32::NAN] {
            sign_matches_dense_route(&HdQuery::Int8(Int8Vec::from_parts(scale, values.clone())));
        }
        for scale in [-1.0f32, -0.5, f32::NEG_INFINITY] {
            sign_matches_dense_route(&HdQuery::Int8(Int8Vec::from_parts(scale, values.clone())));
        }
    }

    #[test]
    fn dense_and_packed_sign_extraction_round_trip() {
        sign_matches_dense_route(&HdQuery::Dense(vec![0.0, -0.0, 1.5, -2.0, f32::NAN]));
        let packed = crate::payload::pack_signs(&[1.0, -1.0, -1.0, 1.0, 1.0]);
        let q = HdQuery::Packed(packed.clone());
        sign_matches_dense_route(&q);
        assert_eq!(q.sign_hv().into_packed(), packed);
        assert_eq!(q.dim(), 5);
    }

    #[test]
    fn scorer_matches_each_memory_predictor_for_every_query_form() {
        use crate::fault::FaultPlan;
        use nshd_tensor::Rng;
        use std::sync::Arc;

        let (classes, dim) = (5, 200);
        let mut rng = Rng::new(19);
        let mut random_hv =
            || BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect());
        // Bundled (non-±1) rows so the three backends genuinely differ;
        // class `classes - 1` duplicates class 1 so ties occur.
        let mut memory = AssociativeMemory::new(classes, dim);
        for c in 0..classes - 1 {
            for _ in 0..3 {
                memory.bundle(c, &random_hv());
            }
        }
        let duplicate = memory.class(1).to_vec();
        memory.class_mut(classes - 1).copy_from_slice(&duplicate);
        let mut faulted = memory.clone();
        FaultPlan::new(3, 0.3).corrupt_associative(&mut faulted, 0);

        let tie = BipolarHv::from_signs(memory.class(1));
        let hvs: Vec<BipolarHv> = (0..7).map(|_| random_hv()).chain([tie]).collect();
        let packed: Vec<PackedHv> = hvs.iter().map(BipolarHv::to_packed).collect();
        let reference = |memory: &AssociativeMemory, mode: ScoringMode| match mode {
            ScoringMode::Dense => memory.predict_batch(&hvs),
            ScoringMode::Int8 => QuantizedMemory::from_memory(memory).predict_batch(&packed),
            ScoringMode::Packed => PackedMemory::from_memory(memory).predict_batch(&packed),
        };
        for mode in [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed] {
            // The faults move predictions, so a scorer still holding the
            // clean backend would be caught below.
            assert_ne!(reference(&faulted, mode), reference(&memory, mode), "{}", mode.name());
            for form in ["bipolar", "packed"] {
                let queries = || -> Vec<QueryHv> {
                    match form {
                        "bipolar" => hvs.iter().cloned().map(QueryHv::Bipolar).collect(),
                        _ => packed.iter().cloned().map(QueryHv::Packed).collect(),
                    }
                };
                let scorer = HdScorer::new(Arc::new(memory.clone()), mode);
                assert_eq!(scorer.mode(), mode);
                let preds = scorer.predict(queries());
                assert_eq!(preds, reference(&memory, mode), "{} / {form}", mode.name());
                // The query equal to the duplicated class row ties
                // classes 1 and `classes - 1`: the last maximum wins.
                assert_eq!(preds.last(), Some(&(classes - 1)), "{} / {form}", mode.name());
                let hurt = HdScorer::new(Arc::new(faulted.clone()), mode);
                assert_eq!(hurt.memory().as_ref(), &faulted);
                assert_eq!(
                    hurt.predict(queries()),
                    reference(&faulted, mode),
                    "{} / {form}: faulted scorer",
                    mode.name()
                );
            }
        }
    }
}
