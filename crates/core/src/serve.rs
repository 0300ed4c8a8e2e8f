//! Direct HD serving: scoring pre-encoded quantised queries with no CNN
//! stage.
//!
//! [`HdDeployEngine`] is the serving-side counterpart of the paper's
//! §VI-B deployments for clients that ship *already encoded*
//! hypervectors over the wire (`nshd-wire/v1` INT8 and packed payload
//! kinds): a query arrives as an [`HdQuery`], its sign pattern is
//! extracted **in its native representation** ([`HdQuery::sign_hv`] —
//! no dequantize-to-f32 step), and the batch is scored by an
//! [`HdScorer`]'s popcount/INT8 GEMM. `nshd-runtime` exposes it
//! as a [`BatchEngine`] so the whole replicated serving tier (replica
//! sets, chaos testing, the TCP front end) works over quantised
//! queries unchanged.
//!
//! [`BatchEngine`]: ../../nshd_runtime/trait.BatchEngine.html

use crate::robust::PipelineError;
use nshd_hdc::{AssociativeMemory, HdQuery, HdScorer, QueryHv, ScoringMode};
use nshd_tensor::TensorError;
use std::sync::Arc;

/// A deployed class memory serving pre-encoded [`HdQuery`] batches: an
/// [`HdScorer`] plus sign extraction and typed errors.
#[derive(Debug, Clone)]
pub struct HdDeployEngine {
    scorer: HdScorer,
}

// Replica sets share the engine across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HdDeployEngine>();
};

impl HdDeployEngine {
    /// Compiles `memory` for `mode`.
    #[must_use]
    pub fn new(memory: AssociativeMemory, mode: ScoringMode) -> Self {
        HdDeployEngine { scorer: HdScorer::new(Arc::new(memory), mode) }
    }

    /// The scoring mode this deployment serves with.
    pub fn scoring_mode(&self) -> ScoringMode {
        self.scorer.mode()
    }

    /// The dense memory the deployment was compiled from.
    pub fn memory(&self) -> &AssociativeMemory {
        self.scorer.memory()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.memory().num_classes()
    }

    /// Hypervector dimensionality queries must match.
    pub fn dim(&self) -> usize {
        self.memory().dim()
    }

    /// Stage 1 — per-query sign extraction in the query's native
    /// representation (the data-parallel half: no shared state).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] naming the expected and actual
    /// widths when a query's dimensionality disagrees with the memory.
    #[must_use = "sign extraction can fail on malformed queries"]
    pub fn try_sign(&self, queries: &[HdQuery]) -> Result<Vec<QueryHv>, PipelineError> {
        let dim = self.dim();
        queries
            .iter()
            .map(|q| {
                if q.dim() != dim {
                    return Err(TensorError::IncompatibleShapes {
                        lhs: vec![dim],
                        rhs: vec![q.dim()],
                    }
                    .into());
                }
                Ok(q.sign_hv())
            })
            .collect()
    }

    /// Stage 2 — one batch scoring GEMM over the sign queries.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::EmptyBatch`] if the deployment has no
    /// classes to score against (a misconfigured memory).
    #[must_use = "scoring can fail on a class-less deployment"]
    pub fn try_score(&self, queries: Vec<QueryHv>) -> Result<Vec<usize>, PipelineError> {
        if self.num_classes() == 0 {
            return Err(PipelineError::EmptyBatch);
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let _sp = nshd_obs::span("score");
        Ok(self.scorer.predict(queries))
    }

    /// Batch predictions for wire-shaped queries: sign extraction then
    /// one scoring GEMM.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::try_sign`] / [`Self::try_score`] errors.
    #[must_use = "prediction can fail on malformed queries"]
    pub fn try_predict_batch(&self, queries: &[HdQuery]) -> Result<Vec<usize>, PipelineError> {
        self.try_score(self.try_sign(queries)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshd_hdc::{BipolarHv, Int8Vec};

    fn bipolar_row(dim: usize, seed: u64) -> Vec<f32> {
        (0..dim)
            .map(|i| if (seed.wrapping_mul(i as u64 + 13) >> 2) & 1 == 1 { 1.0 } else { -1.0 })
            .collect()
    }

    fn deployment(mode: ScoringMode) -> HdDeployEngine {
        let rows: Vec<Vec<f32>> = (0..5).map(|c| bipolar_row(256, c as u64 + 3)).collect();
        HdDeployEngine::new(AssociativeMemory::from_classes(rows), mode)
    }

    #[test]
    fn all_payload_kinds_score_identically_to_dense_signs() {
        for mode in [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed] {
            let engine = deployment(mode);
            assert_eq!(engine.scoring_mode(), mode);
            let raw: Vec<Vec<f32>> = (0..8)
                .map(|s| {
                    bipolar_row(256, s + 101).iter().map(|v| v * (0.3 + s as f32 * 0.1)).collect()
                })
                .collect();
            // The same vectors in all three wire encodings.
            let dense: Vec<HdQuery> = raw.iter().map(|v| HdQuery::Dense(v.clone())).collect();
            let int8: Vec<HdQuery> =
                raw.iter().map(|v| HdQuery::Int8(Int8Vec::quantize(v))).collect();
            let packed: Vec<HdQuery> =
                raw.iter().map(|v| HdQuery::Packed(nshd_hdc::pack_signs(v))).collect();
            let want: Vec<usize> =
                raw.iter().map(|v| engine.memory().predict(&BipolarHv::from_signs(v))).collect();
            assert_eq!(engine.try_predict_batch(&dense).unwrap(), want, "{}", mode.name());
            assert_eq!(engine.try_predict_batch(&int8).unwrap(), want, "{}", mode.name());
            assert_eq!(engine.try_predict_batch(&packed).unwrap(), want, "{}", mode.name());
        }
    }

    #[test]
    fn malformed_queries_are_reported() {
        let engine = deployment(ScoringMode::Packed);
        let err = engine.try_predict_batch(&[HdQuery::Dense(vec![1.0; 17])]).unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        let err = engine
            .try_predict_batch(&[HdQuery::Packed(BipolarHv::from_signs(&[1.0; 64]).to_packed())])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        assert!(engine.try_predict_batch(&[]).unwrap().is_empty());
    }
}
