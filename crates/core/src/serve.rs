//! Serving pre-encoded queries: the zero-head [`Engine`].
//!
//! Clients that ship *already encoded* hypervectors over the wire
//! (`nshd-wire/v1` dense, INT8 and packed payload kinds) are served by an
//! `Engine<HdQuery>`: a query's sign pattern is extracted **in its native
//! representation** ([`HdQuery::sign_hv`], no dequantize-to-f32 step) and
//! the batch is scored by the state's popcount/INT8/dense GEMM. It is the
//! same engine, publish path and runtime implementation as image
//! serving, with no heads in front of the scorer.

use crate::engine::{AsEngine, Engine, EngineInput, EngineState};
use crate::robust::PipelineError;
use nshd_hdc::{AssociativeMemory, HdQuery, QueryHv, ScoringMode};
use nshd_tensor::TensorError;
use std::sync::Arc;

/// Pre-encoded queries: per-query sign extraction in the native
/// representation, after checking each query's width against the
/// memory.
impl EngineInput for HdQuery {
    const HEADED: bool = false;

    fn queries(state: &EngineState, queries: &[HdQuery]) -> Result<Vec<QueryHv>, PipelineError> {
        let dim = state.memory().dim();
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
}

/// Benchmark name (see `engine.rs`) for an `Engine<HdQuery>` over one
/// memory. It also keeps the memory it was compiled from, which
/// [`memory`](HdDeployEngine::memory) lends out.
pub struct HdDeployEngine {
    engine: Engine<HdQuery>,
    memory: Arc<AssociativeMemory>,
}

impl HdDeployEngine {
    /// [`Engine::new`] over `memory` scored with `mode`.
    ///
    /// # Panics
    ///
    /// Panics with the verification report when the memory holds
    /// non-finite values.
    #[must_use]
    pub fn new(memory: AssociativeMemory, mode: ScoringMode) -> Self {
        let memory = Arc::new(memory);
        let state = EngineState::new(Vec::new(), Arc::clone(&memory), mode);
        let engine = Engine::new(state).unwrap_or_else(|report| panic!("{report}"));
        HdDeployEngine { engine, memory }
    }

    /// The memory the deployment was compiled from.
    pub fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    /// The state's [`EngineInput::queries`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] for a query of the wrong width.
    pub fn try_sign(&self, queries: &[HdQuery]) -> Result<Vec<QueryHv>, PipelineError> {
        HdQuery::queries(&self.engine.state(), queries)
    }

    /// The state's [`EngineState::score`].
    ///
    /// # Errors
    ///
    /// Never fails; the signature is the benchmark's.
    pub fn try_score(&self, queries: Vec<QueryHv>) -> Result<Vec<usize>, PipelineError> {
        Ok(self.engine.state().score(queries))
    }

    /// The state's [`EngineState::predict_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] for a query of the wrong width.
    pub fn try_predict_batch(&self, queries: &[HdQuery]) -> Result<Vec<usize>, PipelineError> {
        self.engine.state().predict_batch(queries)
    }
}

impl AsEngine for HdDeployEngine {
    type Input = HdQuery;

    fn engine(&self) -> &Engine<HdQuery> {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Stage;
    use nshd_hdc::{BipolarHv, Int8Vec};

    fn bipolar_row(dim: usize, seed: u64) -> Vec<f32> {
        (0..dim)
            .map(|i| if (seed.wrapping_mul(i as u64 + 13) >> 2) & 1 == 1 { 1.0 } else { -1.0 })
            .collect()
    }

    fn memory() -> AssociativeMemory {
        AssociativeMemory::from_classes((0..5).map(|c| bipolar_row(256, c as u64 + 3)).collect())
    }

    fn deployment(mode: ScoringMode) -> Engine<HdQuery> {
        Engine::new(EngineState::new(Vec::new(), Arc::new(memory()), mode)).expect("verifies")
    }

    #[test]
    fn all_payload_kinds_score_identically_to_dense_signs() {
        for mode in [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed] {
            let engine = deployment(mode);
            let state = engine.state();
            assert_eq!(state.scoring_mode(), mode);
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
                raw.iter().map(|v| state.memory().predict(&BipolarHv::from_signs(v))).collect();
            assert_eq!(state.predict_batch(&dense).unwrap(), want, "{}", mode.name());
            assert_eq!(state.predict_batch(&int8).unwrap(), want, "{}", mode.name());
            assert_eq!(state.predict_batch(&packed).unwrap(), want, "{}", mode.name());
        }
    }

    #[test]
    fn malformed_queries_are_reported() {
        let state = deployment(ScoringMode::Packed).state();
        let err = state.predict_batch(&[HdQuery::Dense(vec![1.0; 17])]).unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        let err = state
            .predict_batch(&[HdQuery::Packed(BipolarHv::from_signs(&[1.0; 64]).to_packed())])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        assert!(state.predict_batch::<HdQuery>(&[]).unwrap().is_empty());
    }

    #[test]
    fn zero_head_engines_verify_their_memory() {
        // A class memory holding a NaN is rejected at construction and at
        // publish, exactly as an image engine's is.
        let mut poisoned = memory();
        poisoned.class_mut(2)[7] = f32::NAN;
        let state = EngineState::new(Vec::new(), Arc::new(poisoned.clone()), ScoringMode::Int8);
        let report = Engine::<HdQuery>::new(state).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert!(report.to_string().contains("non-finite"), "{report}");

        let engine = deployment(ScoringMode::Int8);
        let err = engine.swap_memory(poisoned).unwrap_err();
        assert!(matches!(err, PipelineError::Analysis(_)), "{err}");
        assert!(engine.state().memory().is_finite(), "a rejected swap must not publish");
        engine.verify().expect("the served state still verifies");
    }
}
