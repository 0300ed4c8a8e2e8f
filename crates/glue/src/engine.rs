//! The benchmark name for serving a fused ensemble.
//!
//! A fused ensemble is served by `nshd-core`'s one
//! [`Engine`](nshd_core::Engine): its heads in front of the consensus
//! memory, with memory, head and scoring swaps and live class growth
//! published copy-on-write. [`GlueEngine`] only forwards to it, because
//! the serving benchmark (`perfbench/`) builds against this name;
//! ROADMAP item 3 lists every such name.

use crate::ensemble::GlueEnsemble;
use nshd_core::{AsEngine, Engine, EngineState, PipelineError};
use nshd_hdc::{AssociativeMemory, ScoringMode};
use nshd_tensor::Tensor;
use std::sync::Arc;

/// Benchmark name for an [`Engine<Tensor>`] serving a fused ensemble.
pub struct GlueEngine(Engine<Tensor>);

impl GlueEngine {
    /// [`Engine::new`] over the ensemble's heads and consensus memory.
    ///
    /// # Panics
    ///
    /// Never for an ensemble [`GlueEnsemble::fuse`] built, which has
    /// verified the same state.
    pub fn new(ensemble: GlueEnsemble) -> Self {
        GlueEngine(
            Engine::new(ensemble.state().clone()).unwrap_or_else(|report| panic!("{report}")),
        )
    }

    /// [`Engine::state`].
    pub fn state(&self) -> Arc<EngineState> {
        self.0.state()
    }

    /// [`Engine::swap_memory`].
    ///
    /// # Errors
    ///
    /// See [`Engine::swap_memory`].
    pub fn swap_memory(
        &self,
        memory: AssociativeMemory,
    ) -> Result<Arc<EngineState>, PipelineError> {
        self.0.swap_memory(memory)
    }

    /// [`Engine::set_scoring`].
    ///
    /// # Errors
    ///
    /// See [`Engine::set_scoring`].
    pub fn set_scoring(&self, mode: ScoringMode) -> Result<Arc<EngineState>, PipelineError> {
        self.0.set_scoring(mode)
    }
}

impl AsEngine for GlueEngine {
    type Input = Tensor;

    fn engine(&self) -> &Engine<Tensor> {
        &self.0
    }
}
