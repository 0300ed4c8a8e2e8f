//! Serving a fused ensemble with in-flight hot-swap.
//!
//! [`GlueEngine`] implements the runtime's
//! [`BatchEngine`](nshd_runtime::BatchEngine) over a copy-on-write
//! [`GlueState`] (heads + consensus memory). The runtime pins exactly
//! one state snapshot per batch, so [`swap_memory`](GlueEngine::swap_memory),
//! [`swap_head`](GlueEngine::swap_head), and live class growth can all
//! happen mid-traffic: batches that started before a swap keep serving
//! the old snapshot bit-exactly, batches that start after it serve the
//! new one — never a mixture.

use crate::ensemble::{fuse_encode, GlueEnsemble};
use crate::head::GlueHead;
use nshd_core::{verify_ensemble, PipelineError};
use nshd_hdc::{AssociativeMemory, BipolarHv, HdScorer, MemorySnapshot, QueryHv, ScoringMode};
use nshd_runtime::BatchEngine;
use nshd_tensor::Tensor;
use std::sync::{Arc, RwLock};

/// One immutable generation of a serving ensemble: the teacher heads
/// and the consensus memory scorer one batch is answered against.
///
/// States are published [`Arc`]-swap style by [`GlueEngine`]; nothing
/// in a state mutates after publication, so any number of in-flight
/// batches can share one state concurrently and bit-exactly.
#[derive(Clone)]
pub struct GlueState {
    heads: Vec<Arc<GlueHead>>,
    scorer: Arc<HdScorer>,
}

impl std::fmt::Debug for GlueState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlueState")
            .field("heads", &self.heads.len())
            .field("classes", &self.num_classes())
            .field("dim", &self.memory().dim())
            .field("scoring", &self.scoring_mode().name())
            .finish()
    }
}

impl GlueState {
    /// A state scoring `memory` with `mode` against `heads`.
    pub(crate) fn new(
        heads: Vec<Arc<GlueHead>>,
        memory: MemorySnapshot,
        mode: ScoringMode,
    ) -> Self {
        GlueState { heads, scorer: Arc::new(HdScorer::new(memory, mode)) }
    }

    /// The teacher heads, in fuse order.
    pub fn heads(&self) -> &[Arc<GlueHead>] {
        &self.heads
    }

    /// The consensus memory this state scores against.
    pub fn memory(&self) -> &AssociativeMemory {
        self.scorer.memory()
    }

    /// Number of classes this state predicts over.
    pub fn num_classes(&self) -> usize {
        self.memory().num_classes()
    }

    /// Statically verifies head/memory dimension agreement
    /// ([`nshd_core::verify_ensemble`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] naming the first violated
    /// invariant.
    pub fn verify(&self) -> Result<(), PipelineError> {
        let dims: Vec<_> = self.heads.iter().map(|h| h.dims()).collect();
        verify_ensemble(&dims, self.memory()).map_err(PipelineError::from)
    }

    /// Weighted fused encoding of a batch of CHW images against this
    /// state's heads.
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn encode_fused(&self, images: &[Tensor]) -> Result<Vec<BipolarHv>, PipelineError> {
        fuse_encode(&self.heads, images)
    }

    /// The scoring mode this state answers batches with.
    pub fn scoring_mode(&self) -> ScoringMode {
        self.scorer.mode()
    }

    /// Scores fused hypervectors through this state's [`HdScorer`]:
    /// dense cosine, INT8 GEMM, or packed popcount depending on the
    /// published [`ScoringMode`].
    pub fn score(&self, hvs: Vec<BipolarHv>) -> Vec<usize> {
        self.scorer.predict(hvs.into_iter().map(QueryHv::Bipolar).collect())
    }

    /// Consensus predictions for a batch of CHW images against this
    /// state.
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn predict_batch(&self, images: &[Tensor]) -> Result<Vec<usize>, PipelineError> {
        Ok(self.score(self.encode_fused(images)?))
    }
}

/// A hot-swappable serving engine over a fused ensemble.
///
/// The current [`GlueState`] lives behind an `RwLock<Arc<GlueState>>`;
/// the runtime's per-batch [`snapshot`](BatchEngine::snapshot) clones
/// the `Arc` (a refcount bump) and drops the lock, and every swap
/// verifies its candidate state **before** publishing, so a bad swap is
/// rejected without ever disturbing traffic.
pub struct GlueEngine {
    state: RwLock<Arc<GlueState>>,
}

impl GlueEngine {
    /// Wraps a fused ensemble as the engine's initial state, scoring
    /// densely. Use [`set_scoring`](GlueEngine::set_scoring) to compile
    /// a quantised backend.
    pub fn new(ensemble: GlueEnsemble) -> Self {
        GlueEngine { state: RwLock::new(Arc::new(ensemble.state().clone())) }
    }

    /// Pins and returns the current state. Callers needing a consistent
    /// view across several operations must call this once and reuse the
    /// returned `Arc`.
    pub fn state(&self) -> Arc<GlueState> {
        self.state.read().unwrap_or_else(|poisoned| poisoned.into_inner()).clone()
    }

    /// Verifies `next` and atomically publishes it, returning the state
    /// it replaced. In-flight batches pinned on the previous state are
    /// unaffected.
    fn publish(&self, next: GlueState) -> Result<Arc<GlueState>, PipelineError> {
        next.verify()?;
        let next = Arc::new(next);
        let mut slot = self.state.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        Ok(std::mem::replace(&mut slot, next))
    }

    /// Hot-swaps the consensus memory (e.g. after offline retraining),
    /// returning the state it replaced. The candidate memory must match
    /// the heads' HD dimension; a mismatch is rejected before anything
    /// is published.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] when the replacement memory
    /// disagrees with the serving heads.
    pub fn swap_memory(&self, memory: AssociativeMemory) -> Result<Arc<GlueState>, PipelineError> {
        let _sp = nshd_obs::span("glue_memory_swap");
        let current = self.state();
        let next = GlueState::new(current.heads.clone(), Arc::new(memory), current.scoring_mode());
        let previous = self.publish(next)?;
        nshd_obs::counter("glue.memory_swaps").inc();
        Ok(previous)
    }

    /// Hot-swaps one teacher head in place (e.g. a retrained or
    /// re-weighted teacher), returning the state it replaced. The
    /// replacement must emit the same HD dimension as the serving
    /// memory; a mismatch is rejected before anything is published.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] for an out-of-range index and
    /// [`PipelineError::Analysis`] when the replacement head disagrees
    /// with the serving memory.
    pub fn swap_head(&self, index: usize, head: GlueHead) -> Result<Arc<GlueState>, PipelineError> {
        let _sp = nshd_obs::span("glue_head_swap");
        let current = self.state();
        if index >= current.heads.len() {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: format!(
                    "head index {index} out of range for ensemble of {} heads",
                    current.heads.len()
                ),
            });
        }
        let mut heads = current.heads.clone();
        heads[index] = Arc::new(head);
        // The memory is unchanged, so the scorer is shared as-is.
        let next = GlueState { heads, scorer: Arc::clone(&current.scorer) };
        let previous = self.publish(next)?;
        nshd_obs::counter("glue.head_swaps").inc();
        Ok(previous)
    }

    /// Grows the consensus memory by one zeroed class (copy-on-write)
    /// and returns the new class index. In-flight batches keep scoring
    /// over the old class set.
    pub fn add_class(&self) -> usize {
        let current = self.state();
        let mut memory = AssociativeMemory::clone(current.memory());
        let index = memory.add_class();
        let next = GlueState::new(current.heads.clone(), Arc::new(memory), current.scoring_mode());
        let mut slot = self.state.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Arc::new(next);
        nshd_obs::counter("glue.class_adds").inc();
        index
    }

    /// Teaches a brand-new class from example images mid-traffic:
    /// fused-encodes the examples against the current heads, bundles
    /// them into one fresh class row, and publishes the grown memory
    /// copy-on-write. Returns the new class index.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::EmptyBatch`] for an empty example list
    /// and the first head's error on malformed or non-finite images.
    pub fn add_class_from(&self, examples: &[Tensor]) -> Result<usize, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::EmptyBatch);
        }
        let _sp = nshd_obs::span("glue_class_add");
        let current = self.state();
        let hvs = current.encode_fused(examples)?;
        let mut memory = AssociativeMemory::clone(current.memory());
        let index = memory.add_class();
        for hv in &hvs {
            memory.bundle(index, hv);
        }
        let next = GlueState::new(current.heads.clone(), Arc::new(memory), current.scoring_mode());
        self.publish(next)?;
        nshd_obs::counter("glue.class_adds").inc();
        Ok(index)
    }

    /// Recompiles and publishes the scoring backend for `mode` against
    /// the *current* memory, returning the state it replaced. Like every
    /// other swap, batches pinned on the previous state keep their old
    /// backend bit-exactly.
    ///
    /// # Errors
    ///
    /// Propagates [`GlueState::verify`] failures (which cannot occur for
    /// a previously published head/memory pair, but the publish gate is
    /// kept uniform).
    pub fn set_scoring(&self, mode: ScoringMode) -> Result<Arc<GlueState>, PipelineError> {
        let _sp = nshd_obs::span("glue_scoring_swap");
        let current = self.state();
        let next = GlueState::new(current.heads.clone(), Arc::clone(current.scorer.memory()), mode);
        let previous = self.publish(next)?;
        nshd_obs::counter("glue.scoring_swaps").inc();
        Ok(previous)
    }

    /// Number of classes the *current* state predicts over.
    pub fn num_classes(&self) -> usize {
        self.state().num_classes()
    }
}

/// Glue serving: inputs are CHW image tensors; a batch is the weighted
/// fused encode across all heads, then scoring of the fused
/// hypervectors against the pinned snapshot's consensus memory.
impl BatchEngine for GlueEngine {
    type Input = Tensor;
    type Output = usize;
    type Snapshot = GlueState;

    fn snapshot(&self) -> Arc<GlueState> {
        self.state()
    }

    fn run(&self, snapshot: &GlueState, batch: &[Tensor]) -> Result<Vec<usize>, PipelineError> {
        snapshot.predict_batch(batch)
    }

    fn verify(&self) -> Result<(), PipelineError> {
        self.state().verify()
    }
}
