//! The engine abstraction the runtime batches over, and its one
//! implementation for the NSHD serving engine.

use nshd_core::{AsEngine, EngineState, PipelineError};
use std::sync::Arc;

/// A batch-inference engine the serving runtime can drive.
///
/// The runtime hands [`run`](BatchEngine::run) one collected batch, in
/// submission order, on its collector thread. Any parallelism inside a
/// batch belongs to the engine's kernels (`nshd_tensor::par`), whose
/// width the runtime pins to the thread count its constructor saw.
///
/// `run` reports failures as [`PipelineError`] instead of panicking: a
/// malformed request must fail *that batch's* handles, not kill the
/// collector. [`verify`](BatchEngine::verify) runs once at
/// [`InferenceRuntime`](crate::InferenceRuntime) construction so a
/// misconfigured engine is rejected before any thread is spawned.
///
/// Implementations must be `Send + Sync`: one engine instance is shared
/// by reference between the constructing thread and the collector.
pub trait BatchEngine: Send + Sync + 'static {
    /// One inference request's payload.
    type Input: Send + 'static;
    /// Per-sample final answer.
    type Output: Send + 'static;
    /// The immutable state one batch is served against: the NSHD engine
    /// publishes a copy-on-write [`EngineState`] here. The runtime pins
    /// **exactly one** snapshot per batch
    /// ([`snapshot`](BatchEngine::snapshot) is called once, before
    /// [`run`](BatchEngine::run)) and serves the whole batch against
    /// it, so a concurrent swap never produces a torn batch: every
    /// request in a batch is answered by the snapshot current at batch
    /// start.
    type Snapshot: Send + Sync + 'static;

    /// Pins the engine state one batch will be served against. Called
    /// once per batch, before [`run`](BatchEngine::run), which receives
    /// the pinned snapshot.
    fn snapshot(&self) -> Arc<Self::Snapshot>;

    /// Turns one batch of inputs (submission order) into one output per
    /// input, in the same order.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the batch cannot be served
    /// (malformed inputs); the runtime fails every handle in the batch
    /// with a clone of the error.
    fn run(
        &self,
        snapshot: &Self::Snapshot,
        batch: &[Self::Input],
    ) -> Result<Vec<Self::Output>, PipelineError>;

    /// Static self-check run once before the runtime spawns any thread.
    /// The default accepts everything; engines with internal invariants
    /// (like the NSHD engine's stage dimensions) override it.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] describing why the engine must not
    /// be served.
    fn verify(&self) -> Result<(), PipelineError> {
        Ok(())
    }
}

/// The one serving implementation: every [`AsEngine`] (the `nshd-core`
/// [`Engine`](nshd_core::Engine) over images or pre-encoded queries)
/// pins its current state as the batch snapshot, a refcount bump, and
/// answers the batch from it.
impl<E: AsEngine> BatchEngine for E {
    type Input = E::Input;
    type Output = usize;
    type Snapshot = EngineState;

    fn snapshot(&self) -> Arc<EngineState> {
        self.engine().state()
    }

    fn run(&self, snapshot: &EngineState, batch: &[E::Input]) -> Result<Vec<usize>, PipelineError> {
        snapshot.predict_batch(batch)
    }

    fn verify(&self) -> Result<(), PipelineError> {
        self.engine().verify().map_err(PipelineError::from)
    }
}
