//! The engine abstraction the runtime batches over, and its
//! implementation for the NSHD pipeline.

use nshd_core::{HdDeployEngine, NshdEngine, PipelineError};
use nshd_hdc::HdQuery;
use nshd_tensor::Tensor;
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
    /// The immutable state one batch is served against. Engines whose
    /// state never changes mid-traffic use `()`; hot-swappable engines
    /// (like `nshd-glue`'s ensemble) publish a copy-on-write snapshot
    /// here. The runtime pins **exactly one** snapshot per batch
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
    /// (like [`NshdEngine`]'s stage dimensions) override it.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] describing why the engine must not
    /// be served.
    fn verify(&self) -> Result<(), PipelineError> {
        Ok(())
    }
}

/// NSHD serving: inputs are CHW image tensors; a batch is truncated-CNN
/// feature extraction (+ scaling + manifold), then the GEMM encode and
/// associative-memory scoring.
impl BatchEngine for NshdEngine {
    type Input = Tensor;
    type Output = usize;
    // The NSHD pipeline's state is immutable once constructed.
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), batch: &[Tensor]) -> Result<Vec<usize>, PipelineError> {
        self.try_finish_values(&self.try_extract_values(batch)?)
    }

    fn verify(&self) -> Result<(), PipelineError> {
        NshdEngine::verify(self).map_err(PipelineError::from)
    }
}

/// Quantised HD serving: inputs arrive *already encoded* in any
/// `nshd-wire/v1` payload form ([`HdQuery`]); a batch is per-query sign
/// extraction in the native representation (no densifying), then one
/// scoring GEMM through the deployment's compiled backend (popcount /
/// INT8 / dense).
impl BatchEngine for HdDeployEngine {
    type Input = HdQuery;
    type Output = usize;
    // The compiled deployment is immutable once constructed.
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), batch: &[HdQuery]) -> Result<Vec<usize>, PipelineError> {
        self.try_predict_batch(batch)
    }

    fn verify(&self) -> Result<(), PipelineError> {
        if self.num_classes() == 0 || self.dim() == 0 {
            return Err(PipelineError::EmptyBatch);
        }
        Ok(())
    }
}
