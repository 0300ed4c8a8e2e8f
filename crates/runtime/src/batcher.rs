//! The micro-batching request queue and its collector thread.

use crate::engine::BatchEngine;
use nshd_core::PipelineError;
use nshd_obs::{clock, ServingAccumulator, ServingMetrics};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-runtime knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// No longer read: a batch runs as one engine call on the collector
    /// thread, parallel only inside its `nshd_tensor::par` kernels. The
    /// field remains only so the `perfbench/` serving benchmark, which
    /// names it, keeps building.
    pub workers: usize,
    /// Largest batch the collector will assemble before executing.
    pub max_batch: usize,
    /// No longer read: the collector is work-conserving and never
    /// waits for a batch to fill. The field remains only so the
    /// `perfbench/` serving benchmark, which names it, keeps building.
    pub max_wait: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { workers: 1, max_batch: 16, max_wait: Duration::from_millis(2) }
    }
}

impl RuntimeConfig {
    /// Checks that the configuration can serve at all.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when `max_batch` is zero.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.max_batch == 0 {
            return Err(PipelineError::Runtime {
                stage: "config",
                detail: "need a positive batch bound".into(),
            });
        }
        Ok(())
    }
}

/// Locks a metrics mutex, recovering the data from a poisoned lock (the
/// accounting state stays usable even if a panic ever crossed it).
pub(crate) fn lock_metrics(
    metrics: &Mutex<ServingAccumulator>,
) -> MutexGuard<'_, ServingAccumulator> {
    metrics.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What the collector calls with one request's result, on the
/// collector thread, once the request's batch has executed.
///
/// A completion is called exactly once, or dropped uncalled when the
/// collector dies (an engine panic) or the request could not be
/// queued. A completion that panics is contained: the collector keeps
/// serving.
type Completion<T> = Box<dyn FnOnce(Result<T, PipelineError>) + Send>;

/// One queued inference request.
struct Request<E: BatchEngine> {
    input: E::Input,
    enqueued: Instant,
    complete: Completion<E::Output>,
}

/// The blocking handle returned by [`InferenceRuntime::submit`]: a
/// channel fed by the request's completion, resolving to the request's
/// output once its batch has executed.
pub struct PredictionHandle<T> {
    rx: Receiver<Result<T, PipelineError>>,
}

/// Outcome of a bounded wait on a [`PredictionHandle`].
///
/// A timed-out wait and a dead runtime are different situations with
/// different correct reactions — waiting longer can still succeed after
/// [`Timeout`](WaitOutcome::Timeout), while after
/// [`WorkerGone`](WaitOutcome::WorkerGone) the result will never arrive
/// and the caller should retry on another replica — so
/// [`PredictionHandle::wait_timeout`] reports them as distinct variants
/// instead of collapsing both to `None`.
#[derive(Debug)]
#[must_use = "a timed-out or abandoned request must be handled, not dropped"]
pub enum WaitOutcome<T> {
    /// The batch executed; this is the request's result (which may
    /// itself be the batch's typed failure).
    Ready(Result<T, PipelineError>),
    /// The timeout elapsed with the request still in flight. Waiting
    /// again on the same handle can still observe the result.
    Timeout,
    /// The runtime dropped the request without replying — the collector
    /// died or the handle outlived a torn-down runtime. The result will
    /// never arrive; retry elsewhere.
    WorkerGone(PipelineError),
}

impl<T> WaitOutcome<T> {
    /// The result, if the wait produced one.
    pub fn ready(self) -> Option<Result<T, PipelineError>> {
        match self {
            WaitOutcome::Ready(result) => Some(result),
            WaitOutcome::Timeout | WaitOutcome::WorkerGone(_) => None,
        }
    }
}

impl<T> PredictionHandle<T> {
    /// Blocks until the result is ready.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`PipelineError`] when the request's batch
    /// failed, or [`PipelineError::Runtime`] when the runtime was torn
    /// down without answering (a drained shutdown always answers
    /// first).
    #[must_use = "the prediction may have failed; check the result"]
    pub fn wait(self) -> Result<T, PipelineError> {
        self.rx.recv().unwrap_or_else(|_| Err(worker_gone_error()))
    }

    /// Waits up to `timeout`, distinguishing a still-pending result
    /// ([`WaitOutcome::Timeout`]) from a runtime that abandoned the
    /// request ([`WaitOutcome::WorkerGone`]).
    pub fn wait_timeout(&self, timeout: Duration) -> WaitOutcome<T> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => WaitOutcome::Ready(result),
            Err(RecvTimeoutError::Timeout) => WaitOutcome::Timeout,
            Err(RecvTimeoutError::Disconnected) => WaitOutcome::WorkerGone(worker_gone_error()),
        }
    }
}

/// The typed report for a runtime that dropped a request without
/// replying (shared by `wait`, `wait_timeout` and the replica set's
/// completion path).
pub(crate) fn worker_gone_error() -> PipelineError {
    PipelineError::Runtime {
        stage: "wait",
        detail: "runtime dropped the request without replying".into(),
    }
}

/// A batched inference server around a [`BatchEngine`].
///
/// Requests submitted from any thread are collected by a dedicated
/// batcher thread. The collector is work-conserving: it blocks for the
/// first request of a batch, adds whatever else is already queued (up
/// to `max_batch`), and runs the batch at once — it never waits for a
/// batch to fill. Under load, batches form from the requests that
/// queued while the previous batch executed. Each batch is one
/// [`BatchEngine::run`] call on the collector thread, with the
/// engine's `nshd_tensor::par` kernels as wide as
/// [`par::threads`](nshd_tensor::par::threads) read on the thread that
/// constructed the runtime (so a `par::with_threads` override there
/// sets it). Every request's result is delivered, in submission order,
/// to its completion ([`submit_then`](InferenceRuntime::submit_then))
/// or [`PredictionHandle`] ([`submit`](InferenceRuntime::submit)).
///
/// Construction statically verifies the engine
/// ([`BatchEngine::verify`]) and the configuration before any thread is
/// spawned; a batch the engine rejects fails only that batch's handles,
/// never a thread.
///
/// # Examples
///
/// ```no_run
/// use nshd_core::Engine;
/// use nshd_runtime::{InferenceRuntime, RuntimeConfig};
/// use nshd_tensor::Tensor;
/// use std::sync::Arc;
/// # let engine: Arc<Engine<Tensor>> = unimplemented!();
/// # let images: Vec<nshd_tensor::Tensor> = vec![];
/// let runtime = InferenceRuntime::new(engine, RuntimeConfig::default()).unwrap();
/// let handles: Vec<_> = images.into_iter().map(|img| runtime.submit(img).unwrap()).collect();
/// let predictions: Vec<usize> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
/// println!("{}", runtime.shutdown().to_json());
/// ```
pub struct InferenceRuntime<E: BatchEngine> {
    submit_tx: Option<Sender<Request<E>>>,
    collector: Option<JoinHandle<()>>,
    metrics: Arc<Mutex<ServingAccumulator>>,
}

impl<E: BatchEngine> InferenceRuntime<E> {
    /// Starts the batcher thread around a shared engine, after
    /// validating the configuration and statically verifying the engine
    /// ([`BatchEngine::verify`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] for an unusable configuration
    /// or an unspawnable batcher thread, and the engine's own
    /// [`PipelineError`] when verification rejects it — in every case
    /// before any thread is spawned.
    #[must_use = "the runtime only serves when construction succeeds"]
    pub fn new(engine: Arc<E>, config: RuntimeConfig) -> Result<Self, PipelineError> {
        config.validate()?;
        engine.verify()?;
        // Read on the constructing thread so a `par::with_threads`
        // override active there (tests, benchmarks) sets the width of
        // the collector's kernels.
        let threads = nshd_tensor::par::threads();
        let metrics = Arc::new(Mutex::new(ServingAccumulator::new()));
        let (submit_tx, submit_rx) = channel();
        let thread_metrics = metrics.clone();
        let collector = std::thread::Builder::new()
            .name("nshd-batcher".into())
            .spawn(move || {
                nshd_tensor::par::with_threads(threads, || {
                    collector_loop(&*engine, config.max_batch, submit_rx, &thread_metrics);
                });
            })
            .map_err(|e| PipelineError::Runtime {
                stage: "spawn",
                detail: format!("failed to spawn batcher thread: {e}"),
            })?;
        Ok(InferenceRuntime { submit_tx: Some(submit_tx), collector: Some(collector), metrics })
    }

    /// Enqueues one request; the returned handle resolves when its
    /// batch completes. A thin wrapper over
    /// [`submit_then`](InferenceRuntime::submit_then) whose completion
    /// feeds the handle's channel.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when the batcher thread has
    /// terminated (it panicked, or the runtime is shutting down).
    #[must_use = "dropping the handle discards the prediction"]
    pub fn submit(&self, input: E::Input) -> Result<PredictionHandle<E::Output>, PipelineError> {
        let (reply, rx) = channel();
        self.submit_then(input, move |result| {
            // The caller may have dropped its handle; its business.
            let _ = reply.send(result);
        })?;
        Ok(PredictionHandle { rx })
    }

    /// Enqueues one request whose result is delivered by calling
    /// `complete` on the collector thread once its batch has executed.
    /// Never blocks. `complete` is dropped uncalled if the request
    /// cannot be queued or the collector dies before answering it.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when the batcher thread has
    /// terminated (it panicked, or the runtime is shutting down).
    pub fn submit_then<F>(&self, input: E::Input, complete: F) -> Result<(), PipelineError>
    where
        F: FnOnce(Result<E::Output, PipelineError>) + Send + 'static,
    {
        let now = clock::now();
        let sender = self.submit_tx.as_ref().ok_or_else(|| PipelineError::Runtime {
            stage: "submit",
            detail: "runtime already shut down".into(),
        })?;
        lock_metrics(&self.metrics).note_submit(now);
        let complete: Completion<E::Output> = Box::new(complete);
        sender.send(Request { input, enqueued: now, complete }).map_err(|_| {
            PipelineError::Runtime { stage: "submit", detail: "batcher thread terminated".into() }
        })
    }

    /// A snapshot of the serving statistics so far.
    pub fn metrics(&self) -> ServingMetrics {
        lock_metrics(&self.metrics).snapshot()
    }

    /// Folds this runtime's accumulated serving history into `target`
    /// (used by the replica set to roll per-replica statistics into one
    /// cluster view).
    pub fn merge_metrics_into(&self, target: &mut ServingAccumulator) {
        target.merge_from(&lock_metrics(&self.metrics));
    }

    /// Graceful shutdown: closes the queue, lets the batcher execute
    /// every request already submitted (all handles still resolve),
    /// joins every thread, and returns the final statistics.
    pub fn shutdown(mut self) -> ServingMetrics {
        self.teardown();
        let snapshot = lock_metrics(&self.metrics).snapshot();
        snapshot
    }

    fn teardown(&mut self) {
        // Dropping the sender disconnects the queue; the collector
        // drains buffered requests (mpsc delivers them before
        // reporting disconnection), then exits.
        self.submit_tx.take();
        if let Some(handle) = self.collector.take() {
            let _ = handle.join();
        }
    }
}

impl<E: BatchEngine> Drop for InferenceRuntime<E> {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn collector_loop<E: BatchEngine>(
    engine: &E,
    max_batch: usize,
    rx: Receiver<Request<E>>,
    metrics: &Mutex<ServingAccumulator>,
) {
    // Block for the first request of the next batch, then take
    // whatever else is already queued and run at once: the collector
    // never idles while work waits. `recv` only errs once the queue is
    // disconnected AND empty, so every submitted request is still
    // served before shutdown.
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(request) => batch.push(request),
                Err(_) => break,
            }
        }
        run_batch(engine, batch, metrics);
    }
}

fn run_batch<E: BatchEngine>(
    engine: &E,
    batch: Vec<Request<E>>,
    metrics: &Mutex<ServingAccumulator>,
) {
    let n = batch.len();
    let mut inputs = Vec::with_capacity(n);
    let mut enqueued = Vec::with_capacity(n);
    let mut completions = Vec::with_capacity(n);
    for request in batch {
        inputs.push(request.input);
        enqueued.push(request.enqueued);
        completions.push(request.complete);
    }

    // One `request` span per executed batch; the engine's stage spans
    // (extract/encode/score) nest under it, including those opened on
    // `nshd_tensor::par` workers (they re-root under the caller's path).
    let exec_start = clock::now();
    let span = nshd_obs::span("request");
    // Pin the engine state exactly once per batch, so a hot-swap that
    // lands mid-batch only affects *later* batches.
    let snapshot = engine.snapshot();
    let outputs = engine.run(&snapshot, &inputs).and_then(|outputs| {
        if outputs.len() == n {
            Ok(outputs)
        } else {
            Err(PipelineError::Runtime {
                stage: "run",
                detail: format!("engine returned {} outputs for {n} requests", outputs.len()),
            })
        }
    });
    drop(span);

    let done = clock::now();
    lock_metrics(metrics).note_batch(
        n,
        enqueued
            .iter()
            .map(|&t| (exec_start.saturating_duration_since(t), done.saturating_duration_since(t))),
        done.saturating_duration_since(exec_start),
        done,
    );
    match outputs {
        Ok(outputs) => {
            for (complete, output) in completions.into_iter().zip(outputs) {
                call(complete, Ok(output));
            }
        }
        // A failed batch fails every request in it with the same
        // report; the runtime itself keeps serving subsequent batches.
        Err(e) => {
            for complete in completions {
                call(complete, Err(e.clone()));
            }
        }
    }
}

/// Runs one completion, containing a panic inside it so a faulty
/// caller can never take the collector (and every later request) down.
fn call<T>(complete: Completion<T>, result: Result<T, PipelineError>) {
    let _ = catch_unwind(AssertUnwindSafe(move || complete(result)));
}
