//! Micro-batcher behaviour tests against a mock engine: a work-conserving
//! collector (no linger, batches formed from what queued), submission-
//! order results, the kernel thread count pinned at construction,
//! contained completion faults, idle shutdown, and shutdown with
//! in-flight requests.
//!
//! Tests that need a multi-request batch form it explicitly: a
//! [`ChaosMode::Hold`] plug request holds the collector inside its batch
//! while the burst queues, so releasing the plug runs the burst as one
//! batch.

use nshd_core::PipelineError;
use nshd_runtime::{
    BatchEngine, ChaosEngine, ChaosMode, ChaosSwitch, InferenceRuntime, RuntimeConfig,
};
use nshd_tensor::par;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Echoes request ids through an affine map, sleeping per batch by the
/// largest requested delay so tests can keep a batch in flight.
struct MockEngine {
    batch_sizes: Mutex<Vec<usize>>,
    run_calls: AtomicUsize,
}

impl MockEngine {
    fn new() -> Arc<Self> {
        Arc::new(MockEngine { batch_sizes: Mutex::new(Vec::new()), run_calls: AtomicUsize::new(0) })
    }

    fn batch_sizes(&self) -> Vec<usize> {
        self.batch_sizes.lock().unwrap().clone()
    }
}

impl BatchEngine for MockEngine {
    /// `(id, delay_ms)` — the delay stalls the batch holding it.
    type Input = (u64, u64);
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), batch: &[(u64, u64)]) -> Result<Vec<u64>, PipelineError> {
        let delay = batch.iter().map(|&(_, d)| d).max().unwrap_or(0);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
        // Poisoned ids simulate a malformed request rejected mid-batch.
        if batch.iter().any(|&(id, _)| id == POISON) {
            return Err(PipelineError::EmptyBatch);
        }
        self.batch_sizes.lock().unwrap().push(batch.len());
        self.run_calls.fetch_add(1, Ordering::SeqCst);
        Ok(batch.iter().map(|&(id, _)| id * 3 + 7).collect())
    }
}

const WAIT: Duration = Duration::from_secs(20);

/// Waits until `switch` has injected `n` faults: with
/// [`ChaosMode::Hold`], until `n` batches are held.
fn wait_injected(switch: &ChaosSwitch, n: u64) {
    let started = Instant::now();
    while switch.injected() < n {
        assert!(started.elapsed() < WAIT, "the plug never reached the engine");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A runtime over `engine` behind a chaos switch, for plugging.
fn plugged_runtime(
    engine: &Arc<MockEngine>,
    config: RuntimeConfig,
) -> (InferenceRuntime<ChaosEngine<MockEngine>>, ChaosSwitch) {
    let (chaos, switch) = ChaosEngine::new(engine.clone());
    (InferenceRuntime::new(Arc::new(chaos), config).unwrap(), switch)
}

/// Sentinel id of the plug request that holds the collector.
const PLUG: u64 = 1_000;

/// Sentinel id the mock engine rejects, failing its whole batch.
const POISON: u64 = u64::MAX;

#[test]
fn tail_batch_flushes_on_deadline() {
    let engine = MockEngine::new();
    let runtime = InferenceRuntime::new(
        engine.clone(),
        RuntimeConfig { max_batch: 64, ..RuntimeConfig::default() },
    )
    .unwrap();
    // Far fewer requests than max_batch: the collector must run what it
    // has instead of waiting for a full batch.
    let started = Instant::now();
    let handles: Vec<_> = (0..3u64).map(|id| runtime.submit((id, 0)).unwrap()).collect();
    for (id, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait_timeout(WAIT).ready(), Some(Ok(id as u64 * 3 + 7)), "request {id}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "tail batch did not flush promptly: {:?}",
        started.elapsed()
    );
    let sizes = engine.batch_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 3);
    assert!(sizes.iter().all(|&s| s < 64), "deadline flush must not wait for a full batch");
    let metrics = runtime.shutdown();
    assert_eq!(metrics.requests, 3);
    assert!(metrics.p50_us > 0.0);
}

#[test]
fn results_follow_submission_order_despite_out_of_order_workers() {
    let engine = MockEngine::new();
    let (runtime, switch) =
        plugged_runtime(&engine, RuntimeConfig { max_batch: 16, ..RuntimeConfig::default() });
    // Plug the collector so the 16 requests below queue behind it and
    // run as one 16-request batch once the plug is released.
    switch.set(ChaosMode::Hold);
    let plug = runtime.submit((PLUG, 0)).unwrap();
    wait_injected(&switch, 1);
    // The lowest ids carry the longest delays, so the batch stays in
    // flight a while; its outputs must still reach their requests in
    // order, result `id*3+7` to the handle that submitted `id`.
    let handles: Vec<_> =
        (0..16u64).map(|id| runtime.submit((id, if id < 4 { 60 } else { 0 })).unwrap()).collect();
    switch.set(ChaosMode::Healthy);
    assert_eq!(plug.wait_timeout(WAIT).ready(), Some(Ok(PLUG * 3 + 7)));
    for (id, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait_timeout(WAIT).ready(), Some(Ok(id as u64 * 3 + 7)), "request {id}");
    }
    assert_eq!(engine.batch_sizes(), vec![1, 16], "the burst must run as one batch");
    let metrics = runtime.shutdown();
    assert_eq!(metrics.requests, 17, "16 requests plus the plug");
    assert!(!metrics.batch_histogram.is_empty());
}

#[test]
fn a_lone_request_never_waits_for_max_wait() {
    let engine = MockEngine::new();
    let runtime = InferenceRuntime::new(
        engine.clone(),
        RuntimeConfig {
            max_batch: 16,
            max_wait: Duration::from_secs(10),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let started = Instant::now();
    let h = runtime.submit((4, 0)).unwrap();
    assert_eq!(h.wait_timeout(WAIT).ready(), Some(Ok(4 * 3 + 7)));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a lone request waited {:?}: the collector lingered",
        started.elapsed()
    );
    runtime.shutdown();
}

#[test]
fn requests_queued_behind_a_plugged_batch_run_as_full_batches() {
    for (queued, expected) in [(5usize, vec![1, 5]), (20, vec![1, 8, 8, 4])] {
        let engine = MockEngine::new();
        let (runtime, switch) =
            plugged_runtime(&engine, RuntimeConfig { max_batch: 8, ..RuntimeConfig::default() });
        switch.set(ChaosMode::Hold);
        let plug = runtime.submit((PLUG, 0)).unwrap();
        wait_injected(&switch, 1);
        let handles: Vec<_> =
            (0..queued as u64).map(|id| runtime.submit((id, 0)).unwrap()).collect();
        switch.set(ChaosMode::Healthy);
        assert_eq!(plug.wait_timeout(WAIT).ready(), Some(Ok(PLUG * 3 + 7)));
        for (id, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait_timeout(WAIT).ready(), Some(Ok(id as u64 * 3 + 7)));
        }
        // Everything queued runs in batches of min(queued, max_batch).
        assert_eq!(engine.batch_sizes(), expected, "{queued} queued requests");
        runtime.shutdown();
    }
}

#[test]
fn panicking_or_dropped_completions_never_kill_the_collector() {
    let engine = MockEngine::new();
    let (runtime, switch) =
        plugged_runtime(&engine, RuntimeConfig { max_batch: 8, ..RuntimeConfig::default() });
    // One batch holding a panicking completion, a dropped handle, and a
    // live handle: the live one is still answered.
    switch.set(ChaosMode::Hold);
    let plug = runtime.submit((PLUG, 0)).unwrap();
    wait_injected(&switch, 1);
    runtime.submit_then((1, 0), |_| panic!("injected completion panic")).unwrap();
    drop(runtime.submit((2, 0)).unwrap());
    let live = runtime.submit((3, 0)).unwrap();
    switch.set(ChaosMode::Healthy);
    assert_eq!(plug.wait_timeout(WAIT).ready(), Some(Ok(PLUG * 3 + 7)));
    assert_eq!(live.wait_timeout(WAIT).ready(), Some(Ok(3 * 3 + 7)));
    assert_eq!(engine.batch_sizes(), vec![1, 3]);
    // And the collector keeps serving later batches.
    let after = runtime.submit((4, 0)).unwrap();
    assert_eq!(after.wait_timeout(WAIT).ready(), Some(Ok(4 * 3 + 7)));
    assert_eq!(runtime.shutdown().requests, 5);
}

#[test]
fn zero_request_idle_shutdown() {
    let engine = MockEngine::new();
    let runtime = InferenceRuntime::new(engine.clone(), RuntimeConfig::default()).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let metrics = runtime.shutdown(); // must not hang
    assert_eq!(metrics.requests, 0);
    assert_eq!(metrics.batches, 0);
    assert_eq!(engine.run_calls.load(Ordering::SeqCst), 0);
    assert_eq!(metrics.requests_per_sec, 0.0);
}

#[test]
fn shutdown_with_in_flight_requests_answers_everything() {
    let engine = MockEngine::new();
    let runtime = InferenceRuntime::new(
        engine.clone(),
        RuntimeConfig { max_batch: 4, ..RuntimeConfig::default() },
    )
    .unwrap();
    // Slow batches guarantee requests are still queued or executing
    // when shutdown starts.
    let handles: Vec<_> = (0..12u64).map(|id| runtime.submit((id, 15)).unwrap()).collect();
    let metrics = runtime.shutdown(); // blocks until the queue drains
    assert_eq!(metrics.requests, 12, "shutdown dropped in-flight requests");
    for (id, h) in handles.into_iter().enumerate() {
        assert_eq!(
            h.wait_timeout(WAIT).ready(),
            Some(Ok(id as u64 * 3 + 7)),
            "request {id} lost its reply during shutdown"
        );
    }
}

#[test]
fn max_batch_bounds_every_executed_batch() {
    let engine = MockEngine::new();
    let runtime = InferenceRuntime::new(
        engine.clone(),
        RuntimeConfig { max_batch: 8, ..RuntimeConfig::default() },
    )
    .unwrap();
    let handles: Vec<_> = (0..40u64).map(|id| runtime.submit((id, 0)).unwrap()).collect();
    for (id, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait_timeout(WAIT).ready(), Some(Ok(id as u64 * 3 + 7)));
    }
    let sizes = engine.batch_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 40);
    assert!(sizes.iter().all(|&s| s <= 8), "batch exceeded max_batch: {sizes:?}");
    let metrics = runtime.shutdown();
    assert_eq!(metrics.requests, 40);
    assert!(metrics.requests_per_sec > 0.0);
    assert_eq!(metrics.batch_histogram.iter().map(|&(s, c)| s as u64 * c).sum::<u64>(), 40);
}

#[test]
fn drop_without_shutdown_still_drains() {
    let engine = MockEngine::new();
    let handles: Vec<_> = {
        let runtime = InferenceRuntime::new(
            engine.clone(),
            RuntimeConfig { max_batch: 4, ..RuntimeConfig::default() },
        )
        .unwrap();
        (0..6u64).map(|id| runtime.submit((id, 10)).unwrap()).collect()
        // `runtime` dropped here with requests possibly still queued.
    };
    for (id, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait_timeout(WAIT).ready(), Some(Ok(id as u64 * 3 + 7)), "request {id}");
    }
}

#[test]
fn misconfiguration_is_rejected_before_any_thread_spawns() {
    let engine = MockEngine::new();
    let Err(err) = InferenceRuntime::new(
        engine.clone(),
        RuntimeConfig { max_batch: 0, ..RuntimeConfig::default() },
    ) else {
        panic!("zero max_batch accepted");
    };
    assert!(err.to_string().contains("batch"), "{err}");
    // The rejected construction never ran the engine.
    assert_eq!(engine.run_calls.load(Ordering::SeqCst), 0);
}

/// Records the kernel thread count (`par::threads()`) each batch runs
/// under.
struct ThreadProbe {
    seen: Mutex<Vec<usize>>,
}

impl BatchEngine for ThreadProbe {
    type Input = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
        self.seen.lock().unwrap().push(par::threads());
        Ok(batch.to_vec())
    }
}

#[test]
fn kernels_run_at_the_thread_count_seen_at_construction() {
    for threads in [3, 1] {
        let probe = Arc::new(ThreadProbe { seen: Mutex::new(Vec::new()) });
        // The override is only active while the runtime is constructed;
        // the collector must carry it over to every batch it runs.
        let runtime = par::with_threads(threads, || {
            InferenceRuntime::new(probe.clone(), RuntimeConfig::default()).unwrap()
        });
        for id in 0..3u64 {
            assert_eq!(runtime.submit(id).unwrap().wait_timeout(WAIT).ready(), Some(Ok(id)));
        }
        runtime.shutdown();
        let seen = probe.seen.lock().unwrap().clone();
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|&t| t == threads), "built at {threads}, ran at {seen:?}");
    }
}

/// An engine whose static verification fails: construction must refuse
/// to serve it (and must do so before spawning any thread).
struct BrokenEngine;

impl BatchEngine for BrokenEngine {
    type Input = ();
    type Output = ();
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), _batch: &[()]) -> Result<Vec<()>, PipelineError> {
        unreachable!("a rejected engine must never run");
    }

    fn verify(&self) -> Result<(), PipelineError> {
        Err(PipelineError::Runtime { stage: "verify", detail: "deliberately broken".into() })
    }
}

#[test]
fn engine_failing_verification_is_rejected_at_construction() {
    let Err(err) = InferenceRuntime::new(Arc::new(BrokenEngine), RuntimeConfig::default()) else {
        panic!("broken engine accepted");
    };
    assert!(err.to_string().contains("deliberately broken"), "{err}");
}

#[test]
fn a_failed_batch_fails_only_its_own_handles() {
    let engine = MockEngine::new();
    let (runtime, switch) =
        plugged_runtime(&engine, RuntimeConfig { max_batch: 4, ..RuntimeConfig::default() });
    // Plug the collector so the four requests below queue behind it and
    // run as one batch.
    switch.set(ChaosMode::Hold);
    let plug = runtime.submit((PLUG, 0)).unwrap();
    wait_injected(&switch, 1);
    // One poisoned request: its whole batch errors, every handle in
    // that batch gets the engine's error rather than hanging.
    let bad: Vec<_> = (0..4)
        .map(|i| {
            let id = if i == 2 { POISON } else { i };
            runtime.submit((id, 0)).unwrap()
        })
        .collect();
    switch.set(ChaosMode::Healthy);
    assert_eq!(plug.wait_timeout(WAIT).ready(), Some(Ok(PLUG * 3 + 7)));
    for h in bad {
        assert!(h.wait_timeout(WAIT).ready().expect("handle must resolve").is_err());
    }
    // The runtime keeps serving after a failed batch.
    let good = runtime.submit((5, 0)).unwrap();
    assert_eq!(good.wait_timeout(WAIT).ready(), Some(Ok(5 * 3 + 7)));
    runtime.shutdown();
}

#[test]
fn wait_timeout_distinguishes_pending_from_ready() {
    use nshd_runtime::WaitOutcome;
    let engine = MockEngine::new();
    let runtime =
        InferenceRuntime::new(engine, RuntimeConfig { max_batch: 1, ..RuntimeConfig::default() })
            .unwrap();
    // A 200 ms batch keeps the request in flight past the short wait.
    let h = runtime.submit((1, 200)).unwrap();
    assert!(
        matches!(h.wait_timeout(Duration::from_millis(5)), WaitOutcome::Timeout),
        "an in-flight request must report Timeout, not a dead runtime"
    );
    // The same handle can keep waiting and still observe the result.
    assert_eq!(h.wait_timeout(WAIT).ready(), Some(Ok(10)));
    runtime.shutdown();
}

/// An engine that panics in `run`: a batch runs on the collector
/// thread, so the panic kills the collector and every pending reply
/// sender is dropped without an answer.
struct PanickingEngine;

impl BatchEngine for PanickingEngine {
    type Input = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), _batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
        panic!("injected collector death");
    }
}

#[test]
fn dead_runtime_reports_worker_gone_not_timeout() {
    use nshd_runtime::WaitOutcome;
    let runtime = InferenceRuntime::new(
        Arc::new(PanickingEngine),
        RuntimeConfig { max_batch: 4, ..RuntimeConfig::default() },
    )
    .unwrap();
    let h = runtime.submit(1).unwrap();
    // The collector dies executing the batch; the handle must resolve
    // to WorkerGone (a typed error), never hang and never read as a
    // mere timeout.
    let outcome = h.wait_timeout(WAIT);
    let WaitOutcome::WorkerGone(err) = outcome else {
        panic!("expected WorkerGone, got {outcome:?}");
    };
    assert!(err.to_string().contains("without replying"), "{err}");
    drop(runtime); // drop (join) must not hang on the dead collector
}
