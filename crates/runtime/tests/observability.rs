//! Serving-runtime observability: every executed batch opens a `request`
//! span, extract spans opened on `par` kernel workers re-root under it
//! (cross-thread context propagation), and queue-wait / execute
//! summaries populate.

use nshd_core::PipelineError;
use nshd_obs::Recorder;
use nshd_runtime::{BatchEngine, ChaosEngine, ChaosMode, InferenceRuntime, RuntimeConfig};
use nshd_tensor::par;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serialises tests that install the process-global recorder.
static GLOBAL_RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// A mock engine that opens an `extract` span per request inside a
/// 4-thread `par::par_map` region — the way the NSHD engine's kernels fan
/// out — then a `score` span on the collector, so the test can assert
/// that spans opened on kernel worker threads land under the batcher's
/// `request` span.
struct SpanningEngine;

impl BatchEngine for SpanningEngine {
    type Input = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
        let extracted = par::with_threads(4, || {
            par::par_map(batch, |&id| {
                let _sp = nshd_obs::span("extract");
                std::thread::sleep(Duration::from_millis(2));
                id
            })
        });
        let _sp = nshd_obs::span("score");
        Ok(extracted.into_iter().map(|id| id + 1).collect())
    }
}

/// Serves `requests` requests, the first one plugging the collector
/// inside its batch until the rest have queued, so the rest run as
/// multi-request batches (fanned out across `par` workers).
fn serve(requests: u64) -> nshd_obs::ServingMetrics {
    let (engine, switch) = ChaosEngine::new(Arc::new(SpanningEngine));
    let runtime = InferenceRuntime::new(
        Arc::new(engine),
        RuntimeConfig { max_batch: 8, ..RuntimeConfig::default() },
    )
    .unwrap();
    switch.set(ChaosMode::Hold);
    let plug = runtime.submit(0).unwrap();
    let started = Instant::now();
    while switch.injected() < 1 {
        assert!(started.elapsed() < Duration::from_secs(20), "the plug never reached the engine");
        std::thread::sleep(Duration::from_millis(1));
    }
    let rest: Vec<_> = (1..requests).map(|id| runtime.submit(id).unwrap()).collect();
    switch.set(ChaosMode::Healthy);
    let handles = std::iter::once(plug).chain(rest);
    for (id, h) in handles.enumerate() {
        assert_eq!(h.wait_timeout(Duration::from_secs(20)).ready(), Some(Ok(id as u64 + 1)));
    }
    runtime.shutdown()
}

#[test]
fn batches_trace_request_spans_with_worker_extract_nested() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());

    let metrics = serve(16);
    nshd_obs::install(previous);

    assert_eq!(metrics.requests, 16);
    assert_eq!(metrics.batch_histogram, vec![(1, 1), (7, 1), (8, 1)], "plug, then two batches");
    // Queue-wait and execute summaries are accounted per batch.
    assert!(metrics.execute.max_us > 0.0, "{:?}", metrics.execute);
    assert!(metrics.queue_wait.p99_us <= metrics.p99_us, "waits are part of latency");
    assert!(metrics.p50_us <= metrics.p95_us && metrics.p95_us <= metrics.p99_us);

    let stats = recorder.span_stats();
    let request = stats.get("request").expect("per-batch request span recorded");
    assert_eq!(request.count, metrics.batches);
    // Worker-side extract spans re-rooted under the batch's request
    // span — not recorded as orphan roots on the worker threads.
    let extract = stats.get("request/extract").expect("extract nested under request");
    assert!(extract.count >= metrics.batches, "one extract span per request");
    assert!(stats.contains_key("request/score"), "score stage nested too");
    assert!(!stats.contains_key("extract"), "no orphan extract roots: {:?}", stats.keys());

    let report = recorder.report();
    let node = report.find("request/extract").expect("report resolves the nested path");
    assert!(node.stats.total_nanos > 0);
}

#[test]
fn serving_without_a_recorder_traces_nothing() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let recorder = Recorder::new();
    let previous = nshd_obs::install(nshd_obs::Recorder::disabled());

    let metrics = serve(6);
    nshd_obs::install(previous);

    // Serving statistics still accumulate (they are runtime-owned) ...
    assert_eq!(metrics.requests, 6);
    // ... but no spans were recorded anywhere.
    assert!(recorder.span_stats().is_empty());
}
