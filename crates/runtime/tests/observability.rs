//! Serving-runtime observability: every executed batch opens a `request`
//! span, worker-side extract spans re-root under it (cross-thread
//! context propagation), and queue-wait / execute summaries populate.

use nshd_core::PipelineError;
use nshd_obs::Recorder;
use nshd_runtime::{BatchEngine, InferenceRuntime, RuntimeConfig};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serialises tests that install the process-global recorder.
static GLOBAL_RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// A mock engine that opens an `extract` span in its extract stage —
/// the same shape `NshdEngine` produces — so the test can assert the
/// span lands under the batcher's `request` span even when extract
/// runs on a pool worker thread.
struct SpanningEngine;

impl BatchEngine for SpanningEngine {
    type Input = u64;
    type Partial = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn extract(&self, _snapshot: &(), chunk: &[u64]) -> Result<Vec<u64>, PipelineError> {
        let _sp = nshd_obs::span("extract");
        std::thread::sleep(Duration::from_millis(2));
        Ok(chunk.to_vec())
    }

    fn finish(&self, _snapshot: &(), partials: Vec<u64>) -> Result<Vec<u64>, PipelineError> {
        let _sp = nshd_obs::span("score");
        Ok(partials.into_iter().map(|id| id + 1).collect())
    }
}

fn serve(workers: usize, requests: u64) -> nshd_obs::ServingMetrics {
    let runtime = InferenceRuntime::new(
        Arc::new(SpanningEngine),
        RuntimeConfig { workers, max_batch: 8, max_wait: Duration::from_millis(10) },
    )
    .unwrap();
    let handles: Vec<_> = (0..requests).map(|id| runtime.submit(id).unwrap()).collect();
    for (id, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait_timeout(Duration::from_secs(20)).ready(), Some(Ok(id as u64 + 1)));
    }
    runtime.shutdown()
}

#[test]
fn batches_trace_request_spans_with_worker_extract_nested() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());

    let metrics = serve(4, 16);
    nshd_obs::install(previous);

    assert_eq!(metrics.requests, 16);
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
    assert!(extract.count >= metrics.batches, "one extract span per chunk");
    assert!(stats.contains_key("request/score"), "finish stage nested too");
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

    let metrics = serve(2, 6);
    nshd_obs::install(previous);

    // Serving statistics still accumulate (they are runtime-owned) ...
    assert_eq!(metrics.requests, 6);
    // ... but no spans were recorded anywhere.
    assert!(recorder.span_stats().is_empty());
}
