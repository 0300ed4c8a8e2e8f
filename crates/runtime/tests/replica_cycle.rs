//! Repeated drain → readmit cycles on a live `ReplicaSet`: serving
//! history must survive every retirement (bucket-exact
//! `Histogram::merge_from` into the retired rollup), the breaker must
//! come back `Serving` after each readmit, and a readmitted slot must
//! take traffic again.

use nshd_core::PipelineError;
use nshd_runtime::{
    BatchEngine, BreakerConfig, ClusterConfig, ReplicaSet, ReplicaState, RetryPolicy, RuntimeConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic toy engine (`id -> id * 3 + 7`) counting what it
/// actually served, so tests can attribute traffic to an engine
/// instance across readmissions.
struct CountingEngine {
    served: AtomicU64,
}

impl CountingEngine {
    fn new() -> Arc<Self> {
        Arc::new(CountingEngine { served: AtomicU64::new(0) })
    }
}

impl BatchEngine for CountingEngine {
    type Input = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
        self.served.fetch_add(batch.len() as u64, Ordering::SeqCst);
        Ok(batch.iter().map(|id| id * 3 + 7).collect())
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        runtime: RuntimeConfig { max_batch: 4, ..RuntimeConfig::default() },
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_secs(10),
        },
        breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(40) },
        max_inflight: 0,
    }
}

#[test]
fn drain_readmit_cycles_keep_rollup_bucket_exact() {
    let a = CountingEngine::new();
    let b = CountingEngine::new();
    let set = ReplicaSet::new(vec![a.clone(), b.clone()], cluster_config()).unwrap();
    let mut total = 0u64;

    for cycle in 0..3 {
        for id in 0..10u64 {
            let reply = set.predict(id).unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
            assert_eq!(reply.value, id * 3 + 7);
            total += 1;
        }

        // The slot's engine stays reachable for retrain-and-readmit.
        let engine = set.engine(0).expect("engine accessor");
        assert!(Arc::ptr_eq(&engine, &a), "slot 0 must hand back the engine it serves");

        // A live slot must be drained before it can be readmitted.
        let err = set.readmit(0, engine.clone()).expect_err("readmit of a live slot");
        assert!(matches!(err, PipelineError::Runtime { stage: "swap", .. }), "got: {err}");

        set.drain(0).expect("drain succeeds");
        assert_eq!(set.replica_state(0), ReplicaState::Removed);

        // The survivor carries all traffic during the retirement.
        for id in 100..105u64 {
            let reply = set.predict(id).expect("survivor serves");
            assert_eq!(reply.replica, 1, "only replica 1 is admitted mid-retirement");
            total += 1;
        }

        set.readmit(0, engine).expect("readmit succeeds");
        assert_eq!(
            set.replica_state(0),
            ReplicaState::Serving,
            "a readmitted replica's breaker must reset to Serving"
        );
    }

    // After the final readmission, slot 0 takes traffic again.
    let before = a.served.load(Ordering::SeqCst);
    let mut by_zero = 0;
    for id in 200..210u64 {
        let reply = set.predict(id).expect("both replicas serving");
        if reply.replica == 0 {
            by_zero += 1;
        }
        total += 1;
    }
    assert!(by_zero > 0, "round-robin must route to the readmitted replica");
    assert!(a.served.load(Ordering::SeqCst) > before, "the readmitted engine must serve");

    // Three retirements later, nothing leaked: the router accounted
    // every admitted request and the rollup (retired history merged
    // with live replicas) agrees exactly — including the batch-size
    // histogram, whose buckets must re-add across merges.
    let metrics = set.metrics();
    assert_eq!(metrics.router.requests, total);
    assert_eq!(
        metrics.rollup.requests, total,
        "drained replicas' requests must survive in the rollup"
    );
    let hist_requests: u64 =
        metrics.rollup.batch_histogram.iter().map(|&(size, count)| size as u64 * count).sum();
    assert_eq!(
        hist_requests, total,
        "the merged batch histogram must stay bucket-exact across retirements"
    );
    assert_eq!(
        a.served.load(Ordering::SeqCst) + b.served.load(Ordering::SeqCst),
        total,
        "engine-side accounting must agree with the rollup"
    );
    set.shutdown();
}

#[test]
fn hot_swap_replaces_engine_mid_traffic() {
    let original = CountingEngine::new();
    let spare = CountingEngine::new();
    let set =
        ReplicaSet::new(vec![original.clone(), CountingEngine::new()], cluster_config()).unwrap();
    for id in 0..8u64 {
        set.predict(id).expect("warm-up traffic");
    }

    let drained = set.hot_swap(0, spare.clone()).expect("hot swap succeeds");
    assert!(drained.requests > 0, "the drained metrics must carry the slot's history");
    assert_eq!(set.replica_state(0), ReplicaState::Serving);
    assert!(Arc::ptr_eq(&set.engine(0).expect("accessor"), &spare));

    let before_original = original.served.load(Ordering::SeqCst);
    for id in 100..120u64 {
        let reply = set.predict(id).expect("post-swap traffic");
        assert_eq!(reply.value, id * 3 + 7);
    }
    assert_eq!(
        original.served.load(Ordering::SeqCst),
        before_original,
        "the swapped-out engine must never see post-swap traffic"
    );
    assert!(spare.served.load(Ordering::SeqCst) > 0, "the swapped-in engine must serve");

    let metrics = set.shutdown();
    assert_eq!(metrics.rollup.requests, 28, "history spans both engines' tenures");
}
