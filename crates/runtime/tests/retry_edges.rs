//! Edge-case tests for the retry/backoff/breaker machinery: a backoff
//! cap that lands exactly on the request deadline, drain idempotency,
//! and breaker re-admission after a drain-free failure burst — the
//! corners the happy-path chaos tests never hit.

use nshd_core::PipelineError;
use nshd_runtime::{
    BatchEngine, BreakerConfig, ClusterConfig, ReplicaSet, ReplicaState, RetryPolicy, RuntimeConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Always answers `id * 2 + 1`.
struct OkEngine;

impl BatchEngine for OkEngine {
    type Input = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
        Ok(batch.iter().map(|id| id * 2 + 1).collect())
    }
}

/// Fails every request with a retryable typed error, counting attempts.
struct AlwaysFailEngine {
    attempts: AtomicU64,
}

impl AlwaysFailEngine {
    fn new() -> Arc<Self> {
        Arc::new(AlwaysFailEngine { attempts: AtomicU64::new(0) })
    }
}

impl BatchEngine for AlwaysFailEngine {
    type Input = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), _batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
        self.attempts.fetch_add(1, Ordering::SeqCst);
        Err(PipelineError::Runtime { stage: "test", detail: "injected failure".into() })
    }
}

fn config(retry: RetryPolicy, breaker: BreakerConfig) -> ClusterConfig {
    ClusterConfig {
        runtime: RuntimeConfig { max_batch: 4, ..RuntimeConfig::default() },
        retry,
        breaker,
        max_inflight: 0,
    }
}

/// When the (capped) backoff before the next retry would land exactly
/// on the deadline, the request must fail fast with a typed
/// `DeadlineExceeded` — not sleep the backoff first and discover the
/// deadline afterwards, and not mislabel the outcome `Unavailable`.
#[test]
fn backoff_cap_landing_exactly_on_deadline_fails_fast_and_typed() {
    let deadline = Duration::from_millis(200);
    let engine = AlwaysFailEngine::new();
    let set = ReplicaSet::new(
        vec![engine.clone()],
        config(
            RetryPolicy {
                max_attempts: 8,
                // Cap == deadline: the first retry's pause alone consumes
                // the entire remaining budget.
                base_backoff: deadline,
                max_backoff: deadline,
                deadline,
            },
            // High threshold so the breaker never ejects the replica and
            // the retry loop (not routing) decides the outcome.
            BreakerConfig { failure_threshold: 100, cooldown: Duration::from_millis(1) },
        ),
    )
    .expect("cluster must construct");

    let started = std::time::Instant::now();
    let outcome = set.predict(1);
    let elapsed = started.elapsed();

    match outcome {
        Err(PipelineError::DeadlineExceeded { budget_ms }) => {
            assert_eq!(budget_ms, deadline.as_millis() as u64);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Exactly one real attempt ran; the retry was cut off before its
    // backoff sleep, so the call returns well under deadline + backoff.
    assert_eq!(engine.attempts.load(Ordering::SeqCst), 1);
    assert!(
        elapsed < deadline + deadline / 2,
        "request slept into the dead backoff: took {elapsed:?} against a {deadline:?} budget"
    );
    let metrics = set.shutdown();
    assert_eq!(metrics.router.retries, 1, "the cut-off retry must still be counted");
}

/// A backoff schedule whose sleeps fit inside the budget must exhaust
/// `max_attempts` and report `Unavailable` (with the real underlying
/// error), never `DeadlineExceeded`.
#[test]
fn backoff_within_budget_exhausts_attempts_with_unavailable() {
    let engine = AlwaysFailEngine::new();
    let set = ReplicaSet::new(
        vec![engine.clone()],
        config(
            RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                deadline: Duration::from_secs(10),
            },
            BreakerConfig { failure_threshold: 100, cooldown: Duration::from_millis(1) },
        ),
    )
    .expect("cluster must construct");

    match set.predict(1) {
        Err(PipelineError::Unavailable { attempts, last }) => {
            assert_eq!(attempts, 3);
            assert!(
                matches!(*last, PipelineError::Runtime { stage: "test", .. }),
                "last error must be the engine's own failure, got {last:?}"
            );
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(engine.attempts.load(Ordering::SeqCst), 3);
    drop(set.shutdown());
}

/// Draining the same replica twice: the first drain succeeds, the
/// second is a typed error (not a panic, not a hang), the slot reads
/// `Removed`, and the rest of the set keeps serving.
#[test]
fn drain_called_twice_is_a_typed_error_and_the_set_keeps_serving() {
    let set = ReplicaSet::new(
        vec![Arc::new(OkEngine), Arc::new(OkEngine)],
        config(RetryPolicy::default(), BreakerConfig::default()),
    )
    .expect("cluster must construct");

    let first = set.drain(1).expect("first drain must succeed");
    assert_eq!(first.shed, 0);
    assert_eq!(set.replica_state(1), ReplicaState::Removed);

    match set.drain(1) {
        Err(PipelineError::Runtime { stage: "drain", detail }) => {
            assert!(detail.contains("already drained"), "unexpected detail: {detail}");
        }
        other => panic!("second drain must be a typed error, got {other:?}"),
    }
    // Out-of-range drains are typed errors too.
    assert!(matches!(set.drain(99), Err(PipelineError::Runtime { stage: "drain", .. })));

    // The surviving replica still answers.
    let reply = set.predict(21).expect("survivor must serve");
    assert_eq!(reply.value, 43);
    assert_eq!(reply.replica, 0);
    drop(set.shutdown());
}

/// A zero request deadline can never be met, and it would leave the
/// failover loop's deadline watch waiting zero-length timeouts forever:
/// construction must reject it, typed, before any replica starts.
#[test]
fn zero_request_deadline_is_rejected_at_construction() {
    let zero = RetryPolicy { deadline: Duration::ZERO, ..RetryPolicy::default() };
    match ReplicaSet::new(vec![Arc::new(OkEngine)], config(zero, BreakerConfig::default())) {
        Err(PipelineError::Runtime { stage: "config", detail }) => {
            assert!(detail.contains("deadline"), "unexpected detail: {detail}");
        }
        Err(other) => panic!("expected a config error, got {other:?}"),
        Ok(_) => panic!("a zero request deadline was accepted"),
    }
}
