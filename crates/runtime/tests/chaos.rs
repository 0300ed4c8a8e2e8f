//! Chaos tests for the fault-tolerant serving tier: replicas that fail,
//! stall, panic or degrade mid-stream, with live traffic asserting that
//! every request resolves (success or typed error, never a hang), that
//! circuit breakers eject and re-admit replicas, that overload sheds
//! with a typed error, and that surviving replicas' predictions stay
//! bit-identical to a fault-free run.

use nshd_core::{Engine, NshdConfig, NshdModel, PipelineError};
use nshd_data::{normalize_pair, ImageDataset, SynthSpec};
use nshd_hdc::{FaultPlan, FaultScenario};
use nshd_nn::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential};
use nshd_runtime::{
    BatchEngine, BreakerConfig, ChaosEngine, ChaosMode, ClusterConfig, ReplicaSet, ReplicaState,
    RetryPolicy, RuntimeConfig,
};
use nshd_tensor::{Rng, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Deterministic toy engine: `id -> id * 3 + 7`, counting how many
/// requests it actually served so tests can tell replicas apart.
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

/// An engine that panics in `run`, killing its replica's collector
/// thread — the harshest fault: the runtime never answers the request.
struct PanickingEngine;

impl BatchEngine for PanickingEngine {
    type Input = u64;
    type Output = u64;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _snapshot: &(), _batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
        panic!("chaos: injected collector death");
    }
}

fn fast_cluster_config() -> ClusterConfig {
    ClusterConfig {
        runtime: RuntimeConfig { max_batch: 4, ..RuntimeConfig::default() },
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_secs(10),
        },
        breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(40) },
        max_inflight: 0,
    }
}

#[test]
fn failing_replica_is_ejected_and_every_request_resolves() {
    let healthy = CountingEngine::new();
    let (victim, switch) = ChaosEngine::new(CountingEngine::new());
    let replicas = vec![Arc::new(ChaosEngine::passthrough(healthy.clone())), Arc::new(victim)];
    let set = ReplicaSet::new(replicas, fast_cluster_config()).unwrap();

    // First half fault-free, then the victim starts failing mid-stream.
    for id in 0..20u64 {
        if id == 10 {
            switch.set(ChaosMode::Fail);
        }
        let reply = set.predict(id).unwrap_or_else(|e| panic!("request {id} failed: {e}"));
        assert_eq!(reply.value, id * 3 + 7, "request {id} got the wrong answer");
    }
    assert!(switch.injected() > 0, "the fault was never exercised");
    assert_eq!(
        set.replica_state(1),
        ReplicaState::Ejected,
        "two consecutive failures must open the victim's breaker"
    );
    assert_eq!(set.replica_state(0), ReplicaState::Serving);

    let metrics = set.shutdown();
    assert!(metrics.router.retries > 0, "failures must surface as retries");
    assert_eq!(metrics.router.requests, 20, "router must account every admitted request");
}

#[test]
fn healed_replica_is_probed_and_readmitted() {
    let (victim, switch) = ChaosEngine::new(CountingEngine::new());
    let victim = Arc::new(victim);
    let replicas = vec![Arc::new(ChaosEngine::passthrough(CountingEngine::new())), victim];
    let set = ReplicaSet::new(replicas, fast_cluster_config()).unwrap();

    switch.set(ChaosMode::Fail);
    for id in 0..8u64 {
        set.predict(id).expect("the healthy replica must cover the failures");
    }
    assert_eq!(set.replica_state(1), ReplicaState::Ejected);

    // Heal the replica and let the breaker cool down: the next routed
    // request becomes the half-open probe and re-admits it.
    switch.set(ChaosMode::Healthy);
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(set.replica_state(1), ReplicaState::Probing);
    let mut served_by_healed = 0;
    for id in 100..140u64 {
        let reply = set.predict(id).expect("post-heal traffic must succeed");
        assert_eq!(reply.value, id * 3 + 7);
        if reply.replica == 1 {
            served_by_healed += 1;
        }
    }
    assert!(served_by_healed > 0, "a healed replica must take traffic again");
    assert_eq!(set.replica_state(1), ReplicaState::Serving);
    set.shutdown();
}

#[test]
fn killed_collector_fails_over_without_hanging() {
    // Replica 0's collector thread dies on the first batch (engine
    // panic). Every request must still resolve through replica 1 —
    // WorkerGone is a retryable fault, not a hang and not a timeout.
    let replicas: Vec<Arc<dyn_engine::Either>> = vec![
        Arc::new(dyn_engine::Either::Dead(PanickingEngine)),
        Arc::new(dyn_engine::Either::Alive(CountingEngine::new())),
    ];
    let set = ReplicaSet::new(replicas, fast_cluster_config()).unwrap();
    let mut failovers = 0;
    for id in 0..12u64 {
        let reply = set.predict(id).unwrap_or_else(|e| panic!("request {id} failed: {e}"));
        assert_eq!(reply.value, id * 3 + 7);
        assert_eq!(reply.replica, 1, "only replica 1 can answer");
        if reply.attempts > 1 {
            failovers += 1;
        }
    }
    assert!(failovers > 0, "the dead replica was never even tried");
    let metrics = set.shutdown();
    assert!(metrics.router.retries > 0);
}

/// A two-variant engine so a dead and a live replica can share one
/// engine type in a `ReplicaSet` (which is homogeneous over `E`).
mod dyn_engine {
    use super::*;

    pub enum Either {
        Dead(PanickingEngine),
        Alive(Arc<CountingEngine>),
    }

    impl BatchEngine for Either {
        type Input = u64;
        type Output = u64;
        type Snapshot = ();

        fn snapshot(&self) -> Arc<()> {
            Arc::new(())
        }

        fn run(&self, _snapshot: &(), batch: &[u64]) -> Result<Vec<u64>, PipelineError> {
            match self {
                Either::Dead(e) => e.run(&(), batch),
                Either::Alive(e) => e.run(&(), batch),
            }
        }
    }
}

#[test]
fn overload_sheds_with_typed_error() {
    // One replica, stalled: with an admission cap of 1 and clients
    // released together, exactly one request is in flight and the rest
    // must shed fast with the typed Overloaded error.
    let (engine, switch) = ChaosEngine::new(CountingEngine::new());
    switch.set(ChaosMode::Stall(Duration::from_millis(400)));
    let mut config = fast_cluster_config();
    config.max_inflight = 1;
    config.retry.max_attempts = 1;
    let set = ReplicaSet::new(vec![Arc::new(engine)], config).unwrap();

    let clients = 4;
    let barrier = Barrier::new(clients);
    let outcomes: Vec<Result<u64, PipelineError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|id| {
                let set = &set;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    if id > 0 {
                        // Give client 0 a head start into the stall so
                        // the others deterministically find the slot
                        // taken.
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    set.predict(id).map(|r| r.value)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let succeeded = outcomes.iter().filter(|o| o.is_ok()).count();
    let shed =
        outcomes.iter().filter(|o| matches!(o, Err(PipelineError::Overloaded { .. }))).count();
    assert!(succeeded >= 1, "the admitted request must finish: {outcomes:?}");
    assert!(shed >= 1, "overload must shed with a typed error: {outcomes:?}");
    assert_eq!(succeeded + shed, clients, "every outcome is served or shed: {outcomes:?}");

    let metrics = set.shutdown();
    assert_eq!(metrics.router.shed as usize, shed);
}

#[test]
fn drain_finishes_in_flight_work_and_last_drain_makes_cluster_unavailable() {
    let a = CountingEngine::new();
    let b = CountingEngine::new();
    let replicas = vec![
        Arc::new(ChaosEngine::passthrough(a.clone())),
        Arc::new(ChaosEngine::passthrough(b.clone())),
    ];
    let mut config = fast_cluster_config();
    config.retry.max_attempts = 2;
    let set = ReplicaSet::new(replicas, config).unwrap();
    for id in 0..10u64 {
        set.predict(id).expect("two healthy replicas");
    }

    let drained = set.drain(0).expect("first drain succeeds");
    assert_eq!(set.replica_state(0), ReplicaState::Removed);
    assert!(set.drain(0).is_err(), "double drain must be rejected");

    // The survivor carries all subsequent traffic.
    for id in 10..20u64 {
        let reply = set.predict(id).expect("replica 1 still serves");
        assert_eq!(reply.replica, 1);
    }
    set.drain(1).expect("second drain succeeds");
    let err = set.predict(99).expect_err("no replicas left");
    assert!(
        matches!(err, PipelineError::Unavailable { .. }),
        "an empty cluster must report Unavailable, got: {err}"
    );

    // The drained replicas' history survives in the rollup.
    let metrics = set.metrics();
    assert_eq!(
        metrics.rollup.requests,
        drained.requests + b.served.load(Ordering::SeqCst),
        "rollup must keep drained replicas' requests"
    );
    assert_eq!(metrics.rollup.requests, 20);
    let json = metrics.to_json();
    assert!(json.contains("\"state\":\"removed\""), "{json}");
}

fn tiny_nshd_model() -> (NshdModel, ImageDataset) {
    let (mut train, mut test) = SynthSpec::synth10(33).with_sizes(40, 16).generate();
    normalize_pair(&mut train, &mut test);
    let mut rng = Rng::new(4);
    let features = Sequential::new()
        .with(Conv2d::new(3, 4, 3, 1, 1, &mut rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier =
        Sequential::new().with(Flatten::new()).with(Linear::new(4 * 16 * 16, 10, &mut rng));
    let teacher = Model {
        name: "tiny".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    };
    let cfg = NshdConfig::new(3)
        .with_hv_dim(512)
        .with_manifold_features(24)
        .with_retrain_epochs(1)
        .with_seed(6);
    (NshdModel::train(teacher, &train, cfg), test)
}

#[test]
fn survivors_stay_bit_exact_while_a_degraded_replica_serves() {
    // Replica 0 is the fault-free snapshot; replica 1 has its
    // associative memory corrupted by a seeded fault scenario. Every
    // reply served by the *healthy* replica must be bit-identical to
    // the fault-free baseline — degradation must never leak across
    // replica boundaries.
    let (model, test) = tiny_nshd_model();
    let engine = Engine::try_from(&model).expect("trained model must verify");
    let scenario =
        FaultScenario::new().with(FaultPlan::new(9, 0.4), 1).with(FaultPlan::new(10, 0.4), 2);
    let (degraded, report) = engine.degraded(&scenario);
    assert!(report.faults > 0, "the scenario must actually corrupt the replica");

    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    let expected: Vec<usize> = images.iter().map(|img| model.predict(img)).collect();

    let mut config = fast_cluster_config();
    config.runtime.max_batch = 8;
    let set = ReplicaSet::new(vec![Arc::new(engine), Arc::new(degraded)], config).unwrap();
    let mut healthy_replies = 0;
    for (i, img) in images.iter().enumerate() {
        let reply = set.predict(img.clone()).expect("both replicas are serving");
        assert!(reply.value < 10, "prediction out of range");
        if reply.replica == 0 {
            assert_eq!(
                reply.value, expected[i],
                "healthy replica diverged from the fault-free baseline on sample {i}"
            );
            healthy_replies += 1;
        }
    }
    assert!(healthy_replies > 0, "round-robin must route some traffic to the healthy replica");
    set.shutdown();
}
