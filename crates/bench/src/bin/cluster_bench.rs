//! Closed-loop load generator for the fault-tolerant replicated serving
//! tier (`nshd_runtime::ReplicaSet`).
//!
//! Trains a small NSHD model on Synth10, snapshots it into N replicas,
//! and drives closed-loop client threads against the cluster:
//!
//! 1. a **load sweep** over client counts with every replica healthy —
//!    goodput versus offered load, with admission-control shed rate;
//! 2. **fault scenarios** — one replica starts stalling, failing
//!    (transient) or dying (permanent) mid-stream, flipped by whichever
//!    client crosses the halfway completion mark (so injection timing is
//!    tied to traffic progress, not wall-clock sleeps); plus a replica
//!    whose associative memory is corrupted by a seeded
//!    `nshd_hdc::FaultScenario` before serving starts;
//! 3. an **overload** phase — a stalled single-replica cluster with an
//!    admission cap of 1 driven by parallel clients, forcing typed
//!    `Overloaded` sheds.
//!
//! Every scenario checks the **survivor invariant**: each reply served
//! by a healthy replica must be bit-identical to the fault-free
//! per-sample baseline (`NshdModel::predict`). Results go to stdout and
//! `BENCH_cluster.json` at the repository root through the `nshd-obs/v1`
//! trace exporter. `--smoke` runs a down-sized configuration and exits
//! non-zero unless every request resolves, survivors stay bit-exact,
//! sheds and retries are both observed, and p99 stays within the
//! request deadline — the CI gate.
//!
//! Flags: `--replicas N` (default 3), `--requests N` (default by
//! `NSHD_SCALE`), `--smoke`.

use nshd_bench::Scale;
use nshd_core::{Engine, NshdConfig, NshdModel, PipelineError};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_hdc::{FaultPlan, FaultScenario};
use nshd_nn::{
    fit, ActKind, Activation, Adam, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential,
    TrainConfig,
};
use nshd_obs::{clock, Json, Recorder};
use nshd_runtime::{
    BreakerConfig, ChaosEngine, ChaosMode, ClusterConfig, ClusterReply, ReplicaSet, RetryPolicy,
    RuntimeConfig,
};
use nshd_tensor::{Rng, Tensor};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    replicas: usize,
    requests: usize,
    smoke: bool,
}

fn parse_args(scale: Scale) -> Args {
    let mut args = Args {
        replicas: 3,
        requests: match scale {
            Scale::Quick => 256,
            Scale::Full => 1_024,
        },
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects a number"))
        };
        match flag.as_str() {
            "--replicas" => args.replicas = num("--replicas") as usize,
            "--requests" => args.requests = num("--requests") as usize,
            "--smoke" => args.smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        args.replicas = args.replicas.min(3);
        args.requests = args.requests.min(96);
    }
    args
}

fn tiny_teacher(rng: &mut Rng) -> Model {
    let features = Sequential::new()
        .with(Conv2d::new(3, 8, 3, 1, 1, rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier = Sequential::new().with(Flatten::new()).with(Linear::new(8 * 16 * 16, 10, rng));
    Model {
        name: "cluster-tiny".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    }
}

/// How one scenario perturbs the last replica of the set.
enum Fault {
    /// All replicas healthy for the whole run.
    None,
    /// Flip the victim to `mode` once half the requests have completed.
    FlipAtHalf(ChaosMode),
    /// Run the victim in `mode` from the first request.
    FromStart(ChaosMode),
    /// Serve a replica whose associative memory was corrupted by a
    /// seeded fault scenario before the run (predictions may diverge;
    /// the cluster must keep serving and survivors must stay exact).
    Degraded,
}

struct RunSpec<'a> {
    name: &'a str,
    replicas: usize,
    clients: usize,
    requests: usize,
    fault: Fault,
    max_inflight: usize,
    deadline: Duration,
}

struct RunOutcome {
    json: Json,
    issued: usize,
    resolved: usize,
    ok: usize,
    shed: usize,
    retries: u64,
    survivor_exact: bool,
    p99_us: f64,
}

/// Drives one closed-loop run: `clients` threads issue `requests`
/// requests round-robin over the image set and every outcome is
/// collected — success, typed shed, or typed failure. Returns the
/// scenario's JSON row plus the counters the smoke gate checks.
fn run_scenario(
    spec: &RunSpec<'_>,
    engine: &Engine<Tensor>,
    images: &[Tensor],
    expected: &[usize],
) -> RunOutcome {
    assert!(spec.replicas >= 1 && spec.clients >= 1);
    let victim = spec.replicas - 1;
    let mut switch = None;
    let mut replicas: Vec<Arc<ChaosEngine<Engine<Tensor>>>> = Vec::with_capacity(spec.replicas);
    for index in 0..spec.replicas {
        let snapshot = if index == victim {
            match &spec.fault {
                Fault::Degraded => {
                    let scenario = FaultScenario::new()
                        .with(FaultPlan::new(9, 0.4), 1)
                        .with(FaultPlan::new(10, 0.4), 2);
                    let (degraded, report) = engine.degraded(&scenario);
                    assert!(report.faults > 0, "degradation scenario injected nothing");
                    degraded
                }
                _ => engine.clone(),
            }
        } else {
            engine.clone()
        };
        let replica = if index == victim
            && matches!(spec.fault, Fault::FlipAtHalf(_) | Fault::FromStart(_))
        {
            let (chaos, s) = ChaosEngine::new(Arc::new(snapshot));
            switch = Some(s);
            chaos
        } else {
            ChaosEngine::passthrough(Arc::new(snapshot))
        };
        replicas.push(Arc::new(replica));
    }
    if let (Some(s), Fault::FromStart(mode)) = (&switch, &spec.fault) {
        s.set(*mode);
    }

    let config = ClusterConfig {
        runtime: RuntimeConfig { max_batch: 8, ..RuntimeConfig::default() },
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            deadline: spec.deadline,
        },
        breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(50) },
        max_inflight: spec.max_inflight,
    };
    let set = ReplicaSet::new(replicas, config).expect("verified engine must form a cluster");

    let completed = AtomicUsize::new(0);
    let flipped = AtomicBool::new(false);
    let half = spec.requests / 2;
    let started = clock::now();
    let per_client = spec.requests.div_ceil(spec.clients);
    let outcomes: Vec<(usize, Result<ClusterReply<usize>, PipelineError>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spec.clients)
                .map(|client| {
                    let set = &set;
                    let completed = &completed;
                    let flipped = &flipped;
                    let switch = switch.as_ref();
                    scope.spawn(move || {
                        let mut local = Vec::with_capacity(per_client);
                        let first = client * per_client;
                        let last = (first + per_client).min(spec.requests);
                        for i in first..last {
                            let img = images[i % images.len()].clone();
                            local.push((i % images.len(), set.predict(img)));
                            let done = completed.fetch_add(1, Ordering::AcqRel) + 1;
                            // Whichever client crosses the halfway mark
                            // injects the fault — mid-traffic, but tied
                            // to progress instead of wall-clock timing.
                            if done >= half
                                && !flipped.swap(true, Ordering::AcqRel)
                                && matches!(spec.fault, Fault::FlipAtHalf(_))
                            {
                                if let (Some(s), Fault::FlipAtHalf(mode)) = (switch, &spec.fault) {
                                    s.set(*mode);
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
        });
    let elapsed = started.elapsed().as_secs_f64();

    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut failed = 0usize;
    let mut survivor_exact = true;
    let mut survivor_replies = 0usize;
    for (sample, outcome) in &outcomes {
        match outcome {
            Ok(reply) => {
                ok += 1;
                let is_survivor = match spec.fault {
                    Fault::None => true,
                    _ => reply.replica != victim,
                };
                if is_survivor {
                    survivor_replies += 1;
                    if reply.value != expected[*sample] {
                        survivor_exact = false;
                    }
                }
            }
            Err(PipelineError::Overloaded { .. }) => shed += 1,
            Err(_) => failed += 1,
        }
    }
    // Replica states before shutdown, so ejections are still visible.
    let states: Vec<&'static str> =
        (0..spec.replicas).map(|i| set.replica_state(i).label()).collect();
    let metrics = set.shutdown();
    let goodput = if elapsed > 0.0 { ok as f64 / elapsed } else { 0.0 };
    let offered = if elapsed > 0.0 { outcomes.len() as f64 / elapsed } else { 0.0 };

    eprintln!(
        "[cluster_bench] {:<16} clients={} ok={ok} shed={shed} failed={failed} \
         retries={} goodput={goodput:.1} req/s survivor_exact={survivor_exact}",
        spec.name, spec.clients, metrics.router.retries
    );

    let json = Json::obj(vec![
        ("scenario", Json::str(spec.name)),
        ("replicas", Json::from(spec.replicas)),
        ("clients", Json::from(spec.clients)),
        ("issued", Json::from(outcomes.len())),
        ("ok", Json::from(ok)),
        ("shed", Json::from(shed)),
        ("failed", Json::from(failed)),
        ("offered_rps", Json::fixed(offered, 1)),
        ("goodput_rps", Json::fixed(goodput, 1)),
        ("survivor_exact", Json::from(survivor_exact)),
        ("survivor_replies", Json::from(survivor_replies)),
        ("replica_states", Json::arr(states.iter().map(|&s| Json::str(s)))),
        ("router", Json::Raw(metrics.router.to_json())),
        ("rollup", Json::Raw(metrics.rollup.to_json())),
    ]);
    RunOutcome {
        json,
        issued: outcomes.len(),
        resolved: ok + shed + failed,
        ok,
        shed,
        retries: metrics.router.retries,
        survivor_exact,
        p99_us: metrics.router.p99_us,
    }
}

fn main() {
    let scale = Scale::from_env();
    let args = parse_args(scale);
    let (train_size, hv_dim, teacher_epochs) = if args.smoke {
        (60, 1_024, 1)
    } else {
        match scale {
            Scale::Quick => (200, 2_048, 3),
            Scale::Full => (600, 2_048, 6),
        }
    };

    eprintln!("[cluster_bench] training model (train={train_size}, hv_dim={hv_dim})");
    let (mut train, mut test) = SynthSpec::synth10(71).with_sizes(train_size, 64).generate();
    normalize_pair(&mut train, &mut test);
    let mut teacher = tiny_teacher(&mut Rng::new(7));
    fit(
        &mut teacher,
        train.images(),
        train.labels(),
        &mut Adam::new(2e-3, 1e-5),
        &TrainConfig { epochs: teacher_epochs, batch_size: 32, seed: 9, ..TrainConfig::default() },
    );
    let cfg = NshdConfig::new(3)
        .with_hv_dim(hv_dim)
        .with_manifold(false)
        .with_retrain_epochs(1)
        .with_seed(13);
    let model = NshdModel::train(teacher, &train, cfg);
    let engine = Engine::try_from(&model).expect("trained model must pass verification");

    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    // The fault-free baseline every surviving replica is held to.
    let expected: Vec<usize> = images.iter().map(|img| model.predict(img)).collect();

    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());

    let deadline = Duration::from_secs(10);
    let sweep_clients: &[usize] = if args.smoke { &[1, 4] } else { &[1, 4, 16] };
    let mut runs: Vec<RunOutcome> = Vec::new();

    // Goodput vs offered load, every replica healthy.
    for &clients in sweep_clients {
        runs.push(run_scenario(
            &RunSpec {
                name: "healthy",
                replicas: args.replicas,
                clients,
                requests: args.requests,
                fault: Fault::None,
                max_inflight: 0,
                deadline,
            },
            &engine,
            &images,
            &expected,
        ));
    }

    // Fault matrix at a fixed load: a stalling, a dying, and a
    // silently-degraded replica.
    let fault_clients = 4;
    for (name, fault) in [
        ("stall", Fault::FlipAtHalf(ChaosMode::Stall(Duration::from_millis(20)))),
        ("kill", Fault::FlipAtHalf(ChaosMode::Kill)),
        ("degraded", Fault::Degraded),
    ] {
        runs.push(run_scenario(
            &RunSpec {
                name,
                replicas: args.replicas,
                clients: fault_clients,
                requests: args.requests,
                fault,
                max_inflight: 0,
                deadline,
            },
            &engine,
            &images,
            &expected,
        ));
    }

    // Overload: one stalled replica, admission cap 1, parallel clients —
    // admission control must shed instead of queueing to the deadline.
    runs.push(run_scenario(
        &RunSpec {
            name: "overload",
            replicas: 1,
            clients: 8,
            requests: (args.requests / 4).max(16),
            fault: Fault::FromStart(ChaosMode::Stall(Duration::from_millis(30))),
            max_inflight: 1,
            deadline,
        },
        &engine,
        &images,
        &expected,
    ));

    nshd_obs::install(previous);
    let report = recorder.report();

    let doc = Json::obj(vec![
        (
            "scale",
            Json::str(if args.smoke {
                "smoke"
            } else if scale == Scale::Full {
                "full"
            } else {
                "quick"
            }),
        ),
        (
            "config",
            nshd_bench::run_config(
                args.smoke,
                71,
                vec![
                    ("replicas", Json::from(args.replicas)),
                    ("requests", Json::from(args.requests)),
                ],
            ),
        ),
        ("replicas", Json::from(args.replicas)),
        ("requests", Json::from(args.requests)),
        ("deadline_ms", Json::from(deadline.as_millis() as u64)),
        ("scenarios", Json::arr(runs.iter().map(|r| r.json.clone()))),
        ("trace", report.to_json()),
    ]);
    let json = doc.to_string();
    println!("{json}");

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_cluster.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_cluster.json");
    eprintln!("[cluster_bench] wrote {}", out.display());

    if args.smoke {
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"nshd-obs/v1\""), "trace must use the v1 exporter");
        assert!(
            json.contains("\"config\":") && json.contains("\"nshd_threads\":"),
            "run config metadata missing"
        );
        // Every issued request resolved: success, typed shed, or typed
        // failure — never a hang or a lost reply.
        for run in &runs {
            assert_eq!(run.issued, run.resolved, "a request was issued but never resolved");
            assert!(
                run.survivor_exact,
                "a surviving replica diverged from the fault-free baseline"
            );
            assert!(
                run.p99_us <= deadline.as_secs_f64() * 1e6 * 1.5,
                "router p99 {}us blew past the {}s deadline budget",
                run.p99_us,
                deadline.as_secs_f64()
            );
        }
        let total_ok: usize = runs.iter().map(|r| r.ok).sum();
        let total_shed: usize = runs.iter().map(|r| r.shed).sum();
        let total_retries: u64 = runs.iter().map(|r| r.retries).sum();
        assert!(total_ok > 0, "no request ever succeeded");
        assert!(total_shed > 0, "overload phase never shed — admission control untested");
        assert!(total_retries > 0, "fault phases never retried — failover untested");
        assert!(out.is_file(), "BENCH_cluster.json missing at {}", out.display());
        eprintln!("[cluster_bench] smoke OK");
    }
}
