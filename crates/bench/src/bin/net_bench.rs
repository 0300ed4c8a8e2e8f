//! Closed-loop load generator for the TCP serving front end
//! (`nshd_net::NetServer` over `nshd_runtime::ReplicaSet`).
//!
//! Trains a small NSHD model on Synth10, snapshots it into N replicas
//! behind a [`NetServer`], and drives real `nshd-wire/v1` traffic over
//! loopback TCP with blocking [`NetClient`]s:
//!
//! 1. a **load sweep** over client counts with every replica healthy —
//!    goodput versus offered load, cycling all three payload kinds
//!    (f32, INT8-quantized, bit-packed) on every connection;
//! 2. a **kill** scenario — one replica is killed mid-stream by
//!    whichever client crosses the halfway completion mark, while live
//!    TCP traffic keeps flowing; every reply served by a survivor must
//!    stay bit-identical to the per-payload baseline;
//! 3. an **overload** phase — a stalled single-replica cluster with an
//!    admission cap of 1 driven by parallel clients, forcing typed
//!    `Overloaded` error frames over the wire;
//! 4. a **malformed-frame probe** — corrupt byte streams (bad magic,
//!    bad version, truncation, oversized length claims) thrown at a
//!    live server, which must answer with typed errors or clean
//!    disconnects and keep serving well-formed clients afterwards.
//!
//! The **wire baseline** is computed per payload: each request body is
//! decoded through the same `RequestBody::to_tensor` mapping the
//! server uses and pushed through `NshdModel::predict`, so lossy
//! payloads (INT8, packed) are held to the prediction of their decoded
//! tensor, and f32 payloads to the exact original — bit-exactness by
//! construction, checked over real sockets. Results go to stdout and
//! `BENCH_net.json` at the repository root through the `nshd-obs/v1`
//! trace exporter. `--smoke` runs a down-sized configuration and exits
//! non-zero unless every request resolves, survivors stay bit-exact,
//! sheds are observed as typed frames, every malformed probe leaves
//! the server serving, and p99 stays within the deadline — the CI
//! gate.
//!
//! Flags: `--replicas N` (default 3), `--requests N` (default by
//! `NSHD_SCALE`), `--smoke`.

use nshd_bench::Scale;
use nshd_core::{Engine, NshdConfig, NshdModel};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_net::{
    ClientError, ErrorCode, NetClient, NetServer, NetServerConfig, ReplyBody, RequestBody,
};
use nshd_nn::{
    fit, ActKind, Activation, Adam, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential,
    TrainConfig,
};
use nshd_obs::{clock, Json, Recorder};
use nshd_runtime::{
    BreakerConfig, ChaosEngine, ChaosMode, ChaosSwitch, ClusterConfig, ReplicaSet, RetryPolicy,
    RuntimeConfig,
};
use nshd_tensor::{Rng, Tensor};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
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
            Scale::Quick => 192,
            Scale::Full => 768,
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
        args.requests = args.requests.min(72);
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
        name: "net-tiny".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    }
}

/// One pre-encoded request plus the prediction its decoded tensor must
/// produce — the per-payload wire baseline every healthy replica is
/// held to.
struct Case {
    kind: &'static str,
    body: RequestBody,
    expected: u32,
}

/// Builds the request mix: every image in all three payload kinds,
/// each paired with the model's prediction for its *decoded* tensor
/// (identity for f32; the dequantized / unpacked tensor for the lossy
/// kinds).
fn build_cases(images: &[Tensor], model: &NshdModel) -> Vec<Case> {
    let mut cases = Vec::with_capacity(images.len() * 3);
    for img in images {
        let bodies = [
            ("f32", RequestBody::f32_from(img.dims(), img.as_slice())),
            ("int8", RequestBody::int8_from(img.dims(), img.as_slice())),
            ("packed", RequestBody::packed_from(img.dims(), img.as_slice())),
        ];
        for (kind, body) in bodies {
            let tensor = body.to_tensor().expect("locally built payloads must decode");
            let expected = model.predict(&tensor) as u32;
            cases.push(Case { kind, body, expected });
        }
    }
    cases
}

/// How one scenario perturbs the last replica of the set.
enum Fault {
    /// All replicas healthy for the whole run.
    None,
    /// Kill the victim once half the requests have completed, while
    /// TCP traffic is live.
    KillAtHalf,
    /// Stall the victim from the first request (the overload driver).
    StallFromStart(Duration),
}

struct NetSpec<'a> {
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
    survivor_exact: bool,
    goodput: f64,
    kinds_served: usize,
    bytes_in: u64,
    bytes_out: u64,
    p99_us: f64,
}

/// Drives one closed-loop run over real sockets: `clients` threads
/// each open their own [`NetClient`] connection (reused for the whole
/// run) and issue requests round-robin over the case mix; every
/// outcome is collected — reply, typed error frame, or transport
/// fault. Returns the scenario's JSON row plus the counters the smoke
/// gate checks.
fn run_scenario(spec: &NetSpec<'_>, engine: &Engine<Tensor>, cases: &[Case]) -> RunOutcome {
    assert!(spec.replicas >= 1 && spec.clients >= 1);
    let victim = spec.replicas - 1;
    let mut switch: Option<ChaosSwitch> = None;
    let mut replicas: Vec<Arc<ChaosEngine<Engine<Tensor>>>> = Vec::with_capacity(spec.replicas);
    for index in 0..spec.replicas {
        let replica = if index == victim && !matches!(spec.fault, Fault::None) {
            let (chaos, s) = ChaosEngine::new(Arc::new(engine.clone()));
            switch = Some(s);
            chaos
        } else {
            ChaosEngine::passthrough(Arc::new(engine.clone()))
        };
        replicas.push(Arc::new(replica));
    }
    if let (Some(s), Fault::StallFromStart(stall)) = (&switch, &spec.fault) {
        s.set(ChaosMode::Stall(*stall));
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
    let set =
        Arc::new(ReplicaSet::new(replicas, config).expect("verified engine must form a cluster"));
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default())
        .expect("loopback server must start");
    let addr = server.local_addr();

    let completed = AtomicUsize::new(0);
    let killed = AtomicBool::new(false);
    let half = spec.requests / 2;
    let started = clock::now();
    let per_client = spec.requests.div_ceil(spec.clients);
    let outcomes: Vec<(usize, Result<ReplyBody, ClientError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|client| {
                let completed = &completed;
                let killed = &killed;
                let switch = switch.as_ref();
                let spec = &*spec;
                scope.spawn(move || {
                    let mut conn = NetClient::connect(addr).expect("loopback connect");
                    let mut local = Vec::with_capacity(per_client);
                    let first = client * per_client;
                    let last = (first + per_client).min(spec.requests);
                    for i in first..last {
                        let case = &cases[i % cases.len()];
                        local.push((i % cases.len(), conn.request(case.body.clone())));
                        let done = completed.fetch_add(1, Ordering::AcqRel) + 1;
                        // Whichever client crosses the halfway mark
                        // kills the victim — mid-traffic, tied to
                        // progress instead of wall-clock timing.
                        if done >= half
                            && !killed.swap(true, Ordering::AcqRel)
                            && matches!(spec.fault, Fault::KillAtHalf)
                        {
                            if let Some(s) = switch {
                                s.set(ChaosMode::Kill);
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
    let mut ok_by_kind = std::collections::BTreeMap::<&'static str, usize>::new();
    for (case_idx, outcome) in &outcomes {
        match outcome {
            Ok(reply) => {
                ok += 1;
                *ok_by_kind.entry(cases[*case_idx].kind).or_insert(0) += 1;
                let is_survivor = match spec.fault {
                    Fault::None => true,
                    _ => reply.replica as usize != victim,
                };
                if is_survivor {
                    survivor_replies += 1;
                    if reply.prediction != cases[*case_idx].expected {
                        survivor_exact = false;
                    }
                }
            }
            Err(ClientError::Server { error, .. }) if error.code == ErrorCode::Overloaded => {
                shed += 1;
            }
            Err(_) => failed += 1,
        }
    }
    let front = server.shutdown();
    let set = match Arc::try_unwrap(set) {
        Ok(set) => set,
        Err(_) => panic!("server drain must release the cluster"),
    };
    let cluster = set.shutdown();
    let goodput = if elapsed > 0.0 { ok as f64 / elapsed } else { 0.0 };
    let offered = if elapsed > 0.0 { outcomes.len() as f64 / elapsed } else { 0.0 };

    eprintln!(
        "[net_bench] {:<10} clients={} ok={ok} shed={shed} failed={failed} \
         goodput={goodput:.1} req/s bytes_in={} bytes_out={} survivor_exact={survivor_exact}",
        spec.name, spec.clients, front.bytes_in, front.bytes_out
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
        ("ok_by_kind", Json::obj(ok_by_kind.iter().map(|(&k, &v)| (k, Json::from(v))))),
        ("front", Json::Raw(front.to_json())),
        ("router", Json::Raw(cluster.router.to_json())),
        ("rollup", Json::Raw(cluster.rollup.to_json())),
    ]);
    RunOutcome {
        json,
        issued: outcomes.len(),
        resolved: ok + shed + failed,
        ok,
        shed,
        survivor_exact,
        goodput,
        kinds_served: ok_by_kind.len(),
        bytes_in: front.bytes_in,
        bytes_out: front.bytes_out,
        p99_us: front.p99_us,
    }
}

/// One corrupt byte stream thrown at the live server. Returns `true`
/// when the server stays healthy: the probe connection gets a typed
/// error frame or a clean disconnect (never a hang), and a fresh
/// well-formed client is still served correctly afterwards.
fn malformed_probe(addr: SocketAddr, bytes: &[u8], case: &Case) -> bool {
    let Ok(mut probe) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = probe.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = probe.write_all(bytes);
    // Half-close so a truncated frame reads as EOF mid-payload rather
    // than a peer that might still send the rest.
    let _ = probe.shutdown(std::net::Shutdown::Write);
    // Drain whatever the server answers (an error frame or EOF); a
    // read timeout here would mean the server hung on garbage.
    let mut sink = [0u8; 256];
    match probe.read(&mut sink) {
        Ok(_) => {}
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            return false;
        }
        Err(_) => {}
    }
    drop(probe);
    // The acid test: the server must still serve well-formed traffic.
    let Ok(mut client) = NetClient::connect(addr) else {
        return false;
    };
    match client.request(case.body.clone()) {
        Ok(reply) => reply.prediction == case.expected,
        Err(_) => false,
    }
}

/// Runs the malformed-frame corpus against a live healthy server and
/// returns `(probes, survived)`.
fn run_malformed_probes(addr: SocketAddr, case: &Case) -> (usize, usize) {
    let valid = nshd_net::Frame::Request { id: 7, body: case.body.clone() }.encode();
    let mut bad_magic = valid.clone();
    bad_magic[0] = b'X';
    let mut bad_version = valid.clone();
    bad_version[4] = 0xEE;
    let mut oversized = valid.clone();
    // Claim a payload length far past MAX_PAYLOAD.
    oversized[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    let truncated = valid[..valid.len() / 2].to_vec();
    let garbage = vec![0xA5u8; 64];
    let probes: Vec<Vec<u8>> = vec![bad_magic, bad_version, oversized, truncated, garbage];
    let total = probes.len();
    let mut survived = 0usize;
    for bytes in &probes {
        if malformed_probe(addr, bytes, case) {
            survived += 1;
        }
    }
    (total, survived)
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

    eprintln!("[net_bench] training model (train={train_size}, hv_dim={hv_dim})");
    let (mut train, mut test) = SynthSpec::synth10(71).with_sizes(train_size, 48).generate();
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
    // Every image in all three payload kinds, with per-payload wire
    // baselines (lossy kinds are held to their decoded tensor).
    let cases = build_cases(&images, &model);

    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());

    let deadline = Duration::from_secs(10);
    let sweep_clients: &[usize] = if args.smoke { &[1, 4] } else { &[1, 4, 16] };
    let mut runs: Vec<RunOutcome> = Vec::new();

    // Goodput vs offered load over real sockets, every replica healthy.
    for &clients in sweep_clients {
        runs.push(run_scenario(
            &NetSpec {
                name: "healthy",
                replicas: args.replicas,
                clients,
                requests: args.requests,
                fault: Fault::None,
                max_inflight: 0,
                deadline,
            },
            &engine,
            &cases,
        ));
    }

    // Replica kill mid-traffic: survivors must stay bit-exact over the
    // wire while the cluster ejects the victim.
    runs.push(run_scenario(
        &NetSpec {
            name: "kill",
            replicas: args.replicas,
            clients: 4,
            requests: args.requests,
            fault: Fault::KillAtHalf,
            max_inflight: 0,
            deadline,
        },
        &engine,
        &cases,
    ));

    // Overload: one stalled replica, admission cap 1, parallel clients —
    // the front end must shed with typed Overloaded frames.
    runs.push(run_scenario(
        &NetSpec {
            name: "overload",
            replicas: 1,
            clients: 8,
            requests: (args.requests / 4).max(16),
            fault: Fault::StallFromStart(Duration::from_millis(30)),
            max_inflight: 1,
            deadline,
        },
        &engine,
        &cases,
    ));

    // Malformed-frame probes against a live healthy server.
    eprintln!("[net_bench] malformed-frame probes");
    let probe_replicas: Vec<Arc<ChaosEngine<Engine<Tensor>>>> =
        vec![Arc::new(ChaosEngine::passthrough(Arc::new(engine.clone())))];
    let probe_set = Arc::new(
        ReplicaSet::new(
            probe_replicas,
            ClusterConfig {
                runtime: RuntimeConfig { max_batch: 8, ..RuntimeConfig::default() },
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(5),
                    deadline,
                },
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_millis(50),
                },
                max_inflight: 0,
            },
        )
        .expect("verified engine must form a cluster"),
    );
    let probe_server = NetServer::start(Arc::clone(&probe_set), NetServerConfig::default())
        .expect("loopback server must start");
    let (probes, survived) = run_malformed_probes(probe_server.local_addr(), &cases[0]);
    let _ = probe_server.shutdown();
    match Arc::try_unwrap(probe_set) {
        Ok(set) => drop(set.shutdown()),
        Err(_) => panic!("server drain must release the cluster"),
    }
    eprintln!("[net_bench] probes={probes} survived={survived}");

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
                    ("payload_kinds", Json::arr(["f32", "int8", "packed"].map(Json::str))),
                ],
            ),
        ),
        ("replicas", Json::from(args.replicas)),
        ("requests", Json::from(args.requests)),
        ("deadline_ms", Json::from(deadline.as_millis() as u64)),
        ("scenarios", Json::arr(runs.iter().map(|r| r.json.clone()))),
        (
            "malformed",
            Json::obj(vec![("probes", Json::from(probes)), ("survived", Json::from(survived))]),
        ),
        ("trace", report.to_json()),
    ]);
    let json = doc.to_string();
    println!("{json}");

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_net.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_net.json");
    eprintln!("[net_bench] wrote {}", out.display());

    if args.smoke {
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"nshd-obs/v1\""), "trace must use the v1 exporter");
        assert!(
            json.contains("\"config\":") && json.contains("\"nshd_threads\":"),
            "run config metadata missing"
        );
        // Every issued request resolved over the wire: a reply, a typed
        // error frame, or a transport fault — never a hang.
        for run in &runs {
            assert_eq!(run.issued, run.resolved, "a request was issued but never resolved");
            assert!(
                run.survivor_exact,
                "a healthy replica's wire prediction diverged from the decoded-tensor baseline"
            );
            assert!(
                run.p99_us <= deadline.as_secs_f64() * 1e6 * 1.5,
                "front-end p99 {}us blew past the {}s deadline budget",
                run.p99_us,
                deadline.as_secs_f64()
            );
        }
        let total_ok: usize = runs.iter().map(|r| r.ok).sum();
        let total_shed: usize = runs.iter().map(|r| r.shed).sum();
        assert!(total_ok > 0, "no request ever succeeded over TCP");
        assert!(
            runs.iter().any(|r| r.goodput > 0.0),
            "goodput never rose above zero in any scenario"
        );
        assert!(
            runs.first().is_some_and(|r| r.kinds_served == 3),
            "the healthy sweep did not serve all three payload kinds"
        );
        assert!(total_shed > 0, "overload phase never shed — typed Overloaded frames untested");
        assert!(
            runs.iter().all(|r| r.bytes_in > 0 && r.bytes_out > 0),
            "wire byte accounting never moved"
        );
        assert_eq!(survived, probes, "a malformed probe killed or wedged the server");
        assert!(out.is_file(), "BENCH_net.json missing at {}", out.display());
        eprintln!("[net_bench] smoke OK");
    }
}
