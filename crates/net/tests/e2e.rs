//! End-to-end TCP tests: determinism over the wire across payload
//! kinds, pipelined out-of-order replies batched past any thread
//! count, load-shedding as typed frames, malformed traffic never taking
//! the server down, mid-traffic replica kills with survivor
//! bit-exactness, hung replicas answered at their deadline, and
//! graceful drain with completions in flight.
//!
//! The suite runs under whatever `NSHD_THREADS` the harness sets
//! (check.sh runs it at 1 and 4), so wire determinism is asserted at
//! both worker counts.

use nshd_core::PipelineError;
use nshd_net::{ClientError, ErrorCode, Frame, NetClient, NetServer, NetServerConfig, RequestBody};
use nshd_runtime::{
    BatchEngine, BreakerConfig, ChaosEngine, ChaosMode, ChaosSwitch, ClusterConfig, ReplicaSet,
    ReplicaState, RetryPolicy, RuntimeConfig,
};
use nshd_tensor::{Rng, Tensor};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic toy engine over tensors: the prediction is a pure
/// function of the input's exact f32 bit patterns, so any difference
/// between the wire path and the in-process path shows up as a
/// different class.
struct BitsEngine {
    classes: usize,
}

fn class_of(t: &Tensor, classes: usize) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in t.as_slice() {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % classes as u64) as usize
}

impl BatchEngine for BitsEngine {
    type Input = Tensor;
    type Output = usize;
    type Snapshot = ();

    fn snapshot(&self) -> Arc<()> {
        Arc::new(())
    }

    fn run(&self, _s: &(), batch: &[Tensor]) -> Result<Vec<usize>, PipelineError> {
        Ok(batch.iter().map(|t| class_of(t, self.classes)).collect())
    }
}

fn fast_config() -> ClusterConfig {
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

fn chaos_set(
    replicas: usize,
    config: ClusterConfig,
) -> (Arc<ReplicaSet<ChaosEngine<BitsEngine>>>, Vec<ChaosSwitch>) {
    let mut engines = Vec::with_capacity(replicas);
    let mut switches = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        let (engine, switch) = ChaosEngine::new(Arc::new(BitsEngine { classes: 10 }));
        engines.push(Arc::new(engine));
        switches.push(switch);
    }
    let set = Arc::new(ReplicaSet::new(engines, config).expect("cluster starts"));
    (set, switches)
}

fn random_tensor(rng: &mut Rng) -> Tensor {
    let n = 8 + rng.below(120);
    let data: Vec<f32> = (0..n).map(|_| rng.uniform_in(-4.0, 4.0)).collect();
    Tensor::from_vec(data, vec![n]).expect("valid tensor")
}

fn bodies_for(t: &Tensor) -> Vec<RequestBody> {
    vec![
        RequestBody::f32_from(t.dims(), t.as_slice()),
        RequestBody::int8_from(t.dims(), t.as_slice()),
        RequestBody::packed_from(t.dims(), t.as_slice()),
    ]
}

#[test]
fn predictions_over_tcp_match_direct_cluster_calls_across_payload_kinds() {
    let (set, _switches) = chaos_set(2, fast_config());
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default()).expect("starts");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    let mut rng = Rng::new(0x2E2E);
    for _ in 0..12 {
        let t = random_tensor(&mut rng);
        for body in bodies_for(&t) {
            // The contract: the server expands the payload with the
            // same shared decode the test uses here, then serves it
            // through the same cluster.
            let decoded = body.to_tensor().expect("valid body");
            let direct = set.predict(decoded.clone()).expect("direct predict").value;
            let local = class_of(&decoded, 10);
            let wire = client.request(body).expect("wire predict");
            assert_eq!(wire.prediction as usize, direct, "wire vs direct");
            assert_eq!(direct, local, "direct vs local recompute");
            assert!(wire.attempts >= 1);
        }
    }
    let metrics = server.shutdown();
    assert!(metrics.bytes_in > 0 && metrics.bytes_out > 0, "byte counters must move");
    assert_eq!(metrics.requests, 36, "every request answered exactly once");
}

#[test]
fn pipelined_requests_come_back_matched_by_id() {
    let (set, _switches) = chaos_set(2, fast_config());
    let server = NetServer::start(set, NetServerConfig::default()).expect("starts");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    let mut rng = Rng::new(0xA11);
    let mut expected = std::collections::BTreeMap::new();
    for _ in 0..24 {
        let t = random_tensor(&mut rng);
        let body = RequestBody::f32_from(t.dims(), t.as_slice());
        let id = client.send(body).expect("send");
        expected.insert(id, class_of(&t, 10));
    }
    for _ in 0..24 {
        let (id, outcome) = client.recv().expect("recv");
        let reply = outcome.expect("prediction");
        let want = expected.remove(&id).expect("known id, no duplicates");
        assert_eq!(reply.prediction as usize, want);
    }
    assert!(expected.is_empty(), "every pipelined request answered");
    let _ = server.shutdown();
}

#[test]
fn overload_sheds_with_typed_frames_and_recovers() {
    let mut config = fast_config();
    config.max_inflight = 1;
    // Keep the cluster from retrying shed-adjacent failures forever.
    config.retry.max_attempts = 1;
    config.retry.deadline = Duration::from_secs(5);
    let (set, switches) = chaos_set(1, config);
    switches[0].set(ChaosMode::Stall(Duration::from_millis(60)));
    let server = NetServer::start(set, NetServerConfig::default()).expect("starts");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    let mut rng = Rng::new(0x0DD);
    let mut ids = Vec::new();
    for _ in 0..8 {
        let t = random_tensor(&mut rng);
        ids.push(client.send(RequestBody::f32_from(t.dims(), t.as_slice())).expect("send"));
    }
    let mut sheds = 0;
    let mut oks = 0;
    for _ in 0..8 {
        let (_id, outcome) = client.recv().expect("recv");
        match outcome {
            Ok(_) => oks += 1,
            Err(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded, "only sheds expected: {}", e.detail);
                assert!(e.a > e.b, "inflight {} must exceed capacity {}", e.a, e.b);
                sheds += 1;
            }
        }
    }
    assert!(oks >= 1, "the admitted request must finish");
    assert!(sheds >= 1, "past-capacity requests must shed with typed frames");

    // Back to healthy: the same connection keeps serving.
    switches[0].set(ChaosMode::Healthy);
    let t = random_tensor(&mut rng);
    let reply = client.request(RequestBody::f32_from(t.dims(), t.as_slice())).expect("recovers");
    assert_eq!(reply.prediction as usize, class_of(&t, 10));
    let metrics = server.shutdown();
    assert_eq!(metrics.shed, sheds, "server-side shed counter matches typed frames seen");
}

#[test]
fn malformed_traffic_yields_typed_errors_and_never_kills_the_server() {
    let (set, _switches) = chaos_set(1, fast_config());
    let server = NetServer::start(set, NetServerConfig::default()).expect("starts");
    let addr = server.local_addr();

    // Header-level garbage: typed Malformed frame, then disconnect.
    let valid = {
        let t = Tensor::from_vec(vec![1.0, 2.0], vec![2]).expect("tensor");
        Frame::Request { id: 5, body: RequestBody::f32_from(t.dims(), t.as_slice()) }.encode()
    };
    let corruptions: Vec<Vec<u8>> = vec![
        {
            let mut b = valid.clone();
            b[0] = b'Z'; // magic
            b
        },
        {
            let mut b = valid.clone();
            b[4] = 9; // version
            b
        },
        {
            let mut b = valid.clone();
            b[6] = 0x55; // kind
            b
        },
        {
            let mut b = valid.clone();
            b[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // oversized
            b
        },
        valid[..7].to_vec(), // truncated header, then close
        {
            // Well-formed header, payload that mismatches its kind.
            let mut b = valid.clone();
            b[6] = 0x03; // claims packed, payload is f32-shaped
            b
        },
    ];
    for (i, bytes) in corruptions.iter().enumerate() {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(bytes).expect("write garbage");
        if i == 4 {
            // The truncation case only becomes visible to the server
            // when the stream closes mid-frame.
            drop(raw);
        } else {
            raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
            let mut reader = raw.try_clone().expect("clone");
            match Frame::read_from(&mut reader) {
                Ok(Some(Frame::Error { body, .. })) => {
                    assert_eq!(body.code, ErrorCode::Malformed, "case {i}: {}", body.detail);
                }
                Ok(None) => {} // immediate disconnect is also a clean outcome
                other => panic!("case {i}: expected typed error or disconnect, got {other:?}"),
            }
        }
        // The server must still serve well-formed traffic afterwards.
        let mut client = NetClient::connect(addr).expect("reconnect after abuse");
        let t = Tensor::from_vec(vec![0.5; 8], vec![8]).expect("tensor");
        let reply =
            client.request(RequestBody::f32_from(t.dims(), t.as_slice())).expect("still serving");
        assert_eq!(reply.prediction as usize, class_of(&t, 10), "case {i}");
    }
    let _ = server.shutdown();
}

#[test]
fn shape_mismatch_inside_valid_framing_is_a_per_request_error() {
    let (set, _switches) = chaos_set(1, fast_config());
    let server = NetServer::start(set, NetServerConfig::default()).expect("starts");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    // dims say 4 elements, data carries 3: decodes at the frame layer
    // only if lengths agree — build it by hand so the mismatch reaches
    // the payload decoder.
    let body = RequestBody::F32 { dims: vec![4], data: vec![1.0, 2.0, 3.0] };
    let err = client.request(body).expect_err("must be rejected");
    let ClientError::Server { error, .. } = err else {
        panic!("expected a typed server error, got {err}");
    };
    assert_eq!(error.code, ErrorCode::Malformed);

    // Same connection still serves.
    let t = Tensor::from_vec(vec![2.0; 6], vec![6]).expect("tensor");
    let reply = client.request(RequestBody::f32_from(t.dims(), t.as_slice())).expect("serves");
    assert_eq!(reply.prediction as usize, class_of(&t, 10));
    let _ = server.shutdown();
}

#[test]
fn replica_kill_mid_traffic_keeps_wire_predictions_bit_exact() {
    let (set, switches) = chaos_set(3, fast_config());
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default()).expect("starts");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    let mut rng = Rng::new(0xC405);
    let tensors: Vec<Tensor> = (0..30).map(|_| random_tensor(&mut rng)).collect();
    let mut killed = false;
    for (i, t) in tensors.iter().enumerate() {
        if i == 10 {
            switches[0].set(ChaosMode::Kill);
            killed = true;
        }
        for body in bodies_for(t) {
            let decoded = body.to_tensor().expect("valid body");
            let expected = class_of(&decoded, 10);
            let reply = client.request(body).expect("survivors keep serving");
            assert_eq!(
                reply.prediction as usize, expected,
                "request {i}: survivor answers must stay bit-identical"
            );
        }
    }
    assert!(killed);
    // The dead replica's breaker must have opened at some point; the
    // cluster still counts it as a slot.
    assert_eq!(set.len(), 3);
    let _ = server.shutdown();
}

/// A deterministic ±1 vector (values in {−1, +1}, no zeros).
fn bipolar_vec(dim: usize, seed: u64) -> Vec<f32> {
    (0..dim)
        .map(|i| if (seed.wrapping_mul(i as u64 + 13) >> 2) & 1 == 1 { 1.0 } else { -1.0 })
        .collect()
}

/// A class memory of ±1 rows with classes 1 and `k−1` identical, so
/// max-score ties genuinely occur and pin the tie-break rule.
fn hd_memory(dim: usize) -> nshd_hdc::AssociativeMemory {
    let mut rows: Vec<Vec<f32>> = (0..5).map(|c| bipolar_vec(dim, c as u64 + 3)).collect();
    rows.push(rows[1].clone());
    nshd_hdc::AssociativeMemory::from_classes(rows)
}

#[test]
fn quantised_wire_requests_score_bit_exact_with_local_dense_evaluation() {
    use nshd_core::{Engine, EngineState};
    use nshd_hdc::{BipolarHv, HdQuery, ScoringMode};

    // One replica per scoring mode over the same ±1 memory. Requests
    // are routed to whichever replica is free, so the assertions below
    // hold only because dense, INT8, and popcount scoring compute the
    // same argmax for ±1 class memories (the backend-agreement
    // property pinned by nshd-hdc's packed_scoring suite) — end to
    // end, through the wire, with no densify step for INT8/packed
    // payloads server-side.
    let dim = 256usize;
    let memory = hd_memory(dim);
    let replicas: Vec<Arc<Engine<HdQuery>>> =
        [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed]
            .iter()
            .map(|&mode| {
                let state = EngineState::new(Vec::new(), Arc::new(memory.clone()), mode);
                Arc::new(Engine::new(state).expect("memory verifies"))
            })
            .collect();
    let set = Arc::new(ReplicaSet::new(replicas, fast_config()).expect("cluster starts"));
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default()).expect("starts");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    let mut rng = Rng::new(0x4D5E);
    for i in 0..10 {
        // Scaled sign patterns, never zero, so every encoding carries
        // the same sign vector.
        let raw: Vec<f32> = (0..dim)
            .map(|_| {
                let mag = rng.uniform_in(0.2, 3.0);
                if rng.bipolar() > 0.0 {
                    mag
                } else {
                    -mag
                }
            })
            .collect();
        for body in [
            RequestBody::f32_from(&[dim], &raw),
            RequestBody::int8_from(&[dim], &raw),
            RequestBody::packed_from(&[dim], &raw),
        ] {
            // Local dense evaluation of the same decoded payload: the
            // wire answer must be bit-exact with it whichever replica
            // (and scoring backend) served the request.
            let decoded = body.to_tensor().expect("valid body");
            let want = memory.predict(&BipolarHv::from_signs(decoded.as_slice()));
            let reply = client.request(body).expect("wire predict");
            assert_eq!(reply.prediction as usize, want, "request {i}");
        }
    }

    // A query equal to the duplicated prototype maximises classes 1 and
    // 5 with exactly equal scores; the documented last-maximum rule
    // must pick 5 in every payload encoding and on every backend.
    let proto = memory.class(1).to_vec();
    for body in [
        RequestBody::f32_from(&[dim], &proto),
        RequestBody::int8_from(&[dim], &proto),
        RequestBody::packed_from(&[dim], &proto),
    ] {
        let reply = client.request(body).expect("tie predict");
        assert_eq!(reply.prediction as usize, memory.num_classes() - 1, "tie-break rule");
    }
    let _ = server.shutdown();
}

#[test]
fn hd_query_wire_inputs_reject_malformed_bodies_without_panicking() {
    use nshd_hdc::HdQuery;
    use nshd_net::{WireFault, WireInput};

    // Word-count mismatch against the declared shape.
    let bad = RequestBody::Packed { dims: vec![70], words: vec![0u64; 3] };
    assert!(matches!(HdQuery::from_body(&bad), Err(WireFault::BadPayload(_))));
    // Nonzero padding bits beyond the element count: must be a typed
    // fault, not the `PackedHv` constructor's panic.
    let bad = RequestBody::Packed { dims: vec![70], words: vec![0, 1u64 << 63] };
    assert!(matches!(HdQuery::from_body(&bad), Err(WireFault::BadPayload(_))));
    // Component-count mismatches in the dense and INT8 encodings.
    let bad = RequestBody::F32 { dims: vec![4], data: vec![1.0; 3] };
    assert!(matches!(HdQuery::from_body(&bad), Err(WireFault::BadPayload(_))));
    let bad = RequestBody::Int8 { dims: vec![4], scale: 0.5, data: vec![1; 5] };
    assert!(matches!(HdQuery::from_body(&bad), Err(WireFault::BadPayload(_))));

    // Well-formed bodies map to their *native* representations.
    let packed = RequestBody::packed_from(&[128], &vec![1.0; 128]);
    assert!(matches!(HdQuery::from_body(&packed), Ok(HdQuery::Packed(_))));
    let int8 = RequestBody::int8_from(&[128], &vec![0.5; 128]);
    assert!(matches!(HdQuery::from_body(&int8), Ok(HdQuery::Int8(_))));
}

#[test]
fn graceful_drain_completes_inflight_and_refuses_new_connections() {
    let (set, switches) = chaos_set(1, fast_config());
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default()).expect("starts");
    let addr = server.local_addr();

    // Park one slow request in flight, then shut down while it runs.
    switches[0].set(ChaosMode::Stall(Duration::from_millis(150)));
    let t = Tensor::from_vec(vec![3.25; 16], vec![16]).expect("tensor");
    let expected = class_of(&t, 10);
    let body = RequestBody::f32_from(t.dims(), t.as_slice());
    let waiter = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connects");
        client.request(body)
    });
    std::thread::sleep(Duration::from_millis(40));
    let metrics = server.shutdown(); // must block until the reply flushed
    let reply = waiter.join().expect("client thread").expect("in-flight request completes");
    assert_eq!(reply.prediction as usize, expected);
    assert_eq!(metrics.requests, 1);

    // The drained server's port no longer accepts work.
    match TcpStream::connect(addr) {
        Err(_) => {} // refused outright
        Ok(mut stream) => {
            // Accepted by the OS backlog at worst; any frame must fail.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let write_dead = stream
                .write_all(
                    &Frame::Request {
                        id: 1,
                        body: RequestBody::F32 { dims: vec![1], data: vec![1.0] },
                    }
                    .encode(),
                )
                .is_err();
            let mut reader = stream;
            let read_dead = !matches!(Frame::read_from(&mut reader), Ok(Some(_)));
            assert!(write_dead || read_dead, "no service after drain");
        }
    }
    // The replica set itself outlives the front end.
    assert_eq!(set.predict(t).expect("cluster still up").value, expected);
}

/// Polls `ready` every millisecond for up to 20 s.
fn wait_for(what: &str, ready: impl Fn() -> bool) {
    let started = Instant::now();
    while !ready() {
        assert!(started.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn pipelined_requests_batch_past_the_service_thread_count() {
    let mut config = fast_config();
    config.runtime.max_batch = 16;
    let (set, switches) = chaos_set(1, config);
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default()).expect("starts");
    let mut client = NetClient::connect(server.local_addr()).expect("connects");

    // Plug the replica inside one batch, then pipeline 16 requests on
    // the same connection: every one of them is admitted and queued at
    // once, with no thread per request in flight.
    let mut rng = Rng::new(0xB47C);
    let mut expected = std::collections::BTreeMap::new();
    switches[0].set(ChaosMode::Hold);
    let plug = random_tensor(&mut rng);
    expected.insert(
        client.send(RequestBody::f32_from(plug.dims(), plug.as_slice())).expect("send"),
        class_of(&plug, 10),
    );
    wait_for("the plug to reach the engine", || switches[0].injected() >= 1);
    for _ in 0..16 {
        let t = random_tensor(&mut rng);
        let id = client.send(RequestBody::f32_from(t.dims(), t.as_slice())).expect("send");
        expected.insert(id, class_of(&t, 10));
    }
    wait_for("all 17 requests in flight", || set.inflight() == 17);
    switches[0].set(ChaosMode::Healthy);
    for _ in 0..17 {
        let (id, outcome) = client.recv().expect("recv");
        let reply = outcome.expect("prediction");
        assert_eq!(Some(reply.prediction as usize), expected.remove(&id), "request {id}");
    }
    let batches = set.metrics().rollup.batch_histogram;
    let largest = batches.iter().map(|&(size, _)| size).max().unwrap_or(0);
    assert_eq!(largest, 16, "the queued requests must run as one batch: {batches:?}");
    assert!(largest > NetServerConfig::default().service_threads);
    let _ = server.shutdown();
}

#[test]
fn a_hung_replica_is_answered_at_the_deadline_and_its_late_reply_dropped() {
    let mut config = fast_config();
    config.retry.deadline = Duration::from_millis(300);
    // One failure opens the breaker; a zero cool-down makes the very
    // next request its half-open probe.
    config.breaker = BreakerConfig { failure_threshold: 1, cooldown: Duration::ZERO };
    let (set, switches) = chaos_set(1, config);
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default()).expect("starts");
    // A read deadline turns a missing deadline answer into a failure, not
    // a hang.
    let deadline = Duration::from_secs(10);
    let mut client = NetClient::connect_with_deadlines(server.local_addr(), deadline, deadline)
        .expect("connects");

    switches[0].set(ChaosMode::Hold);
    let t = Tensor::from_vec(vec![1.5; 8], vec![8]).expect("tensor");
    let sent = Instant::now();
    let hung = client.send(RequestBody::f32_from(t.dims(), t.as_slice())).expect("send");
    let (id, outcome) = client.recv().expect("a typed answer while the replica hangs");
    let waited = sent.elapsed();
    assert_eq!(id, hung);
    let error = outcome.expect_err("a hung replica cannot answer");
    assert_eq!(error.code, ErrorCode::DeadlineExceeded, "{}", error.detail);
    assert!(
        waited >= Duration::from_millis(250) && waited < Duration::from_secs(3),
        "answered after {waited:?}, not at the 300 ms deadline"
    );
    assert_eq!(set.replica_state(0), ReplicaState::Probing, "the breaker recorded the failure");

    // The probe queues behind the hung batch; releasing the hang runs
    // both, and only the probe may answer.
    let probe = client.send(RequestBody::f32_from(t.dims(), t.as_slice())).expect("send");
    switches[0].set(ChaosMode::Healthy);
    let (id, outcome) = client.recv().expect("recv");
    assert_eq!(id, probe, "the expired request's late reply must be dropped");
    assert_eq!(outcome.expect("probe succeeds").prediction as usize, class_of(&t, 10));
    assert_eq!(set.replica_state(0), ReplicaState::Serving, "the probe closed the breaker");
    let metrics = server.shutdown();
    assert_eq!(metrics.requests, 2, "one answer per request");
}

#[test]
fn shutdown_answers_every_completion_in_flight() {
    let (set, switches) = chaos_set(1, fast_config());
    let server = NetServer::start(Arc::clone(&set), NetServerConfig::default()).expect("starts");
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).expect("connects");

    let mut rng = Rng::new(0x5D0);
    let mut expected = std::collections::BTreeMap::new();
    switches[0].set(ChaosMode::Hold);
    for _ in 0..6 {
        let t = random_tensor(&mut rng);
        let id = client.send(RequestBody::f32_from(t.dims(), t.as_slice())).expect("send");
        expected.insert(id, class_of(&t, 10));
    }
    wait_for("all 6 requests in flight", || set.inflight() == 6);
    // Release the replica only once the drain has begun (the listener
    // refuses connections), so shutdown starts with all six in flight.
    let switch = switches[0].clone();
    let releaser = std::thread::spawn(move || {
        wait_for("the drain to close the listener", || TcpStream::connect(addr).is_err());
        switch.set(ChaosMode::Healthy);
    });
    let metrics = server.shutdown();
    releaser.join().expect("releaser");
    assert_eq!(metrics.requests, 6, "shutdown returned before answering everything");
    for _ in 0..6 {
        let (id, outcome) =
            client.recv().expect("every reply was flushed before shutdown returned");
        let reply = outcome.expect("prediction");
        assert_eq!(Some(reply.prediction as usize), expected.remove(&id), "request {id}");
    }
    assert_eq!(set.inflight(), 0);
}
