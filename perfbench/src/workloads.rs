//! The three served systems the benchmark drives, each built from the
//! run's seed: data synthesis, training or fusion, engine build, and a
//! one-replica `nshd-net` server on a loopback port.
//!
//! Each workload also owns what the checks need — the reference
//! prediction of every request, computed in-process from the payload as
//! the server will decode it — and the calls the traced run times one
//! layer at a time.

use crate::load::{Case, Record};
use nshd_core::{
    CnnClassifier, EmbeddingClassifier, HdDeployEngine, NshdConfig, NshdEngine, NshdModel,
};
use nshd_data::{normalize_pair, ImageDataset, SynthSpec};
use nshd_glue::{GlueConfig, GlueEngine, GlueEnsemble};
use nshd_hdc::{
    bundle_init, AssociativeMemory, BatchEncoder, BipolarHv, HdQuery, MassTrainer, QueryHv,
    RandomProjection, ScoringBackend, ScoringMode,
};
use nshd_net::{Frame, NetServer, NetServerConfig, RequestBody, WireInput};
use nshd_nn::{
    ActKind, Activation, Architecture, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential,
};
use nshd_obs::ServingMetrics;
use nshd_runtime::{
    BatchEngine, BreakerConfig, ClusterConfig, ReplicaSet, RetryPolicy, RuntimeConfig,
};
use nshd_tensor::{Rng, Tensor};
use std::cell::RefCell;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by the name the command line uses. The
/// `glue_swap` hot-swap scenario runs inside the `image` traced run.
pub const NAMES: [&str; 2] = ["image", "hd_query"];

/// Open-loop request rate of `image`, about a quarter of its measured
/// capacity on the reference host.
pub const IMAGE_RATE: f64 = 30.0;
/// Open-loop request rate of `hd_query`.
pub const HD_QUERY_RATE: f64 = 250.0;
/// Open-loop read rate of the glue hot-swap scenario.
pub const GLUE_RATE: f64 = 20.0;
/// Publishes per second the glue scenario interleaves with its reads.
pub const GLUE_WRITE_RATE: f64 = 20.0;

/// Batcher settings every workload serves with.
pub const MAX_BATCH: usize = 8;
/// How long the batcher waits for company after a batch's first request.
pub const MAX_WAIT: Duration = Duration::from_micros(300);
/// Service threads of the `nshd-net` front end.
pub const SERVICE_THREADS: usize = 2;

/// Hypervector dimensionality D (the paper's default).
const HV_DIM: usize = 3_000;
/// Manifold width F̂ (the paper's default).
const MANIFOLD_FEATURES: usize = 100;

/// Wall-clock cost of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data synthesis and normalisation.
    pub data_s: f64,
    /// Training (or fusion) of the served model.
    pub train_s: f64,
    /// Everything, up to the moment the first request can be sent.
    pub total_s: f64,
}

/// One layer timing of the traced run's onion: a name and the seconds
/// one call took.
pub type Timed = (&'static str, f64);

/// What the load phases and their checks need from a served system.
pub trait Traffic {
    /// The system's server.
    fn server(&self) -> &dyn Server;
    /// The server's loopback address.
    fn addr(&self) -> SocketAddr {
        self.server().addr()
    }
    /// Every request payload, cycled through by request id.
    fn cases(&self) -> &[Case];
    /// Whether the reply `prediction` is correct for `record`.
    fn check(&self, record: &Record, prediction: u32) -> bool;
    /// Publishes per second interleaved with the open-loop reads, if any.
    fn write_rate(&self) -> Option<f64> {
        None
    }
    /// Publishes the next write.
    fn write(&self) {}
    /// Publish-call durations so far, by kind.
    fn write_stats(&self) -> WriteStats {
        WriteStats::default()
    }
    /// Stops the server and joins all of its threads.
    fn shutdown(self: Box<Self>);
}

/// A benchmark workload: served traffic plus the calls the traced run
/// times layer by layer.
pub trait Workload: Traffic {
    /// Predictions through the engine's batch API (no server) for the
    /// given cases, checked against their references; returns the
    /// number of wrong predictions.
    fn offline(&self, cases: &[usize]) -> usize;
    /// Times one request for `case` at every layer entry point: the
    /// engine's extract + finish on a batch of one, the disjoint inner
    /// calls (the onion leaves) and the calls reported beside the onion,
    /// then `ReplicaSet::predict` last, so each call finds the caches the
    /// one before it warmed on its own core.
    fn onion(&self, case: usize) -> Onion;
    /// Decodes one request frame into the engine's input type, as the
    /// server does; `false` if it does not decode.
    fn decode_frame(&self, bytes: &[u8]) -> bool;
    /// The class memory the workload scores against, for scoring and
    /// compile micro-timings, and one encoded query.
    fn memory_and_query(&self) -> (AssociativeMemory, BipolarHv);
}

/// One onion measurement (seconds per call).
#[derive(Debug, Clone, Default)]
pub struct Onion {
    /// `ReplicaSet::predict` on the live replica set.
    pub runtime: f64,
    /// Whether that call answered the reference prediction.
    pub correct: bool,
    /// The engine's extract + finish on a batch of one.
    pub engine: f64,
    /// Disjoint inner calls of the engine call.
    pub leaves: Vec<Timed>,
    /// Calls reported beside the onion (not part of its sum).
    pub extra: Vec<Timed>,
}

/// Publish timings of `glue_swap`.
#[derive(Debug, Clone, Default)]
pub struct WriteStats {
    /// `GlueEngine::swap_memory` call durations, seconds.
    pub swap_memory: Vec<f64>,
    /// `GlueEngine::set_scoring` call durations, seconds.
    pub set_scoring: Vec<f64>,
}

impl WriteStats {
    /// Publishes recorded.
    pub fn count(&self) -> usize {
        self.swap_memory.len() + self.set_scoring.len()
    }
}

/// Derives an independent seed for one use from the run's seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed).fork(stream).next_u64()
}

/// Times one call.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// The one-replica server every workload runs behind.
struct Served<E: BatchEngine<Output = usize>>
where
    E::Input: WireInput + Clone,
{
    server: NetServer<E>,
    set: Arc<ReplicaSet<E>>,
}

/// What the benchmark reads from a running server.
pub trait Server {
    /// The bound loopback address.
    fn addr(&self) -> SocketAddr;
    /// The per-replica batchers' rolled-up serving metrics.
    fn rollup(&self) -> ServingMetrics;
    /// The front end's own metrics.
    fn front(&self) -> ServingMetrics;
}

impl<E: BatchEngine<Output = usize>> Server for Served<E>
where
    E::Input: WireInput + Clone,
{
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn rollup(&self) -> ServingMetrics {
        self.set.metrics().rollup
    }

    fn front(&self) -> ServingMetrics {
        self.server.metrics()
    }
}

impl<E: BatchEngine<Output = usize>> Served<E>
where
    E::Input: WireInput + Clone,
{
    fn start(engine: Arc<E>) -> Served<E> {
        let config = ClusterConfig {
            runtime: RuntimeConfig { workers: 1, max_batch: MAX_BATCH, max_wait: MAX_WAIT },
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(10),
                deadline: Duration::from_secs(10),
            },
            breaker: BreakerConfig { failure_threshold: 4, cooldown: Duration::from_millis(50) },
            max_inflight: 0,
        };
        let set = Arc::new(
            ReplicaSet::new(vec![engine], config).expect("a verified engine forms a replica set"),
        );
        let server = NetServer::start(
            Arc::clone(&set),
            NetServerConfig { service_threads: SERVICE_THREADS, ..NetServerConfig::default() },
        )
        .expect("a loopback server starts");
        Served { server, set }
    }

    fn shutdown(self) {
        let Served { server, set } = self;
        let _ = server.shutdown();
        match Arc::try_unwrap(set) {
            Ok(set) => drop(set.shutdown()),
            Err(_) => panic!("the drained server must release its replica set"),
        }
    }
}

/// The three image payload kinds of `nshd-wire/v1`, cycled per image.
fn image_cases(images: &[Tensor]) -> Vec<Case> {
    images
        .iter()
        .flat_map(|img| {
            [
                RequestBody::f32_from(img.dims(), img.as_slice()),
                RequestBody::int8_from(img.dims(), img.as_slice()),
                RequestBody::packed_from(img.dims(), img.as_slice()),
            ]
        })
        .map(Case::new)
        .collect()
}

/// Frame decode plus payload-to-input conversion, the server's decode path.
fn decode_as<T: WireInput>(bytes: &[u8]) -> bool {
    match Frame::decode(bytes) {
        Ok((Frame::Request { body, .. }, _)) => black_box(T::from_body(&body)).is_ok(),
        _ => false,
    }
}

/// Each case's payload decoded exactly as the server decodes it.
fn decoded<T: WireInput>(cases: &[Case]) -> Vec<T> {
    cases.iter().map(|c| T::from_body(&c.body).expect("locally built payloads decode")).collect()
}

fn test_images(test: &ImageDataset) -> Vec<Tensor> {
    (0..test.len()).map(|i| test.sample(i).0).collect()
}

/// Synthesises and normalises a `(train, test)` pair, timed.
fn synth(spec: SynthSpec) -> ((ImageDataset, ImageDataset), f64) {
    timed(|| {
        let (mut train, mut test) = spec.generate();
        normalize_pair(&mut train, &mut test);
        (train, test)
    })
}

// ---------------------------------------------------------------- image

/// `image`: the full CNN→HD pipeline behind the wire.
pub struct ImageWorkload {
    served: Served<NshdEngine>,
    engine: Arc<NshdEngine>,
    model: NshdModel,
    encoder: BatchEncoder,
    cases: Vec<Case>,
    inputs: Vec<Tensor>,
    expected: Vec<usize>,
}

impl ImageWorkload {
    /// Training images (10 per class) and distinct test images.
    const TRAIN: usize = 100;
    const TEST: usize = 32;

    /// Builds and serves the pipeline; returns it with its set-up times.
    pub fn setup(seed: u64) -> (ImageWorkload, SetupTimes) {
        let start = Instant::now();
        let ((train, test), data_s) =
            synth(SynthSpec::synth10(derive(seed, 1)).with_sizes(Self::TRAIN, Self::TEST));
        // The paper starts from a pretrained CNN, so the seeded teacher
        // is used as built: pretraining is not part of serving set-up.
        let arch = Architecture::MobileNetV2;
        let teacher = arch.build(10, &mut Rng::new(derive(seed, 2)));
        let config = NshdConfig::new(arch.paper_cuts()[0])
            .with_hv_dim(HV_DIM)
            .with_manifold_features(MANIFOLD_FEATURES)
            .with_retrain_epochs(1)
            .with_seed(derive(seed, 3));
        let (model, train_s) = timed(|| NshdModel::train(teacher, &train, config));
        let engine = Arc::new(NshdEngine::new(&model).expect("a trained model verifies"));
        let served = Served::start(Arc::clone(&engine));
        let total_s = start.elapsed().as_secs_f64();

        let cases = image_cases(&test_images(&test));
        let inputs: Vec<Tensor> = decoded(&cases);
        // Reference: the per-sample model path on the decoded tensor.
        let expected = inputs.iter().map(|t| model.predict(t)).collect();
        let encoder = model.projection().batch_encoder();
        let w = ImageWorkload { served, engine, model, encoder, cases, inputs, expected };
        (w, SetupTimes { data_s, train_s, total_s })
    }
}

impl Traffic for ImageWorkload {
    fn server(&self) -> &dyn Server {
        &self.served
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn check(&self, record: &Record, prediction: u32) -> bool {
        self.expected[record.case] == prediction as usize
    }

    fn shutdown(self: Box<Self>) {
        self.served.shutdown();
    }
}

impl Workload for ImageWorkload {
    fn offline(&self, cases: &[usize]) -> usize {
        let batch: Vec<Tensor> = cases.iter().map(|&c| self.inputs[c].clone()).collect();
        let preds = self.engine.predict_batch(&batch);
        cases.iter().zip(&preds).filter(|(&c, &p)| self.expected[c] != p).count()
    }

    fn onion(&self, case: usize) -> Onion {
        let input = &self.inputs[case];
        let one = std::slice::from_ref(input);
        let (_, engine) = timed(|| {
            let values = self.engine.try_extract_values(one).expect("valid input");
            self.engine.try_finish_values(&values).expect("valid values")
        });
        let (values, extract) = timed(|| self.engine.try_extract_values(one).expect("valid input"));
        let (_, finish) = timed(|| self.engine.try_finish_values(&values).expect("valid values"));
        let batch = Tensor::stack(one).expect("one image stacks");
        let cut = self.model.config().cut;
        let (_, features) = timed(|| self.model.teacher().infer_features_at(&batch, cut));
        let matrix = Tensor::from_rows(&values).expect("rectangular values");
        let (hvs, encode) = timed(|| self.encoder.encode_batch(&matrix));
        let (_, score) = timed(|| ScoringBackend::Dense.predict_bipolar(self.model.memory(), &hvs));
        let (reply, runtime) = timed(|| self.served.set.predict(input.clone()));
        Onion {
            runtime,
            correct: reply.is_ok_and(|r| r.value == self.expected[case]),
            engine,
            leaves: vec![
                ("nn.features_us", features),
                ("hdc.encode_us", encode),
                ("hdc.score_us", score),
            ],
            extra: vec![("core.extract_us", extract), ("core.finish_us", finish)],
        }
    }

    fn decode_frame(&self, bytes: &[u8]) -> bool {
        decode_as::<Tensor>(bytes)
    }

    fn memory_and_query(&self) -> (AssociativeMemory, BipolarHv) {
        let hv = self.engine.symbolize_batch(&self.inputs[..1]).remove(0);
        (self.model.memory().clone(), hv)
    }
}

// ------------------------------------------------------------- hd_query

/// `hd_query`: pre-encoded hypervectors scored by an INT8 class memory.
pub struct HdQueryWorkload {
    served: Served<HdDeployEngine>,
    engine: Arc<HdDeployEngine>,
    scorer: ScoringBackend,
    cases: Vec<Case>,
    queries: Vec<HdQuery>,
    expected: Vec<usize>,
}

impl HdQueryWorkload {
    /// Training images (6 per class) and distinct query images.
    const TRAIN: usize = 600;
    const TEST: usize = 128;
    const MODE: ScoringMode = ScoringMode::Int8;

    /// Encodes Synth100 images with a seeded random projection, trains
    /// a 100-class memory (bundling + one MASS epoch), compiles it to
    /// INT8 and serves it; queries are the bit-packed signs of encoded
    /// test images.
    pub fn setup(seed: u64) -> (HdQueryWorkload, SetupTimes) {
        let start = Instant::now();
        let ((train, test), data_s) =
            synth(SynthSpec::synth100(derive(seed, 1)).with_sizes(Self::TRAIN, Self::TEST));
        let features = train.sample(0).0.len();
        let flat = |d: &ImageDataset| {
            d.images().reshape([d.len(), features]).expect("images flatten to rows")
        };
        let ((encoder, memory), train_s) = timed(|| {
            let encoder = RandomProjection::new(features, HV_DIM, derive(seed, 2)).batch_encoder();
            let hvs = encoder.encode_batch(&flat(&train));
            let samples: Vec<(BipolarHv, usize)> =
                hvs.into_iter().zip(train.labels().iter().copied()).collect();
            let mut memory = bundle_init(train.num_classes(), HV_DIM, &samples);
            MassTrainer::new(0.2).epoch(&mut memory, &samples);
            (encoder, memory)
        });
        let engine = Arc::new(HdDeployEngine::new(memory, Self::MODE));
        let served = Served::start(Arc::clone(&engine));
        let total_s = start.elapsed().as_secs_f64();

        let cases: Vec<Case> = encoder
            .encode_batch_packed(&flat(&test))
            .into_iter()
            .map(|hv| {
                Case::new(RequestBody::Packed {
                    dims: vec![HV_DIM as u32],
                    words: hv.words().to_vec(),
                })
            })
            .collect();
        let queries: Vec<HdQuery> = decoded(&cases);
        // Reference: pointwise INT8 scoring of the dense decoded query.
        let reference = nshd_hdc::QuantizedMemory::from_memory(engine.memory());
        let expected = queries
            .iter()
            .map(|q| reference.predict(&BipolarHv::from_signs(&q.to_dense())))
            .collect();
        let scorer = ScoringBackend::build(engine.memory(), Self::MODE);
        let w = HdQueryWorkload { served, engine, scorer, cases, queries, expected };
        (w, SetupTimes { data_s, train_s, total_s })
    }
}

impl Traffic for HdQueryWorkload {
    fn server(&self) -> &dyn Server {
        &self.served
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn check(&self, record: &Record, prediction: u32) -> bool {
        self.expected[record.case] == prediction as usize
    }

    fn shutdown(self: Box<Self>) {
        self.served.shutdown();
    }
}

impl Workload for HdQueryWorkload {
    fn offline(&self, cases: &[usize]) -> usize {
        let batch: Vec<HdQuery> = cases.iter().map(|&c| self.queries[c].clone()).collect();
        match self.engine.try_predict_batch(&batch) {
            Ok(preds) => cases.iter().zip(&preds).filter(|(&c, &p)| self.expected[c] != p).count(),
            Err(_) => cases.len(),
        }
    }

    fn onion(&self, case: usize) -> Onion {
        let query = &self.queries[case];
        let one = std::slice::from_ref(query);
        let (_, engine) = timed(|| {
            let signs = self.engine.try_sign(one).expect("valid query");
            self.engine.try_score(signs).expect("scorable deployment")
        });
        let (signs, sign) = timed(|| self.engine.try_sign(one).expect("valid query"));
        let (_, score) = timed(|| self.scorer.predict_queries(self.engine.memory(), &signs));
        let (_, deploy_score) =
            timed(|| self.engine.try_score(signs.clone()).expect("scorable deployment"));
        let (reply, runtime) = timed(|| self.served.set.predict(query.clone()));
        Onion {
            runtime,
            correct: reply.is_ok_and(|r| r.value == self.expected[case]),
            engine,
            leaves: vec![("core.sign_us", sign), ("hdc.score_us", score)],
            extra: vec![("core.deploy_score_us", deploy_score)],
        }
    }

    fn decode_frame(&self, bytes: &[u8]) -> bool {
        decode_as::<HdQuery>(bytes)
    }

    fn memory_and_query(&self) -> (AssociativeMemory, BipolarHv) {
        let hv = match self.queries[0].sign_hv() {
            QueryHv::Bipolar(hv) => hv,
            QueryHv::Packed(p) => p.to_bipolar(),
        };
        (self.engine.memory().clone(), hv)
    }
}

// ------------------------------------------------------------ glue_swap

/// Three diverse small teachers (the `glue_bench` set): a wide single
/// block, a deeper two-block stack, and a slim wide-kernel block.
fn glue_teacher(kind: usize, rng: &mut Rng) -> Model {
    let (name, features, flat) = match kind {
        0 => (
            "wide8",
            Sequential::new()
                .with(Conv2d::new(3, 8, 3, 1, 1, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2)),
            8 * 16 * 16,
        ),
        1 => (
            "deep6-12",
            Sequential::new()
                .with(Conv2d::new(3, 6, 3, 1, 1, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2))
                .with(Conv2d::new(6, 12, 3, 1, 1, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2)),
            12 * 8 * 8,
        ),
        _ => (
            "slim4k5",
            Sequential::new()
                .with(Conv2d::new(3, 4, 5, 1, 2, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2)),
            4 * 16 * 16,
        ),
    };
    let classifier = Sequential::new().with(Flatten::new()).with(Linear::new(flat, 10, rng));
    Model { name: name.into(), features, classifier, input_shape: vec![3, 32, 32], num_classes: 10 }
}

/// The scoring modes `glue_swap` publishes in turn.
const GLUE_MODES: [ScoringMode; 3] = [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed];

/// A published state: which memory, which scoring mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GlueStateId {
    memory: usize,
    mode: usize,
}

impl GlueStateId {
    const INITIAL: GlueStateId = GlueStateId { memory: 0, mode: 0 };

    fn index(self) -> usize {
        self.memory * GLUE_MODES.len() + self.mode
    }

    /// The state after write `tick`: even ticks swap the memory, odd
    /// ticks advance the scoring mode, so six writes visit all six states.
    fn after(self, tick: usize) -> GlueStateId {
        if tick.is_multiple_of(2) {
            GlueStateId { memory: 1 - self.memory, ..self }
        } else {
            GlueStateId { mode: (self.mode + 1) % GLUE_MODES.len(), ..self }
        }
    }
}

/// One publish: the state it installed and when the call ran.
#[derive(Debug, Clone, Copy)]
struct Publish {
    state: GlueStateId,
    began: Instant,
    ended: Instant,
}

/// The `glue_swap` scenario: reads through a fused three-teacher
/// ensemble while the generator publishes memory and scoring-mode swaps.
pub struct GlueWorkload {
    served: Served<GlueEngine>,
    engine: Arc<GlueEngine>,
    memories: [AssociativeMemory; 2],
    cases: Vec<Case>,
    inputs: Vec<Tensor>,
    /// `expected[state.index()][case]`.
    expected: Vec<Vec<usize>>,
    /// Every publish since set-up, in order; the initial state is live
    /// before the first.
    publishes: RefCell<Vec<Publish>>,
    writes: RefCell<WriteStats>,
}

impl GlueWorkload {
    const TRAIN: usize = 120;
    const TEST: usize = 32;

    /// Fuses three seeded teachers and serves the ensemble.
    pub fn setup(seed: u64) -> GlueWorkload {
        let ((train, test), _) =
            synth(SynthSpec::synth10(derive(seed, 1)).with_sizes(Self::TRAIN, Self::TEST));
        let teachers: Vec<CnnClassifier> = (0..3)
            .map(|k| {
                CnnClassifier::new(glue_teacher(k, &mut Rng::new(derive(seed, 10 + k as u64))))
            })
            .collect();
        let config = GlueConfig { hv_dim: HV_DIM, seed: derive(seed, 4), ..GlueConfig::default() };
        let ensemble = {
            let refs: Vec<&dyn EmbeddingClassifier> =
                teachers.iter().map(|t| t as &dyn EmbeddingClassifier).collect();
            GlueEnsemble::fuse(&refs, &train, &config).expect("the teachers fuse")
        };
        let fused = ensemble.memory().clone();
        let engine = Arc::new(GlueEngine::new(ensemble));
        let served = Served::start(Arc::clone(&engine));

        // The second memory scores differently: every class row rotated
        // by one, so a reply from the wrong state cannot pass the check.
        let n = fused.num_classes();
        let rotated = AssociativeMemory::try_from_classes(
            (0..n).map(|i| fused.class((i + 1) % n).to_vec()).collect(),
        )
        .expect("rotated rows stay rectangular");
        let cases = image_cases(&test_images(&test));
        let inputs: Vec<Tensor> = decoded(&cases);
        let mut w = GlueWorkload {
            served,
            engine,
            memories: [fused, rotated],
            cases,
            inputs,
            expected: Vec::new(),
            publishes: RefCell::new(Vec::new()),
            writes: RefCell::new(WriteStats::default()),
        };
        // Reference predictions of every state, by publishing each one
        // before traffic starts, then back to the initial state.
        let mut expected = vec![Vec::new(); 2 * GLUE_MODES.len()];
        for memory in 0..2 {
            for mode in 0..GLUE_MODES.len() {
                let id = GlueStateId { memory, mode };
                w.install(id);
                expected[id.index()] =
                    w.engine.state().predict_batch(&w.inputs).expect("valid inputs");
            }
        }
        w.install(GlueStateId::INITIAL);
        w.expected = expected;
        w
    }

    fn install(&self, id: GlueStateId) {
        self.engine.swap_memory(self.memories[id.memory].clone()).expect("memory swap publishes");
        self.engine.set_scoring(GLUE_MODES[id.mode]).expect("scoring swap publishes");
    }

    /// Times `GlueState::predict_batch` and the heads' encodes on a batch
    /// of one, in seconds: `(predict, head encodes)`.
    pub fn time_calls(&self, case: usize) -> (f64, f64) {
        let one = std::slice::from_ref(&self.inputs[case]);
        let state = self.engine.state();
        let (_, predict) = timed(|| state.predict_batch(one).expect("valid input"));
        let (_, heads) = timed(|| {
            for head in state.heads() {
                black_box(head.encode_batch(one).expect("valid input"));
            }
        });
        (predict, heads)
    }

    fn current(&self) -> GlueStateId {
        self.publishes.borrow().last().map_or(GlueStateId::INITIAL, |p| p.state)
    }

    /// States that may have answered a request in flight from `sent` to
    /// `received`: state `j` is visible from some instant of its own
    /// publish call until some instant of the next one.
    fn live_states(&self, sent: Instant, received: Instant) -> Vec<GlueStateId> {
        let publishes = self.publishes.borrow();
        let mut live = Vec::new();
        for j in 0..=publishes.len() {
            let (state, from) = match j {
                0 => (GlueStateId::INITIAL, None),
                _ => (publishes[j - 1].state, Some(publishes[j - 1].began)),
            };
            let until = publishes.get(j).map(|p| p.ended);
            if from.is_none_or(|f| f <= received) && until.is_none_or(|u| sent <= u) {
                live.push(state);
            }
        }
        live
    }
}

impl Traffic for GlueWorkload {
    fn server(&self) -> &dyn Server {
        &self.served
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn check(&self, record: &Record, prediction: u32) -> bool {
        self.live_states(record.sent, record.received)
            .iter()
            .any(|s| self.expected[s.index()][record.case] == prediction as usize)
    }

    fn write_rate(&self) -> Option<f64> {
        Some(GLUE_WRITE_RATE)
    }

    fn write(&self) {
        let from = self.current();
        let next = from.after(self.publishes.borrow().len());
        let memory_swap = next.memory != from.memory;
        let began = Instant::now();
        if memory_swap {
            self.engine
                .swap_memory(self.memories[next.memory].clone())
                .expect("memory swap publishes");
        } else {
            self.engine.set_scoring(GLUE_MODES[next.mode]).expect("scoring swap publishes");
        }
        let ended = Instant::now();
        let took = ended.duration_since(began).as_secs_f64();
        let mut writes = self.writes.borrow_mut();
        if memory_swap {
            writes.swap_memory.push(took);
        } else {
            writes.set_scoring.push(took);
        }
        self.publishes.borrow_mut().push(Publish { state: next, began, ended });
    }

    fn write_stats(&self) -> WriteStats {
        self.writes.borrow().clone()
    }

    fn shutdown(self: Box<Self>) {
        self.served.shutdown();
    }
}

/// Builds and serves workload `name` from `seed`.
pub fn setup(name: &str, seed: u64) -> Option<(Box<dyn Workload>, SetupTimes)> {
    Some(match name {
        "image" => {
            let (w, t) = ImageWorkload::setup(seed);
            (Box::new(w), t)
        }
        "hd_query" => {
            let (w, t) = HdQueryWorkload::setup(seed);
            (Box::new(w), t)
        }
        _ => return None,
    })
}

/// The fixed open-loop rate of workload `name`.
pub fn rate(name: &str) -> f64 {
    if name == "image" {
        IMAGE_RATE
    } else {
        HD_QUERY_RATE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_glue_writes_visit_all_six_states() {
        let mut state = GlueStateId::INITIAL;
        let mut seen = vec![state.index()];
        for tick in 0..6 {
            state = state.after(tick);
            seen.push(state.index());
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6, "first six writes revisit a state");
        // Memory and mode swaps alternate, so twelve writes come back.
        for tick in 6..12 {
            state = state.after(tick);
        }
        assert_eq!(state, GlueStateId::INITIAL);
    }

    #[test]
    fn benchmark_json_states_each_workload_and_rate() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for name in NAMES {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
            let rps = format!("{} rps", rate(name));
            assert!(spec.contains(&rps), "BENCHMARK.json does not state {name}'s rate {rps}");
        }
    }
}
