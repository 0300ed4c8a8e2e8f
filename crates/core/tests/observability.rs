//! Overhead guard for the `nshd-obs` instrumentation of the engine
//! pipeline: recording spans must stay cheap relative to the work they
//! wrap, and the disabled path must be effectively free.

use nshd_core::{NshdConfig, NshdEngine, NshdModel};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_nn::{
    fit, ActKind, Activation, Adam, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential,
    TrainConfig,
};
use nshd_obs::{clock, Recorder};
use nshd_tensor::{Rng, Tensor};
use std::sync::Mutex;
use std::time::Duration;

/// Serialises tests that install the process-global recorder.
static GLOBAL_RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn tiny_engine() -> (NshdEngine, Vec<Tensor>) {
    let (mut train, mut test) = SynthSpec::synth10(33).with_sizes(40, 16).generate();
    normalize_pair(&mut train, &mut test);
    let mut rng = Rng::new(3);
    let features = Sequential::new()
        .with(Conv2d::new(3, 4, 3, 1, 1, &mut rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier =
        Sequential::new().with(Flatten::new()).with(Linear::new(4 * 16 * 16, 10, &mut rng));
    let mut teacher = Model {
        name: "obs-tiny".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    };
    fit(
        &mut teacher,
        train.images(),
        train.labels(),
        &mut Adam::new(2e-3, 1e-5),
        &TrainConfig { epochs: 1, batch_size: 16, seed: 5, ..TrainConfig::default() },
    );
    let cfg = NshdConfig::new(3)
        .with_hv_dim(256)
        .with_manifold(false)
        .with_retrain_epochs(1)
        .with_seed(11);
    let model = NshdModel::train(teacher, &train, cfg);
    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    let engine = NshdEngine::new(&model).expect("tiny model passes verification");
    (engine, images)
}

#[test]
fn recording_overhead_stays_within_budget() {
    overhead_stays_within_budget(1);
}

/// Same bound with the parallel kernels engaged: per-thread `par` child
/// spans (one per worker chunk, recorded cross-thread) must not blow
/// the instrumentation budget either.
#[test]
fn recording_overhead_stays_within_budget_with_parallel_kernels() {
    nshd_tensor::par::with_threads(4, || overhead_stays_within_budget(4));
}

fn overhead_stays_within_budget(threads: usize) {
    let _serial = GLOBAL_RECORDER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (engine, images) = tiny_engine();
    const ROUNDS: usize = 8;

    // Warm up allocators and caches on the disabled path.
    let warm = engine.predict_batch(&images);
    assert_eq!(warm.len(), images.len());

    // Disabled: no recorder installed anywhere.
    let t0 = clock::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(engine.predict_batch(&images));
    }
    let disabled = t0.elapsed();

    // Enabled: a live recorder aggregating every span.
    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());
    let t1 = clock::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(engine.predict_batch(&images));
    }
    let enabled = t1.elapsed();
    nshd_obs::install(previous);

    // Span aggregation is a handful of map updates per stage next to
    // conv + GEMM work; 8x + 100ms is a deliberately generous ceiling
    // that still catches pathological regressions (per-span sorting,
    // unbounded allocation, lock convoys) on noisy CI machines.
    assert!(
        enabled <= disabled * 8 + Duration::from_millis(100),
        "instrumentation overhead too high at {threads} worker(s): \
         enabled {enabled:?} vs disabled {disabled:?}"
    );

    // The enabled runs actually recorded the pipeline stages.
    let report = recorder.report();
    for stage in ["extract", "encode", "score"] {
        let node = report.find(stage).unwrap_or_else(|| panic!("missing {stage} span"));
        assert_eq!(node.stats.count, ROUNDS as u64, "{stage} count");
        assert!(node.gflops() >= 0.0);
    }
    // Encode and score carry FLOP attribution (GEMM children).
    assert!(report.find("encode").expect("encode").cum_flops > 0, "encode reported no FLOPs");
    assert!(report.find("score").expect("score").cum_flops > 0, "score reported no FLOPs");
}
