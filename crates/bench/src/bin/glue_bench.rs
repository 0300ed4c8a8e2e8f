//! HD-Glue ensemble benchmark (`nshd_glue`): accuracy versus number of
//! fused teachers, plus hot-swap latency under live traffic.
//!
//! Trains three deliberately **diverse** tiny CNN teachers on Synth10
//! (different widths, depths, seeds, and epoch budgets), then:
//!
//! 1. **Accuracy vs #teachers** — fuses the first `k` teachers for
//!    `k = 1..=3` into a consensus memory ([`GlueEnsemble::fuse`]) and
//!    scores each fusion on the train (fusion) and test sets, next to
//!    every teacher's own CNN test accuracy and standalone symbolic
//!    bundle accuracy;
//! 2. **Swap latency** — serves the full fusion through a
//!    serving [`Engine`] behind an [`InferenceRuntime`] and times
//!    `swap_memory` / `swap_head` calls issued while a batch is in
//!    flight, plus replica-level `ReplicaSet::hot_swap`
//!    (drain + readmit) on a two-replica glue cluster.
//!
//! Results go to stdout and `BENCH_glue.json` at the repository root
//! through the `nshd-obs/v1` trace exporter. `--smoke` runs a
//! down-sized configuration and exits non-zero unless the full fusion's
//! accuracy is at least the best single teacher's symbolic accuracy,
//! every in-flight reply resolves, and the JSON lands — the CI gate.
//!
//! Flags: `--swaps N` (default by `NSHD_SCALE`), `--smoke`.

use nshd_bench::Scale;
use nshd_core::{Classifier, CnnClassifier, EmbeddingClassifier, Engine};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_glue::{GlueConfig, GlueEnsemble};
use nshd_hdc::AssociativeMemory;
use nshd_nn::{
    fit, ActKind, Activation, Adam, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential,
    TrainConfig,
};
use nshd_obs::{clock, Json, Recorder};
use nshd_runtime::{
    BreakerConfig, ClusterConfig, InferenceRuntime, ReplicaSet, RetryPolicy, RuntimeConfig,
};
use nshd_tensor::{Rng, Tensor};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    swaps: usize,
    smoke: bool,
}

fn parse_args(scale: Scale) -> Args {
    let mut args = Args {
        swaps: match scale {
            Scale::Quick => 8,
            Scale::Full => 32,
        },
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--swaps" => {
                args.swaps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--swaps expects a number"));
            }
            "--smoke" => args.smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        args.swaps = args.swaps.min(4);
    }
    args
}

/// Three diverse teacher architectures: a wide single block, a deeper
/// two-block stack, and a slim wide-kernel block. Diversity is the
/// point — HD-Glue's consensus only helps when the teachers' mistakes
/// decorrelate.
fn build_teacher(kind: usize, rng: &mut Rng) -> Model {
    match kind {
        0 => {
            let features = Sequential::new()
                .with(Conv2d::new(3, 8, 3, 1, 1, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2));
            let classifier =
                Sequential::new().with(Flatten::new()).with(Linear::new(8 * 16 * 16, 10, rng));
            Model {
                name: "wide8".into(),
                features,
                classifier,
                input_shape: vec![3, 32, 32],
                num_classes: 10,
            }
        }
        1 => {
            let features = Sequential::new()
                .with(Conv2d::new(3, 6, 3, 1, 1, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2))
                .with(Conv2d::new(6, 12, 3, 1, 1, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2));
            let classifier =
                Sequential::new().with(Flatten::new()).with(Linear::new(12 * 8 * 8, 10, rng));
            Model {
                name: "deep6-12".into(),
                features,
                classifier,
                input_shape: vec![3, 32, 32],
                num_classes: 10,
            }
        }
        _ => {
            let features = Sequential::new()
                .with(Conv2d::new(3, 4, 5, 1, 2, rng))
                .with(Activation::new(ActKind::Relu))
                .with(MaxPool2d::new(2));
            let classifier =
                Sequential::new().with(Flatten::new()).with(Linear::new(4 * 16 * 16, 10, rng));
            Model {
                name: "slim4k5".into(),
                features,
                classifier,
                input_shape: vec![3, 32, 32],
                num_classes: 10,
            }
        }
    }
}

/// A dimension-compatible replacement memory that scores differently:
/// every class row rotated by one.
fn rotated_memory(memory: &AssociativeMemory) -> AssociativeMemory {
    let n = memory.num_classes();
    let rows: Vec<Vec<f32>> = (0..n).map(|i| memory.class((i + 1) % n).to_vec()).collect();
    AssociativeMemory::try_from_classes(rows).expect("rotated rows stay rectangular")
}

fn lat_row(kind: &str, lat: &[f64]) -> Json {
    let mean = if lat.is_empty() { 0.0 } else { lat.iter().sum::<f64>() / lat.len() as f64 };
    let max = lat.iter().cloned().fold(0.0f64, f64::max);
    Json::obj(vec![
        ("kind", Json::str(kind)),
        ("swaps", Json::from(lat.len())),
        ("mean_us", Json::fixed(mean, 1)),
        ("max_us", Json::fixed(max, 1)),
    ])
}

/// A serving engine over the ensemble's heads and consensus memory.
fn serve(ensemble: &GlueEnsemble) -> Engine<Tensor> {
    Engine::new(ensemble.state().clone()).expect("a fused ensemble verifies")
}

fn main() {
    let scale = Scale::from_env();
    let args = parse_args(scale);
    let (train_size, test_size, hv_dim, epoch_budgets) = if args.smoke {
        (60, 32, 1_024, [1usize, 2, 1])
    } else {
        match scale {
            Scale::Quick => (200, 64, 2_048, [2, 3, 2]),
            Scale::Full => (600, 128, 4_096, [4, 6, 4]),
        }
    };

    eprintln!("[glue_bench] training 3 teachers (train={train_size}, hv_dim={hv_dim})");
    let (mut train, mut test) = SynthSpec::synth10(71).with_sizes(train_size, test_size).generate();
    normalize_pair(&mut train, &mut test);

    let mut teachers: Vec<CnnClassifier> = Vec::with_capacity(3);
    for (kind, &epochs) in epoch_budgets.iter().enumerate() {
        let seed = 40 + kind as u64 * 17;
        let mut model = build_teacher(kind, &mut Rng::new(seed));
        fit(
            &mut model,
            train.images(),
            train.labels(),
            &mut Adam::new(2e-3, 1e-5),
            &TrainConfig { epochs, batch_size: 32, seed: seed + 1, ..TrainConfig::default() },
        );
        teachers.push(CnnClassifier::new(model));
    }

    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());

    let config = GlueConfig { hv_dim, seed: 0x617C, ..GlueConfig::default() };

    // Accuracy vs #teachers: fuse the first k teachers for k = 1..=3.
    let mut fusion_rows: Vec<Json> = Vec::new();
    let mut fused_accuracy = Vec::new();
    let mut full: Option<GlueEnsemble> = None;
    for k in 1..=teachers.len() {
        let refs: Vec<&dyn EmbeddingClassifier> =
            teachers[..k].iter().map(|t| t as &dyn EmbeddingClassifier).collect();
        let ensemble = GlueEnsemble::fuse(&refs, &train, &config).expect("fuse must succeed");
        let train_acc = ensemble.accuracy(&train).expect("train accuracy");
        let test_acc = ensemble.accuracy(&test).expect("test accuracy");
        let last = ensemble.correction().last().copied();
        eprintln!(
            "[glue_bench] fused k={k}: train={train_acc:.3} test={test_acc:.3} \
             correction_epochs={}",
            ensemble.correction().len()
        );
        fusion_rows.push(Json::obj(vec![
            ("teachers", Json::from(k)),
            ("train_accuracy", Json::fixed(train_acc as f64, 4)),
            ("test_accuracy", Json::fixed(test_acc as f64, 4)),
            ("correction_epochs", Json::from(ensemble.correction().len())),
            ("final_misclassified", Json::from(last.map(|r| r.misclassified).unwrap_or_default())),
        ]));
        fused_accuracy.push((train_acc, test_acc));
        if k == teachers.len() {
            full = Some(ensemble);
        }
    }
    let full = full.expect("the k = 3 fusion is always built");

    // Per-teacher reference points: raw CNN test accuracy and the
    // standalone symbolic bundle accuracy each head was weighted by.
    let mut teacher_rows: Vec<Json> = Vec::new();
    for (teacher, report) in teachers.iter_mut().zip(full.head_reports()) {
        let cnn_test = teacher.evaluate(&test);
        teacher_rows.push(Json::obj(vec![
            ("name", Json::str(&report.name)),
            ("cnn_test_accuracy", Json::fixed(cnn_test as f64, 4)),
            ("standalone_bundle_accuracy", Json::fixed(report.standalone_accuracy as f64, 4)),
            ("fused_weight", Json::fixed(report.weight as f64, 4)),
        ]));
    }
    let best_standalone =
        full.head_reports().iter().map(|r| r.standalone_accuracy).fold(0.0f32, f32::max);
    let (fused_train, fused_test) = *fused_accuracy.last().expect("k = 3 row exists");

    // Swap latency under live traffic: a batch is submitted, the swap
    // is timed while it is in flight, and every reply must resolve.
    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    let glue = Arc::new(serve(&full));
    let runtime = InferenceRuntime::new(
        glue.clone(),
        RuntimeConfig { max_batch: 16, ..RuntimeConfig::default() },
    )
    .expect("fused engine must verify");
    let mut memory_lat = Vec::with_capacity(args.swaps);
    let mut head_lat = Vec::with_capacity(args.swaps);
    let num_heads = glue.state().heads().len();
    for s in 0..args.swaps {
        let burst: Vec<_> = images
            .iter()
            .take(16)
            .map(|img| runtime.submit(img.clone()).expect("submit"))
            .collect();

        let rotated = rotated_memory(glue.state().memory());
        let started = clock::now();
        glue.swap_memory(rotated).expect("compatible memory must swap");
        memory_lat.push(started.elapsed().as_secs_f64() * 1e6);

        let slot = s % num_heads;
        let current = glue.state().heads()[slot].weight();
        let reweighted = glue.state().heads()[slot].with_weight(current.max(0.05) * 0.9);
        let started = clock::now();
        glue.swap_head(slot, reweighted).expect("re-weighted head must swap");
        head_lat.push(started.elapsed().as_secs_f64() * 1e6);

        let classes = glue.num_classes();
        for handle in burst {
            let value = handle.wait().expect("in-flight reply must resolve across swaps");
            assert!(value < classes, "prediction out of range");
        }
    }
    runtime.shutdown();

    // Replica-level hot swap: drain + readmit a fresh engine on a live
    // two-replica glue cluster.
    let cluster = ClusterConfig {
        runtime: RuntimeConfig { max_batch: 8, ..RuntimeConfig::default() },
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_secs(10),
        },
        breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(50) },
        max_inflight: 0,
    };
    let set = ReplicaSet::new(vec![Arc::new(serve(&full)), Arc::new(serve(&full))], cluster)
        .expect("fused engines must form a cluster");
    let mut replica_lat = Vec::with_capacity(args.swaps);
    for s in 0..args.swaps {
        for img in images.iter().take(4) {
            set.predict(img.clone()).expect("cluster serves between swaps");
        }
        let fresh = Arc::new(serve(&full));
        let started = clock::now();
        let drained = set.hot_swap(s % 2, fresh).expect("hot swap succeeds");
        replica_lat.push(started.elapsed().as_secs_f64() * 1e6);
        assert!(drained.requests > 0 || s > 0, "the drained slot must have history");
    }
    for img in images.iter().take(4) {
        set.predict(img.clone()).expect("cluster serves after the last swap");
    }
    set.shutdown();

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
        ("hv_dim", Json::from(hv_dim)),
        ("train_size", Json::from(train_size)),
        ("test_size", Json::from(test_size)),
        ("teachers", Json::arr(teacher_rows)),
        ("accuracy_vs_teachers", Json::arr(fusion_rows)),
        (
            "swap_latency",
            Json::arr(vec![
                lat_row("memory_swap", &memory_lat),
                lat_row("head_swap", &head_lat),
                lat_row("replica_hot_swap", &replica_lat),
            ]),
        ),
        ("trace", report.to_json()),
    ]);
    let json = doc.to_string();
    println!("{json}");

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_glue.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_glue.json");
    eprintln!("[glue_bench] wrote {}", out.display());

    if args.smoke {
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"nshd-obs/v1\""), "trace must use the v1 exporter");
        assert!(
            fused_train >= best_standalone,
            "full fusion train accuracy {fused_train} fell below the best single \
             teacher's symbolic accuracy {best_standalone}"
        );
        assert!(
            fused_test > 0.0 && fused_train > 0.0,
            "the fused ensemble never classified anything"
        );
        assert!(
            memory_lat.iter().chain(&head_lat).chain(&replica_lat).all(|l| l.is_finite()),
            "swap latencies must be finite"
        );
        assert!(out.is_file(), "BENCH_glue.json missing at {}", out.display());
        eprintln!(
            "[glue_bench] smoke OK (fused train={fused_train:.3} vs best single \
             {best_standalone:.3})"
        );
    }
}
