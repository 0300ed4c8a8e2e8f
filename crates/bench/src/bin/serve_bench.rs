//! Serving-runtime benchmark: batched inference through `nshd-runtime`
//! versus a single-threaded per-sample baseline.
//!
//! Trains a small NSHD model on Synth10, then serves the same request
//! stream two ways:
//!
//! 1. **baseline** — one image at a time through `NshdModel::predict`
//!    on the calling thread (bit-serial HD encode, scalar scoring);
//! 2. **batched** — every request submitted to an `InferenceRuntime`
//!    (micro-batching collector + one engine call per batch: CNN
//!    extract, GEMM encode, one GEMM score), with an `nshd-obs` recorder
//!    installed so every stage is traced and profiled.
//!
//! Emits one JSON object on stdout with both throughputs, the batched
//! latency/queue-wait/execute statistics, per-stage
//! (extract/encode/score) wall time and achieved GFLOP/s, and the full
//! `nshd-obs` trace report; the same document is written to
//! `BENCH_serve.json` at the repository root, and the hierarchical
//! flame report goes to stderr. `--smoke` runs a down-sized
//! configuration and exits non-zero if the report is malformed or the
//! predictions diverge — the CI gate.
//!
//! Flags: `--batch N` (default 32), `--requests N` (default by
//! `NSHD_SCALE`), `--smoke`. The kernels run at `NSHD_THREADS` threads.

use nshd_bench::Scale;
use nshd_core::{Engine, NshdConfig, NshdModel};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_nn::{
    fit, ActKind, Activation, Adam, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential,
    TrainConfig,
};
use nshd_obs::{clock, Json, Recorder, Report};
use nshd_runtime::{InferenceRuntime, RuntimeConfig};
use nshd_tensor::{Rng, Tensor};
use std::path::Path;
use std::sync::Arc;

struct Args {
    max_batch: usize,
    requests: usize,
    smoke: bool,
}

fn parse_args(scale: Scale) -> Args {
    let mut args = Args {
        max_batch: 32,
        requests: match scale {
            Scale::Quick => 512,
            Scale::Full => 2_048,
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
            "--batch" => args.max_batch = num("--batch") as usize,
            "--requests" => args.requests = num("--requests") as usize,
            "--smoke" => args.smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        args.requests = args.requests.min(96);
    }
    args
}

/// A deliberately early-cut teacher: the serving profile the runtime
/// targets keeps the CNN prefix cheap and lets HD encoding dominate,
/// which is where batching pays (GEMM encode vs bit-serial).
fn tiny_teacher(rng: &mut Rng) -> Model {
    let features = Sequential::new()
        .with(Conv2d::new(3, 8, 3, 1, 1, rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier = Sequential::new().with(Flatten::new()).with(Linear::new(8 * 16 * 16, 10, rng));
    Model {
        name: "serve-tiny".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Per-stage summary pulled out of the trace: wall time and achieved
/// GFLOP/s for one pipeline stage nested under the batch `request` span.
fn stage_json(report: &Report, stage: &str) -> Json {
    match report.find(&format!("request/{stage}")) {
        Some(node) => Json::obj(vec![
            ("count", Json::from(node.stats.count)),
            ("total_ms", Json::fixed(node.stats.total_nanos as f64 / 1e6, 3)),
            ("mean_us", Json::fixed(node.stats.mean_nanos() / 1e3, 1)),
            ("gflops", Json::fixed(node.gflops(), 3)),
        ]),
        None => Json::Null,
    }
}

fn main() {
    let scale = Scale::from_env();
    let args = parse_args(scale);
    let (train_size, hv_dim, teacher_epochs, retrain_epochs) = if args.smoke {
        (60, 1_024, 1, 1)
    } else {
        match scale {
            Scale::Quick => (200, 2_048, 3, 2),
            Scale::Full => (600, 2_048, 6, 4),
        }
    };

    eprintln!("[serve_bench] training model (train={train_size}, hv_dim={hv_dim})");
    let (mut train, mut test) = SynthSpec::synth10(71).with_sizes(train_size, 128).generate();
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
        .with_retrain_epochs(retrain_epochs)
        .with_seed(13);
    let model = NshdModel::train(teacher, &train, cfg);

    // The request stream cycles the test split.
    let images: Vec<Tensor> = (0..args.requests).map(|i| test.sample(i % test.len()).0).collect();

    // Baseline: single-threaded, one image at a time, deliberately
    // unrecorded so its per-sample spans don't dilute the batched trace.
    eprintln!("[serve_bench] baseline: {} per-sample predictions", images.len());
    let mut baseline_preds = Vec::with_capacity(images.len());
    let mut baseline_lat_us: Vec<f64> = Vec::with_capacity(images.len());
    let base_start = clock::now();
    for img in &images {
        let t = clock::now();
        baseline_preds.push(model.predict(img));
        baseline_lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let base_elapsed = base_start.elapsed().as_secs_f64();
    let base_rps = images.len() as f64 / base_elapsed;
    baseline_lat_us.sort_by(f64::total_cmp);

    // Batched: everything through the serving runtime, traced.
    eprintln!("[serve_bench] batched: max_batch={}", args.max_batch);
    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());
    let engine = Arc::new(Engine::try_from(&model).expect("trained model must pass verification"));
    let runtime = InferenceRuntime::new(
        engine,
        RuntimeConfig { max_batch: args.max_batch, ..RuntimeConfig::default() },
    )
    .expect("verified engine must construct a runtime");
    let handles: Vec<_> = images
        .iter()
        .map(|img| runtime.submit(img.clone()).expect("runtime accepts requests while live"))
        .collect();
    let batched_preds: Vec<usize> =
        handles.into_iter().map(|h| h.wait().expect("well-formed requests must succeed")).collect();
    let metrics = runtime.shutdown();
    nshd_obs::install(previous);
    let report = recorder.report();

    let flame = report.text();
    eprintln!("[serve_bench] batched-phase trace:\n{flame}");

    let predictions_match = batched_preds == baseline_preds;
    let speedup = if base_rps > 0.0 { metrics.requests_per_sec / base_rps } else { 0.0 };
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
            nshd_bench::run_config(args.smoke, 71, vec![("max_batch", Json::from(args.max_batch))]),
        ),
        ("requests", Json::from(images.len())),
        ("max_batch", Json::from(args.max_batch)),
        ("hv_dim", Json::from(hv_dim)),
        (
            "baseline",
            Json::obj(vec![
                ("requests_per_sec", Json::fixed(base_rps, 1)),
                ("p50_us", Json::fixed(percentile(&baseline_lat_us, 0.50), 1)),
                ("p99_us", Json::fixed(percentile(&baseline_lat_us, 0.99), 1)),
            ]),
        ),
        ("batched", Json::Raw(metrics.to_json())),
        (
            "stages",
            Json::obj(vec![
                ("extract", stage_json(&report, "extract")),
                ("encode", stage_json(&report, "encode")),
                ("score", stage_json(&report, "score")),
            ]),
        ),
        ("trace", report.to_json()),
        ("speedup", Json::fixed(speedup, 2)),
        ("predictions_match", Json::from(predictions_match)),
    ]);
    let json = doc.to_string();
    println!("{json}");

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_serve.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_serve.json");
    eprintln!("[serve_bench] wrote {}", out.display());

    if args.smoke {
        assert!(!json.is_empty() && json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"config\":",
            "\"nshd_threads\":",
            "\"batched\":",
            "\"batch_histogram\":[[",
            "\"p99\":",
            "\"queue_wait_us\":",
            "\"execute_us\":",
            "\"speedup\":",
            "\"stages\":",
            "\"schema\":\"nshd-obs/v1\"",
        ] {
            assert!(json.contains(key), "smoke report missing {key}");
        }
        assert!(
            predictions_match,
            "smoke: batched predictions diverged from the sequential baseline"
        );
        assert_eq!(metrics.requests as usize, images.len());
        // The trace must show the engine stages nested under the batch
        // request span, and the extract stage must report real compute.
        for stage in ["extract", "encode", "score"] {
            let node = report
                .find(&format!("request/{stage}"))
                .unwrap_or_else(|| panic!("smoke trace missing request/{stage}"));
            assert!(node.stats.count > 0, "request/{stage} never entered");
        }
        let extract = report.find("request/extract").expect("checked above");
        assert!(extract.gflops() > 0.0, "extract stage reported no FLOPs");
        assert!(
            flame.lines().any(|l| l.starts_with("request ")),
            "flame report missing the request root:\n{flame}"
        );
        assert!(
            flame.lines().any(|l| l.starts_with("  extract")),
            "flame report does not nest extract under request:\n{flame}"
        );
        assert!(out.is_file(), "BENCH_serve.json missing at {}", out.display());
        eprintln!("[serve_bench] smoke OK");
    }
}
