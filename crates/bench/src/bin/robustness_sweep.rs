//! Robustness sweep — accuracy vs fault rate across deployment forms.
//!
//! The paper deploys the trained class memory in three forms: f32
//! accumulators (GPGPU), INT8 (Vitis-AI DPU), and packed binary (the
//! constant-memory GPGPU kernels / FPGA). This sweep injects seeded,
//! reproducible faults into each form — zero/saturate upsets for f32
//! cells, in-byte bit flips for INT8, word bit flips for packed binary —
//! at increasing rates and records test accuracy, demonstrating HD's
//! graceful degradation under hardware faults. A fourth curve corrupts
//! the *input* (salt-and-pepper noise) instead of the memory.
//!
//! Emits JSON on stdout through the `nshd-obs` exporter, writes the
//! same document to `BENCH_robustness.json` at the repository root (and
//! the historical `target/robustness_sweep.json`); progress goes to
//! stderr. Run with `NSHD_SCALE=full` for paper-shaped budgets, or
//! `--smoke` for a down-sized CI gate that exits non-zero when the
//! report is malformed.

use nshd_bench::{Bench, Scale};
use nshd_core::{NshdConfig, NshdModel};
use nshd_data::{normalize_pair, Corruption, ImageDataset, SynthSpec};
use nshd_hdc::{FaultPlan, PackedMemory, QuantizedMemory};
use nshd_nn::{
    evaluate, fit, ActKind, Activation, Adam, Architecture, Conv2d, Flatten, Linear, MaxPool2d,
    Model, Sequential, TrainConfig,
};
use nshd_obs::Json;
use nshd_tensor::Rng;
use std::path::Path;

/// Per-site fault rates swept (the paper's deployment claim is exercised
/// well past the 5% point).
const RATES: [f32; 7] = [0.0, 0.005, 0.01, 0.02, 0.05, 0.08, 0.12];
/// Down-sized sweep for the `--smoke` CI gate.
const SMOKE_RATES: [f32; 3] = [0.0, 0.02, 0.08];
/// Independent fault patterns averaged per (rate, form) cell.
const TRIALS: u64 = 3;

fn mean(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>() / xs.len() as f32
}

fn json_curve(xs: &[f32]) -> Json {
    Json::arr(xs.iter().map(|&x| Json::fixed(f64::from(x), 4)))
}

/// Everything the sweep itself needs, regardless of how it was trained.
struct Setup {
    model: NshdModel,
    test: ImageDataset,
    teacher_name: String,
    teacher_acc: f32,
    cut: usize,
    scale_label: &'static str,
    rates: Vec<f32>,
    trials: u64,
}

/// The regular (quick/full) setup: a cached MobileNetV2 teacher.
fn full_setup() -> Setup {
    let bench = Bench::synth10(101);
    let arch = Architecture::MobileNetV2;
    let (teacher, teacher_acc) = bench.train_teacher(arch, 7);
    eprintln!("[robustness] teacher {} test accuracy {teacher_acc:.4}", arch.display_name());
    let cut = arch.paper_cuts()[0];
    let cfg = NshdConfig::new(cut).with_retrain_epochs(bench.scale.retrain_epochs()).with_seed(13);
    let model = NshdModel::train(teacher, &bench.train, cfg);
    Setup {
        model,
        test: bench.test,
        teacher_name: arch.display_name().to_string(),
        teacher_acc,
        cut,
        scale_label: match bench.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
        rates: RATES.to_vec(),
        trials: TRIALS,
    }
}

/// The `--smoke` setup: a tiny ad-hoc teacher trained for a few epochs,
/// a short rate list, one trial — seconds end-to-end. The teacher is
/// small but must still be *real*: its test accuracy is evaluated and
/// gated meaningfully above chance, because a sweep distilled from an
/// untrained teacher measures nothing.
fn smoke_setup() -> Setup {
    let (mut train, mut test) = SynthSpec::synth10(101).with_sizes(160, 48).generate();
    normalize_pair(&mut train, &mut test);
    let mut rng = Rng::new(7);
    let features = Sequential::new()
        .with(Conv2d::new(3, 8, 3, 1, 1, &mut rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier =
        Sequential::new().with(Flatten::new()).with(Linear::new(8 * 16 * 16, 10, &mut rng));
    let mut teacher = Model {
        name: "robust-tiny".into(),
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
        &TrainConfig { epochs: 6, batch_size: 32, seed: 9, ..TrainConfig::default() },
    );
    let teacher_acc = evaluate(&mut teacher, test.images(), test.labels(), 48);
    eprintln!("[robustness] smoke teacher test accuracy {teacher_acc:.4}");
    let cut = 3;
    let cfg = NshdConfig::new(cut)
        .with_hv_dim(512)
        .with_manifold(false)
        .with_retrain_epochs(1)
        .with_seed(13);
    let model = NshdModel::train(teacher, &train, cfg);
    Setup {
        model,
        test,
        teacher_name: "robust-tiny".into(),
        teacher_acc,
        cut,
        scale_label: "smoke",
        rates: SMOKE_RATES.to_vec(),
        trials: 1,
    }
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let setup = if smoke { smoke_setup() } else { full_setup() };
    let Setup { model, test, teacher_name, teacher_acc, cut, scale_label, rates, trials } = setup;

    // Symbolise the held-out set once; memory-side fault injection reuses
    // the same queries for every (rate, form, trial) cell.
    let samples = model.symbolize_dataset(&test);
    let clean_memory = model.memory().clone();
    let clean_quant = QuantizedMemory::from_memory(&clean_memory);
    let clean_binary = PackedMemory::from_memory(&clean_memory);
    let packed: Vec<_> = samples.iter().map(|(hv, l)| (hv.to_packed(), *l)).collect();
    let binary_accuracy = |mem: &PackedMemory| {
        let correct = packed.iter().filter(|(hv, l)| mem.predict(hv) == *l).count();
        correct as f32 / packed.len() as f32
    };
    eprintln!(
        "[robustness] clean accuracy: f32 {:.4}, int8 {:.4}, binary {:.4}",
        clean_memory.accuracy(&samples),
        clean_quant.accuracy(&samples),
        binary_accuracy(&clean_binary),
    );

    let mut curve_f32 = Vec::with_capacity(rates.len());
    let mut curve_int8 = Vec::with_capacity(rates.len());
    let mut curve_binary = Vec::with_capacity(rates.len());
    let mut curve_input = Vec::with_capacity(rates.len());
    for (i, &rate) in rates.iter().enumerate() {
        let (mut f32_acc, mut int8_acc, mut bin_acc) = (Vec::new(), Vec::new(), Vec::new());
        for trial in 0..trials {
            let plan = FaultPlan::new(0x5EED_0000 + trial, rate);
            let mut memory = clean_memory.clone();
            plan.corrupt_associative(&mut memory, 1);
            f32_acc.push(memory.accuracy(&samples));
            let mut quant = clean_quant.clone();
            plan.perturb_quantized(&mut quant, 2);
            int8_acc.push(quant.accuracy(&samples));
            let mut binary = clean_binary.clone();
            plan.flip_binary_memory(&mut binary, 3);
            bin_acc.push(binary_accuracy(&binary));
        }
        curve_f32.push(mean(&f32_acc));
        curve_int8.push(mean(&int8_acc));
        curve_binary.push(mean(&bin_acc));

        // Input-side corruption: the same per-site rate, applied as
        // salt-and-pepper noise to the test images (one pattern per rate;
        // the whole test set is already an average over samples).
        let policy = Corruption { salt_pepper_prob: rate, ..Corruption::none() };
        let noisy = policy.apply(&test, &mut Rng::new(0xC0FF + i as u64));
        curve_input.push(model.evaluate(&noisy));
        eprintln!(
            "[robustness] rate {rate:.3}: f32 {:.4}, int8 {:.4}, binary {:.4}, input {:.4}",
            curve_f32[i], curve_int8[i], curve_binary[i], curve_input[i],
        );
    }

    let doc = Json::obj(vec![
        ("experiment", Json::str("robustness_sweep")),
        ("dataset", Json::str("synth10")),
        ("scale", Json::str(scale_label)),
        ("teacher", Json::str(teacher_name)),
        ("cut", Json::from(cut)),
        ("hv_dim", Json::from(model.config().hv_dim)),
        ("teacher_accuracy", Json::fixed(f64::from(teacher_acc), 4)),
        ("test_samples", Json::from(samples.len())),
        ("trials", Json::from(trials)),
        ("rates", json_curve(&rates)),
        (
            "curves",
            Json::obj(vec![
                ("f32", json_curve(&curve_f32)),
                ("int8", json_curve(&curve_int8)),
                ("binary", json_curve(&curve_binary)),
                ("input_salt_pepper", json_curve(&curve_input)),
            ]),
        ),
    ]);
    let json = doc.to_string();
    println!("{json}");

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_robustness.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_robustness.json");
    eprintln!("[robustness] wrote {}", out.display());
    if std::fs::write("target/robustness_sweep.json", format!("{json}\n")).is_ok() {
        eprintln!("[robustness] wrote target/robustness_sweep.json");
    }

    if smoke {
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in ["\"experiment\":\"robustness_sweep\"", "\"scale\":\"smoke\"", "\"curves\":"] {
            assert!(json.contains(key), "smoke report missing {key}");
        }
        // A sweep distilled from an untrained teacher measures nothing:
        // the smoke teacher must sit meaningfully above 10-class chance.
        assert!(
            teacher_acc >= 0.2,
            "smoke teacher accuracy {teacher_acc:.4} is not meaningfully above chance (0.1)"
        );
        for curve in [&curve_f32, &curve_int8, &curve_binary, &curve_input] {
            assert_eq!(curve.len(), rates.len(), "curve length mismatch");
            assert!(
                curve.iter().all(|a| (0.0..=1.0).contains(a)),
                "accuracy out of range: {curve:?}"
            );
        }
        assert!(out.is_file(), "BENCH_robustness.json missing at {}", out.display());
        eprintln!("[robustness] smoke OK");
    } else {
        eprintln!(
            "# Shape check vs paper §VI: every deployment form decays gracefully — \
             no panics, and accuracy at the 5% fault rate stays well above chance."
        );
    }
}
