//! End-to-end cross-thread determinism: the full NSHD pipeline must
//! produce bit-identical results at any `nshd_tensor::par` worker
//! count.
//!
//! The kernel-level guarantee (disjoint output rows + serial per-row
//! accumulation order) is proven in `crates/tensor/tests/determinism.rs`;
//! this suite proves it composes through the layers that ride on those
//! kernels: conv2d forward *and* backward, the batched HD encoder, the
//! micro-batched trainer reduction, and `EngineState::predict_batch`.

use nshd_core::{Engine, NshdConfig, NshdModel};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_hdc::RandomProjection;
use nshd_nn::{
    fit, ActKind, Activation, Adam, Conv2d, Flatten, Layer, Linear, MaxPool2d, Mode, Model,
    Sequential, TrainConfig,
};
use nshd_tensor::{par, Rng, Tensor};

const THREADS: [usize; 3] = [2, 4, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Conv2d forward (training mode) and backward, rebuilt from the same
/// seed per run so layer state is identical; the conv GEMMs sit well
/// above the parallel FLOP threshold at this size.
#[test]
fn conv2d_forward_and_backward_are_thread_invariant() {
    let run = || {
        let mut rng = Rng::new(41);
        let mut conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn([4, 3, 32, 32], |i| ((i % 113) as f32 - 56.0) / 56.0);
        let y = conv.forward(&x, Mode::Train);
        let grad = Tensor::from_fn(y.dims(), |i| ((i % 29) as f32 - 14.0) / 14.0);
        let dx = conv.backward(&grad);
        let grads: Vec<Vec<u32>> = conv.params().iter().map(|p| bits(&p.grad)).collect();
        (bits(&y), bits(&dx), grads)
    };
    let baseline = par::with_threads(1, run);
    for t in THREADS {
        let parallel = par::with_threads(t, run);
        assert_eq!(baseline.0, parallel.0, "conv2d forward diverged at {t} workers");
        assert_eq!(baseline.1, parallel.1, "conv2d input grad diverged at {t} workers");
        assert_eq!(baseline.2, parallel.2, "conv2d param grads diverged at {t} workers");
    }
}

/// Batched HD encode: both the raw projection GEMM and the
/// sign-and-pack stage (256 × 2048 crosses the pack threshold so
/// `par_map` engages) must be worker-count independent.
#[test]
fn batch_encoder_is_thread_invariant() {
    let proj = RandomProjection::new(64, 2_048, 7);
    let enc = proj.batch_encoder();
    let mut rng = Rng::new(13);
    let values = Tensor::from_fn([256, 64], |_| rng.uniform_in(-3.0, 3.0));

    let raw_baseline = par::with_threads(1, || bits(&enc.encode_raw_batch(&values)));
    let hv_baseline = par::with_threads(1, || enc.encode_batch(&values));
    // The packed hypervectors must also agree with the one-sample path.
    for (i, hv) in hv_baseline.iter().enumerate() {
        let row = &values.as_slice()[i * 64..(i + 1) * 64];
        assert_eq!(*hv, proj.encode(row), "batch row {i} != single-sample encode");
    }
    for t in THREADS {
        let raw = par::with_threads(t, || bits(&enc.encode_raw_batch(&values)));
        let hvs = par::with_threads(t, || enc.encode_batch(&values));
        assert_eq!(raw_baseline, raw, "encode_raw_batch diverged at {t} workers");
        assert_eq!(hv_baseline, hvs, "encode_batch diverged at {t} workers");
    }
}

fn small_model(rng: &mut Rng) -> Model {
    let features = Sequential::new()
        .with(Conv2d::new(3, 8, 3, 1, 1, rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier = Sequential::new().with(Flatten::new()).with(Linear::new(8 * 16 * 16, 10, rng));
    Model {
        name: "par-pipeline".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    }
}

/// Micro-batched gradient accumulation (`grad_chunk`): the fixed
/// chunk boundaries and ascending fixed-order reduction make the final
/// trained weights bit-identical at every worker count.
#[test]
fn trainer_grad_chunk_is_thread_invariant() {
    let (train, _test) = SynthSpec::synth10(19).with_sizes(32, 8).generate();
    let run = || {
        let mut rng = Rng::new(5);
        let mut model = small_model(&mut rng);
        fit(
            &mut model,
            train.images(),
            train.labels(),
            &mut Adam::new(1e-3, 1e-5),
            &TrainConfig {
                epochs: 2,
                batch_size: 16,
                seed: 23,
                grad_chunk: Some(4),
                ..TrainConfig::default()
            },
        );
        let weights: Vec<Vec<u32>> = model.params_mut().iter().map(|p| bits(&p.value)).collect();
        weights
    };
    let baseline = par::with_threads(1, run);
    for t in THREADS {
        let parallel = par::with_threads(t, run);
        assert_eq!(baseline, parallel, "trained weights diverged at {t} workers");
    }
}

/// The full engine: CNN feature extraction, HD encode and associative
/// scoring, batched. Predictions must match at every worker count.
#[test]
fn engine_predict_batch_is_thread_invariant() {
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
        name: "par-engine".into(),
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
    let engine = Engine::try_from(&model).expect("tiny model passes verification");
    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();

    let baseline = par::with_threads(1, || engine.state().predict_batch(&images).unwrap());
    assert_eq!(baseline.len(), images.len());
    for t in THREADS {
        let parallel = par::with_threads(t, || engine.state().predict_batch(&images).unwrap());
        assert_eq!(baseline, parallel, "predict_batch diverged at {t} workers");
    }
}
