//! End-to-end determinism: for a seeded trained NSHD model, predictions
//! served through the batched runtime must exactly match per-sample
//! `NshdModel::predict`, for any kernel thread count and batch size.

use nshd_core::{Engine, NshdConfig, NshdModel};
use nshd_data::{normalize_pair, ImageDataset, SynthSpec};
use nshd_nn::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential};
use nshd_runtime::{InferenceRuntime, RuntimeConfig};
use nshd_tensor::{par, Rng, Tensor};
use std::sync::Arc;

fn trained_model() -> (NshdModel, ImageDataset) {
    let (mut train, mut test) = SynthSpec::synth10(33).with_sizes(40, 24).generate();
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
fn batched_runtime_matches_sequential_predict_exactly() {
    let (model, test) = trained_model();
    let engine = Arc::new(Engine::try_from(&model).expect("trained model must verify"));
    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    let expected: Vec<usize> = images.iter().map(|img| model.predict(img)).collect();

    for (threads, max_batch) in [(1usize, 1usize), (1, 8), (4, 4), (4, 16)] {
        // The runtime's kernels run at the thread count seen here.
        let runtime = par::with_threads(threads, || {
            InferenceRuntime::new(
                engine.clone(),
                RuntimeConfig { max_batch, ..RuntimeConfig::default() },
            )
        })
        .expect("verified engine must serve");
        let handles: Vec<_> =
            images.iter().map(|img| runtime.submit(img.clone()).unwrap()).collect();
        let served: Vec<usize> =
            handles.into_iter().map(|h| h.wait().expect("batch must succeed")).collect();
        assert_eq!(
            served, expected,
            "threads={threads} max_batch={max_batch}: batched predictions diverged"
        );
        let metrics = runtime.shutdown();
        assert_eq!(metrics.requests as usize, images.len());
        assert!(metrics.p99_us >= metrics.p50_us);
    }
}
