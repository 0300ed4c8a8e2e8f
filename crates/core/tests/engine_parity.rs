//! Serving-parity gate: a one-head state with weight 1.0, assembled from
//! a model's teacher, cut, scaler, manifold, projection and memory, must
//! predict exactly as the NSHD engine built from the same model, and the
//! pre-encoded query engine fed that engine's hypervectors must too, in
//! every scoring mode, at 1 and 4 threads, with the SIMD micro-kernels
//! off and on, with the manifold learner off and on.

use nshd_core::{Engine, EngineState, Head, NshdConfig, NshdModel, Symbolizer};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_hdc::{HdQuery, ScoringMode};
use nshd_nn::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential};
use nshd_tensor::{par, set_simd_enabled, simd_enabled, Rng, Tensor};
use std::sync::Arc;

const MODES: [ScoringMode; 3] = [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed];

fn tiny_teacher(rng: &mut Rng) -> Model {
    let features = Sequential::new()
        .with(Conv2d::new(3, 4, 3, 1, 1, rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier = Sequential::new().with(Flatten::new()).with(Linear::new(4 * 16 * 16, 10, rng));
    Model {
        name: "tiny".into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    }
}

fn seeded_model(use_manifold: bool) -> (NshdModel, Vec<Tensor>) {
    let (mut train, mut test) = SynthSpec::synth10(31).with_sizes(40, 24).generate();
    normalize_pair(&mut train, &mut test);
    let cfg = NshdConfig::new(3)
        .with_hv_dim(512)
        .with_manifold(use_manifold)
        .with_manifold_features(24)
        .with_retrain_epochs(1)
        .with_seed(4);
    let model = NshdModel::train(tiny_teacher(&mut Rng::new(8)), &train, cfg);
    let images = (0..test.len()).map(|i| test.sample(i).0).collect();
    (model, images)
}

#[test]
fn one_head_state_and_pre_encoded_queries_predict_as_the_nshd_engine() {
    for use_manifold in [false, true] {
        assert_one_head_parity(use_manifold);
    }
}

fn assert_one_head_parity(use_manifold: bool) {
    let (model, images) = seeded_model(use_manifold);
    let symbolizer = Symbolizer::new(
        model.teacher().clone(),
        model.config().cut,
        model.scaler().clone(),
        model.manifold().cloned(),
        model.projection(),
    )
    .expect("the model's stages verify as a head");
    let head = Arc::new(Head::new("tiny", symbolizer, 1.0));
    let memory = Arc::new(model.memory().clone());
    let was_enabled = simd_enabled();
    for threads in [1, 4] {
        for simd in [false, true] {
            set_simd_enabled(simd);
            par::with_threads(threads, || {
                for mode in MODES {
                    let case = format!(
                        "manifold={use_manifold} threads={threads} simd={simd} mode={}",
                        mode.name()
                    );
                    let nshd = Engine::try_from(&model).expect("the model verifies");
                    nshd.set_scoring(mode).expect("scoring recompiles");
                    let nshd = nshd.state();
                    let want = nshd.predict_batch(&images).expect("the engine predicts");

                    let glue = EngineState::new(vec![Arc::clone(&head)], Arc::clone(&memory), mode);
                    assert_eq!(glue.predict_batch(&images).expect("glue predicts"), want, "{case}");

                    let queries: Vec<HdQuery> = nshd
                        .encode(&images)
                        .expect("the engine encodes")
                        .iter()
                        .map(|hv| HdQuery::Packed(hv.to_packed()))
                        .collect();
                    let deploy =
                        EngineState::new(Vec::new(), Arc::new(model.memory().clone()), mode);
                    let deploy =
                        Engine::<HdQuery>::new(deploy).expect("the memory verifies").state();
                    assert_eq!(
                        deploy.predict_batch(&queries).expect("queries score"),
                        want,
                        "{case}"
                    );
                }
            });
        }
    }
    set_simd_enabled(was_enabled);
}
