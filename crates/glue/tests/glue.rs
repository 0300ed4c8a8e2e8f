//! Fuse-time semantics of the HD-Glue ensemble: determinism, head
//! weighting, typed rejections, live class growth, and fused accuracy
//! on a learnable task.

use nshd_core::{CnnClassifier, EmbeddingClassifier, Engine, PipelineError};
use nshd_data::{normalize_pair, ImageDataset, SynthSpec};
use nshd_glue::{GlueConfig, GlueEnsemble};
use nshd_hdc::AssociativeMemory;
use nshd_nn::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential};
use nshd_tensor::{Rng, Tensor};

fn tiny_cnn(name: &str, width: usize, seed: u64) -> CnnClassifier {
    let mut rng = Rng::new(seed);
    let features = Sequential::new()
        .with(Conv2d::new(3, width, 3, 1, 1, &mut rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier =
        Sequential::new().with(Flatten::new()).with(Linear::new(width * 16 * 16, 10, &mut rng));
    CnnClassifier::new(Model {
        name: name.into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    })
}

fn datasets() -> (ImageDataset, ImageDataset) {
    let (mut train, mut test) = SynthSpec::synth10(21).with_sizes(48, 16).generate();
    normalize_pair(&mut train, &mut test);
    (train, test)
}

fn config() -> GlueConfig {
    GlueConfig { hv_dim: 256, seed: 7, correction_epochs: 3, learning_rate: 0.2, embed_chunk: 16 }
}

#[test]
fn fuse_is_deterministic() {
    let (train, test) = datasets();
    let teachers = [tiny_cnn("a", 3, 5), tiny_cnn("b", 5, 6)];
    let refs: Vec<&dyn EmbeddingClassifier> =
        teachers.iter().map(|t| t as &dyn EmbeddingClassifier).collect();
    let first = GlueEnsemble::fuse(&refs, &train, &config()).expect("fuse");
    let second = GlueEnsemble::fuse(&refs, &train, &config()).expect("fuse");
    for c in 0..first.num_classes() {
        assert_eq!(first.memory().class(c), second.memory().class(c), "class {c} diverged");
    }
    assert_eq!(first.head_reports(), second.head_reports());
    assert_eq!(first.correction(), second.correction());

    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    assert_eq!(
        first.predict_batch(&images).expect("predict"),
        second.predict_batch(&images).expect("predict"),
    );
}

#[test]
fn head_weights_equal_standalone_accuracy_and_heads_verify() {
    let (train, _) = datasets();
    let teachers = [tiny_cnn("a", 3, 5), tiny_cnn("b", 5, 6)];
    let refs: Vec<&dyn EmbeddingClassifier> =
        teachers.iter().map(|t| t as &dyn EmbeddingClassifier).collect();
    let ensemble = GlueEnsemble::fuse(&refs, &train, &config()).expect("fuse");
    assert_eq!(ensemble.heads().len(), 2);
    assert_eq!(ensemble.head_reports().len(), 2);
    for (head, report) in ensemble.heads().iter().zip(ensemble.head_reports()) {
        assert_eq!(head.name(), report.name);
        assert_eq!(head.weight(), report.standalone_accuracy);
        assert!(report.weight > 0.0, "a fused teacher must carry weight");
    }
    ensemble.verify().expect("a freshly fused ensemble verifies");
    assert!(!ensemble.correction().is_empty(), "error correction must report its epochs");
}

#[test]
fn fuse_rejects_empty_teachers_and_empty_fusion_set() {
    let (train, _) = datasets();
    let err = GlueEnsemble::fuse(&[], &train, &config()).expect_err("no teachers");
    assert!(matches!(err, PipelineError::Runtime { stage: "glue", .. }), "got: {err}");

    let teacher = tiny_cnn("a", 3, 5);
    let refs: Vec<&dyn EmbeddingClassifier> = vec![&teacher];
    let empty = ImageDataset::new(Tensor::zeros([0, 3, 32, 32]), Vec::new(), 10);
    let err = GlueEnsemble::fuse(&refs, &empty, &config()).expect_err("empty fusion set");
    assert!(matches!(err, PipelineError::EmptyBatch), "got: {err}");
}

#[test]
fn config_validation_rejects_unusable_knobs() {
    let mut bad = config();
    bad.hv_dim = 0;
    assert!(bad.validate().is_err());
    let mut bad = config();
    bad.learning_rate = -1.0;
    assert!(bad.validate().is_err());
    let mut bad = config();
    bad.learning_rate = f32::NAN;
    assert!(bad.validate().is_err());
    let mut bad = config();
    bad.embed_chunk = 0;
    assert!(bad.validate().is_err());
}

/// A serving engine over the ensemble's heads and consensus memory.
fn serve(ensemble: &GlueEnsemble) -> Engine<Tensor> {
    Engine::new(ensemble.state().clone()).expect("a fused ensemble verifies")
}

#[test]
fn engine_rejects_incompatible_swaps() {
    let (train, _) = datasets();
    let teachers = [tiny_cnn("a", 3, 5), tiny_cnn("b", 5, 6)];
    let refs: Vec<&dyn EmbeddingClassifier> =
        teachers.iter().map(|t| t as &dyn EmbeddingClassifier).collect();
    let ensemble = GlueEnsemble::fuse(&refs, &train, &config()).expect("fuse");
    let engine = serve(&ensemble);

    // Wrong HD dimension: rejected before publication, traffic unharmed.
    let err = engine
        .swap_memory(AssociativeMemory::new(10, 64))
        .expect_err("dimension mismatch must be rejected");
    assert!(matches!(err, PipelineError::Analysis(_)), "got: {err}");
    assert_eq!(engine.state().memory().dim(), 256, "a rejected swap must not publish");

    // Out-of-range head index: typed runtime error.
    let spare = engine.state().heads()[0].with_weight(0.5);
    let err = engine.swap_head(9, spare).expect_err("index out of range");
    assert!(matches!(err, PipelineError::Runtime { stage: "glue", .. }), "got: {err}");
}

#[test]
fn heads_with_non_finite_batch_norm_statistics_are_rejected() {
    use nshd_core::{FeatureScaler, Head, Symbolizer};
    use nshd_hdc::RandomProjection;
    use nshd_nn::{Architecture, Layer};

    // A teacher whose batch-norm running statistics went NaN would make
    // every later batch fail with a non-finite activation; it must not
    // become a head that `swap_head` could publish.
    let mut teacher = Architecture::MobileNetV2.build(10, &mut Rng::new(3));
    let mut state = Vec::new();
    teacher.features.collect_state(&mut state);
    assert!(!state.is_empty(), "MobileNetV2 carries batch-norm statistics");
    for stats in &mut state {
        stats.fill(f32::NAN);
    }
    teacher.features.restore_state(&mut state.into_iter());
    let cut = teacher.features.len();
    let embedding = teacher.feature_len_at(cut);
    let scaler = FeatureScaler::from_raw(vec![0.0; embedding], vec![1.0; embedding])
        .expect("consistent statistics");
    let projection = RandomProjection::new(embedding, 256, 1);
    match Symbolizer::new(teacher, cut, scaler, None, &projection)
        .map(|symbolizer| Head::new("nan-bn", symbolizer, 1.0))
        .map_err(PipelineError::from)
    {
        Err(PipelineError::Analysis(report)) => {
            assert!(report.to_string().contains("non-finite"), "{report}");
        }
        Err(other) => panic!("expected a static-analysis rejection, got: {other}"),
        Ok(_) => panic!("a head with NaN batch-norm statistics was accepted"),
    }
}

#[test]
fn add_class_from_teaches_a_new_class_live() {
    let (train, test) = datasets();
    let teachers = [tiny_cnn("a", 3, 5), tiny_cnn("b", 5, 6)];
    let refs: Vec<&dyn EmbeddingClassifier> =
        teachers.iter().map(|t| t as &dyn EmbeddingClassifier).collect();
    let ensemble = GlueEnsemble::fuse(&refs, &train, &config()).expect("fuse");
    let engine = serve(&ensemble);
    assert_eq!(engine.num_classes(), 10);

    // The pinned pre-growth snapshot must be isolated from the update.
    let pinned = engine.state();

    // Teach a brand-new "class" from a handful of examples; the grown
    // memory must claim those exact examples for the new index.
    let examples: Vec<Tensor> = (0..4).map(|i| test.sample(i).0).collect();
    let index = engine.add_class_from(&examples).expect("growth succeeds");
    assert_eq!(index, 10);
    assert_eq!(engine.num_classes(), 11);
    assert_eq!(pinned.num_classes(), 10, "in-flight snapshots must not observe growth");

    let preds = engine.state().predict_batch(&examples).expect("predict");
    assert!(
        preds.iter().all(|&p| p == index),
        "the taught examples must score highest on the new class, got {preds:?}"
    );

    // Plain add_class grows an empty row.
    assert_eq!(engine.add_class(), 11);
    assert_eq!(engine.num_classes(), 12);
    engine.state().verify().expect("a grown state still verifies");

    let err = engine.add_class_from(&[]).expect_err("empty example list");
    assert!(matches!(err, PipelineError::EmptyBatch), "got: {err}");
}

#[test]
fn fused_accuracy_beats_or_matches_best_single_teacher_bundle() {
    // On the learnable synthetic task the consensus memory must not be
    // worse than the best standalone per-teacher bundle (the bench
    // asserts the same against full teachers; this is the cheap tier-1
    // version with untrained extractors as random feature maps).
    let (train, _) = datasets();
    let teachers = [tiny_cnn("a", 3, 5), tiny_cnn("b", 5, 6), tiny_cnn("c", 4, 9)];
    let refs: Vec<&dyn EmbeddingClassifier> =
        teachers.iter().map(|t| t as &dyn EmbeddingClassifier).collect();
    let ensemble = GlueEnsemble::fuse(&refs, &train, &config()).expect("fuse");
    let fused_train = ensemble.accuracy(&train).expect("accuracy");
    let best_single =
        ensemble.head_reports().iter().map(|r| r.standalone_accuracy).fold(0.0f32, f32::max);
    assert!(
        fused_train >= best_single,
        "fused train accuracy {fused_train} fell below best single {best_single}"
    );
}
