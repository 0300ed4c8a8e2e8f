//! The comparison models of the paper's Fig. 7: VanillaHD, BaselineHD,
//! and the CNN itself, behind one [`Classifier`] interface.

use crate::robust::PipelineError;
use crate::scaler::FeatureScaler;
use crate::symbolizer::{extract, Symbolizer};
use nshd_data::ImageDataset;
use nshd_hdc::{
    bundle_init, AssociativeMemory, BipolarHv, MassTrainer, NonlinearEncoder, RandomProjection,
};
use nshd_nn::{evaluate as nn_evaluate, Model};
use nshd_tensor::Tensor;

/// A trained image classifier that can be scored on a dataset.
pub trait Classifier {
    /// Display name for experiment tables.
    fn name(&self) -> String;

    /// Classification accuracy over a dataset.
    fn evaluate(&mut self, dataset: &ImageDataset) -> f32;
}

/// A [`Classifier`] whose penultimate-layer embedding is exposed — the
/// teacher interface the HD-Glue ensemble (`nshd-glue`) fuses over.
///
/// The embedding is the *raw* flattened activation at the classifier's
/// truncation point (no per-teacher standardisation; consumers fit
/// their own [`FeatureScaler`] so every teacher is normalised on the
/// same data).
pub trait EmbeddingClassifier: Classifier {
    /// Flattened length of one sample's penultimate-layer embedding.
    fn embedding_dim(&self) -> usize;

    /// Penultimate-layer embeddings for a batch of CHW images, as an
    /// `N×E` row-major matrix (immutable eval-mode inference; safe to
    /// call from several threads).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when an image's shape differs
    /// from the network's input shape, and
    /// [`PipelineError::NonFiniteActivation`] when inputs or embeddings
    /// contain NaN/∞.
    fn embed_batch(&self, images: &[Tensor]) -> Result<Tensor, PipelineError>;

    /// Snapshots the extractor as `(teacher clone, cut)` so a serving
    /// head can be built without keeping the classifier alive.
    fn extractor(&self) -> (Model, usize);
}

/// Shared [`EmbeddingClassifier::embed_batch`] implementation:
/// [`extract`] (input checks, one truncated-CNN pass), flattened to
/// `N×E`, with non-finite values rejected.
fn embed_with(teacher: &Model, cut: usize, images: &[Tensor]) -> Result<Tensor, PipelineError> {
    let embedding = teacher.feature_len_at(cut);
    if images.is_empty() {
        return Ok(Tensor::zeros([0, embedding]));
    }
    let feats = extract(teacher, cut, images)?;
    if feats.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(PipelineError::NonFiniteActivation { stage: "embedding" });
    }
    Ok(feats.reshaped([images.len(), embedding])?)
}

/// VanillaHD: the standalone HD model with nonlinear (ID–level) encoding
/// on raw pixels and MASS retraining — no feature extractor at all.
///
/// This is the baseline whose CIFAR performance the paper's introduction
/// quotes as 39.88% / 19.7%.
pub struct VanillaHd {
    encoder: NonlinearEncoder,
    memory: AssociativeMemory,
}

impl VanillaHd {
    /// Trains VanillaHD on raw pixels.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `dim`/`epochs` are zero-ish in a
    /// way that prevents training.
    pub fn train(train: &ImageDataset, dim: usize, epochs: usize, seed: u64) -> Self {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let features = train.sample(0).0.len();
        // Normalised pixels span roughly [-3, 3]; 32 quantisation levels.
        let encoder = NonlinearEncoder::new(features, dim, 32, -3.0, 3.0, seed);
        let samples: Vec<(BipolarHv, usize)> = (0..train.len())
            .map(|i| {
                let (img, label) = train.sample(i);
                (encoder.encode(img.as_slice()), label)
            })
            .collect();
        let mut memory = bundle_init(train.num_classes(), dim, &samples);
        let trainer = MassTrainer::new(0.2);
        for _ in 0..epochs {
            trainer.epoch(&mut memory, &samples);
        }
        VanillaHd { encoder, memory }
    }
}

impl Classifier for VanillaHd {
    fn name(&self) -> String {
        "VanillaHD".into()
    }

    fn evaluate(&mut self, dataset: &ImageDataset) -> f32 {
        let samples: Vec<(BipolarHv, usize)> = (0..dataset.len())
            .map(|i| {
                let (img, label) = dataset.sample(i);
                (self.encoder.encode(img.as_slice()), label)
            })
            .collect();
        self.memory.accuracy(&samples)
    }
}

/// BaselineHD: prior work's CNN-features-into-HD approach (the paper's
/// reference \[9\]) — a truncated extractor whose *raw* flattened features are
/// random-projection encoded (no manifold layer) with plain MASS
/// retraining (no distillation).
pub struct BaselineHd {
    symbolizer: Symbolizer,
    memory: AssociativeMemory,
}

/// Images per truncated-CNN pass when BaselineHD extracts or
/// classifies a dataset.
const CHUNK: usize = 64;

impl BaselineHd {
    /// Trains BaselineHD from a (pre-trained) teacher CNN truncated at
    /// `cut`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, `cut` exceeds the feature stack,
    /// or the teacher fails static verification.
    pub fn train(
        teacher: Model,
        train: &ImageDataset,
        cut: usize,
        dim: usize,
        epochs: usize,
        seed: u64,
    ) -> Self {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        assert!(cut <= teacher.features.len(), "cut {cut} exceeds feature stack");
        // Extract once in bounded chunks, standardise per feature (see
        // `FeatureScaler`), then encode.
        let feats: Vec<Tensor> = train
            .batches(CHUNK)
            .flat_map(|(chunk, _)| {
                let batch =
                    extract(&teacher, cut, &chunk).expect("training images are well-formed");
                (0..chunk.len()).map(move |b| batch.batch_item(b))
            })
            .collect();
        let scaler = FeatureScaler::fit(&feats);
        let projection = RandomProjection::new(teacher.feature_len_at(cut), dim, seed);
        let symbolizer = Symbolizer::new(teacher, cut, scaler, None, &projection)
            .unwrap_or_else(|report| panic!("{report}"));
        let samples: Vec<(BipolarHv, usize)> = feats
            .chunks(CHUNK)
            .flat_map(|chunk| {
                let rows: Vec<Vec<f32>> = chunk
                    .iter()
                    .map(|f| symbolizer.scaler().transform(f).as_slice().to_vec())
                    .collect();
                symbolizer.try_encode(&rows).expect("rows match the projection width")
            })
            .zip(train.labels().iter().copied())
            .collect();
        let mut memory = bundle_init(train.num_classes(), dim, &samples);
        let trainer = MassTrainer::new(0.2);
        for _ in 0..epochs {
            trainer.epoch(&mut memory, &samples);
        }
        BaselineHd { symbolizer, memory }
    }

    /// The truncation point.
    pub fn cut(&self) -> usize {
        self.symbolizer.cut()
    }

    /// Symbolises a batch of CHW images.
    ///
    /// # Panics
    ///
    /// Panics if an image disagrees with the teacher's input shape or
    /// holds non-finite values.
    fn symbolize_batch(&self, images: &[Tensor]) -> Vec<BipolarHv> {
        self.symbolizer.try_symbolize(images).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Symbolises one CHW image.
    ///
    /// # Panics
    ///
    /// Panics if the image disagrees with the teacher's input shape or
    /// holds non-finite values.
    pub fn symbolize(&self, image: &Tensor) -> BipolarHv {
        self.symbolize_batch(std::slice::from_ref(image)).remove(0)
    }
}

impl Classifier for BaselineHd {
    fn name(&self) -> String {
        format!("BaselineHD({}@{})", self.symbolizer.extractor().name, self.cut())
    }

    fn evaluate(&mut self, dataset: &ImageDataset) -> f32 {
        let samples: Vec<(BipolarHv, usize)> = dataset
            .batches(CHUNK)
            .flat_map(|(images, _)| self.symbolize_batch(&images))
            .zip(dataset.labels().iter().copied())
            .collect();
        self.memory.accuracy(&samples)
    }
}

/// The original CNN as a classifier (the paper's "CNN" series).
pub struct CnnClassifier {
    model: Model,
}

impl CnnClassifier {
    /// Wraps a trained CNN.
    pub fn new(model: Model) -> Self {
        CnnClassifier { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

impl Classifier for CnnClassifier {
    fn name(&self) -> String {
        format!("CNN({})", self.model.name)
    }

    fn evaluate(&mut self, dataset: &ImageDataset) -> f32 {
        nn_evaluate(&mut self.model, dataset.images(), dataset.labels(), 32)
    }
}

impl EmbeddingClassifier for CnnClassifier {
    fn embedding_dim(&self) -> usize {
        self.model.feature_len_at(self.model.features.len())
    }

    fn embed_batch(&self, images: &[Tensor]) -> Result<Tensor, PipelineError> {
        // The CNN's penultimate layer is the end of its feature stack
        // (everything before the classifier head).
        embed_with(&self.model, self.model.features.len(), images)
    }

    fn extractor(&self) -> (Model, usize) {
        (self.model.clone(), self.model.features.len())
    }
}

impl Classifier for crate::model::NshdModel {
    fn name(&self) -> String {
        format!("NSHD({}@{})", self.teacher().name, self.config().cut)
    }

    fn evaluate(&mut self, dataset: &ImageDataset) -> f32 {
        NshdModel::evaluate(self, dataset)
    }
}

impl EmbeddingClassifier for crate::model::NshdModel {
    fn embedding_dim(&self) -> usize {
        self.teacher().feature_len_at(self.config().cut)
    }

    fn embed_batch(&self, images: &[Tensor]) -> Result<Tensor, PipelineError> {
        // NSHD's symbolic stage already truncates the teacher at the
        // configured cut; that truncation point is its embedding.
        embed_with(self.teacher(), self.config().cut, images)
    }

    fn extractor(&self) -> (Model, usize) {
        (self.teacher().clone(), self.config().cut)
    }
}

use crate::model::NshdModel;

#[cfg(test)]
mod tests {
    use super::*;
    use nshd_data::{normalize_pair, SynthSpec};
    use nshd_nn::{fit, Adam, Architecture, TrainConfig};
    use nshd_tensor::Rng;

    fn data() -> (ImageDataset, ImageDataset) {
        let (mut train, mut test) = SynthSpec::synth10(31).with_sizes(100, 60).generate();
        normalize_pair(&mut train, &mut test);
        (train, test)
    }

    #[test]
    fn vanilla_hd_is_weak_but_trainable() {
        let (train, test) = data();
        let mut vanilla = VanillaHd::train(&train, 1_000, 3, 7);
        let acc = vanilla.evaluate(&test);
        // On jittered synthetic scenes raw-pixel HD stays far from CNN
        // quality (the paper's §I observation) but above chance.
        assert!(acc < 0.7, "VanillaHD unexpectedly strong: {acc}");
        assert_eq!(vanilla.name(), "VanillaHD");
    }

    #[test]
    fn baseline_hd_uses_extracted_features() {
        let (train, test) = data();
        let mut rng = Rng::new(9);
        let mut teacher = Architecture::EfficientNetB0.build(10, &mut rng);
        let mut opt = Adam::new(2e-3, 1e-5);
        fit(
            &mut teacher,
            train.images(),
            train.labels(),
            &mut opt,
            &TrainConfig { epochs: 3, batch_size: 32, seed: 4, ..TrainConfig::default() },
        );
        let mut baseline = BaselineHd::train(teacher, &train, 8, 1_000, 3, 11);
        let acc = baseline.evaluate(&test);
        assert!(acc > 0.15, "BaselineHD accuracy {acc}");
        assert!(baseline.name().starts_with("BaselineHD"));
        assert_eq!(baseline.cut(), 8);
    }

    #[test]
    fn baseline_hd_batched_path_is_bit_identical_to_per_sample_reference() {
        let (train, test) = data();
        let mut teacher = Architecture::EfficientNetB0.build(10, &mut Rng::new(9));
        // One epoch moves the batch-norm running statistics off their
        // initial values, so the eval path really normalises.
        let config = TrainConfig { epochs: 1, batch_size: 32, seed: 4, ..TrainConfig::default() };
        fit(&mut teacher, train.images(), train.labels(), &mut Adam::new(2e-3, 1e-5), &config);
        let (cut, dim, epochs, seed) = (8, 1_000, 2, 11);

        // The per-sample `&mut` reference: one eval-mode forward per
        // image, a scaler fitted over the same training images, the
        // per-sample projection encoder, and MASS retraining.
        let mut reference = teacher.clone();
        let mut features = |image: Tensor| {
            let batched = image.reshape([1, 3, 32, 32]).unwrap();
            reference.features_at(&batched, cut, nshd_nn::Mode::Eval).batch_item(0)
        };
        let train_feats: Vec<Tensor> =
            (0..train.len()).map(|i| features(train.sample(i).0)).collect();
        let test_feats: Vec<Tensor> = (0..test.len()).map(|i| features(test.sample(i).0)).collect();
        let scaler = FeatureScaler::fit(&train_feats);
        let projection = RandomProjection::new(teacher.feature_len_at(cut), dim, seed);
        let encode = |f: &Tensor| projection.encode(scaler.transform(f).as_slice());
        let samples: Vec<(BipolarHv, usize)> =
            train_feats.iter().map(encode).zip(train.labels().iter().copied()).collect();
        let mut memory = bundle_init(train.num_classes(), dim, &samples);
        for _ in 0..epochs {
            MassTrainer::new(0.2).epoch(&mut memory, &samples);
        }

        let baseline = BaselineHd::train(teacher, &train, cut, dim, epochs, seed);
        assert_eq!(baseline.memory, memory, "trained class memory diverged");
        let want: Vec<BipolarHv> = test_feats.iter().map(encode).collect();
        let (images, _) = test.batches(60).next().unwrap();
        assert_eq!(images.len(), 60);
        assert_eq!(baseline.symbolizer.try_symbolize(&images).unwrap(), want);
        for (image, hv) in images.iter().zip(&want) {
            assert_eq!(&baseline.symbolize(image), hv);
        }
    }

    #[test]
    fn cnn_classifier_scores_its_model() {
        let (train, test) = data();
        let mut rng = Rng::new(10);
        let mut teacher = Architecture::MobileNetV2.build(10, &mut rng);
        let mut opt = Adam::new(2e-3, 1e-5);
        fit(
            &mut teacher,
            train.images(),
            train.labels(),
            &mut opt,
            &TrainConfig { epochs: 3, batch_size: 32, seed: 5, ..TrainConfig::default() },
        );
        let mut cnn = CnnClassifier::new(teacher);
        let acc = cnn.evaluate(&test);
        assert!(acc > 0.12, "CNN accuracy {acc}");
        assert!(cnn.name().starts_with("CNN("));
    }
}
