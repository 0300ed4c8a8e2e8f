//! The NSHD model and its training procedure.
//!
//! Training follows the paper end to end: truncate a *trained* CNN at the
//! configured cut, cache extracted features and full-teacher logits,
//! initialise the manifold learner and the random projection, bundle-init
//! the class memory, then run knowledge-distillation retraining
//! (Algorithm 1) while updating the manifold layer with errors decoded
//! through the HD encoder (§V-C).

use crate::config::NshdConfig;
use crate::manifold::ManifoldLearner;
use crate::scaler::FeatureScaler;
use nshd_data::ImageDataset;
use nshd_hdc::{feature_gradient, AssociativeMemory, BipolarHv, DistillTrainer, RandomProjection};
use nshd_nn::{Mode, Model};
use nshd_tensor::{Rng, Tensor};

/// Per-epoch retraining statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Training accuracy measured before that epoch's updates.
    pub train_accuracy: f32,
}

/// A trained NSHD model: truncated CNN extractor, manifold learner,
/// random-projection encoder, and retrained class memory.
#[derive(Clone)]
pub struct NshdModel {
    teacher: Model,
    config: NshdConfig,
    scaler: FeatureScaler,
    manifold: Option<ManifoldLearner>,
    projection: RandomProjection,
    memory: AssociativeMemory,
    history: Vec<RetrainEpoch>,
}

// Internal raw accessors used by the serialization module.
impl NshdModel {
    pub(crate) fn projection_seed(&self) -> u64 {
        self.projection.seed()
    }

    pub(crate) fn scaler_raw(&self) -> (Vec<f32>, Vec<f32>) {
        self.scaler.raw()
    }

    pub(crate) fn set_scaler_raw(
        &mut self,
        mean: Vec<f32>,
        inv_std: Vec<f32>,
    ) -> Result<(), String> {
        self.scaler = FeatureScaler::from_raw(mean, inv_std)?;
        Ok(())
    }

    pub(crate) fn manifold_raw(&self) -> Option<(Vec<f32>, Vec<f32>)> {
        self.manifold.as_ref().map(|m| m.weights_raw())
    }

    pub(crate) fn set_manifold_raw(
        &mut self,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Result<(), String> {
        match &mut self.manifold {
            Some(m) => m.set_weights_raw(weight, bias),
            None => Err("model has no manifold layer".into()),
        }
    }

    pub(crate) fn set_memory_raw(&mut self, classes: Vec<Vec<f32>>) {
        self.memory = AssociativeMemory::from_classes(classes);
    }

    pub(crate) fn teacher_mut_internal(&mut self) -> &mut Model {
        &mut self.teacher
    }
}

impl NshdModel {
    /// Trains an NSHD model from a (pre-trained) teacher CNN.
    ///
    /// This is the convenience wrapper over [`NshdTrainer`]: prepare,
    /// run every retraining epoch, finish.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the cut exceeds the
    /// teacher's feature stack, or the dataset is empty.
    pub fn train(teacher: Model, train: &ImageDataset, config: NshdConfig) -> NshdModel {
        let mut trainer = NshdTrainer::prepare(teacher, train, config);
        for _ in 0..trainer.config().retrain_epochs {
            trainer.epoch();
        }
        trainer.finish()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &NshdConfig {
        &self.config
    }

    /// The retraining history (one entry per epoch).
    pub fn history(&self) -> &[RetrainEpoch] {
        &self.history
    }

    /// The class memory.
    pub fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    /// Mutable class memory — the hook fault-injection experiments and
    /// the [`DivergenceGuard`](crate::DivergenceGuard) tests use to
    /// manipulate deployed state directly.
    pub fn memory_mut(&mut self) -> &mut AssociativeMemory {
        &mut self.memory
    }

    /// The per-feature standardisation fitted on the training set.
    pub fn scaler(&self) -> &FeatureScaler {
        &self.scaler
    }

    /// The projection encoder.
    pub fn projection(&self) -> &RandomProjection {
        &self.projection
    }

    /// The manifold learner, if enabled.
    pub fn manifold(&self) -> Option<&ManifoldLearner> {
        self.manifold.as_ref()
    }

    /// The underlying teacher CNN (still holding all layers).
    pub fn teacher(&self) -> &Model {
        &self.teacher
    }

    /// Symbolises one image (CHW) into its query hypervector.
    ///
    /// Runs the evaluation-mode `&self` inference path, so a trained
    /// model can be shared across threads without cloning its memory.
    pub fn symbolize(&self, image: &Tensor) -> BipolarHv {
        let batched = image
            .reshape([1, image.dims()[0], image.dims()[1], image.dims()[2]])
            .expect("CHW image");
        let feats = self.teacher.infer_features_at(&batched, self.config.cut);
        let feat = self.scaler.transform(&feats.batch_item(0));
        let values = match &self.manifold {
            Some(m) => m.forward(&feat).1,
            None => feat.as_slice().to_vec(),
        };
        self.projection.encode(&values)
    }

    /// Predicts the class of one image (CHW).
    pub fn predict(&self, image: &Tensor) -> usize {
        let _sp = nshd_obs::span("request");
        let hv = self.symbolize(image);
        self.memory.predict(&hv)
    }

    /// The `k` most similar classes for one image, best first, with
    /// their cosine similarities — the ranked symbolic answer a
    /// downstream reasoner consumes.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the class count.
    pub fn predict_top_k(&self, image: &Tensor, k: usize) -> Vec<(usize, f32)> {
        assert!(k >= 1 && k <= self.memory.num_classes(), "invalid k = {k}");
        let hv = self.symbolize(image);
        let mut scored: Vec<(usize, f32)> =
            self.memory.similarities(&hv).into_iter().enumerate().collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite similarities"));
        scored.truncate(k);
        scored
    }

    /// Symbolises a whole dataset into `(hypervector, label)` pairs (used
    /// by evaluation and the t-SNE explainability analysis).
    pub fn symbolize_dataset(&self, dataset: &ImageDataset) -> Vec<(BipolarHv, usize)> {
        (0..dataset.len())
            .map(|i| {
                let (img, label) = dataset.sample(i);
                (self.symbolize(&img), label)
            })
            .collect()
    }

    /// Classification accuracy over a dataset.
    pub fn evaluate(&self, dataset: &ImageDataset) -> f32 {
        let samples = self.symbolize_dataset(dataset);
        self.memory.accuracy(&samples)
    }
}

impl std::fmt::Debug for NshdModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NshdModel")
            .field("teacher", &self.teacher.name)
            .field("cut", &self.config.cut)
            .field("hv_dim", &self.config.hv_dim)
            .field("manifold", &self.manifold.is_some())
            .field("classes", &self.memory.num_classes())
            .finish()
    }
}

/// Step-wise NSHD training, exposing per-epoch state for the experiments
/// that need it (Fig. 8's KD ablation, Fig. 11's first-vs-last-iteration
/// t-SNE).
#[derive(Clone)]
pub struct NshdTrainer {
    model: NshdModel,
    distill: DistillTrainer,
    /// Cached extractor outputs, one CHW tensor per training sample.
    features: Vec<Tensor>,
    teacher_logits: Vec<Vec<f32>>,
    labels: Vec<usize>,
    epoch_index: usize,
    /// Decoded gradients are scaled by `D/√F̂` to undo the 1/D decoding
    /// attenuation, making `manifold_lr` magnitude-meaningful.
    gradient_scale: f32,
}

impl NshdTrainer {
    /// Extracts features and teacher logits, initialises the manifold,
    /// projection, and bundle-initialised class memory.
    ///
    /// # Panics
    ///
    /// Panics if static verification ([`crate::verify_teacher`]) rejects
    /// the teacher/configuration pair (invalid dimensions, a cut that
    /// exceeds the teacher's feature stack, inconsistent layer shapes,
    /// batch-norm not eval-ready) or the dataset is empty. See
    /// [`try_prepare`](NshdTrainer::try_prepare) for the non-panicking
    /// entry point.
    pub fn prepare(mut teacher: Model, train: &ImageDataset, config: NshdConfig) -> Self {
        let _sp = nshd_obs::span("prepare");
        config.validate();
        if let Err(report) = crate::verify::verify_teacher(&teacher, &config) {
            panic!("{report}");
        }
        assert!(!train.is_empty(), "cannot train NSHD on an empty dataset");
        let num_classes = train.num_classes();
        let mut rng = Rng::new(config.seed);

        // Cache extracted features and full-teacher logits in one pass.
        let mut features = Vec::with_capacity(train.len());
        let mut teacher_logits = Vec::with_capacity(train.len());
        let mut labels = Vec::with_capacity(train.len());
        const BATCH: usize = 32;
        let mut index = 0usize;
        while index < train.len() {
            let end = (index + BATCH).min(train.len());
            let imgs: Vec<Tensor> = (index..end).map(|i| train.sample(i).0).collect();
            let batch = Tensor::stack(&imgs).expect("non-empty batch");
            let feats = teacher.features_at(&batch, config.cut, Mode::Eval);
            let logits = teacher.logits_from_features(&feats, config.cut, Mode::Eval);
            for b in 0..(end - index) {
                features.push(feats.batch_item(b));
                let row = logits.batch_item(b);
                teacher_logits.push(row.as_slice().to_vec());
                labels.push(train.sample(index + b).1);
            }
            index = end;
        }

        // Standardise the extracted features: without per-feature scaling
        // a few dominant channels collapse every encoding onto the same
        // hypervector (see `FeatureScaler`).
        let scaler = FeatureScaler::fit(&features);
        for feat in &mut features {
            scaler.apply(feat);
        }

        let feat_shape = teacher.feature_shape_at(config.cut);
        let manifold = if config.use_manifold {
            Some(ManifoldLearner::new(&feat_shape, config.manifold_features, &mut rng))
        } else {
            None
        };
        let encode_width = match &manifold {
            Some(m) => m.out_features(),
            None => feat_shape.iter().product(),
        };
        let projection = RandomProjection::new(encode_width, config.hv_dim, rng.next_u64());

        // Bundle-initialise the class memory from the initial encodings.
        let mut memory = AssociativeMemory::new(num_classes, config.hv_dim);
        for (feat, &label) in features.iter().zip(&labels) {
            let values = match &manifold {
                Some(m) => m.forward(feat).1,
                None => feat.as_slice().to_vec(),
            };
            memory.bundle(label, &projection.encode(&values));
        }

        let distill = DistillTrainer::new(config.distill.clone());
        let gradient_scale = config.hv_dim as f32 / (encode_width as f32).sqrt();
        let model = NshdModel {
            teacher,
            config,
            scaler,
            manifold,
            projection,
            memory,
            history: Vec::new(),
        };
        NshdTrainer {
            model,
            distill,
            features,
            teacher_logits,
            labels,
            epoch_index: 0,
            gradient_scale,
        }
    }

    /// The configuration being trained.
    pub fn config(&self) -> &NshdConfig {
        &self.model.config
    }

    /// Replaces the distillation hyperparameters mid-run. Combined with
    /// `Clone`, this lets hyperparameter sweeps (the paper's Fig. 9 grid)
    /// reuse one expensive feature-extraction pass across every (t, α)
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DistillTrainer::new`]).
    pub fn set_distill_config(&mut self, distill: nshd_hdc::DistillConfig) {
        self.model.config.distill = distill.clone();
        self.distill = DistillTrainer::new(distill);
    }

    /// Number of cached training samples.
    pub fn num_samples(&self) -> usize {
        self.labels.len()
    }

    /// Mutable access to the in-training model — used by experiments that
    /// snapshot symbolisations of *held-out* data between epochs
    /// (Fig. 11). The returned model is fully functional; mutating its
    /// memory mid-training is the caller's responsibility.
    pub fn model_mut(&mut self) -> &mut NshdModel {
        &mut self.model
    }

    /// Symbolises the cached training set under the *current* manifold
    /// and memory — Fig. 11 snapshots this at the first and final
    /// iteration.
    pub fn symbolize_training_set(&self) -> Vec<(BipolarHv, usize)> {
        self.features
            .iter()
            .zip(&self.labels)
            .map(|(feat, &label)| {
                let values = match &self.model.manifold {
                    Some(m) => m.forward(feat).1,
                    None => feat.as_slice().to_vec(),
                };
                (self.model.projection.encode(&values), label)
            })
            .collect()
    }

    /// Runs one retraining epoch (Algorithm 1 plus the manifold update)
    /// and returns the pre-update training accuracy.
    pub fn epoch(&mut self) -> f32 {
        let _sp = nshd_obs::span("epoch");
        let mut correct = 0usize;
        let mut memory_updates = 0u64;
        let mut update_l1 = 0.0f64;
        for i in 0..self.labels.len() {
            let label = self.labels[i];
            let feat = &self.features[i];
            let (pooled, values) = match &self.model.manifold {
                Some(m) => {
                    let (p, v) = m.forward(feat);
                    (Some(p), v)
                }
                None => (None, feat.as_slice().to_vec()),
            };
            let pre = self.model.projection.encode_raw(&values);
            let hv = BipolarHv::from_signs(&pre);
            if self.model.memory.predict(&hv) == label {
                correct += 1;
            }
            // Algorithm 1 lines 3–9.
            let u = self.distill.step(&mut self.model.memory, &hv, label, &self.teacher_logits[i]);
            if nshd_obs::enabled() {
                memory_updates += u.iter().filter(|x| **x != 0.0).count() as u64;
                update_l1 += u.iter().map(|x| f64::from(x.abs())).sum::<f64>();
            }
            // §V-C: decode the class-error hypervectors through the
            // encoder (STE across sign) and update the manifold layer.
            if let (Some(manifold), Some(pooled)) = (&mut self.model.manifold, pooled) {
                let g = feature_gradient(
                    &self.model.projection,
                    &self.model.memory,
                    &u,
                    &pre,
                    &self.model.config.ste,
                );
                let scaled: Vec<f32> = g.iter().map(|x| x * self.gradient_scale).collect();
                manifold.update(&pooled, &scaled, self.model.config.manifold_lr);
            }
        }
        let accuracy = correct as f32 / self.labels.len() as f32;
        if nshd_obs::enabled() {
            nshd_obs::counter("trainer.epochs").inc();
            nshd_obs::counter("trainer.memory_updates").add(memory_updates);
            nshd_obs::gauge("trainer.train_accuracy").set(f64::from(accuracy));
            nshd_obs::gauge("trainer.update_l1").set(update_l1);
        }
        self.model.history.push(RetrainEpoch { epoch: self.epoch_index, train_accuracy: accuracy });
        self.epoch_index += 1;
        accuracy
    }

    /// Finishes training and returns the model.
    pub fn finish(self) -> NshdModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshd_data::{normalize_pair, SynthSpec};
    use nshd_hdc::DistillConfig;
    use nshd_nn::{fit, Adam, Architecture, TrainConfig};

    /// One shared trained teacher for every test in this module (teacher
    /// training is the expensive part; `Model: Clone` makes reuse cheap).
    fn small_setup() -> (Model, ImageDataset, ImageDataset) {
        use std::sync::OnceLock;
        static SETUP: OnceLock<(Model, ImageDataset, ImageDataset)> = OnceLock::new();
        SETUP
            .get_or_init(|| {
                let (mut train, mut test) = SynthSpec::synth10(21).with_sizes(300, 100).generate();
                normalize_pair(&mut train, &mut test);
                let mut rng = Rng::new(5);
                let mut teacher = Architecture::EfficientNetB0.build(10, &mut rng);
                let mut opt = Adam::new(2e-3, 1e-5);
                fit(
                    &mut teacher,
                    train.images(),
                    train.labels(),
                    &mut opt,
                    &TrainConfig { epochs: 8, batch_size: 32, seed: 3, ..TrainConfig::default() },
                );
                (teacher, train, test)
            })
            .clone()
    }

    #[test]
    fn full_pipeline_trains_and_beats_chance() {
        let (teacher, train, test) = small_setup();
        let cfg = NshdConfig::new(8)
            .with_hv_dim(1_000)
            .with_manifold_features(40)
            .with_retrain_epochs(5)
            .with_seed(1);
        let model = NshdModel::train(teacher, &train, cfg);
        let acc = model.evaluate(&test);
        assert!(acc > 0.35, "NSHD accuracy {acc} not above chance");
        assert_eq!(model.history().len(), 5);
        // Training accuracy generally improves from epoch 0 to the best.
        let first = model.history()[0].train_accuracy;
        let best = model.history().iter().map(|e| e.train_accuracy).fold(0.0f32, f32::max);
        assert!(best >= first);
    }

    #[test]
    fn trainer_snapshots_differ_between_first_and_last_iteration() {
        let (teacher, train, _) = small_setup();
        let cfg = NshdConfig::new(8)
            .with_hv_dim(500)
            .with_manifold_features(30)
            .with_retrain_epochs(4)
            .with_seed(2);
        let mut trainer = NshdTrainer::prepare(teacher, &train, cfg);
        let before = trainer.symbolize_training_set();
        for _ in 0..4 {
            trainer.epoch();
        }
        let after = trainer.symbolize_training_set();
        // The manifold moved, so at least some hypervectors changed.
        let changed = before.iter().zip(&after).filter(|((a, _), (b, _))| a != b).count();
        assert!(changed > 0, "manifold updates left all hypervectors unchanged");
    }

    #[test]
    fn without_manifold_encodes_raw_features() {
        let (teacher, train, test) = small_setup();
        let cfg = NshdConfig::new(8)
            .with_hv_dim(500)
            .with_manifold(false)
            .with_retrain_epochs(3)
            .with_seed(3);
        let feat_len = teacher.feature_len_at(8);
        let model = NshdModel::train(teacher, &train, cfg);
        assert_eq!(model.projection().features(), feat_len);
        assert!(model.manifold().is_none());
        let acc = model.evaluate(&test);
        assert!(acc > 0.2, "manifold-free accuracy {acc}");
    }

    #[test]
    fn distillation_config_flows_through() {
        let (teacher, train, _) = small_setup();
        let cfg = NshdConfig::new(8)
            .with_hv_dim(400)
            .with_manifold_features(20)
            .with_retrain_epochs(1)
            .with_distill(DistillConfig {
                alpha: 0.3,
                temperature: 12.0,
                ..DistillConfig::default()
            });
        let model = NshdModel::train(teacher, &train, cfg);
        assert!((model.config().distill.alpha - 0.3).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_cut_panics() {
        let (teacher, train, _) = small_setup();
        let cfg = NshdConfig::new(99);
        let _ = NshdTrainer::prepare(teacher, &train, cfg);
    }
}
