//! The thread-shareable batched inference engine behind the serving
//! runtime (`nshd-runtime`).
//!
//! [`NshdEngine`] snapshots a trained [`NshdModel`] into an immutable,
//! `Send + Sync` form optimised for batch throughput:
//!
//! - images are stacked into one NCHW tensor and pushed through the
//!   truncated teacher **once per batch** (`&self` inference path);
//! - HD encoding runs as a single dense GEMM via
//!   [`nshd_hdc::BatchEncoder`] instead of `N` bit-serial passes;
//! - associative-memory scoring is one `matmul_bt` against the class
//!   matrix instead of `N·k` scalar cosine loops.
//!
//! The two halves are exposed separately ([`extract_values`] /
//! [`finish_values`]) so the runtime can data-parallelise the
//! convolutional half across workers and still finish the whole batch
//! with one GEMM.
//!
//! **Determinism.** The produced hypervectors are bit-identical to
//! [`NshdModel::symbolize`]: evaluation-mode CNN layers are
//! batch-size-independent, and the GEMM encoder accumulates features in
//! the same order (with the same zero-skip) as the bit-serial encoder.
//! Similarity *scores* may differ from the sequential path in the last
//! float bits (different dot-product lane structure), so equality is
//! guaranteed at the argmax/prediction level, not the raw score level.
//!
//! **Quantised scoring.** The engine can serve the paper's §VI-B
//! deployments directly: [`NshdEngine::with_scoring`] rebuilds its
//! [`HdScorer`] for INT8 or bit-packed scoring, and [`finish_values`]
//! then scores through that backend's batch GEMM. Dense remains the
//! default and the accuracy reference.
//!
//! [`extract_values`]: NshdEngine::extract_values
//! [`finish_values`]: NshdEngine::finish_values

use crate::manifold::ManifoldLearner;
use crate::model::NshdModel;
use crate::robust::PipelineError;
use crate::scaler::FeatureScaler;
use crate::verify::{self, AnalysisReport};
use nshd_data::ImageDataset;
use nshd_hdc::{
    AssociativeMemory, BatchEncoder, BipolarHv, FaultReport, FaultScenario, HdScorer, QueryHv,
    ScoringMode,
};
use nshd_nn::Model;
use nshd_tensor::{Tensor, TensorError};
use std::sync::Arc;

/// An immutable, `Send + Sync` snapshot of a trained NSHD pipeline,
/// ready for concurrent batched inference.
///
/// # Examples
///
/// ```no_run
/// use nshd_core::{NshdConfig, NshdEngine, NshdModel};
/// # let model: NshdModel = unimplemented!();
/// let engine = NshdEngine::from_model(&model);
/// // `engine` can now be put in an `Arc` and shared across threads.
/// ```
#[derive(Clone)]
pub struct NshdEngine {
    teacher: Model,
    cut: usize,
    scaler: FeatureScaler,
    manifold: Option<ManifoldLearner>,
    encoder: BatchEncoder,
    scorer: HdScorer,
}

// The engine must stay shareable across worker threads; fail the build
// if a field ever loses `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NshdEngine>();
};

impl NshdEngine {
    /// Snapshots a trained model into an engine after statically
    /// verifying the whole pipeline ([`crate::verify_model`]). The model
    /// remains usable; the engine holds its own copies (teacher weights,
    /// class memory) plus the unpacked dense projection basis.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first misconfigured
    /// stage when verification fails; no engine state is built in that
    /// case.
    #[must_use = "the engine is only constructed when verification passes"]
    pub fn new(model: &NshdModel) -> Result<Self, AnalysisReport> {
        verify::verify_model(model)?;
        Ok(NshdEngine {
            teacher: model.teacher().clone(),
            cut: model.config().cut,
            scaler: model.scaler().clone(),
            manifold: model.manifold().cloned(),
            encoder: model.projection().batch_encoder(),
            scorer: HdScorer::new(Arc::new(model.memory().clone()), ScoringMode::Dense),
        })
    }

    /// Panicking convenience wrapper around [`NshdEngine::new`].
    ///
    /// # Panics
    ///
    /// Panics with the verification report when the model is
    /// misconfigured.
    pub fn from_model(model: &NshdModel) -> Self {
        match Self::new(model) {
            Ok(engine) => engine,
            Err(report) => panic!("{report}"),
        }
    }

    /// Re-checks the snapshot's internal consistency — the same static
    /// analysis [`NshdEngine::new`] runs, applied to the engine's own
    /// copies. `nshd-runtime` calls this before spawning any worker
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first inconsistent
    /// stage.
    pub fn verify(&self) -> Result<(), AnalysisReport> {
        let feat_shape = verify::verify_extractor(&self.teacher, self.cut)?;
        verify::verify_stages(
            &feat_shape,
            self.scaler.len(),
            self.manifold.as_ref(),
            self.encoder.features(),
            self.encoder.dim(),
            self.scorer.memory(),
            self.teacher.num_classes,
        )
    }

    /// Snapshot-clones the engine with `scenario`'s faults injected into
    /// its class memory — the degraded-replica input for chaos testing
    /// the replicated serving tier. The original engine is untouched
    /// (replicas never share mutable state), the teacher weights and
    /// projection basis are shared copies, and only the associative
    /// memory is corrupted; an empty scenario yields a replica that
    /// predicts bit-identically to `self`.
    pub fn degraded(&self, scenario: &FaultScenario) -> (NshdEngine, FaultReport) {
        let mut memory = AssociativeMemory::clone(self.scorer.memory());
        let report = scenario.apply_associative(&mut memory);
        let scorer = HdScorer::new(Arc::new(memory), self.scorer.mode());
        (NshdEngine { scorer, ..self.clone() }, report)
    }

    /// Number of classes the engine predicts over.
    pub fn num_classes(&self) -> usize {
        self.scorer.memory().num_classes()
    }

    /// The snapshotted associative memory.
    pub fn memory(&self) -> &AssociativeMemory {
        self.scorer.memory()
    }

    /// Rebuilds the scoring stage for `mode` (paper §VI-B): `Dense`
    /// keeps f32 cosine scoring, `Int8`/`Packed` compile the class
    /// memory into the corresponding quantised deployment and route
    /// [`finish_values`](NshdEngine::finish_values) through its batch
    /// GEMM.
    #[must_use]
    pub fn with_scoring(self, mode: ScoringMode) -> Self {
        NshdEngine { scorer: HdScorer::new(Arc::clone(self.scorer.memory()), mode), ..self }
    }

    /// The scoring mode the engine currently serves with.
    pub fn scoring_mode(&self) -> ScoringMode {
        self.scorer.mode()
    }

    /// Stage 1 — CNN feature extraction: stacks the CHW images into one
    /// NCHW batch, runs the truncated teacher once, then standardises
    /// and (optionally) manifold-compresses each sample. This is the
    /// compute-heavy half the runtime splits across workers.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when an image's shape differs
    /// from the teacher's input shape, and
    /// [`PipelineError::NonFiniteActivation`] when the extracted values
    /// contain NaN/∞ (which would poison the argmax downstream).
    #[must_use = "extraction can fail on malformed inputs"]
    pub fn try_extract_values(&self, images: &[Tensor]) -> Result<Vec<Vec<f32>>, PipelineError> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let _sp = nshd_obs::span("extract");
        for image in images {
            if image.dims() != self.teacher.input_shape {
                return Err(TensorError::IncompatibleShapes {
                    lhs: self.teacher.input_shape.clone(),
                    rhs: image.dims().to_vec(),
                }
                .into());
            }
            // ReLU washes NaN inputs to zero, so poisoned images must be
            // caught here rather than at the output check below.
            if image.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(PipelineError::NonFiniteActivation { stage: "engine input" });
            }
        }
        let batch = Tensor::stack(images)?;
        let feats = self.teacher.infer_features_at(&batch, self.cut);
        let values: Vec<Vec<f32>> = (0..images.len())
            .map(|b| {
                let feat = self.scaler.transform(&feats.batch_item(b));
                match &self.manifold {
                    Some(m) => m.forward(&feat).1,
                    None => feat.as_slice().to_vec(),
                }
            })
            .collect();
        if values.iter().flatten().any(|v| !v.is_finite()) {
            return Err(PipelineError::NonFiniteActivation { stage: "engine feature extraction" });
        }
        Ok(values)
    }

    /// Panicking wrapper around
    /// [`try_extract_values`](NshdEngine::try_extract_values).
    ///
    /// # Panics
    ///
    /// Panics if images disagree with the teacher's input shape or the
    /// extracted values are non-finite.
    pub fn extract_values(&self, images: &[Tensor]) -> Vec<Vec<f32>> {
        match self.try_extract_values(images) {
            Ok(values) => values,
            Err(e) => panic!("{e}"),
        }
    }

    /// Encodes extracted feature values into bipolar hypervectors with
    /// one dense GEMM. Bit-identical to encoding each row through
    /// [`NshdModel::symbolize`]'s per-sample path.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when rows differ in length or
    /// don't match the projection's feature width.
    #[must_use = "encoding can fail on malformed value rows"]
    pub fn try_encode_values(&self, values: &[Vec<f32>]) -> Result<Vec<BipolarHv>, PipelineError> {
        if values.is_empty() {
            return Ok(Vec::new());
        }
        for row in values {
            if row.len() != self.encoder.features() {
                return Err(TensorError::IncompatibleShapes {
                    lhs: vec![self.encoder.features()],
                    rhs: vec![row.len()],
                }
                .into());
            }
        }
        let matrix = Tensor::from_rows(values)?;
        let _sp = nshd_obs::span("encode");
        Ok(self.encoder.encode_batch(&matrix))
    }

    /// Panicking wrapper around
    /// [`try_encode_values`](NshdEngine::try_encode_values).
    ///
    /// # Panics
    ///
    /// Panics if rows differ in length or don't match the projection.
    pub fn encode_values(&self, values: &[Vec<f32>]) -> Vec<BipolarHv> {
        match self.try_encode_values(values) {
            Ok(hvs) => hvs,
            Err(e) => panic!("{e}"),
        }
    }

    /// Stage 2 — HD encode + associative scoring for a whole batch of
    /// extracted values: one GEMM to encode, one batch-scoring GEMM
    /// through the engine's [`HdScorer`] (dense `matmul_bt`, INT8
    /// add/sub accumulation, or packed XNOR+popcount).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when rows differ in length or
    /// don't match the projection's feature width.
    #[must_use = "scoring can fail on malformed value rows"]
    pub fn try_finish_values(&self, values: &[Vec<f32>]) -> Result<Vec<usize>, PipelineError> {
        let hvs = self.try_encode_values(values)?;
        let _sp = nshd_obs::span("score");
        Ok(self.scorer.predict(hvs.into_iter().map(QueryHv::Bipolar).collect()))
    }

    /// Panicking wrapper around
    /// [`try_finish_values`](NshdEngine::try_finish_values).
    ///
    /// # Panics
    ///
    /// Panics if rows differ in length or don't match the projection.
    pub fn finish_values(&self, values: &[Vec<f32>]) -> Vec<usize> {
        match self.try_finish_values(values) {
            Ok(preds) => preds,
            Err(e) => panic!("{e}"),
        }
    }

    /// Symbolises a batch of CHW images into query hypervectors —
    /// bit-identical to per-image [`NshdModel::symbolize`].
    pub fn symbolize_batch(&self, images: &[Tensor]) -> Vec<BipolarHv> {
        self.encode_values(&self.extract_values(images))
    }

    /// Predicts classes for a batch of CHW images.
    pub fn predict_batch(&self, images: &[Tensor]) -> Vec<usize> {
        self.finish_values(&self.extract_values(images))
    }

    /// Predicts the class of a single CHW image (a batch of one).
    pub fn predict(&self, image: &Tensor) -> usize {
        self.predict_batch(std::slice::from_ref(image))[0]
    }

    /// Classification accuracy over a dataset through the batched path,
    /// processed in bounded chunks.
    pub fn evaluate(&self, dataset: &ImageDataset) -> f32 {
        if dataset.is_empty() {
            return 0.0;
        }
        const CHUNK: usize = 64;
        let mut correct = 0usize;
        let mut index = 0usize;
        while index < dataset.len() {
            let end = (index + CHUNK).min(dataset.len());
            let images: Vec<Tensor> = (index..end).map(|i| dataset.sample(i).0).collect();
            let preds = self.predict_batch(&images);
            correct += preds
                .iter()
                .enumerate()
                .filter(|(b, p)| **p == dataset.sample(index + b).1)
                .count();
            index = end;
        }
        correct as f32 / dataset.len() as f32
    }
}

impl std::fmt::Debug for NshdEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NshdEngine")
            .field("teacher", &self.teacher.name)
            .field("cut", &self.cut)
            .field("manifold", &self.manifold.is_some())
            .field("classes", &self.num_classes())
            .field("scoring", &self.scorer.mode().name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NshdConfig;
    use nshd_data::{normalize_pair, SynthSpec};
    use nshd_nn::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential};
    use nshd_tensor::Rng;

    /// A small untrained teacher — prediction *parity* between the
    /// batched and per-sample paths doesn't need a good model.
    fn tiny_teacher(rng: &mut Rng) -> Model {
        let features = Sequential::new()
            .with(Conv2d::new(3, 4, 3, 1, 1, rng))
            .with(Activation::new(ActKind::Relu))
            .with(MaxPool2d::new(2));
        let classifier =
            Sequential::new().with(Flatten::new()).with(Linear::new(4 * 16 * 16, 10, rng));
        Model {
            name: "tiny".into(),
            features,
            classifier,
            input_shape: vec![3, 32, 32],
            num_classes: 10,
        }
    }

    fn trained_setup(use_manifold: bool) -> (NshdModel, ImageDataset) {
        let (mut train, mut test) = SynthSpec::synth10(17).with_sizes(40, 16).generate();
        normalize_pair(&mut train, &mut test);
        let teacher = tiny_teacher(&mut Rng::new(2));
        let cfg = NshdConfig::new(3)
            .with_hv_dim(512)
            .with_manifold(use_manifold)
            .with_manifold_features(24)
            .with_retrain_epochs(1)
            .with_seed(9);
        (NshdModel::train(teacher, &train, cfg), test)
    }

    #[test]
    fn batched_engine_matches_per_sample_model() {
        for use_manifold in [true, false] {
            let (model, test) = trained_setup(use_manifold);
            let engine = NshdEngine::from_model(&model);
            let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
            // Hypervectors are bit-identical to the per-sample path.
            let batched_hvs = engine.symbolize_batch(&images);
            for (img, hv) in images.iter().zip(&batched_hvs) {
                assert_eq!(*hv, model.symbolize(img), "manifold={use_manifold}");
            }
            // Predictions agree for every image and any chunking.
            let batched = engine.predict_batch(&images);
            let sequential: Vec<usize> = images.iter().map(|img| model.predict(img)).collect();
            assert_eq!(batched, sequential, "manifold={use_manifold}");
            for chunk in images.chunks(5) {
                let preds = engine.predict_batch(chunk);
                for (img, p) in chunk.iter().zip(preds) {
                    assert_eq!(p, engine.predict(img));
                }
            }
            // And dataset-level accuracy matches the model's.
            assert_eq!(engine.evaluate(&test), model.evaluate(&test));
        }
    }

    #[test]
    fn malformed_inputs_are_reported_not_panicked() {
        let (model, _) = trained_setup(false);
        let engine = NshdEngine::from_model(&model);
        // Wrong image shape: reported, not a deep conv panic.
        let err = engine.try_extract_values(&[Tensor::zeros([3, 16, 16])]).unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        assert!(err.to_string().contains("tensor"), "{err}");
        // A poisoned image surfaces as a non-finite-activation report.
        let poisoned = Tensor::from_fn([3, 32, 32], |_| f32::NAN);
        let err = engine.try_extract_values(&[poisoned]).unwrap_err();
        assert!(matches!(err, PipelineError::NonFiniteActivation { .. }), "{err:?}");
        // Wrong value-row width at the encode stage.
        let err = engine.try_finish_values(&[vec![0.0; 3]]).unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        // The happy path is unaffected.
        let ok = engine.try_extract_values(&[Tensor::zeros([3, 32, 32])]).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn misconfigured_models_are_rejected_at_construction() {
        use crate::verify::Stage;

        // A healthy model verifies and yields an engine that re-verifies.
        let (model, _) = trained_setup(true);
        let engine = NshdEngine::new(&model).expect("healthy model verifies");
        engine.verify().expect("snapshot re-verifies");

        // Memory width torn away from the encoder's D: rejected with a
        // structured report naming the memory stage and both widths.
        let mut torn = model.clone();
        torn.set_memory_raw(vec![vec![0.0f32; 256]; 10]);
        let report = NshdEngine::new(&torn).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert_eq!(report.expected, vec![512]);
        assert_eq!(report.actual, vec![256]);
        assert!(report.to_string().contains("memory"), "{report}");

        // Scaler fitted on the wrong feature width: scaler stage.
        let mut torn = model.clone();
        let (mean, inv_std) = torn.scaler_raw();
        torn.set_scaler_raw(mean[..mean.len() - 1].to_vec(), inv_std[..inv_std.len() - 1].to_vec())
            .expect("lengths agree with each other");
        let report = NshdEngine::new(&torn).unwrap_err();
        assert_eq!(report.stage, Stage::Scaler);

        // A poisoned class memory is caught before any thread could be.
        let mut torn = model;
        torn.memory_mut().class_mut(0)[0] = f32::NAN;
        let report = NshdEngine::new(&torn).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert!(report.to_string().contains("non-finite"), "{report}");
    }

    #[test]
    fn degraded_snapshots_corrupt_only_their_own_memory() {
        use nshd_hdc::{FaultPlan, FaultScenario};

        let (model, test) = trained_setup(false);
        let engine = NshdEngine::from_model(&model);
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
        let clean_preds = engine.predict_batch(&images);

        // An empty scenario is a bit-identical replica.
        let (twin, report) = engine.degraded(&FaultScenario::new());
        assert_eq!(report, nshd_hdc::FaultReport::default());
        assert_eq!(twin.predict_batch(&images), clean_preds);

        // A heavy scenario corrupts the replica's memory — and only the
        // replica's: the original engine still predicts identically.
        let scenario =
            FaultScenario::new().with(FaultPlan::new(61, 0.4), 1).with(FaultPlan::new(62, 0.2), 2);
        let (hurt, report) = engine.degraded(&scenario);
        assert!(report.faults > 0, "heavy scenario landed no faults");
        assert_eq!(engine.predict_batch(&images), clean_preds, "original engine was mutated");
        // The degraded replica still answers (no panic) with in-range
        // class indices.
        let degraded_preds = hurt.predict_batch(&images);
        assert!(degraded_preds.iter().all(|&p| p < engine.num_classes()));
    }

    #[test]
    fn empty_batches_are_fine() {
        let (model, _) = trained_setup(false);
        let engine = NshdEngine::from_model(&model);
        assert!(engine.extract_values(&[]).is_empty());
        assert!(engine.predict_batch(&[]).is_empty());
        assert!(engine.symbolize_batch(&[]).is_empty());
        for mode in [ScoringMode::Int8, ScoringMode::Packed] {
            let quantised = engine.clone().with_scoring(mode);
            assert!(quantised.predict_batch(&[]).is_empty());
        }
    }

    #[test]
    fn quantised_scoring_modes_serve_batches() {
        let (model, test) = trained_setup(false);
        let engine = NshdEngine::from_model(&model);
        assert_eq!(engine.scoring_mode(), ScoringMode::Dense);
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
        let dense_preds = engine.predict_batch(&images);
        let dense_hvs = engine.symbolize_batch(&images);

        // Re-selecting Dense is exactly the default engine.
        let redense = engine.clone().with_scoring(ScoringMode::Dense);
        assert_eq!(redense.predict_batch(&images), dense_preds);

        // Quantised modes serve batches bit-exactly as the compiled
        // backend scoring the same encoded hypervectors — the engine
        // adds no hidden densify-then-round step (§VI-B deployments).
        let quant = nshd_hdc::QuantizedMemory::from_memory(engine.memory());
        let packed_mem = nshd_hdc::PackedMemory::from_memory(engine.memory());
        let packed_hvs: Vec<_> = dense_hvs.iter().map(nshd_hdc::BipolarHv::to_packed).collect();
        for mode in [ScoringMode::Int8, ScoringMode::Packed] {
            let quantised = engine.clone().with_scoring(mode);
            assert_eq!(quantised.scoring_mode(), mode);
            let preds = quantised.predict_batch(&images);
            let want = match mode {
                ScoringMode::Int8 => quant.predict_batch(&packed_hvs),
                ScoringMode::Packed => packed_mem.predict_batch(&packed_hvs),
                ScoringMode::Dense => unreachable!(),
            };
            assert_eq!(preds, want, "{} engine diverged from its backend", mode.name());
            assert!(preds.iter().all(|&p| p < engine.num_classes()));
            // Malformed rows are still reported, not panicked.
            let err = quantised.try_finish_values(&[vec![0.0; 3]]).unwrap_err();
            assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        }

        // A degraded replica of a quantised engine recompiles its
        // backend from the corrupted memory: heavy faults must be able
        // to change quantised predictions too.
        use nshd_hdc::{FaultPlan, FaultScenario};
        let packed_engine = engine.clone().with_scoring(ScoringMode::Packed);
        let clean = packed_engine.predict_batch(&images);
        let scenario = FaultScenario::new()
            .with(FaultPlan::new(71, 0.45), 0)
            .with(FaultPlan::new(72, 0.45), 1);
        let (hurt, report) = packed_engine.degraded(&scenario);
        assert!(report.faults > 0);
        assert_eq!(hurt.scoring_mode(), ScoringMode::Packed);
        let hurt_preds = hurt.predict_batch(&images);
        assert!(hurt_preds.iter().all(|&p| p < engine.num_classes()));
        assert_ne!(hurt_preds, clean, "45% memory corruption left every prediction intact");
    }
}
