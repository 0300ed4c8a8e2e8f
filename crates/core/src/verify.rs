//! Static verification of an assembled NSHD pipeline.
//!
//! The pipeline chains five independently-constructed stages — truncated
//! CNN extractor, feature scaler, optional manifold learner, random
//! projection, associative memory — and every hand-off has a dimension
//! that must agree with its neighbour. A mismatch anywhere used to
//! surface as a mid-batch panic deep inside tensor code, possibly on a
//! worker thread. This module checks the whole chain *statically*, using
//! [`Layer::shape_of`] inference instead of running any arithmetic, and
//! reports the first violation as a structured [`AnalysisReport`] naming
//! the offending [`Stage`], the feature-layer index when applicable, and
//! the expected/actual dimensions.
//!
//! The checks run at every construction boundary: [`Symbolizer::new`]
//! (and so every engine head), [`NshdTrainer::try_prepare`] (and
//! `prepare`, which panics with the report), building an [`Engine`]
//! and every state it publishes, and `nshd-runtime`'s
//! `InferenceRuntime`, so a misconfigured model is rejected before any
//! thread is spawned.
//!
//! [`Layer::shape_of`]: nshd_nn::Layer::shape_of
//! [`Symbolizer::new`]: crate::Symbolizer::new
//! [`Engine`]: crate::Engine
//! [`NshdTrainer::try_prepare`]: crate::NshdTrainer::try_prepare

use crate::config::NshdConfig;
use crate::head::Head;
use crate::manifold::ManifoldLearner;
use crate::model::NshdModel;
use nshd_hdc::{AssociativeMemory, QuantizedMemory};
use nshd_nn::{Layer, Model};
use std::fmt;
use std::sync::Arc;

/// The pipeline stage at which a static check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The [`NshdConfig`] itself (zero dimensions, out-of-range cut).
    Config,
    /// The truncated CNN feature extractor (shape inference or
    /// batch-norm eval-readiness).
    Extractor,
    /// The per-feature standardisation statistics.
    Scaler,
    /// The manifold learner Ψ.
    Manifold,
    /// The random-projection HD encoder.
    Projection,
    /// The associative class memory.
    Memory,
    /// A quantised deployment of the class memory.
    Quantizer,
    /// The heads in front of an engine's memory (per-head widths
    /// versus the memory, weights).
    Ensemble,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Config => "config",
            Stage::Extractor => "extractor",
            Stage::Scaler => "scaler",
            Stage::Manifold => "manifold",
            Stage::Projection => "projection",
            Stage::Memory => "memory",
            Stage::Quantizer => "quantizer",
            Stage::Ensemble => "ensemble",
        };
        f.write_str(name)
    }
}

/// A structured static-analysis failure: which stage is misconfigured,
/// where in the feature stack (when the failure is inside the CNN), and
/// the dimensions that disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The offending pipeline stage.
    pub stage: Stage,
    /// Feature-layer index, when the failure sits inside the CNN stack.
    pub layer: Option<usize>,
    /// The dimensions the stage should have seen (empty when the check
    /// is not dimensional).
    pub expected: Vec<usize>,
    /// The dimensions it actually saw (empty when not dimensional).
    pub actual: Vec<usize>,
    /// Human-readable explanation of the violated invariant.
    pub detail: String,
}

impl AnalysisReport {
    pub(crate) fn new(stage: Stage, detail: impl Into<String>) -> Self {
        AnalysisReport {
            stage,
            layer: None,
            expected: Vec::new(),
            actual: Vec::new(),
            detail: detail.into(),
        }
    }

    fn dims(mut self, expected: &[usize], actual: &[usize]) -> Self {
        self.expected = expected.to_vec();
        self.actual = actual.to_vec();
        self
    }

    fn at_layer(mut self, layer: Option<usize>) -> Self {
        self.layer = layer;
        self
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline verification failed at {}", self.stage)?;
        if let Some(layer) = self.layer {
            write!(f, " (feature layer {layer})")?;
        }
        write!(f, ": {}", self.detail)?;
        if !self.expected.is_empty() || !self.actual.is_empty() {
            write!(f, " (expected {:?}, got {:?})", self.expected, self.actual)?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalysisReport {}

/// Checks the configuration's own invariants (positive dimensions).
fn verify_config(config: &NshdConfig) -> Result<(), AnalysisReport> {
    if config.hv_dim == 0 {
        return Err(AnalysisReport::new(Stage::Config, "hypervector dimension must be positive"));
    }
    if config.manifold_features == 0 {
        return Err(AnalysisReport::new(Stage::Config, "manifold width must be positive"));
    }
    if config.cut == 0 {
        return Err(AnalysisReport::new(Stage::Config, "cut must keep at least one feature layer"));
    }
    Ok(())
}

/// Checks the teacher CNN: the cut is in range, static shape inference
/// succeeds through the feature stack and the classifier, and every
/// layer is ready for evaluation-mode inference (batch-norm statistics
/// finite and non-negative). Returns the per-sample feature shape at
/// the cut point.
pub(crate) fn verify_extractor(teacher: &Model, cut: usize) -> Result<Vec<usize>, AnalysisReport> {
    if cut == 0 {
        return Err(AnalysisReport::new(Stage::Config, "cut must keep at least one feature layer"));
    }
    if cut > teacher.features.len() {
        return Err(AnalysisReport::new(
            Stage::Config,
            format!(
                "cut {cut} exceeds the {} feature layers of {}",
                teacher.features.len(),
                teacher.name
            ),
        )
        .dims(&[teacher.features.len()], &[cut]));
    }
    let (features, _classifier) = teacher.infer_shapes().map_err(|e| {
        AnalysisReport::new(Stage::Extractor, e.to_string()).at_layer(e.layer_index())
    })?;
    if let Err(msg) = teacher.features.eval_ready() {
        return Err(AnalysisReport::new(Stage::Extractor, msg));
    }
    if let Err(msg) = teacher.classifier.eval_ready() {
        return Err(AnalysisReport::new(Stage::Extractor, msg));
    }
    Ok(features.shape_at(cut).to_vec())
}

/// Checks a teacher/configuration pair before any training state exists
/// — the [`NshdTrainer`](crate::NshdTrainer) entry gate. Returns the
/// per-sample extractor output shape at the configured cut.
///
/// # Errors
///
/// Returns an [`AnalysisReport`] naming the first stage whose invariants
/// fail.
pub fn verify_teacher(teacher: &Model, config: &NshdConfig) -> Result<Vec<usize>, AnalysisReport> {
    verify_config(config)?;
    verify_extractor(teacher, config.cut)
}

/// Checks the symbolisation hand-offs downstream of the extractor:
/// scaler width, manifold input shape, and projection columns.
pub(crate) fn verify_head_stages(
    feat_shape: &[usize],
    scaler_len: usize,
    manifold: Option<&ManifoldLearner>,
    encode_features: usize,
) -> Result<(), AnalysisReport> {
    let flat: usize = feat_shape.iter().product();
    if scaler_len != flat {
        return Err(AnalysisReport::new(
            Stage::Scaler,
            format!("scaler fitted on {scaler_len} features but the extractor produces {flat}"),
        )
        .dims(&[flat], &[scaler_len]));
    }
    let encode_width = match manifold {
        Some(m) => {
            if m.feat_shape() != feat_shape {
                return Err(AnalysisReport::new(
                    Stage::Manifold,
                    "manifold learner built for a different extractor output shape",
                )
                .dims(feat_shape, m.feat_shape()));
            }
            m.out_features()
        }
        None => flat,
    };
    if encode_features != encode_width {
        let source = if manifold.is_some() { "manifold" } else { "flattened extractor" };
        return Err(AnalysisReport::new(
            Stage::Projection,
            format!(
                "projection reads {encode_features} features but the {source} output is {encode_width} wide"
            ),
        )
        .dims(&[encode_width], &[encode_features]));
    }
    Ok(())
}

/// Checks the class memory against the symbolizer feeding it: HD
/// dimension versus memory width, class count, and memory health
/// ([`verify_memory_health`]).
pub(crate) fn verify_memory(
    memory: &AssociativeMemory,
    encode_dim: usize,
    num_classes: usize,
) -> Result<(), AnalysisReport> {
    if memory.dim() != encode_dim {
        return Err(AnalysisReport::new(
            Stage::Memory,
            format!(
                "associative memory is {} wide but the encoder emits D = {encode_dim}",
                memory.dim()
            ),
        )
        .dims(&[encode_dim], &[memory.dim()]));
    }
    if memory.num_classes() != 0 && memory.num_classes() != num_classes {
        return Err(AnalysisReport::new(
            Stage::Memory,
            format!(
                "memory holds {} classes but the teacher predicts {num_classes}",
                memory.num_classes()
            ),
        )
        .dims(&[num_classes], &[memory.num_classes()]));
    }
    verify_memory_health(memory)
}

/// Checks a class memory can be served at all: at least one class and
/// finite accumulators.
fn verify_memory_health(memory: &AssociativeMemory) -> Result<(), AnalysisReport> {
    if memory.num_classes() == 0 {
        return Err(AnalysisReport::new(Stage::Memory, "memory holds no classes"));
    }
    if !memory.is_finite() {
        return Err(AnalysisReport::new(Stage::Memory, "class memory contains non-finite values"));
    }
    Ok(())
}

/// Checks every hand-off downstream of the extractor:
/// [`verify_head_stages`] then [`verify_memory`].
pub(crate) fn verify_stages(
    feat_shape: &[usize],
    scaler_len: usize,
    manifold: Option<&ManifoldLearner>,
    encode_features: usize,
    encode_dim: usize,
    memory: &AssociativeMemory,
    num_classes: usize,
) -> Result<(), AnalysisReport> {
    verify_head_stages(feat_shape, scaler_len, manifold, encode_features)?;
    verify_memory(memory, encode_dim, num_classes)
}

/// Statically checks a fully-assembled [`NshdModel`]: teacher shapes and
/// eval-readiness, then every downstream dimension hand-off
/// (extractor → scaler → manifold → projection → memory).
///
/// # Errors
///
/// Returns an [`AnalysisReport`] naming the first stage whose invariants
/// fail.
pub fn verify_model(model: &NshdModel) -> Result<(), AnalysisReport> {
    let feat_shape = verify_teacher(model.teacher(), model.config())?;
    if model.config().use_manifold != model.manifold().is_some() {
        return Err(AnalysisReport::new(
            Stage::Manifold,
            if model.config().use_manifold {
                "config enables the manifold learner but the model has none"
            } else {
                "config disables the manifold learner but the model carries one"
            },
        ));
    }
    verify_stages(
        &feat_shape,
        model.scaler().len(),
        model.manifold(),
        model.projection().features(),
        model.projection().dim(),
        model.memory(),
        model.teacher().num_classes,
    )
}

/// Checks an engine state: every head's [`Symbolizer`] re-verifies,
/// reads a non-empty feature width, emits the memory's HD dimension and
/// carries a finite, non-negative weight, with at least one weight
/// positive; the memory is servable ([`verify_memory_health`]). The
/// failing head's index is reported through [`AnalysisReport::layer`].
///
/// [`Symbolizer`]: crate::Symbolizer
pub(crate) fn verify_engine(
    heads: &[Arc<Head>],
    memory: &AssociativeMemory,
) -> Result<(), AnalysisReport> {
    for (index, head) in heads.iter().enumerate() {
        head.symbolizer().verify()?;
        let report =
            |detail: String| AnalysisReport::new(Stage::Ensemble, detail).at_layer(Some(index));
        if head.symbolizer().encoder().features() == 0 {
            return Err(report(format!("head {index} reads a zero-width embedding")));
        }
        if head.hv_dim() != memory.dim() {
            return Err(report(format!(
                "head {index} encodes D = {} but the memory is {} wide",
                head.hv_dim(),
                memory.dim()
            ))
            .dims(&[memory.dim()], &[head.hv_dim()]));
        }
        if !head.weight().is_finite() || head.weight() < 0.0 {
            return Err(report(format!("head {index} has invalid weight {}", head.weight())));
        }
    }
    if !heads.is_empty() && !heads.iter().any(|h| h.weight() > 0.0) {
        return Err(AnalysisReport::new(
            Stage::Ensemble,
            "every head has zero weight; the vote would be empty",
        ));
    }
    verify_memory_health(memory)
}

/// Checks a quantised deployment against the full-precision memory it
/// was derived from: matching width and class count, and finite,
/// positive dequantisation scales.
///
/// # Errors
///
/// Returns a [`Stage::Quantizer`] report on the first violated range.
pub fn verify_quantized(
    memory: &AssociativeMemory,
    quantized: &QuantizedMemory,
) -> Result<(), AnalysisReport> {
    if quantized.dim() != memory.dim() {
        return Err(AnalysisReport::new(
            Stage::Quantizer,
            format!(
                "quantised memory is {} wide but the source memory is {}",
                quantized.dim(),
                memory.dim()
            ),
        )
        .dims(&[memory.dim()], &[quantized.dim()]));
    }
    if quantized.num_classes() != memory.num_classes() {
        return Err(AnalysisReport::new(
            Stage::Quantizer,
            format!(
                "quantised memory holds {} classes but the source memory holds {}",
                quantized.num_classes(),
                memory.num_classes()
            ),
        )
        .dims(&[memory.num_classes()], &[quantized.num_classes()]));
    }
    for (class, &scale) in quantized.scales().iter().enumerate() {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(AnalysisReport::new(
                Stage::Quantizer,
                format!("class {class} has invalid dequantisation scale {scale}"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeatureScaler, Symbolizer};
    use nshd_hdc::BipolarHv;

    #[test]
    fn report_display_names_stage_layer_and_dims() {
        let report = AnalysisReport::new(Stage::Projection, "width disagreement")
            .dims(&[100], &[64])
            .at_layer(Some(7));
        let text = report.to_string();
        assert!(text.contains("projection"), "{text}");
        assert!(text.contains("feature layer 7"), "{text}");
        assert!(text.contains("expected [100], got [64]"), "{text}");
        assert!(text.contains("width disagreement"), "{text}");
    }

    #[test]
    fn config_checks_reject_zero_dims() {
        let bad = NshdConfig::new(3).with_hv_dim(0);
        let report = verify_config(&bad).unwrap_err();
        assert_eq!(report.stage, Stage::Config);
        assert!(report.to_string().contains("positive"));
        assert!(verify_config(&NshdConfig::new(3)).is_ok());
    }

    #[test]
    fn stage_checks_reject_each_mismatched_handoff() {
        let feat_shape = [4usize, 8, 8];
        let flat = 4 * 8 * 8;
        let memory = AssociativeMemory::new(10, 500);

        // Scaler fitted on a different width.
        let report =
            verify_stages(&feat_shape, flat + 1, None, flat, 500, &memory, 10).unwrap_err();
        assert_eq!(report.stage, Stage::Scaler);
        assert_eq!(
            (report.expected.as_slice(), report.actual.as_slice()),
            (&[flat][..], &[flat + 1][..])
        );

        // Projection columns disagree with the encode width.
        let report =
            verify_stages(&feat_shape, flat, None, flat - 1, 500, &memory, 10).unwrap_err();
        assert_eq!(report.stage, Stage::Projection);

        // Memory narrower than the encoder's D.
        let report = verify_stages(&feat_shape, flat, None, flat, 600, &memory, 10).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert!(report.to_string().contains("600"));

        // Class-count disagreement.
        let report = verify_stages(&feat_shape, flat, None, flat, 500, &memory, 12).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert!(report.to_string().contains("12"));

        // All hand-offs agreeing passes.
        assert!(verify_stages(&feat_shape, flat, None, flat, 500, &memory, 10).is_ok());
    }

    #[test]
    fn manifold_shape_mismatch_is_reported() {
        let mut rng = nshd_tensor::Rng::new(5);
        let manifold = ManifoldLearner::new(&[4, 4, 4], 16, &mut rng);
        let memory = AssociativeMemory::new(3, 200);
        let report =
            verify_stages(&[4, 8, 8], 4 * 8 * 8, Some(&manifold), 16, 200, &memory, 3).unwrap_err();
        assert_eq!(report.stage, Stage::Manifold);
        assert_eq!(report.expected, vec![4, 8, 8]);
        assert_eq!(report.actual, vec![4, 4, 4]);
        // Matching shapes pass, and the encode width becomes F̂.
        assert!(verify_stages(&[4, 4, 4], 4 * 4 * 4, Some(&manifold), 16, 200, &memory, 3).is_ok());
    }

    #[test]
    fn nonfinite_memory_is_rejected() {
        let mut memory = AssociativeMemory::new(2, 100);
        memory.class_mut(1)[3] = f32::NAN;
        let report = verify_stages(&[100], 100, None, 100, 100, &memory, 2).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert!(report.to_string().contains("non-finite"));
    }

    /// A one-conv head reading a 4×4×4 feature map into `dim` components.
    fn head(dim: usize, weight: f32) -> Arc<Head> {
        use nshd_nn::{Conv2d, Flatten, Linear, Sequential};
        let mut rng = nshd_tensor::Rng::new(3);
        let teacher = Model {
            name: "h".into(),
            features: Sequential::new().with(Conv2d::new(3, 4, 3, 1, 1, &mut rng)),
            classifier: Sequential::new().with(Flatten::new()).with(Linear::new(64, 4, &mut rng)),
            input_shape: vec![3, 4, 4],
            num_classes: 4,
        };
        let scaler = FeatureScaler::from_raw(vec![0.0; 64], vec![1.0; 64]).expect("consistent");
        let projection = nshd_hdc::RandomProjection::new(64, dim, 1);
        let symbolizer =
            Symbolizer::new(teacher, 1, scaler, None, &projection).expect("head verifies");
        Arc::new(Head::new("h", symbolizer, weight))
    }

    #[test]
    fn ensemble_checks_cover_heads_weights_and_memory() {
        let memory = AssociativeMemory::new(4, 512);
        let good = head(512, 1.0);
        assert!(verify_engine(&[good.clone(), good.clone()], &memory).is_ok());
        // Zero heads is the pre-encoded query engine: only the memory.
        assert!(verify_engine(&[], &memory).is_ok());

        // Head HD dimension disagreeing with the memory.
        let report = verify_engine(&[good.clone(), head(256, 1.0)], &memory).unwrap_err();
        assert_eq!(report.stage, Stage::Ensemble);
        assert_eq!(report.layer, Some(1));
        assert_eq!(
            (report.expected.as_slice(), report.actual.as_slice()),
            (&[512][..], &[256][..])
        );

        // Negative and all-zero weights.
        let bad = Arc::new(good.with_weight(-0.5));
        assert_eq!(verify_engine(&[bad], &memory).unwrap_err().stage, Stage::Ensemble);
        let zero = Arc::new(good.with_weight(0.0));
        let report = verify_engine(&[zero.clone(), zero], &memory).unwrap_err();
        assert!(report.to_string().contains("zero weight"), "{report}");

        // Non-finite consensus memory.
        let mut sick = AssociativeMemory::new(4, 512);
        sick.class_mut(0)[0] = f32::INFINITY;
        let report = verify_engine(std::slice::from_ref(&good), &sick).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
    }

    #[test]
    fn quantized_checks_cover_dims_classes_and_scales() {
        let mut memory = AssociativeMemory::new(3, 64);
        let hv = BipolarHv::new(vec![1i8; 64]);
        for c in 0..3 {
            memory.bundle(c, &hv);
        }
        let quantized = QuantizedMemory::from_memory(&memory);
        assert!(verify_quantized(&memory, &quantized).is_ok());

        let other = AssociativeMemory::new(3, 32);
        let report = verify_quantized(&other, &quantized).unwrap_err();
        assert_eq!(report.stage, Stage::Quantizer);

        let other = AssociativeMemory::new(4, 64);
        let report = verify_quantized(&other, &quantized).unwrap_err();
        assert_eq!(report.stage, Stage::Quantizer);
        assert!(report.to_string().contains("classes"));
    }
}
