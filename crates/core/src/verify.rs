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
//! (and so every `nshd-glue` head), [`NshdEngine::new`],
//! [`NshdTrainer::try_prepare`] (and `prepare`, which panics with the
//! report), and `nshd-runtime`'s `InferenceRuntime`, so a misconfigured
//! model is rejected before any thread is spawned.
//!
//! [`Layer::shape_of`]: nshd_nn::Layer::shape_of
//! [`Symbolizer::new`]: crate::Symbolizer::new
//! [`NshdEngine::new`]: crate::NshdEngine::new
//! [`NshdTrainer::try_prepare`]: crate::NshdTrainer::try_prepare

use crate::config::NshdConfig;
use crate::manifold::ManifoldLearner;
use crate::model::NshdModel;
use nshd_hdc::{AssociativeMemory, QuantizedMemory};
use nshd_nn::{Layer, Model};
use std::fmt;

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
    /// A multi-teacher HD-Glue ensemble (per-head projection widths
    /// versus the shared consensus memory).
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
    fn new(stage: Stage, detail: impl Into<String>) -> Self {
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
/// dimension versus memory width, class count, and memory health.
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
    if memory.num_classes() == 0 {
        return Err(AnalysisReport::new(Stage::Memory, "memory holds no classes"));
    }
    if memory.num_classes() != num_classes {
        return Err(AnalysisReport::new(
            Stage::Memory,
            format!(
                "memory holds {} classes but the teacher predicts {num_classes}",
                memory.num_classes()
            ),
        )
        .dims(&[num_classes], &[memory.num_classes()]));
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

/// One ensemble head's dimension summary, as checked by
/// [`verify_ensemble`]: the teacher's embedding width, the width the
/// head's projection actually reads, the HD dimension it emits, and the
/// weight it contributes with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleDims {
    /// Flattened penultimate-layer embedding length of the teacher.
    pub embedding: usize,
    /// Feature width the head's random projection reads.
    pub features: usize,
    /// HD dimension the head's projection emits.
    pub dim: usize,
    /// The head's contribution weight in the fused bundle.
    pub weight: f32,
}

/// Statically checks a multi-teacher HD-Glue ensemble against its
/// shared consensus memory: at least one head; every head's projection
/// reading exactly its teacher's embedding width and emitting the
/// memory's HD dimension; finite non-negative weights with at least one
/// strictly positive; and a healthy memory (classes present, finite
/// accumulators). The failing head's index is reported through
/// [`AnalysisReport::layer`].
///
/// # Errors
///
/// Returns a [`Stage::Ensemble`] (or [`Stage::Memory`]) report naming
/// the first violated invariant.
pub fn verify_ensemble(
    heads: &[EnsembleDims],
    memory: &AssociativeMemory,
) -> Result<(), AnalysisReport> {
    if heads.is_empty() {
        return Err(AnalysisReport::new(Stage::Ensemble, "ensemble has no teacher heads"));
    }
    for (index, head) in heads.iter().enumerate() {
        if head.embedding == 0 {
            return Err(AnalysisReport::new(
                Stage::Ensemble,
                format!("head {index} has a zero-width embedding"),
            )
            .at_layer(Some(index)));
        }
        if head.features != head.embedding {
            return Err(AnalysisReport::new(
                Stage::Ensemble,
                format!(
                    "head {index}'s projection reads {} features but its teacher embeds {}",
                    head.features, head.embedding
                ),
            )
            .dims(&[head.embedding], &[head.features])
            .at_layer(Some(index)));
        }
        if head.dim != memory.dim() {
            return Err(AnalysisReport::new(
                Stage::Ensemble,
                format!(
                    "head {index} encodes D = {} but the consensus memory is {} wide",
                    head.dim,
                    memory.dim()
                ),
            )
            .dims(&[memory.dim()], &[head.dim])
            .at_layer(Some(index)));
        }
        if !head.weight.is_finite() || head.weight < 0.0 {
            return Err(AnalysisReport::new(
                Stage::Ensemble,
                format!("head {index} has invalid contribution weight {}", head.weight),
            )
            .at_layer(Some(index)));
        }
    }
    if !heads.iter().any(|h| h.weight > 0.0) {
        return Err(AnalysisReport::new(
            Stage::Ensemble,
            "every head has zero weight; the fused bundle would be empty",
        ));
    }
    if memory.num_classes() == 0 {
        return Err(AnalysisReport::new(Stage::Memory, "memory holds no classes"));
    }
    if !memory.is_finite() {
        return Err(AnalysisReport::new(Stage::Memory, "class memory contains non-finite values"));
    }
    Ok(())
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

    #[test]
    fn ensemble_checks_cover_heads_weights_and_memory() {
        let memory = AssociativeMemory::new(4, 512);
        let good = EnsembleDims { embedding: 32, features: 32, dim: 512, weight: 1.0 };
        assert!(verify_ensemble(&[good, good], &memory).is_ok());

        // No heads at all.
        let report = verify_ensemble(&[], &memory).unwrap_err();
        assert_eq!(report.stage, Stage::Ensemble);

        // Projection width disagreeing with the teacher's embedding.
        let bad = EnsembleDims { features: 30, ..good };
        let report = verify_ensemble(&[good, bad], &memory).unwrap_err();
        assert_eq!(report.stage, Stage::Ensemble);
        assert_eq!(report.layer, Some(1));
        assert_eq!((report.expected.as_slice(), report.actual.as_slice()), (&[32][..], &[30][..]));

        // Head HD dimension disagreeing with the consensus memory.
        let bad = EnsembleDims { dim: 256, ..good };
        let report = verify_ensemble(&[bad], &memory).unwrap_err();
        assert_eq!(report.stage, Stage::Ensemble);
        assert!(report.to_string().contains("256"), "{report}");

        // Negative and all-zero weights.
        let bad = EnsembleDims { weight: -0.5, ..good };
        assert_eq!(verify_ensemble(&[bad], &memory).unwrap_err().stage, Stage::Ensemble);
        let zero = EnsembleDims { weight: 0.0, ..good };
        let report = verify_ensemble(&[zero, zero], &memory).unwrap_err();
        assert!(report.to_string().contains("zero weight"), "{report}");

        // Non-finite consensus memory.
        let mut sick = AssociativeMemory::new(4, 512);
        sick.class_mut(0)[0] = f32::INFINITY;
        let report = verify_ensemble(&[good], &sick).unwrap_err();
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
