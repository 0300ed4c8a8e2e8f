//! The paper's symbolisation stage `H = Φ_P(Ψ(conv(x)))` (§IV), built
//! once and shared by every batched path that turns images into
//! hypervectors.
//!
//! A [`Symbolizer`] is an immutable, `Send + Sync` snapshot of the
//! truncated CNN extractor, the per-feature [`FeatureScaler`], the
//! optional manifold learner Ψ, and the random-projection encoder Φ_P
//! in its batched GEMM form (the basis as a bit-packed sign operand).
//! [`NshdEngine`](crate::NshdEngine) serves through one, each
//! `nshd-glue` head wraps one, and
//! [`BaselineHd`](crate::BaselineHd) classifies through one.
//!
//! **Determinism.** Its hypervectors are bit-identical to the
//! per-sample oracle [`NshdModel::symbolize`](crate::NshdModel::symbolize):
//! evaluation-mode CNN layers are batch-size-independent, and the GEMM
//! encoder accumulates features in the same order (with the same
//! zero-skip, and `v · (±1.0)` terms that are exact) as
//! [`RandomProjection::encode`].

use crate::manifold::ManifoldLearner;
use crate::robust::PipelineError;
use crate::scaler::FeatureScaler;
use crate::verify::{self, AnalysisReport};
use nshd_hdc::{BatchEncoder, BipolarHv, RandomProjection};
use nshd_nn::Model;
use nshd_tensor::{Tensor, TensorError};

/// Truncated CNN → feature scaler → optional manifold learner →
/// projection encoder, statically verified at construction. It is not
/// `Clone`: engines and heads that serve through one share it by `Arc`.
pub struct Symbolizer {
    extractor: Model,
    cut: usize,
    scaler: FeatureScaler,
    manifold: Option<ManifoldLearner>,
    encoder: BatchEncoder,
}

/// Checks a batch of CHW images against `model`'s input shape, rejects
/// non-finite pixels, and runs the truncated CNN once over the stacked
/// NCHW batch. Returns the features at `cut`, one batch item per image.
///
/// ReLU washes NaN inputs to zero, so poisoned images must be caught
/// here rather than by a check on the features.
pub(crate) fn extract(
    model: &Model,
    cut: usize,
    images: &[Tensor],
) -> Result<Tensor, PipelineError> {
    for image in images {
        if image.dims() != model.input_shape {
            return Err(TensorError::IncompatibleShapes {
                lhs: model.input_shape.clone(),
                rhs: image.dims().to_vec(),
            }
            .into());
        }
        if image.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(PipelineError::NonFiniteActivation { stage: "extractor input" });
        }
    }
    let batch = Tensor::stack(images)?;
    Ok(model.infer_features_at(&batch, cut))
}

impl Symbolizer {
    /// Assembles a symbolizer after statically verifying every hand-off:
    /// the cut is in range, the extractor's shapes infer and its
    /// batch-norm statistics are eval-ready, the scaler is fitted on the
    /// extractor's width, the manifold learner reads its output shape,
    /// and the projection reads the resulting feature width.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first misconfigured
    /// stage.
    #[must_use = "the symbolizer is only constructed when verification passes"]
    pub fn new(
        extractor: Model,
        cut: usize,
        scaler: FeatureScaler,
        manifold: Option<ManifoldLearner>,
        projection: &RandomProjection,
    ) -> Result<Self, AnalysisReport> {
        let symbolizer =
            Symbolizer { extractor, cut, scaler, manifold, encoder: projection.batch_encoder() };
        symbolizer.verify()?;
        Ok(symbolizer)
    }

    /// Re-runs the construction-time static analysis on this snapshot.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first inconsistent
    /// stage.
    pub fn verify(&self) -> Result<(), AnalysisReport> {
        let feat_shape = verify::verify_extractor(&self.extractor, self.cut)?;
        verify::verify_head_stages(
            &feat_shape,
            self.scaler.len(),
            self.manifold.as_ref(),
            self.encoder.features(),
        )
    }

    /// The teacher CNN the features are extracted from (still holding
    /// all its layers).
    pub fn extractor(&self) -> &Model {
        &self.extractor
    }

    /// The number of feature layers the extractor keeps.
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// The per-feature standardisation statistics.
    pub fn scaler(&self) -> &FeatureScaler {
        &self.scaler
    }

    /// The manifold learner Ψ, if the pipeline uses one.
    pub fn manifold(&self) -> Option<&ManifoldLearner> {
        self.manifold.as_ref()
    }

    /// The batched projection encoder Φ_P.
    pub fn encoder(&self) -> &BatchEncoder {
        &self.encoder
    }

    /// CNN feature extraction for a batch: one truncated-CNN pass over
    /// the stacked images, then per-sample standardisation and
    /// (optionally) manifold compression. This is the compute-heavy
    /// half of symbolisation.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when an image's shape differs
    /// from the extractor's input shape, and
    /// [`PipelineError::NonFiniteActivation`] when an image or the
    /// extracted values contain NaN/∞.
    #[must_use = "extraction can fail on malformed inputs"]
    pub fn try_embed(&self, images: &[Tensor]) -> Result<Vec<Vec<f32>>, PipelineError> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let _sp = nshd_obs::span("extract");
        let feats = extract(&self.extractor, self.cut, images)?;
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
            return Err(PipelineError::NonFiniteActivation { stage: "feature extraction" });
        }
        Ok(values)
    }

    /// Encodes extracted value rows into bipolar hypervectors with one
    /// sign-operand GEMM, bit-identical to [`RandomProjection::encode`]
    /// per row.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when a row's length differs
    /// from the projection's feature width.
    #[must_use = "encoding can fail on malformed value rows"]
    pub fn try_encode(&self, values: &[Vec<f32>]) -> Result<Vec<BipolarHv>, PipelineError> {
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

    /// Symbolises a batch of CHW images into query hypervectors:
    /// [`try_embed`](Symbolizer::try_embed) then
    /// [`try_encode`](Symbolizer::try_encode).
    ///
    /// # Errors
    ///
    /// Returns the first error of either stage.
    #[must_use = "symbolisation can fail on malformed inputs"]
    pub fn try_symbolize(&self, images: &[Tensor]) -> Result<Vec<BipolarHv>, PipelineError> {
        self.try_encode(&self.try_embed(images)?)
    }
}
