//! One teacher's symbolic head: truncated extractor → feature scaler →
//! random-projection HD encoder, plus the head's contribution weight.

use nshd_core::{EnsembleDims, FeatureScaler, PipelineError};
use nshd_hdc::{BatchEncoder, BipolarHv, RandomProjection};
use nshd_nn::Model;
use nshd_tensor::{Tensor, TensorError};

/// An immutable, `Send + Sync` snapshot of one teacher's path into
/// hyperspace: the teacher CNN truncated at its penultimate layer, the
/// per-feature standardisation fitted on the fusion set, and the
/// per-teacher random projection Φ_t. Each head also carries the weight
/// its hypervectors contribute to the fused consensus bundle.
///
/// Heads are built by
/// [`GlueEnsemble::fuse`](crate::GlueEnsemble::fuse) and shared by
/// `Arc` between the ensemble, its serving engine, and in-flight
/// snapshots; nothing in a head mutates after construction.
pub struct GlueHead {
    name: String,
    extractor: Model,
    cut: usize,
    scaler: FeatureScaler,
    encoder: BatchEncoder,
    weight: f32,
}

// Heads are shared across serving worker threads; fail the build if a
// field ever loses `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GlueHead>();
};

impl GlueHead {
    /// Assembles a head from its parts. The projection's feature width
    /// must match the extractor's flattened output at `cut`, and the
    /// scaler must be fitted on that same width.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when `cut` is out of range or
    /// the scaler/projection widths disagree with the extractor.
    #[must_use = "the head is the constructor's only product"]
    pub fn new(
        name: impl Into<String>,
        extractor: Model,
        cut: usize,
        scaler: FeatureScaler,
        projection: &RandomProjection,
        weight: f32,
    ) -> Result<Self, PipelineError> {
        let name = name.into();
        if cut == 0 || cut > extractor.features.len() {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: format!(
                    "head {name}: cut {cut} out of range for {} feature layers",
                    extractor.features.len()
                ),
            });
        }
        let embedding = extractor.feature_len_at(cut);
        if scaler.len() != embedding {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: format!(
                    "head {name}: scaler fitted on {} features but the extractor embeds {embedding}",
                    scaler.len()
                ),
            });
        }
        if projection.features() != embedding {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: format!(
                    "head {name}: projection reads {} features but the extractor embeds {embedding}",
                    projection.features()
                ),
            });
        }
        Ok(GlueHead { name, extractor, cut, scaler, encoder: projection.batch_encoder(), weight })
    }

    /// Display name (the wrapped teacher's).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weight this head's hypervectors carry in the fused bundle.
    pub fn weight(&self) -> f32 {
        self.weight
    }

    /// Flattened embedding width the head reads from its teacher.
    pub fn embedding_dim(&self) -> usize {
        self.extractor.feature_len_at(self.cut)
    }

    /// HD dimension the head's projection emits.
    pub fn hv_dim(&self) -> usize {
        self.encoder.dim()
    }

    /// The head's dimension summary for
    /// [`nshd_core::verify_ensemble`].
    pub fn dims(&self) -> EnsembleDims {
        EnsembleDims {
            embedding: self.embedding_dim(),
            features: self.encoder.features(),
            dim: self.encoder.dim(),
            weight: self.weight,
        }
    }

    /// Encodes a batch of CHW images through this head: one truncated
    /// CNN pass, per-sample standardisation, one GEMM encode. Returns
    /// one bipolar hypervector per image, in order.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when an image's shape differs
    /// from the teacher's input shape, and
    /// [`PipelineError::NonFiniteActivation`] when inputs or scaled
    /// embeddings contain NaN/∞.
    pub fn encode_batch(&self, images: &[Tensor]) -> Result<Vec<BipolarHv>, PipelineError> {
        match self.embed(images)? {
            None => Ok(Vec::new()),
            Some(matrix) => Ok(self.encoder.encode_batch(&matrix)),
        }
    }

    /// Front half of [`Self::encode_batch`]: validation, one truncated
    /// CNN pass, per-sample standardisation. `None` for an empty batch.
    fn embed(&self, images: &[Tensor]) -> Result<Option<Tensor>, PipelineError> {
        if images.is_empty() {
            return Ok(None);
        }
        let _sp = nshd_obs::span("glue_head");
        for image in images {
            if image.dims() != self.extractor.input_shape {
                return Err(TensorError::IncompatibleShapes {
                    lhs: self.extractor.input_shape.clone(),
                    rhs: image.dims().to_vec(),
                }
                .into());
            }
            if image.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(PipelineError::NonFiniteActivation { stage: "glue head input" });
            }
        }
        let batch = Tensor::stack(images)?;
        let feats = self.extractor.infer_features_at(&batch, self.cut);
        let rows: Vec<Vec<f32>> = (0..images.len())
            .map(|b| self.scaler.transform(&feats.batch_item(b)).as_slice().to_vec())
            .collect();
        if rows.iter().flatten().any(|v| !v.is_finite()) {
            return Err(PipelineError::NonFiniteActivation { stage: "glue head embedding" });
        }
        Ok(Some(Tensor::from_rows(&rows)?))
    }

    /// Clone of this head with a different contribution weight (heads
    /// are otherwise immutable; re-weighting builds a new head so
    /// published snapshots are never mutated).
    pub fn with_weight(&self, weight: f32) -> GlueHead {
        GlueHead {
            name: self.name.clone(),
            extractor: self.extractor.clone(),
            cut: self.cut,
            scaler: self.scaler.clone(),
            encoder: self.encoder.clone(),
            weight,
        }
    }
}
