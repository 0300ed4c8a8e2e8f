//! One teacher's symbolic head: a [`Symbolizer`] (truncated extractor →
//! feature scaler → random-projection HD encoder) plus the head's
//! contribution weight.

use nshd_core::{EnsembleDims, FeatureScaler, PipelineError, Symbolizer};
use nshd_hdc::{BipolarHv, RandomProjection};
use nshd_nn::Model;
use nshd_tensor::Tensor;

/// An immutable, `Send + Sync` snapshot of one teacher's path into
/// hyperspace: the teacher CNN truncated at its penultimate layer, the
/// per-feature standardisation fitted on the fusion set, and the
/// per-teacher random projection Φ_t, held as one [`Symbolizer`]. Each
/// head also carries the weight its hypervectors contribute to the
/// fused consensus bundle.
///
/// Heads are built by
/// [`GlueEnsemble::fuse`](crate::GlueEnsemble::fuse) and shared by
/// `Arc` between the ensemble, its serving engine, and in-flight
/// snapshots; nothing in a head mutates once it is shared.
#[derive(Clone)]
pub struct GlueHead {
    name: String,
    pub(crate) symbolizer: Symbolizer,
    pub(crate) weight: f32,
}

impl GlueHead {
    /// Assembles a head from its parts after statically verifying them
    /// through [`Symbolizer::new`]: the cut is in range, the extractor's
    /// shapes infer and its batch-norm statistics are eval-ready, and the
    /// scaler and projection are sized for the extractor's embedding.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] naming the first
    /// misconfigured stage.
    #[must_use = "the head is the constructor's only product"]
    pub fn new(
        name: impl Into<String>,
        extractor: Model,
        cut: usize,
        scaler: FeatureScaler,
        projection: &RandomProjection,
        weight: f32,
    ) -> Result<Self, PipelineError> {
        let symbolizer = Symbolizer::new(extractor, cut, scaler, None, projection)?;
        Ok(GlueHead { name: name.into(), symbolizer, weight })
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
        self.symbolizer.extractor().feature_len_at(self.symbolizer.cut())
    }

    /// HD dimension the head's projection emits.
    pub fn hv_dim(&self) -> usize {
        self.symbolizer.encoder().dim()
    }

    /// The head's dimension summary for
    /// [`nshd_core::verify_ensemble`].
    pub fn dims(&self) -> EnsembleDims {
        EnsembleDims {
            embedding: self.embedding_dim(),
            features: self.symbolizer.encoder().features(),
            dim: self.hv_dim(),
            weight: self.weight,
        }
    }

    /// Encodes a batch of CHW images through this head's
    /// [`Symbolizer`]: one truncated CNN pass, per-sample
    /// standardisation, one GEMM encode. Returns one bipolar
    /// hypervector per image, in order.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Tensor`] when an image's shape differs
    /// from the teacher's input shape, and
    /// [`PipelineError::NonFiniteActivation`] when inputs or scaled
    /// embeddings contain NaN/∞.
    pub fn encode_batch(&self, images: &[Tensor]) -> Result<Vec<BipolarHv>, PipelineError> {
        self.symbolizer.try_symbolize(images)
    }

    /// Clone of this head with a different contribution weight (heads
    /// are otherwise immutable; re-weighting builds a new head so
    /// published snapshots are never mutated).
    pub fn with_weight(&self, weight: f32) -> GlueHead {
        GlueHead { weight, ..self.clone() }
    }
}
