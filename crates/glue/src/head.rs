//! One teacher's symbolic head: a [`Symbolizer`] (truncated extractor →
//! feature scaler → random-projection HD encoder) plus the head's
//! contribution weight.

use nshd_core::{EnsembleDims, FeatureScaler, PipelineError, Symbolizer};
use nshd_hdc::{BipolarHv, RandomProjection};
use nshd_nn::Model;
use nshd_tensor::Tensor;
use std::sync::Arc;

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
/// snapshots; nothing in a head mutates once it is shared. Re-weighted
/// copies ([`with_weight`](GlueHead::with_weight)) share the symbolizer
/// by `Arc`.
#[derive(Clone)]
pub struct GlueHead {
    name: String,
    pub(crate) symbolizer: Arc<Symbolizer>,
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
        let symbolizer = Arc::new(Symbolizer::new(extractor, cut, scaler, None, projection)?);
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
    /// standardisation, one sign-operand GEMM encode. Returns one
    /// bipolar hypervector per image, in order.
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
    /// published snapshots are never mutated). The new head shares this
    /// one's teacher, scaler and projection by `Arc`.
    pub fn with_weight(&self, weight: f32) -> GlueHead {
        GlueHead { weight, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshd_nn::Architecture;
    use nshd_tensor::Rng;

    #[test]
    fn reweighted_heads_share_the_symbolizer() {
        let teacher = Architecture::MobileNetV2.build(10, &mut Rng::new(5));
        let cut = teacher.features.len();
        let embedding = teacher.feature_len_at(cut);
        let scaler = FeatureScaler::from_raw(vec![0.0; embedding], vec![1.0; embedding])
            .expect("consistent statistics");
        let projection = RandomProjection::new(embedding, 256, 2);
        let head = GlueHead::new("t", teacher, cut, scaler, &projection, 1.0).expect("verifies");
        let silenced = head.with_weight(0.0);
        assert_eq!(silenced.weight(), 0.0);
        assert_eq!(head.weight(), 1.0);
        assert!(Arc::ptr_eq(&silenced.symbolizer, &head.symbolizer), "symbolizer was copied");
    }
}
