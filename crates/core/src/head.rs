//! One weighted path into hyperspace: a [`Symbolizer`] plus the weight
//! its hypervectors carry in the engine's [`vote`].
//!
//! An [`Engine`](crate::Engine) over images holds one or more heads in
//! front of its scorer. NSHD serving is the one-head case with weight
//! 1.0; an `nshd-glue` ensemble is N teacher heads whose weights are
//! their standalone accuracies.

use crate::robust::PipelineError;
use crate::symbolizer::Symbolizer;
use nshd_hdc::{sign_with_tiebreak, BipolarHv};
use nshd_tensor::Tensor;
use std::sync::Arc;

/// An immutable, `Send + Sync` head: the truncated extractor, scaler,
/// optional manifold learner and projection of one [`Symbolizer`],
/// shared by `Arc`, and the weight its hypervectors contribute to the
/// [`vote`].
///
/// Heads are shared by `Arc` between engine states and in-flight
/// snapshots; nothing in a head mutates once it is shared. Re-weighted
/// copies ([`with_weight`](Head::with_weight)) share the symbolizer.
#[derive(Clone)]
pub struct Head {
    name: String,
    symbolizer: Arc<Symbolizer>,
    weight: f32,
}

impl Head {
    /// A head voting with `weight` through `symbolizer` (already
    /// verified by [`Symbolizer::new`]).
    pub fn new(name: impl Into<String>, symbolizer: Symbolizer, weight: f32) -> Self {
        Head { name: name.into(), symbolizer: Arc::new(symbolizer), weight }
    }

    /// Display name (the wrapped teacher's).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weight this head's hypervectors carry in the vote.
    pub fn weight(&self) -> f32 {
        self.weight
    }

    /// The head's path into hyperspace.
    pub fn symbolizer(&self) -> &Symbolizer {
        &self.symbolizer
    }

    /// HD dimension the head's projection emits.
    pub fn hv_dim(&self) -> usize {
        self.symbolizer.encoder().dim()
    }

    /// Encodes a batch of CHW images through this head's
    /// [`Symbolizer`]: one truncated CNN pass, per-sample
    /// standardisation (and manifold compression), one sign-operand GEMM
    /// encode. Returns one bipolar hypervector per image, in order.
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

    /// Clone of this head with a different weight (heads are otherwise
    /// immutable; re-weighting builds a new head so published states are
    /// never mutated). The new head shares this one's symbolizer.
    pub fn with_weight(&self, weight: f32) -> Head {
        Head { weight, ..self.clone() }
    }
}

/// Weighted vote: sample `i`'s hypervector accumulates `±weight` per
/// component over every head's `per_head[h][i]`, in head order, and
/// re-binarises with deterministic position-keyed tie-breaking.
///
/// One head with a positive weight returns its own hypervectors: every
/// accumulator would be `±weight`, which never ties at zero, so the
/// re-binarised vote is bit-identical and is not computed.
pub fn vote(heads: &[Arc<Head>], per_head: Vec<Vec<BipolarHv>>) -> Vec<BipolarHv> {
    if let [head] = heads {
        if head.weight() > 0.0 {
            return per_head.into_iter().next().unwrap_or_default();
        }
    }
    let samples = per_head.first().map_or(0, Vec::len);
    let dim = heads.first().map_or(0, |h| h.hv_dim());
    (0..samples)
        .map(|i| {
            let mut acc = vec![0.0f32; dim];
            for (head, hvs) in heads.iter().zip(&per_head) {
                let weight = head.weight();
                for (a, &c) in acc.iter_mut().zip(hvs[i].components()) {
                    // Multiplication-free weighted bundling by sign.
                    if c > 0 {
                        *a += weight;
                    } else {
                        *a -= weight;
                    }
                }
            }
            sign_with_tiebreak(&acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaler::FeatureScaler;
    use nshd_hdc::RandomProjection;
    use nshd_nn::Architecture;
    use nshd_tensor::Rng;

    /// A MobileNetV2 head emitting D = 256.
    fn head(weight: f32) -> Head {
        let teacher = Architecture::MobileNetV2.build(10, &mut Rng::new(5));
        let cut = teacher.features.len();
        let embedding = teacher.feature_len_at(cut);
        let scaler = FeatureScaler::from_raw(vec![0.0; embedding], vec![1.0; embedding])
            .expect("consistent statistics");
        let projection = RandomProjection::new(embedding, 256, 2);
        let symbolizer =
            Symbolizer::new(teacher, cut, scaler, None, &projection).expect("verifies");
        Head::new("t", symbolizer, weight)
    }

    #[test]
    fn one_positive_head_votes_its_own_hypervectors() {
        let head = Arc::new(head(0.75));
        let mut rng = Rng::new(9);
        let mut hvs = |n: usize| -> Vec<BipolarHv> {
            (0..n)
                .map(|_| {
                    let signs: Vec<f32> = (0..256).map(|_| rng.bipolar()).collect();
                    BipolarHv::from_signs(&signs)
                })
                .collect()
        };
        let own = hvs(6);
        assert_eq!(vote(std::slice::from_ref(&head), vec![own.clone()]), own);
        // The accumulated path agrees: a silent second head adds ±0.0,
        // and `±weight` never ties, so the sign is the first head's.
        let silent = Arc::new(head.with_weight(0.0));
        assert_eq!(vote(&[Arc::clone(&head), silent], vec![own.clone(), hvs(6)]), own);
    }

    #[test]
    fn reweighted_heads_share_the_symbolizer() {
        let head = head(1.0);
        let silenced = head.with_weight(0.0);
        assert_eq!(silenced.weight(), 0.0);
        assert_eq!(head.weight(), 1.0);
        assert!(Arc::ptr_eq(&silenced.symbolizer, &head.symbolizer), "symbolizer was copied");
    }
}
