//! Fusing N trained teachers into one symbolic consensus memory.
//!
//! The HD-Glue recipe (Sutor et al. 2022), adapted to the NSHD stack:
//!
//! 1. each teacher's penultimate-layer embeddings are standardised and
//!    pushed through a **per-teacher** random projection Φ_t into a
//!    shared D-dimensional hyperspace;
//! 2. per-sample hypervectors are **weight-bundled** across teachers —
//!    each teacher's vote counts proportionally to its standalone
//!    bundling accuracy on the fusion set — and re-binarised with
//!    deterministic tie-breaking;
//! 3. the fused hypervectors initialise one consensus
//!    [`AssociativeMemory`], then **error-correcting retraining**
//!    ([`OnlineTrainer`]) re-bundles every misclassified example until
//!    the counts converge (or the epoch budget runs out).

use nshd_core::{
    vote, EmbeddingClassifier, EngineState, FeatureScaler, Head, PipelineError, Symbolizer,
};
use nshd_data::ImageDataset;
use nshd_hdc::{
    bundle_init, AssociativeMemory, BipolarHv, EpochReport, OnlineTrainer, RandomProjection,
    ScoringMode,
};
use nshd_tensor::Tensor;
use std::fmt;
use std::sync::Arc;

/// Knobs for [`GlueEnsemble::fuse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlueConfig {
    /// Shared hyperspace dimensionality D.
    pub hv_dim: usize,
    /// Base seed; each teacher's projection derives a distinct seed
    /// from it.
    pub seed: u64,
    /// Error-correcting retraining epoch budget over the fusion set.
    pub correction_epochs: usize,
    /// Learning rate of the error-correcting [`OnlineTrainer`].
    pub learning_rate: f32,
    /// Images per forward pass while embedding the fusion set.
    pub embed_chunk: usize,
}

impl Default for GlueConfig {
    fn default() -> Self {
        GlueConfig {
            hv_dim: 4096,
            seed: 0x617C,
            correction_epochs: 5,
            learning_rate: 0.2,
            embed_chunk: 64,
        }
    }
}

impl GlueConfig {
    /// Checks the configuration can fuse at all.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when a dimension, epoch count,
    /// or rate is unusable.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.hv_dim == 0 {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: "hypervector dimension must be positive".into(),
            });
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: format!("learning rate must be positive, got {}", self.learning_rate),
            });
        }
        if self.embed_chunk == 0 {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: "embedding chunk size must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Per-teacher summary of a fuse: the head's name, its standalone
/// (single-teacher bundling) accuracy on the fusion set, and the weight
/// it was admitted with.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadReport {
    /// The teacher's display name.
    pub name: String,
    /// Single-teacher bundling accuracy on the fusion set.
    pub standalone_accuracy: f32,
    /// Contribution weight in the fused bundle (equals the standalone
    /// accuracy).
    pub weight: f32,
}

/// A fused multi-teacher symbolic classifier: N teacher heads voting
/// into one consensus [`AssociativeMemory`].
///
/// Built by [`GlueEnsemble::fuse`]; served (with hot-swap and live
/// class growth) by an [`Engine`](nshd_core::Engine) over the
/// ensemble's [`EngineState`] as its first state. Cloning is cheap
/// (`Arc` bumps), so replicated serving can snapshot one fuse into
/// several engines.
#[derive(Clone)]
pub struct GlueEnsemble {
    state: EngineState,
    head_reports: Vec<HeadReport>,
    correction: Vec<EpochReport>,
}

impl fmt::Debug for GlueEnsemble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlueEnsemble")
            .field("heads", &self.head_reports)
            .field("classes", &self.num_classes())
            .field("dim", &self.memory().dim())
            .finish()
    }
}

impl GlueEnsemble {
    /// Fuses trained teachers into one consensus memory over `train`
    /// (the fusion set): per-teacher projections, accuracy-weighted
    /// bundling, then error-correcting retraining. Deterministic for a
    /// fixed teacher list, fusion set, and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] for an empty teacher list,
    /// empty fusion set, or unusable configuration, and the first
    /// teacher error (shape mismatch, non-finite embeddings) otherwise.
    #[must_use = "fusing is expensive; discarding the ensemble wastes the work"]
    pub fn fuse(
        teachers: &[&dyn EmbeddingClassifier],
        train: &ImageDataset,
        config: &GlueConfig,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        if teachers.is_empty() {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: "cannot fuse an empty teacher list".into(),
            });
        }
        if train.is_empty() {
            return Err(PipelineError::EmptyBatch);
        }
        let _sp = nshd_obs::span("glue_fuse");
        let labels = train.labels();
        let num_classes = train.num_classes();
        let mut heads = Vec::with_capacity(teachers.len());
        let mut head_reports = Vec::with_capacity(teachers.len());
        let mut per_head_hvs: Vec<Vec<BipolarHv>> = Vec::with_capacity(teachers.len());
        for (t, teacher) in teachers.iter().enumerate() {
            // Embed the fusion set once per teacher, in chunks so the
            // NCHW activations stay modest.
            let mut embeds: Vec<Tensor> = Vec::with_capacity(train.len());
            for (chunk, _) in train.batches(config.embed_chunk) {
                let matrix = teacher.embed_batch(&chunk)?;
                for b in 0..chunk.len() {
                    embeds.push(matrix.batch_item(b));
                }
            }
            let scaler = FeatureScaler::fit(&embeds);
            // Distinct per-teacher seeds: heads must not share a basis,
            // or their votes would be correlated instead of independent.
            let head_seed =
                config.seed.wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let projection =
                RandomProjection::new(teacher.embedding_dim(), config.hv_dim, head_seed);
            let (model, cut) = teacher.extractor();
            let symbolizer = Symbolizer::new(model, cut, scaler, None, &projection)?;
            let rows: Vec<Vec<f32>> = embeds
                .iter()
                .map(|e| symbolizer.scaler().transform(e).as_slice().to_vec())
                .collect();
            let hvs = symbolizer.try_encode(&rows)?;
            let samples: Vec<(BipolarHv, usize)> =
                hvs.iter().cloned().zip(labels.iter().copied()).collect();
            // The head's weight is its standalone bundling accuracy on
            // the fusion set: a teacher that cannot separate the classes
            // alone gets a proportionally quieter vote.
            let standalone = bundle_init(num_classes, config.hv_dim, &samples);
            let accuracy = standalone.accuracy(&samples);
            head_reports.push(HeadReport {
                name: teacher.name().to_string(),
                standalone_accuracy: accuracy,
                weight: accuracy,
            });
            heads.push(Arc::new(Head::new(teacher.name(), symbolizer, accuracy)));
            per_head_hvs.push(hvs);
        }

        // Weighted consensus bundle per sample, re-binarised.
        let dim = config.hv_dim;
        let fused: Vec<(BipolarHv, usize)> =
            vote(&heads, per_head_hvs).into_iter().zip(labels.iter().copied()).collect();
        let mut memory = bundle_init(num_classes, dim, &fused);
        // Error-correcting retraining on the fused representatives:
        // every misclassified example strengthens its true class and
        // weakens the false winner, with per-epoch counts recorded.
        let trainer = OnlineTrainer::new(config.learning_rate);
        let correction = trainer.train(&mut memory, &fused, config.correction_epochs);
        let state = EngineState::new(heads, Arc::new(memory), ScoringMode::Dense);
        let ensemble = GlueEnsemble { state, head_reports, correction };
        ensemble.verify()?;
        Ok(ensemble)
    }

    /// Statically verifies the heads against the consensus memory
    /// ([`EngineState::verify`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] naming the first violated
    /// invariant.
    pub fn verify(&self) -> Result<(), PipelineError> {
        Ok(self.state.verify()?)
    }

    /// The heads and consensus memory, as an engine first serves them.
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// The teacher heads, in fuse order.
    pub fn heads(&self) -> &[Arc<Head>] {
        self.state.heads()
    }

    /// The fused consensus memory.
    pub fn memory(&self) -> &AssociativeMemory {
        self.state.memory()
    }

    /// Per-teacher fuse summaries (standalone accuracy and weight), in
    /// fuse order.
    pub fn head_reports(&self) -> &[HeadReport] {
        &self.head_reports
    }

    /// Per-epoch error-correction reports from the fuse, in order.
    pub fn correction(&self) -> &[EpochReport] {
        &self.correction
    }

    /// Number of classes the consensus memory predicts over.
    pub fn num_classes(&self) -> usize {
        self.state.num_classes()
    }

    /// Consensus predictions for a batch of CHW images.
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn predict_batch(&self, images: &[Tensor]) -> Result<Vec<usize>, PipelineError> {
        self.state.predict_batch(images)
    }

    /// Consensus classification accuracy over a labelled dataset
    /// ([`EngineState::accuracy`]).
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn accuracy(&self, dataset: &ImageDataset) -> Result<f32, PipelineError> {
        self.state.accuracy(dataset)
    }
}
