//! # nshd-core
//!
//! The NSHD pipeline — the primary contribution of *Comprehensive
//! Integration of Hyperdimensional Computing with Deep Learning towards
//! Neuro-Symbolic AI* (DAC 2023) — assembled from the workspace
//! substrates:
//!
//! 1. **Symbolisation** `H = Φ_P(Ψ(conv(x)))`: a trained CNN truncated at
//!    a configurable layer, the manifold learner Ψ (max-pool + FC
//!    regressor to `F̂` features), and binary random-projection encoding
//!    — built once as the [`Symbolizer`] every batched path shares, and
//!    served as a weighted [`Head`] of the one serving [`Engine`].
//! 2. **Knowledge-distillation retraining** (Algorithm 1): MASS updates
//!    blended with soft targets from the *uncut* teacher, so the knowledge
//!    in the removed layers still reaches the HD model.
//! 3. **Manifold training across the encoder** (§V-C): class-hypervector
//!    errors decoded back to feature space through a straight-through
//!    estimator and the projection adjoint.
//!
//! The crate also provides the paper's comparison models — [`VanillaHd`],
//! [`BaselineHd`], [`CnnClassifier`] — and the cost accounting behind
//! Figs. 4–6 and Table II.
//!
//! # Examples
//!
//! ```no_run
//! use nshd_core::{NshdConfig, NshdModel};
//! use nshd_data::{normalize_pair, SynthSpec};
//! use nshd_nn::{fit, Adam, Architecture, TrainConfig};
//! use nshd_tensor::Rng;
//!
//! let (mut train, mut test) = SynthSpec::synth10(42).generate();
//! normalize_pair(&mut train, &mut test);
//! let mut teacher = Architecture::EfficientNetB0.build(10, &mut Rng::new(1));
//! fit(&mut teacher, train.images(), train.labels(),
//!     &mut Adam::new(2e-3, 1e-5), &TrainConfig::default());
//! let mut nshd = NshdModel::train(teacher, &train, NshdConfig::new(8));
//! println!("accuracy: {:.3}", nshd.evaluate(&test));
//! ```

#![warn(missing_docs)]

mod baselines;
mod config;
mod cost;
mod engine;
mod head;
mod manifold;
mod model;
mod robust;
mod scaler;
mod serialize;
mod serve;
mod symbolizer;
mod verify;

pub use baselines::{BaselineHd, Classifier, CnnClassifier, EmbeddingClassifier, VanillaHd};
pub use config::NshdConfig;
pub use cost::{
    baselinehd_macs, baselinehd_macs_from_stats, baselinehd_size, baselinehd_size_from_stats,
    baselinehd_workload, baselinehd_workload_from_stats, cnn_size_bytes, cnn_size_from_stats,
    nshd_macs, nshd_macs_from_stats, nshd_size, nshd_size_from_stats, nshd_workload,
    nshd_workload_from_stats, MacBreakdown, SizeBreakdown,
};
pub use engine::{AsEngine, Engine, EngineInput, EngineState, NshdEngine};
pub use head::{vote, Head};
pub use manifold::ManifoldLearner;
pub use model::{NshdModel, NshdTrainer, RetrainEpoch};
pub use robust::{DivergenceGuard, GuardVerdict, PipelineError, RollbackReason};
pub use scaler::FeatureScaler;
pub use serialize::load_pipeline;
pub use serve::HdDeployEngine;
pub use symbolizer::Symbolizer;
pub use verify::{verify_model, verify_quantized, verify_teacher, AnalysisReport, Stage};
