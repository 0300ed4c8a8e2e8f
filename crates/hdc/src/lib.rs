//! # nshd-hdc
//!
//! Hyperdimensional computing for the NSHD workspace: hypervector
//! representations, HD arithmetic, encoders, the associative class
//! memory, and the retraining rules — MASS (CascadeHD) and the NSHD
//! paper's knowledge-distillation extension (Algorithm 1) — plus the
//! straight-through-estimator decoding that trains the manifold layer
//! across the HD encoder.
//!
//! Three encoders cover the paper's model space:
//!
//! - [`RandomProjection`] — Φ_P, the encoding NSHD and BaselineHD use;
//! - [`NonlinearEncoder`] — ID–level encoding, the standalone VanillaHD
//!   baseline;
//! - [`LshEncoder`] — random-hyperplane reduction from the prior work the
//!   paper compares against.
//!
//! # Examples
//!
//! ```
//! use nshd_hdc::{bundle_init, AssociativeMemory, MassTrainer, RandomProjection};
//!
//! let proj = RandomProjection::new(8, 2048, 7);
//! let samples: Vec<_> = (0..4)
//!     .map(|i| {
//!         let v: Vec<f32> = (0..8).map(|j| ((i * 8 + j) as f32).sin()).collect();
//!         (proj.encode(&v), i % 2)
//!     })
//!     .collect();
//! let mut memory = bundle_init(2, 2048, &samples);
//! MassTrainer::new(0.2).epoch(&mut memory, &samples);
//! assert_eq!(memory.num_classes(), 2);
//! ```

#![warn(missing_docs)]

mod deploy;
mod distill;
mod fault;
mod hypervector;
mod lsh;
mod mass;
mod memory;
mod nonlinear;
mod online;
mod ops;
mod payload;
mod projection;
mod quantized;
mod similarity;
mod snapshot;
mod ste;
mod symbolic;

pub use deploy::{HdQuery, HdScorer, QueryHv, ScoringBackend, ScoringMode};
pub use distill::{DistillConfig, DistillTrainer, TemperatureMode};
pub use fault::{FaultPlan, FaultReport, FaultScenario};
pub use hypervector::{BipolarHv, PackedHv};
pub use lsh::LshEncoder;
pub use mass::{bundle_init, MassTrainer};
pub use memory::{AssociativeMemory, MemoryError};
pub use nonlinear::NonlinearEncoder;
pub use online::{EpochReport, OnlineTrainer};
pub use ops::{bind, bundle, bundle_majority, permute, sign_with_tiebreak};
pub use payload::{pack_signs, unpack_signs, Int8Vec};
pub use projection::{BatchEncoder, RandomProjection};
pub use quantized::{PackedMemory, QuantizedMemory};
pub use similarity::{cosine_dense_bipolar, cosine_packed, dot_dense_bipolar};
pub use snapshot::{MemoryCell, MemorySnapshot};
pub use ste::{apply_ste, feature_gradient, hyperspace_error, SteConfig};
pub use symbolic::{encode_record, encode_sequence, query_record, ItemMemory};
