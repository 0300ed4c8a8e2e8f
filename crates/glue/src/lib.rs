//! # nshd-glue — HD-Glue multi-teacher symbolic fusion
//!
//! Fuses N trained teachers (anything implementing
//! [`nshd_core::EmbeddingClassifier`]) into **one** symbolic consensus
//! classifier, following the HD-Glue recipe (Sutor et al. 2022): each
//! teacher's penultimate-layer embeddings are pushed through a
//! per-teacher random projection into a shared hyperspace, bundled with
//! accuracy-proportional weights into per-sample consensus
//! hypervectors, and distilled into one
//! [`AssociativeMemory`](nshd_hdc::AssociativeMemory) refined by
//! error-correcting retraining.
//!
//! The crate splits along the fuse/serve boundary:
//!
//! - [`GlueEnsemble::fuse`] is the **offline** half — builds the heads,
//!   weights, and consensus memory from a fusion set, deterministically.
//! - serving is `nshd-core`'s one [`Engine`](nshd_core::Engine) over the
//!   ensemble's [`state`](GlueEnsemble::state): the teacher heads in
//!   front of the consensus memory, published copy-on-write, so the
//!   memory, a single teacher head, or the class set itself can be
//!   replaced mid-traffic while in-flight batches keep answering
//!   bit-exactly from the state they pinned. [`GlueEngine`] is a
//!   forwarding name for it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod ensemble;

pub use engine::GlueEngine;
pub use ensemble::{GlueConfig, GlueEnsemble, HeadReport};
