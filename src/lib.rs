//! # nshd
//!
//! A Rust reproduction of **NSHD** — *Comprehensive Integration of
//! Hyperdimensional Computing with Deep Learning towards Neuro-Symbolic
//! AI* (DAC 2023): a neuro-symbolic classifier that symbolises images
//! with a truncated CNN, a learned manifold compression layer, and binary
//! random-projection hyperdimensional encoding, then trains the HD class
//! memory with knowledge distilled from the *uncut* CNN teacher.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`tensor`] — dense `f32` tensor math (the PyTorch-role substrate);
//! - [`nn`] — CNN layers/backprop/optimizers and the model zoo
//!   (VGG16, MobileNetV2, EfficientNet-B0/B7 analogs);
//! - [`data`] — procedural `Synth10`/`Synth100` datasets (CIFAR
//!   substitutes);
//! - [`hdc`] — hypervectors, encoders, associative memory, MASS and
//!   distillation retraining;
//! - [`core`] — the NSHD pipeline and the paper's baselines;
//! - [`runtime`] — batched inference serving (micro-batching queue,
//!   one engine call per batch, latency metrics);
//! - [`net`] — the TCP serving front end: the compact `nshd-wire/v1`
//!   binary protocol (f32 / INT8 / bit-packed payloads), a threaded
//!   pipelined server over the replicated cluster, and a blocking
//!   client with typed errors;
//! - [`glue`] — HD-Glue multi-teacher symbolic fusion: a consensus
//!   class memory over trained ensembles, with live class growth and
//!   in-flight hot-swap;
//! - [`obs`] — unified tracing, metrics, and profiling (span trees,
//!   counters/gauges/histograms, per-stage FLOP accounting, flame-style
//!   text and JSON reports);
//! - [`hwmodel`] — Xavier-class energy and ZCU104-DPU cost models;
//! - [`analyze`] — t-SNE, PCA, and cluster/classification metrics.
//!
//! # Examples
//!
//! ```no_run
//! use nshd::core::{NshdConfig, NshdModel};
//! use nshd::data::{normalize_pair, SynthSpec};
//! use nshd::nn::{fit, Adam, Architecture, TrainConfig};
//! use nshd::tensor::Rng;
//!
//! let (mut train, mut test) = SynthSpec::synth10(42).generate();
//! normalize_pair(&mut train, &mut test);
//! let mut teacher = Architecture::EfficientNetB0.build(10, &mut Rng::new(1));
//! fit(&mut teacher, train.images(), train.labels(),
//!     &mut Adam::new(2e-3, 1e-5), &TrainConfig::default());
//! let mut model = NshdModel::train(teacher, &train, NshdConfig::new(8));
//! println!("NSHD accuracy: {:.3}", model.evaluate(&test));
//! ```
//!
//! Runnable examples live in `examples/`; the experiment harness that
//! regenerates each of the paper's tables and figures is the `nshd-bench`
//! crate (see DESIGN.md and EXPERIMENTS.md).

#![warn(missing_docs)]

pub use nshd_analyze as analyze;
pub use nshd_core as core;
pub use nshd_data as data;
pub use nshd_glue as glue;
pub use nshd_hdc as hdc;
pub use nshd_hwmodel as hwmodel;
pub use nshd_net as net;
pub use nshd_nn as nn;
pub use nshd_obs as obs;
pub use nshd_runtime as runtime;
pub use nshd_tensor as tensor;
