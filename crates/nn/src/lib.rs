//! # nshd-nn
//!
//! A from-scratch CNN substrate for the NSHD workspace: layers with full
//! backward passes, optimizers, a training loop, per-layer cost
//! accounting, and width-reduced analogs of the four architectures the
//! NSHD paper (DAC 2023) uses as feature extractors — VGG16, MobileNetV2,
//! EfficientNet-B0 and EfficientNet-B7.
//!
//! The crate plays the role PyTorch + torchvision play for the original
//! paper: it supplies *trained* teachers whose truncated prefixes become
//! NSHD feature extractors, whose remaining layers provide distillation
//! targets, and whose per-layer MAC/parameter counts drive the efficiency
//! experiments (Figs. 4–6, Table II).
//!
//! # Examples
//!
//! ```
//! use nshd_nn::{Architecture, Mode};
//! use nshd_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::new(42);
//! let mut model = Architecture::EfficientNetB0.build(10, &mut rng);
//! let logits = model.forward(&Tensor::zeros([1, 3, 32, 32]), Mode::Eval);
//! assert_eq!(logits.dims(), &[1, 10]);
//! // Truncate after the paper's "layer 7" (cut = 8 feature layers kept):
//! let features = model.features_at(&Tensor::zeros([1, 3, 32, 32]), 8, Mode::Eval);
//! assert_eq!(features.len(), model.feature_len_at(8));
//! ```

#![warn(missing_docs)]

mod act;
mod conv;
mod dwconv;
mod flatten;
mod fused;
mod init;
mod layer;
mod linear;
mod loss;
mod model;
pub mod models;
mod norm;
mod optim;
mod param;
mod pool;
mod se;
mod sequential;
mod serialize;
mod shape;
pub mod specs;
pub mod stats;
mod trainer;

pub use act::{ActKind, Activation};
pub use conv::Conv2d;
pub use dwconv::DepthwiseConv2d;
pub use flatten::{Dropout, Flatten};
pub use init::{he_normal, xavier_uniform};
pub use layer::{EvalOp, Layer, Mode};
pub use linear::Linear;
pub use loss::{accuracy, cross_entropy, distillation_loss, LossOutput};
pub use model::Model;
pub use models::Architecture;
pub use norm::BatchNorm2d;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use se::SqueezeExcite;
pub use sequential::{Residual, Sequential};
pub use serialize::{load_model, save_model, CountingReader};
pub use shape::{ShapeError, ShapeStep, ShapeTrace};
pub use trainer::{evaluate, fit, EpochReport, TrainConfig};
