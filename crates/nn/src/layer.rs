//! The layer abstraction all network components implement.

use crate::act::ActKind;
use crate::conv::Conv2d;
use crate::dwconv::DepthwiseConv2d;
use crate::norm::BatchNorm2d;
use crate::param::Param;
use crate::sequential::Sequential;
use crate::shape::ShapeError;
use nshd_tensor::{Shape, Tensor};

/// Whether a forward pass is part of training or evaluation.
///
/// Controls batch-norm statistics (batch vs running) and dropout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Training: batch statistics, dropout active, inputs cached for
    /// backward.
    Train,
    /// Evaluation: running statistics, dropout inactive.
    #[default]
    Eval,
}

/// A borrowed view of a layer's evaluation-mode operation, returned by
/// [`Layer::eval_op`].
///
/// [`Sequential::infer_to`] reads it to group each run of
/// conv/depthwise → batch norm → activation (→ the enclosing residual's
/// `body + skip`) into one fused step, and to recurse into nested
/// containers. A layer without a view runs its own
/// [`infer`](Layer::infer).
#[derive(Debug, Clone, Copy)]
pub enum EvalOp<'a> {
    /// A standard convolution.
    Conv(&'a Conv2d),
    /// A depthwise convolution.
    Depthwise(&'a DepthwiseConv2d),
    /// A batch norm over its running statistics.
    BatchNorm(&'a BatchNorm2d),
    /// An elementwise activation.
    Activation(ActKind),
    /// A skip connection `body(x) + x` around this body.
    Residual(&'a Sequential),
    /// A nested layer stack.
    Sequential(&'a Sequential),
}

/// A differentiable network component.
///
/// Layers operate on batched tensors whose leading dimension is the batch
/// (`N×C×H×W` for spatial layers, `N×F` after flattening). Each layer caches
/// whatever it needs during a [`Mode::Train`] forward pass so that
/// [`backward`](Layer::backward) can run afterwards; calling `backward`
/// without a preceding training-mode forward is a programmer error and
/// panics.
pub trait Layer: Send + Sync {
    /// A short human-readable layer name, e.g. `"conv3x3(16→32)"`.
    fn name(&self) -> String;

    /// Computes the layer output for a batched input.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Computes the layer output for a batched input in evaluation mode
    /// without touching any layer state — the thread-shareable inference
    /// path (`&self`, so `Send + Sync` layers can serve concurrent
    /// requests). Must be bit-identical to `forward(input, Mode::Eval)`.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// A view of this layer's evaluation-mode operation, for the fused
    /// pass of [`Sequential::infer_to`]. `None` (the default) means the
    /// pass runs [`infer`](Layer::infer) instead; a layer that returns a
    /// view promises that the fused kernels reproduce its `infer` bit
    /// for bit.
    fn eval_op(&self) -> Option<EvalOp<'_>> {
        None
    }

    /// Propagates `grad` (∂loss/∂output) backwards, accumulating parameter
    /// gradients and returning ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass preceded this call.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Immutable access to the layer's parameters (possibly empty).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's parameters, in the same stable order
    /// as [`params`](Layer::params).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Statically infers the output shape (excluding batch) for a given
    /// input shape (excluding batch), without running any arithmetic.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming this layer when the input shape
    /// violates the layer's contract (wrong rank, channel or feature
    /// mismatch, window larger than the input, …).
    fn shape_of(&self, in_shape: &[usize]) -> Result<Shape, ShapeError>;

    /// Output shape (excluding batch) for a given input shape (excluding
    /// batch) — the panicking convenience over
    /// [`shape_of`](Layer::shape_of).
    ///
    /// # Panics
    ///
    /// Panics with the [`ShapeError`] message when the input shape is
    /// rejected.
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        match self.shape_of(in_shape) {
            Ok(shape) => shape.dims().to_vec(),
            Err(e) => panic!("{e}"),
        }
    }

    /// Checks that the layer is ready for evaluation-mode inference
    /// (e.g. batch-norm running statistics are finite and non-negative).
    /// Containers forward to their children; stateless layers are always
    /// ready.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the unready state.
    fn eval_ready(&self) -> Result<(), String> {
        Ok(())
    }

    /// Multiply–accumulate operations for one sample of the given input
    /// shape. Elementwise layers report 0 following the convention of the
    /// NSHD paper's Fig. 5 (binding/bundling counted by the HD side).
    fn macs(&self, _in_shape: &[usize]) -> u64 {
        0
    }

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Clones the layer into a boxed trait object, enabling `Clone` for
    /// containers of `Box<dyn Layer>` (and thus for whole models, so a
    /// trained teacher can be reused across experiment configurations).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Appends any non-parameter learned state (e.g. batch-norm running
    /// statistics) to `out`, in a stable order. Containers forward to
    /// their children in order. Parameter-only layers need not override.
    fn collect_state(&self, _out: &mut Vec<Vec<f32>>) {}

    /// Restores state previously produced by
    /// [`collect_state`](Layer::collect_state), consuming entries from
    /// the cursor in the same stable order.
    ///
    /// # Panics
    ///
    /// Implementations panic if the cursor runs dry or an entry has the
    /// wrong length.
    fn restore_state(&mut self, _state: &mut std::vec::IntoIter<Vec<f32>>) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal identity layer to exercise trait defaults.
    struct Identity;

    impl Layer for Identity {
        fn name(&self) -> String {
            "identity".into()
        }
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.clone()
        }
        fn infer(&self, input: &Tensor) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            grad.clone()
        }
        fn shape_of(&self, in_shape: &[usize]) -> Result<Shape, ShapeError> {
            Ok(Shape::from(in_shape))
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(Identity)
        }
    }

    #[test]
    fn trait_defaults_are_sensible() {
        let mut id = Identity;
        assert!(id.params().is_empty());
        assert_eq!(id.param_count(), 0);
        assert_eq!(id.macs(&[3, 32, 32]), 0);
        // The provided `out_shape` goes through `shape_of`.
        assert_eq!(id.out_shape(&[3, 2]), vec![3, 2]);
        assert!(id.eval_ready().is_ok());
        assert!(id.eval_op().is_none());
        id.zero_grad(); // no-op, must not panic
        let x = Tensor::ones([2, 3]);
        assert_eq!(id.forward(&x, Mode::Train), x);
        assert_eq!(id.infer(&x), x);
        assert_eq!(id.backward(&x), x);
    }

    #[test]
    fn mode_default_is_eval() {
        assert_eq!(Mode::default(), Mode::Eval);
    }
}
