//! Activation layers: ReLU, ReLU6, SiLU (swish), and Sigmoid.
//!
//! The model zoo uses ReLU for VGG, ReLU6 for MobileNetV2, and SiLU for
//! EfficientNet, matching the reference architectures.

use crate::layer::{Layer, Mode};
use crate::shape::ShapeError;
use nshd_tensor::{Shape, Tensor};

/// The activation function applied elementwise by [`Activation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// `max(0, x)` — VGG.
    Relu,
    /// `min(max(0, x), 6)` — MobileNetV2.
    Relu6,
    /// `x · σ(x)` — EfficientNet's swish.
    Silu,
    /// `1 / (1 + e^(-x))` — squeeze-and-excite gates.
    Sigmoid,
}

impl ActKind {
    #[cfg(test)]
    fn apply(self, x: f32) -> f32 {
        match self {
            ActKind::Relu => relu(x),
            ActKind::Relu6 => relu6(x),
            ActKind::Silu => silu(x),
            ActKind::Sigmoid => sigmoid(x),
        }
    }

    /// Derivative with respect to the pre-activation input `x`.
    fn derivative(self, x: f32) -> f32 {
        match self {
            ActKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::Relu6 => {
                if x > 0.0 && x < 6.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::Silu => {
                let s = sigmoid(x);
                s + x * s * (1.0 - s)
            }
            ActKind::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
        }
    }
}

fn relu(x: f32) -> f32 {
    x.max(0.0)
}

fn relu6(x: f32) -> f32 {
    x.clamp(0.0, 6.0)
}

fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// An elementwise activation layer.
///
/// # Examples
///
/// ```
/// use nshd_nn::{Activation, ActKind, Layer, Mode};
/// use nshd_tensor::Tensor;
///
/// let mut relu = Activation::new(ActKind::Relu);
/// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]), Mode::Eval);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActKind,
    cached_input: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActKind) -> Self {
        Activation { kind, cached_input: None }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActKind {
        self.kind
    }
}

impl Layer for Activation {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        match self.kind {
            ActKind::Relu => "relu".into(),
            ActKind::Relu6 => "relu6".into(),
            ActKind::Silu => "silu".into(),
            ActKind::Sigmoid => "sigmoid".into(),
        }
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        // Dispatch once, outside the element loop: each arm's loop then
        // runs one known function and can vectorise.
        match self.kind {
            ActKind::Relu => input.map(relu),
            ActKind::Relu6 => input.map(relu6),
            ActKind::Silu => input.map(silu),
            ActKind::Sigmoid => input.map(sigmoid),
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let input =
            self.cached_input.as_ref().expect("backward called without a training-mode forward");
        grad.zip_with(input, |g, x| g * self.kind.derivative(x))
    }

    fn shape_of(&self, in_shape: &[usize]) -> Result<Shape, ShapeError> {
        Ok(Shape::from(in_shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(kind: ActKind, xs: &[f32]) {
        let eps = 1e-3;
        for &x in xs {
            let analytic = kind.derivative(x);
            let numeric = (kind.apply(x + eps) - kind.apply(x - eps)) / (2.0 * eps);
            assert!((analytic - numeric).abs() < 1e-2, "{kind:?} at {x}: {analytic} vs {numeric}");
        }
    }

    #[test]
    fn relu_values_and_gradient() {
        assert_eq!(ActKind::Relu.apply(-2.0), 0.0);
        assert_eq!(ActKind::Relu.apply(3.0), 3.0);
        // Avoid the kink at 0 for finite differences.
        finite_diff_check(ActKind::Relu, &[-1.5, -0.2, 0.3, 2.0]);
    }

    #[test]
    fn relu6_saturates_both_ends() {
        assert_eq!(ActKind::Relu6.apply(10.0), 6.0);
        assert_eq!(ActKind::Relu6.apply(-1.0), 0.0);
        assert_eq!(ActKind::Relu6.apply(3.0), 3.0);
        finite_diff_check(ActKind::Relu6, &[-1.0, 1.0, 5.0, 7.0]);
    }

    #[test]
    fn silu_values_and_gradient() {
        assert!((ActKind::Silu.apply(0.0)).abs() < 1e-6);
        // silu(x) -> x for large x.
        assert!((ActKind::Silu.apply(10.0) - 10.0).abs() < 1e-3);
        finite_diff_check(ActKind::Silu, &[-3.0, -1.0, 0.0, 1.0, 3.0]);
    }

    #[test]
    fn sigmoid_values_and_gradient() {
        assert!((ActKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        finite_diff_check(ActKind::Sigmoid, &[-2.0, 0.0, 2.0]);
    }

    #[test]
    fn layer_backward_masks_gradient() {
        let mut relu = Activation::new(ActKind::Relu);
        let x = Tensor::from_slice(&[-1.0, 2.0, -3.0, 4.0]);
        let _ = relu.forward(&x, Mode::Train);
        let g = relu.backward(&Tensor::ones([4]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "training-mode forward")]
    fn backward_without_forward_panics() {
        Activation::new(ActKind::Relu).backward(&Tensor::ones([1]));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut a = Activation::new(ActKind::Relu);
        let _ = a.forward(&Tensor::ones([2]), Mode::Eval);
        assert!(a.cached_input.is_none());
    }
}
