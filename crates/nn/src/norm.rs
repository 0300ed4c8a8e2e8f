//! Batch normalisation over NCHW feature maps.

use crate::fused::{BnAffine, Epilogue};
use crate::layer::{EvalOp, Layer, Mode};
use crate::param::Param;
use crate::shape::ShapeError;
use nshd_tensor::{Shape, Tensor};

/// 2-D batch normalisation with learnable affine parameters and running
/// statistics for evaluation.
///
/// During training, activations are normalised with batch statistics and
/// exponential running averages are updated; during evaluation the running
/// averages are used, so single-image inference behaves deterministically.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    n_per_channel: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ=1, β=0 and running stats (0, 1).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0);
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new_no_decay(Tensor::ones([channels])),
            beta: Param::new_no_decay(Tensor::zeros([channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    /// The per-channel running mean currently used in evaluation mode.
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The per-channel running variance currently used in evaluation mode.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Channel count.
    pub(crate) fn channels(&self) -> usize {
        self.channels
    }

    /// Channel `c`'s evaluation-mode normalisation and affine.
    pub(crate) fn affine(&self, c: usize) -> BnAffine {
        BnAffine {
            mean: self.running_mean[c],
            inv_std: 1.0 / (self.running_var[c] + self.eps).sqrt(),
            gamma: self.gamma.value.as_slice()[c],
            beta: self.beta.value.as_slice()[c],
        }
    }
}

impl Layer for BatchNorm2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("bn(c{})", self.channels)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval {
            return self.infer(input);
        }
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "BatchNorm2d expects NCHW input");
        assert_eq!(dims[1], self.channels, "channel mismatch in {}", self.name());
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let plane = h * w;
        let per_channel = n * plane;
        let x = input.as_slice();
        let mut out = Tensor::zeros(input.shape().clone());

        let mut mean = vec![0.0f32; self.channels];
        let mut var = vec![0.0f32; self.channels];
        for c in 0..self.channels {
            let mut s = 0.0;
            for b in 0..n {
                let base = (b * self.channels + c) * plane;
                s += x[base..base + plane].iter().sum::<f32>();
            }
            mean[c] = s / per_channel as f32;
            let mut v = 0.0;
            for b in 0..n {
                let base = (b * self.channels + c) * plane;
                v += x[base..base + plane].iter().map(|&e| (e - mean[c]).powi(2)).sum::<f32>();
            }
            var[c] = v / per_channel as f32;
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
            self.running_var[c] =
                (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
        }

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let g = self.gamma.value.as_slice();
        let bta = self.beta.value.as_slice();
        let mut x_hat = Tensor::zeros(input.shape().clone());
        {
            let xh = x_hat.as_mut_slice();
            let o = out.as_mut_slice();
            for b in 0..n {
                for c in 0..self.channels {
                    let base = (b * self.channels + c) * plane;
                    for i in 0..plane {
                        let normalised = (x[base + i] - mean[c]) * inv_std[c];
                        xh[base + i] = normalised;
                        o[base + i] = g[c] * normalised + bta[c];
                    }
                }
            }
        }
        self.cache = Some(BnCache { x_hat, inv_std, n_per_channel: per_channel });
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "BatchNorm2d expects NCHW input");
        assert_eq!(dims[1], self.channels, "channel mismatch in {}", self.name());
        // The fused eval pass's epilogue, over every plane of the batch.
        let mut out = input.clone();
        let epilogue = Epilogue { bn: Some(self), ..Epilogue::default() };
        epilogue.apply(out.as_mut_slice(), dims[2] * dims[3], None);
        out
    }

    fn eval_op(&self) -> Option<EvalOp<'_>> {
        Some(EvalOp::BatchNorm(self))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called without a training-mode forward");
        let dims = grad.dims();
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let plane = h * w;
        let m = cache.n_per_channel as f32;
        let g = grad.as_slice();
        let xh = cache.x_hat.as_slice();
        let gamma = self.gamma.value.as_slice();
        let mut dx = Tensor::zeros(grad.shape().clone());

        // Per-channel sums needed by the batch-norm backward formula.
        let mut sum_dy = vec![0.0f32; self.channels];
        let mut sum_dy_xhat = vec![0.0f32; self.channels];
        for b in 0..n {
            for c in 0..self.channels {
                let base = (b * self.channels + c) * plane;
                for i in 0..plane {
                    sum_dy[c] += g[base + i];
                    sum_dy_xhat[c] += g[base + i] * xh[base + i];
                }
            }
        }
        for c in 0..self.channels {
            self.beta.grad.as_mut_slice()[c] += sum_dy[c];
            self.gamma.grad.as_mut_slice()[c] += sum_dy_xhat[c];
        }
        {
            let dxv = dx.as_mut_slice();
            for b in 0..n {
                for c in 0..self.channels {
                    let base = (b * self.channels + c) * plane;
                    let k = gamma[c] * cache.inv_std[c] / m;
                    for i in 0..plane {
                        dxv[base + i] =
                            k * (m * g[base + i] - sum_dy[c] - xh[base + i] * sum_dy_xhat[c]);
                    }
                }
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn shape_of(&self, in_shape: &[usize]) -> Result<Shape, ShapeError> {
        if in_shape.len() != 3 {
            return Err(ShapeError::WrongRank {
                layer: self.name(),
                expected: 3,
                actual: in_shape.to_vec(),
            });
        }
        if in_shape[0] != self.channels {
            return Err(ShapeError::ChannelMismatch {
                layer: self.name(),
                expected: self.channels,
                actual: in_shape[0],
            });
        }
        Ok(Shape::from(in_shape))
    }

    fn eval_ready(&self) -> Result<(), String> {
        for (c, (&m, &v)) in self.running_mean.iter().zip(&self.running_var).enumerate() {
            if !m.is_finite() || !v.is_finite() {
                return Err(format!("{}: non-finite running stats in channel {c}", self.name()));
            }
            if v < 0.0 {
                return Err(format!(
                    "{}: negative running variance {v} in channel {c}",
                    self.name()
                ));
            }
        }
        Ok(())
    }

    fn collect_state(&self, out: &mut Vec<Vec<f32>>) {
        out.push(self.running_mean.clone());
        out.push(self.running_var.clone());
    }

    fn restore_state(&mut self, state: &mut std::vec::IntoIter<Vec<f32>>) {
        let mean = state.next().expect("missing running-mean state");
        let var = state.next().expect("missing running-var state");
        assert_eq!(mean.len(), self.channels, "running-mean length mismatch");
        assert_eq!(var.len(), self.channels, "running-var length mismatch");
        self.running_mean = mean;
        self.running_var = var;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_forward_normalises_batch() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_fn([4, 2, 3, 3], |i| (i as f32 * 0.7).sin() * 3.0 + 1.0);
        let y = bn.forward(&x, Mode::Train);
        // Each channel of the output should have ~0 mean, ~1 variance
        // (γ=1, β=0 initially).
        let plane = 9;
        for c in 0..2 {
            let mut vals = Vec::new();
            for b in 0..4 {
                let base = (b * 2 + c) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Without any training, running stats are (0, 1): eval is identity.
        let x = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
        let y = bn.forward(&x, Mode::Eval);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
        // After training passes, running stats move toward batch stats.
        let shifted = x.shift(10.0);
        for _ in 0..50 {
            bn.forward(&shifted, Mode::Train);
        }
        assert!((bn.running_mean()[0] - 11.5).abs() < 0.5);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(1);
        // Use distinctive gamma/beta so their gradients are exercised.
        bn.gamma.value.as_mut_slice()[0] = 1.3;
        bn.beta.value.as_mut_slice()[0] = -0.2;
        let x = Tensor::from_fn([2, 1, 2, 2], |i| (i as f32 * 0.9).cos());
        let y = bn.forward(&x, Mode::Train);
        let gy = Tensor::from_fn(y.shape().clone(), |i| 0.1 * (i as f32 + 1.0));
        let dx = bn.backward(&gy);

        // Numerical loss: sum(gy * bn(x)) recomputed in Train mode with a
        // fresh layer each time (running stats must not pollute the check).
        let loss = |xin: &Tensor| {
            let mut bn2 = BatchNorm2d::new(1);
            bn2.gamma.value.as_mut_slice()[0] = 1.3;
            bn2.beta.value.as_mut_slice()[0] = -0.2;
            let out = bn2.forward(xin, Mode::Train);
            out.as_slice().iter().zip(gy.as_slice()).map(|(a, b)| a * b).sum::<f32>()
        };
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 2e-2,
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
        // Gamma/beta gradients against finite differences.
        let loss_gb = |gamma: f32, beta: f32| {
            let mut bn2 = BatchNorm2d::new(1);
            bn2.gamma.value.as_mut_slice()[0] = gamma;
            bn2.beta.value.as_mut_slice()[0] = beta;
            let out = bn2.forward(&x, Mode::Train);
            out.as_slice().iter().zip(gy.as_slice()).map(|(a, b)| a * b).sum::<f32>()
        };
        let num_dgamma = (loss_gb(1.3 + eps, -0.2) - loss_gb(1.3 - eps, -0.2)) / (2.0 * eps);
        let num_dbeta = (loss_gb(1.3, -0.2 + eps) - loss_gb(1.3, -0.2 - eps)) / (2.0 * eps);
        assert!((num_dgamma - bn.gamma.grad.as_slice()[0]).abs() < 2e-2);
        assert!((num_dbeta - bn.beta.grad.as_slice()[0]).abs() < 2e-2);
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let bn = BatchNorm2d::new(16);
        assert_eq!(bn.param_count(), 32);
        assert_eq!(bn.out_shape(&[16, 8, 8]), vec![16, 8, 8]);
        assert_eq!(bn.macs(&[16, 8, 8]), 0);
    }
}
