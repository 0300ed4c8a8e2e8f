//! Depthwise 2-D convolution (one filter per channel), the workhorse of
//! MobileNetV2's and EfficientNet's inverted-residual blocks.

use crate::init::he_normal;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::shape::ShapeError;
use nshd_tensor::{conv_out_dim, conv_tap_range, Rng, Shape, Tensor};
use std::ops::Range;

/// A depthwise convolution: each input channel is convolved with its own
/// `R×S` kernel; channel count is preserved.
///
/// # Examples
///
/// ```
/// use nshd_nn::{DepthwiseConv2d, Layer, Mode};
/// use nshd_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let mut dw = DepthwiseConv2d::new(4, 3, 2, 1, &mut rng);
/// let y = dw.forward(&Tensor::zeros([1, 4, 16, 16]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `channels × kernel² ` filter bank.
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with He-initialised filters.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(channels > 0 && kernel > 0 && stride > 0);
        let fan_in = kernel * kernel;
        let weight = Param::new(he_normal(rng, &[channels, fan_in], fan_in));
        let bias = Param::new_no_decay(Tensor::zeros([channels]));
        DepthwiseConv2d { channels, kernel, stride, padding, weight, bias, cached_input: None }
    }

    /// Output `(height, width)` for an `h×w` input.
    ///
    /// # Panics
    ///
    /// Panics, naming the layer, if the window does not fit the padded
    /// input.
    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let out = |extent| conv_out_dim(extent, self.kernel, self.stride, self.padding);
        match (out(h), out(w)) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => panic!(
                "{}: window {} does not fit the {h}x{w} input padded by {}",
                self.name(),
                self.kernel,
                self.padding
            ),
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("dwconv{}x{}(c{},s{})", self.kernel, self.kernel, self.channels, self.stride)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "DepthwiseConv2d expects NCHW input");
        assert_eq!(dims[1], self.channels, "channel mismatch in {}", self.name());
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = self.out_hw(h, w);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        // Per kernel column `kx`: the output columns whose tap lands
        // inside the input row and the input column of the first one —
        // computed once, shared by every row and channel.
        let col_taps: Vec<(usize, Range<usize>, usize)> = (0..k)
            .filter_map(|kx| {
                let oxs = conv_tap_range(w, ow, kx, s, p)?;
                let ix = oxs.start * s + kx - p;
                Some((kx, oxs, ix))
            })
            .collect();
        let mut out = Tensor::zeros([n, self.channels, oh, ow]);
        let x = input.as_slice();
        let wv = self.weight.value.as_slice();
        let bv = self.bias.value.as_slice();
        let ov = out.as_mut_slice();
        // Each output is `bias`, then `+= x·w` for its in-bounds taps in
        // `(ky, kx)` order — the order a per-pixel loop would use, so the
        // result is bit-identical to one. Walking a tap across a whole
        // output row instead of a pixel across its taps makes the stride-1
        // inner loop a contiguous axpy that vectorises.
        for plane in 0..n * self.channels {
            let c = plane % self.channels;
            let src = &x[plane * h * w..(plane + 1) * h * w];
            let dst = &mut ov[plane * oh * ow..(plane + 1) * oh * ow];
            let filt = &wv[c * k * k..(c + 1) * k * k];
            dst.fill(bv[c]);
            for oy in 0..oh {
                let drow = &mut dst[oy * ow..(oy + 1) * ow];
                for ky in 0..k {
                    let Some(iy) = (oy * s + ky).checked_sub(p).filter(|&iy| iy < h) else {
                        continue;
                    };
                    let srow = &src[iy * w..(iy + 1) * w];
                    for (kx, oxs, ix) in &col_taps {
                        let f = filt[ky * k + kx];
                        let d = &mut drow[oxs.clone()];
                        if s == 1 {
                            for (o, &v) in d.iter_mut().zip(&srow[*ix..*ix + oxs.len()]) {
                                *o += v * f;
                            }
                        } else {
                            for (o, &v) in d.iter_mut().zip(srow[*ix..].iter().step_by(s)) {
                                *o += v * f;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called without a training-mode forward")
            .clone();
        let dims = input.dims();
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(grad.dims(), &[n, self.channels, oh, ow]);
        let mut dx = Tensor::zeros([n, self.channels, h, w]);
        let x = input.as_slice();
        let g = grad.as_slice();
        let wv = self.weight.value.as_slice();
        let dwv = self.weight.grad.as_mut_slice();
        let dbv = self.bias.grad.as_mut_slice();
        let dxv = dx.as_mut_slice();
        let k = self.kernel;
        for b in 0..n {
            for c in 0..self.channels {
                let base_in = (b * self.channels + c) * h * w;
                let base_out = (b * self.channels + c) * oh * ow;
                let filt = &wv[c * k * k..(c + 1) * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = g[base_out + oy * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        dbv[c] += go;
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    let pix = base_in + iy as usize * w + ix as usize;
                                    dwv[c * k * k + ky * k + kx] += go * x[pix];
                                    dxv[pix] += go * filt[ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
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
        let (h, w) = (in_shape[1], in_shape[2]);
        match (
            conv_out_dim(h, self.kernel, self.stride, self.padding),
            conv_out_dim(w, self.kernel, self.stride, self.padding),
        ) {
            (Some(oh), Some(ow)) => Ok(Shape::from([self.channels, oh, ow])),
            _ => Err(ShapeError::WindowTooLarge {
                layer: self.name(),
                window: self.kernel,
                input: (h, w),
            }),
        }
    }

    fn macs(&self, in_shape: &[usize]) -> u64 {
        let (oh, ow) = self.out_hw(in_shape[1], in_shape[2]);
        (self.channels * self.kernel * self.kernel * oh * ow) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_are_independent() {
        let mut rng = Rng::new(1);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        // Zero out channel 1's filter: its output must be the bias (0).
        for v in dw.weight.value.as_mut_slice()[9..18].iter_mut() {
            *v = 0.0;
        }
        let x = Tensor::from_fn([1, 2, 4, 4], |i| i as f32);
        let y = dw.forward(&x, Mode::Eval);
        let c1 = &y.as_slice()[16..32];
        assert!(c1.iter().all(|&v| v == 0.0));
        let c0 = &y.as_slice()[..16];
        assert!(c0.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn matches_full_conv_with_block_diagonal_weights() {
        use crate::conv::Conv2d;
        let mut rng = Rng::new(2);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        let mut full = Conv2d::new(2, 2, 3, 1, 1, &mut Rng::new(99));
        // Build the equivalent block-diagonal full-conv weight.
        for v in full.params_mut()[0].value.as_mut_slice().iter_mut() {
            *v = 0.0;
        }
        let dwv: Vec<f32> = dw.weight.value.as_slice().to_vec();
        {
            let wfull = &mut full.params_mut()[0].value;
            // full weight layout: [co][ci*9 + t], co==ci on the diagonal.
            for c in 0..2 {
                for t in 0..9 {
                    *wfull.at_mut(&[c, c * 9 + t]) = dwv[c * 9 + t];
                }
            }
        }
        let x = Tensor::from_fn([1, 2, 5, 5], |i| ((i * 7 % 13) as f32 - 6.0) / 6.0);
        let a = dw.forward(&x, Mode::Eval);
        let b = full.forward(&x, Mode::Eval);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::new(3);
        let mut dw = DepthwiseConv2d::new(1, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn([1, 1, 4, 4], |i| (i as f32 * 0.31).cos());
        let y = dw.forward(&x, Mode::Train);
        let dx = dw.backward(&Tensor::ones(y.shape().clone()));
        let eps = 1e-2;
        for &idx in &[0usize, 7, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let numeric = (dw.forward(&xp, Mode::Eval).sum() - dw.forward(&xm, Mode::Eval).sum())
                / (2.0 * eps);
            assert!((numeric - dx.as_slice()[idx]).abs() < 1e-2);
        }
        for &idx in &[0usize, 4, 8] {
            let orig = dw.weight.value.as_slice()[idx];
            dw.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = dw.forward(&x, Mode::Eval).sum();
            dw.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = dw.forward(&x, Mode::Eval).sum();
            dw.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - dw.weight.grad.as_slice()[idx]).abs() < 2e-2);
        }
    }

    #[test]
    #[should_panic(expected = "dwconv5x5(c2,s1): window 5 does not fit the 3x3 input padded by 0")]
    fn window_larger_than_padded_input_panics_with_layer_name() {
        // 3 + 2·0 − 5 must not underflow into a huge output allocation.
        let dw = DepthwiseConv2d::new(2, 5, 1, 0, &mut Rng::new(6));
        dw.infer(&Tensor::zeros([1, 2, 3, 3]));
    }

    #[test]
    fn macs_are_k2_per_output_element() {
        let mut rng = Rng::new(4);
        let dw = DepthwiseConv2d::new(8, 3, 1, 1, &mut rng);
        assert_eq!(dw.macs(&[8, 16, 16]), 8 * 9 * 256);
        assert_eq!(dw.param_count(), 8 * 9 + 8);
    }
}
