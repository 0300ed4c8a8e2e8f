//! Standard 2-D convolution, lowered to GEMM via im2col.
//!
//! Because the lowering ends in plain `matmul`/`matmul_bt`/`matmul_at`
//! calls, convolution rides `nshd-tensor`'s register-blocked SIMD
//! micro-kernels automatically — forward, weight-gradient, and
//! input-gradient GEMMs alike — with bit-identical results to the
//! scalar reference (the kernels share one numeric contract; see
//! `nshd-tensor`'s `matmul` module docs).

use crate::init::he_normal;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::shape::ShapeError;
use nshd_tensor::{
    col2im, conv_out_dim, im2col, matmul, matmul_at, matmul_bt, par, ConvGeometry, Rng, Shape,
    Tensor,
};

/// A 2-D convolution layer (`NCHW` in, `NKH'W'` out).
///
/// Weights are stored as a `K×(C·R·S)` matrix; the whole batch's im2col
/// patches are concatenated column-wise so the forward pass is a single
/// GEMM per layer.
///
/// # Examples
///
/// ```
/// use nshd_nn::{Conv2d, Layer, Mode};
/// use nshd_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros([2, 3, 32, 32]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.dims(), &[2, 8, 32, 32]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
    bias: Param,
    /// `CRS × (N·P)` patch matrix of the last training-mode forward.
    cached_cols: Option<Tensor>,
    cached_batch: usize,
    cached_in_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with He-initialised weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(he_normal(rng, &[out_channels, fan_in], fan_in));
        let bias = Param::new_no_decay(Tensor::zeros([out_channels]));
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias,
            cached_cols: None,
            cached_batch: 0,
            cached_in_hw: (0, 0),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry {
            channels: self.in_channels,
            height: h,
            width: w,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Unfolds the whole batch into one `CRS × (N·P)` patch matrix.
    ///
    /// The per-sample `im2col` unfolds are independent, so large batches
    /// run them in parallel across the `nshd_tensor::par` worker set;
    /// each sample's patches are produced by the same serial code either
    /// way, and the interleaving copy below is pure data movement, so
    /// the result is identical at any thread count. A batch of one is
    /// its own patch matrix and skips the interleave.
    fn batch_cols(&self, input: &Tensor, g: &ConvGeometry) -> Tensor {
        let n = input.dims()[0];
        if n == 1 {
            return im2col(input.as_slice(), g);
        }
        let crs = g.patch_len();
        let p = g.out_positions();
        let in_plane = self.in_channels * g.height * g.width;
        let items: Vec<&[f32]> =
            (0..n).map(|b| &input.as_slice()[b * in_plane..(b + 1) * in_plane]).collect();
        let unfold_work = (crs * p) as u64 * n as u64;
        let per_sample: Vec<Tensor> = if par::should_parallelize(unfold_work) {
            par::par_map(&items, |item| im2col(item, g))
        } else {
            items.iter().map(|item| im2col(item, g)).collect()
        };
        let mut cols = Tensor::zeros([crs, n * p]);
        let dst = cols.as_mut_slice();
        for (b, item_cols) in per_sample.iter().enumerate() {
            // Copy row-by-row into the combined matrix at column offset b·P.
            let src = item_cols.as_slice();
            for r in 0..crs {
                dst[r * n * p + b * p..r * n * p + (b + 1) * p]
                    .copy_from_slice(&src[r * p..(r + 1) * p]);
            }
        }
        cols
    }

    /// The full forward computation, shared between [`Layer::forward`] and
    /// [`Layer::infer`]: returns the patch matrix (for the training cache)
    /// and the biased output.
    fn compute(&self, input: &Tensor) -> (Tensor, Tensor) {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "Conv2d expects NCHW input, got {:?}", dims);
        assert_eq!(dims[1], self.in_channels, "channel mismatch in {}", self.name());
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let g = self.geometry(h, w);
        let (oh, ow) = (g.out_height(), g.out_width());
        let p = oh * ow;
        let cols = self.batch_cols(input, &g);
        let bv = self.bias.value.as_slice();
        if n == 1 {
            // For a batch of one the K×P GEMM output already is the
            // 1×K×H'×W' layout: reshape it and add the bias in place.
            // `reshaped` fails only on an element-count mismatch, which
            // K·P = K·H'·W' rules out; the general path below would
            // still be correct if it ever did.
            let y = matmul(&self.weight.value, &cols);
            if let Ok(mut out) = y.reshaped([1, self.out_channels, oh, ow]) {
                for (plane, &bias_k) in out.as_mut_slice().chunks_exact_mut(p).zip(bv) {
                    for v in plane {
                        *v += bias_k;
                    }
                }
                return (cols, out);
            }
        }
        // One GEMM for the whole batch: K×CRS · CRS×(N·P) = K×(N·P).
        let y = matmul(&self.weight.value, &cols);
        // Scatter K×(N·P) → N×K×P, adding bias.
        let mut out = Tensor::zeros([n, self.out_channels, oh, ow]);
        let yv = y.as_slice();
        let ov = out.as_mut_slice();
        for k in 0..self.out_channels {
            let bias_k = bv[k];
            for b in 0..n {
                let src = &yv[k * n * p + b * p..k * n * p + (b + 1) * p];
                let dst =
                    &mut ov[(b * self.out_channels + k) * p..(b * self.out_channels + k + 1) * p];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s + bias_k;
                }
            }
        }
        (cols, out)
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "conv{}x{}({}→{},s{})",
            self.kernel, self.kernel, self.in_channels, self.out_channels, self.stride
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (cols, out) = self.compute(input);
        if mode == Mode::Train {
            self.cached_batch = input.dims()[0];
            self.cached_in_hw = (input.dims()[2], input.dims()[3]);
            self.cached_cols = Some(cols);
        }
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.compute(input).1
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cols =
            self.cached_cols.as_ref().expect("backward called without a training-mode forward");
        let dims = grad.dims();
        let (n, k) = (dims[0], dims[1]);
        assert_eq!(k, self.out_channels);
        assert_eq!(n, self.cached_batch, "batch size changed between forward and backward");
        let (h, w) = self.cached_in_hw;
        let g = self.geometry(h, w);
        let p = g.out_positions();
        // Gather N×K×P gradients into the K×(N·P) layout of the GEMM.
        let mut dy = Tensor::zeros([k, n * p]);
        {
            let gv = grad.as_slice();
            let dv = dy.as_mut_slice();
            for b in 0..n {
                for kk in 0..k {
                    let src = &gv[(b * k + kk) * p..(b * k + kk + 1) * p];
                    dv[kk * n * p + b * p..kk * n * p + (b + 1) * p].copy_from_slice(src);
                }
            }
        }
        // dW += dY · colsᵀ ; db += row sums of dY.
        let dw = matmul_bt(&dy, cols);
        self.weight.grad.axpy(1.0, &dw);
        {
            let dv = dy.as_slice();
            for kk in 0..k {
                let s: f32 = dv[kk * n * p..(kk + 1) * n * p].iter().sum();
                self.bias.grad.as_mut_slice()[kk] += s;
            }
        }
        // dcols = Wᵀ · dY ; dx_b = col2im(dcols[:, b·P..(b+1)·P]).
        let dcols = matmul_at(&self.weight.value, &dy);
        let crs = g.patch_len();
        let in_plane = self.in_channels * h * w;
        let mut dx = Tensor::zeros([n, self.in_channels, h, w]);
        let dcv = dcols.as_slice();
        // Per-sample col2im folds are independent; parallel for large
        // batches, with the same per-sample serial fold either way.
        let items: Vec<Tensor> = (0..n)
            .map(|b| {
                let mut item = Tensor::zeros([crs, p]);
                let iv = item.as_mut_slice();
                for r in 0..crs {
                    iv[r * p..(r + 1) * p]
                        .copy_from_slice(&dcv[r * n * p + b * p..r * n * p + (b + 1) * p]);
                }
                item
            })
            .collect();
        let fold_work = (crs * p) as u64 * n as u64;
        let images: Vec<Vec<f32>> = if n > 1 && par::should_parallelize(fold_work) {
            par::par_map(&items, |item| col2im(item, &g))
        } else {
            items.iter().map(|item| col2im(item, &g)).collect()
        };
        for (b, img) in images.iter().enumerate() {
            dx.write_slice(b * in_plane, img);
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
        if in_shape[0] != self.in_channels {
            return Err(ShapeError::ChannelMismatch {
                layer: self.name(),
                expected: self.in_channels,
                actual: in_shape[0],
            });
        }
        let (h, w) = (in_shape[1], in_shape[2]);
        match (
            conv_out_dim(h, self.kernel, self.stride, self.padding),
            conv_out_dim(w, self.kernel, self.stride, self.padding),
        ) {
            (Some(oh), Some(ow)) => Ok(Shape::from([self.out_channels, oh, ow])),
            _ => Err(ShapeError::WindowTooLarge {
                layer: self.name(),
                window: self.kernel,
                input: (h, w),
            }),
        }
    }

    fn macs(&self, in_shape: &[usize]) -> u64 {
        let g = self.geometry(in_shape[1], in_shape[2]);
        (self.out_channels * g.patch_len() * g.out_positions()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn naive_conv(
        x: &Tensor,
        w: &Tensor,
        bias: &[f32],
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (n, h, wd) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (wd + 2 * pad - k) / stride + 1;
        let mut out = Tensor::zeros([n, cout, oh, ow]);
        for b in 0..n {
            for co in 0..cout {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias[co];
                        for ci in 0..cin {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < wd
                                    {
                                        acc += x.at(&[b, ci, iy as usize, ix as usize])
                                            * w.at(&[co, ci * k * k + ky * k + kx]);
                                    }
                                }
                            }
                        }
                        *out.at_mut(&[b, co, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_convolution() {
        let mut rng = Rng::new(1);
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        let x = Tensor::from_fn([2, 2, 5, 6], |i| ((i * 31 % 17) as f32 - 8.0) / 8.0);
        let y = conv.forward(&x, Mode::Eval);
        let expected =
            naive_conv(&x, &conv.weight.value, conv.bias.value.as_slice(), 2, 3, 3, 2, 1);
        assert_eq!(y.shape(), expected.shape());
        for (a, b) in y.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::new(2);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        // Batch of 2 exercises the gather/scatter paths.
        let x = Tensor::from_fn([2, 1, 4, 4], |i| (i as f32 * 0.13).sin());
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor::ones(y.shape().clone());
        let dx = conv.backward(&ones);

        let eps = 1e-2;
        for &idx in &[0usize, 5, 10, 15, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv.forward(&xp, Mode::Eval).sum();
            let fm = conv.forward(&xm, Mode::Eval).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!((numeric - analytic).abs() < 2e-2, "dx[{idx}]: {analytic} vs {numeric}");
        }
        for &idx in &[0usize, 3, 8] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = conv.forward(&x, Mode::Eval).sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = conv.forward(&x, Mode::Eval).sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = conv.weight.grad.as_slice()[idx];
            assert!((numeric - analytic).abs() < 4e-2, "dw[{idx}]: {analytic} vs {numeric}");
        }
        // Bias gradient: dL/db_k = batch × output positions.
        let plane = 2.0 * 16.0;
        for &g in conv.bias.grad.as_slice() {
            assert!((g - plane).abs() < 1e-3, "db {g} vs {plane}");
        }
    }

    #[test]
    fn macs_formula() {
        let mut rng = Rng::new(3);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        assert_eq!(conv.macs(&[3, 32, 32]), 8 * 27 * 1024);
        assert_eq!(conv.out_shape(&[3, 32, 32]), vec![8, 32, 32]);
        assert_eq!(conv.param_count(), 8 * 27 + 8);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channels_panic() {
        let mut rng = Rng::new(4);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        conv.forward(&Tensor::zeros([1, 2, 8, 8]), Mode::Eval);
    }
}
