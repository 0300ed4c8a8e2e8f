//! Depthwise 2-D convolution (one filter per channel), the workhorse of
//! MobileNetV2's and EfficientNet's inverted-residual blocks.
//!
//! One kernel, [`depthwise_plane`], serves both [`Layer::infer`] (and so
//! the training forward) and the fused eval pass. Each output is `bias`,
//! then `+= x·f` for its in-bounds taps in `(ky, kx)` order — the float
//! sequence of a per-pixel loop, so every rewrite of the loop structure
//! is bit-identical to one. Interior columns, whose taps are all in
//! bounds horizontally, run in 8- or 4-lane chunks held in registers
//! across all taps (the last chunk overlaps its neighbour instead of
//! leaving a scalar tail; recomputing an output writes the same bits).
//! Border pixels run one at a time over their tap ranges. Stride {1, 2}
//! × kernel {3, 5} are compiled with constant geometry.

use crate::fused::{Map, Workspace};
use crate::init::he_normal;
use crate::layer::{EvalOp, Layer, Mode};
use crate::param::Param;
use crate::shape::ShapeError;
use nshd_tensor::{conv_out_dim, Rng, Shape, Tensor};
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

    /// Convolves the consecutive `h×w` channel planes of `x` into the
    /// `oh×ow` planes of `out`; plane `i` is channel `i mod C`.
    fn run_planes(&self, x: &[f32], (h, w): (usize, usize), out: &mut [f32]) {
        let (oh, ow) = self.out_hw(h, w);
        let k2 = self.kernel * self.kernel;
        let wv = self.weight.value.as_slice();
        let bv = self.bias.value.as_slice();
        let geom = PlaneGeometry { h, w, oh, ow, k: self.kernel, s: self.stride, p: self.padding };
        for (i, dst) in out.chunks_exact_mut(oh * ow).enumerate() {
            let c = i % self.channels;
            let src = &x[i * h * w..(i + 1) * h * w];
            depthwise_plane(src, &wv[c * k2..(c + 1) * k2], bv[c], &geom, dst);
        }
    }

    /// The fused eval pass's kernel: one `C×H×W` image into a workspace
    /// map, bias included (the same kernel as [`Layer::infer`]).
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch or a window that does not fit.
    pub(crate) fn infer_image(&self, ws: &mut Workspace, x: &[f32], chw: [usize; 3]) -> Map {
        let [c, h, w] = chw;
        assert_eq!(c, self.channels, "channel mismatch in {}", self.name());
        let (oh, ow) = self.out_hw(h, w);
        let len = c * oh * ow;
        let mut buf = ws.take(len);
        self.run_planes(x, (h, w), &mut buf[..len]);
        Map { buf, chw: [c, oh, ow] }
    }
}

/// The geometry of one depthwise plane: input `h×w`, output `oh×ow`,
/// square `k`-tap kernel, stride `s`, zero padding `p`.
struct PlaneGeometry {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k: usize,
    s: usize,
    p: usize,
}

/// Convolves one channel plane: `dst[oy][ox] = bias + Σ src·filt` over
/// the in-bounds taps in `(ky, kx)` order. The common geometries run
/// copies compiled with constant kernel and stride whose interior
/// columns go in register chunks; any other runs pixel by pixel.
fn depthwise_plane(src: &[f32], filt: &[f32], bias: f32, g: &PlaneGeometry, dst: &mut [f32]) {
    let plane = Plane { src, filt, bias, w: g.w, p: g.p };
    match (g.k, g.s) {
        (3, 1) => plane_fixed::<3, 1, 10, 6>(&plane, g, dst),
        (3, 2) => plane_fixed::<3, 2, 17, 9>(&plane, g, dst),
        (5, 1) => plane_fixed::<5, 1, 12, 8>(&plane, g, dst),
        (5, 2) => plane_fixed::<5, 2, 19, 11>(&plane, g, dst),
        (k, s) => plane_rows(k, s, &plane, g, dst, |t, _, cols, drows| {
            for (r, drow) in drows.chunks_exact_mut(g.ow).enumerate() {
                let t = RowTaps { y0: t.y0 + r * s, ..t };
                for ox in cols.clone() {
                    drow[ox] = plane.pixel(k, s, t, ox);
                }
            }
        }),
    }
}

/// One channel's input plane, filter and bias.
struct Plane<'a> {
    src: &'a [f32],
    filt: &'a [f32],
    bias: f32,
    w: usize,
    p: usize,
}

/// An output row's vertical taps: its first padded input row `y0` and
/// the in-bounds tap range `ky0..ky1`.
#[derive(Clone, Copy)]
struct RowTaps {
    y0: usize,
    ky0: usize,
    ky1: usize,
}

impl Plane<'_> {
    /// Input row of vertical tap `ky` (in bounds for `ky0 <= ky < ky1`).
    #[inline(always)]
    fn row(&self, y0: usize, ky: usize) -> &[f32] {
        &self.src[(y0 + ky - self.p) * self.w..][..self.w]
    }

    /// One output over its in-bounds taps, for any position.
    #[inline(always)]
    fn pixel(&self, k: usize, s: usize, t: RowTaps, ox: usize) -> f32 {
        let (kx0, kx1) = taps(ox * s, k, self.p, self.w);
        let mut acc = self.bias;
        for ky in t.ky0..t.ky1 {
            let (r, f) = (self.row(t.y0, ky), &self.filt[ky * k..(ky + 1) * k]);
            for kx in kx0..kx1 {
                acc += r[ox * s + kx - self.p] * f[kx];
            }
        }
        acc
    }

    /// `L` interior outputs from column `ox0`, accumulated in registers
    /// across every tap; `W = (L − 1)·S + K` inputs of each tap row feed
    /// them.
    #[inline(always)]
    fn chunk<const L: usize, const K: usize, const S: usize, const W: usize>(
        &self,
        t: RowTaps,
        ox0: usize,
    ) -> [f32; L] {
        const { assert!(W == (L - 1) * S + K) };
        let mut acc = [self.bias; L];
        for ky in t.ky0..t.ky1 {
            let start = (t.y0 + ky - self.p) * self.w + ox0 * S - self.p;
            let Some(win) = self.src[start..].first_chunk::<W>() else {
                panic!("interior chunk at column {ox0} overruns its input plane");
            };
            for (kx, &fv) in self.filt[ky * K..(ky + 1) * K].iter().enumerate() {
                for (l, a) in acc.iter_mut().enumerate() {
                    *a += win[kx + l * S] * fv;
                }
            }
        }
        acc
    }

    /// Interior outputs `cols` of one row in `L`-chunks.
    #[inline(always)]
    fn chunks<const L: usize, const K: usize, const S: usize, const W: usize>(
        &self,
        t: RowTaps,
        cols: Range<usize>,
        drow: &mut [f32],
    ) {
        chunk_starts::<L>(cols, |ox| {
            drow[ox..ox + L].copy_from_slice(&self.chunk::<L, K, S, W>(t, ox));
        });
    }

    /// Two stride-1 rows' `L` interior outputs from column `ox0`: the
    /// row at `t` and the one below it, both with every vertical tap in
    /// bounds. Input row `j` is tap `j` of the first and tap `j − 1` of
    /// the second, so each output still sums its taps in `(ky, kx)`
    /// order while each input window is loaded once for both.
    #[inline(always)]
    fn chunk_pair<const L: usize, const K: usize, const W: usize>(
        &self,
        t: RowTaps,
        ox0: usize,
    ) -> [[f32; L]; 2] {
        const { assert!(W >= L - 1 + K) };
        let mut acc = [[self.bias; L]; 2];
        for j in 0..=K {
            let start = (t.y0 + j - self.p) * self.w + ox0 - self.p;
            let Some(win) = self.src[start..].first_chunk::<W>() else {
                panic!("interior chunk at column {ox0} overruns its input plane");
            };
            for (row, ky) in [(0, j), (1, j.wrapping_sub(1))] {
                if ky >= K {
                    continue;
                }
                for (kx, &fv) in self.filt[ky * K..(ky + 1) * K].iter().enumerate() {
                    for (l, a) in acc[row].iter_mut().enumerate() {
                        *a += win[kx + l] * fv;
                    }
                }
            }
        }
        acc
    }

    /// [`chunks`](Plane::chunks) for a [`chunk_pair`](Plane::chunk_pair)
    /// of rows; `drows` holds both output rows.
    #[inline(always)]
    fn chunk_pairs<const L: usize, const K: usize, const W: usize>(
        &self,
        t: RowTaps,
        cols: Range<usize>,
        drows: &mut [f32],
    ) {
        let ow = drows.len() / 2;
        chunk_starts::<L>(cols, |ox| {
            let [a0, a1] = self.chunk_pair::<L, K, W>(t, ox);
            drows[ox..ox + L].copy_from_slice(&a0);
            drows[ow + ox..ow + ox + L].copy_from_slice(&a1);
        });
    }
}

/// Calls `f` with the first column of each `L`-wide chunk covering
/// `cols` (which spans at least `L`). The last chunk overlaps its
/// neighbour instead of leaving a scalar tail; recomputing an output
/// writes the same bits.
#[inline(always)]
fn chunk_starts<const L: usize>(cols: Range<usize>, mut f: impl FnMut(usize)) {
    let mut ox = cols.start;
    while ox + L <= cols.end {
        f(ox);
        ox += L;
    }
    if ox < cols.end {
        f(cols.end - L);
    }
}

/// A plane with constant kernel `K` and stride `S`: interior runs in
/// 8-lane chunks (`W8` inputs per tap row), or 4-lane (`W4`) when
/// narrower. At stride 1, pairs of rows with all vertical taps in
/// bounds share each input row's loads between their two outputs.
fn plane_fixed<const K: usize, const S: usize, const W8: usize, const W4: usize>(
    plane: &Plane<'_>,
    g: &PlaneGeometry,
    dst: &mut [f32],
) {
    plane_rows(K, S, plane, g, dst, |t, rows, cols, drows| {
        if rows == 2 && cols.len() >= 8 {
            plane.chunk_pairs::<8, K, W8>(t, cols, drows);
            return;
        }
        for (r, drow) in drows.chunks_exact_mut(g.ow).enumerate() {
            let t = RowTaps { y0: t.y0 + r * S, ..t };
            if cols.len() >= 8 {
                plane.chunks::<8, K, S, W8>(t, cols.clone(), drow);
            } else if cols.len() >= 4 {
                plane.chunks::<4, K, S, W4>(t, cols.clone(), drow);
            } else {
                for ox in cols.clone() {
                    drow[ox] = plane.pixel(K, S, t, ox);
                }
            }
        }
    });
}

/// `lo..hi` of the taps `t < k` whose input coordinate `at + t − p`
/// lies in `0..extent`.
#[inline(always)]
fn taps(at: usize, k: usize, p: usize, extent: usize) -> (usize, usize) {
    let hi = (extent + p).saturating_sub(at).min(k);
    (p.saturating_sub(at).min(hi), hi)
}

/// Walks the output rows: border columns pixel by pixel, the interior
/// columns (all `k` taps in bounds horizontally) through
/// `interior(taps, rows, cols, drows)`. At stride 1, two consecutive
/// rows whose vertical taps are all in bounds go to `interior`
/// together (`rows == 2`, `drows` spanning both; the second row's taps
/// are the first's moved down one input row); every other row goes
/// alone.
#[inline(always)]
fn plane_rows(
    k: usize,
    s: usize,
    plane: &Plane<'_>,
    g: &PlaneGeometry,
    dst: &mut [f32],
    interior: impl Fn(RowTaps, usize, Range<usize>, &mut [f32]),
) {
    let (w, ow, p) = (g.w, g.ow, g.p);
    let lo = p.div_ceil(s).min(ow);
    let hi = if w + p >= k { ((w + p - k) / s + 1).min(ow) } else { 0 }.max(lo);
    let row_taps = |oy: usize| {
        let (ky0, ky1) = taps(oy * s, k, p, g.h);
        RowTaps { y0: oy * s, ky0, ky1 }
    };
    let full = |t: RowTaps| (t.ky0, t.ky1) == (0, k);
    let mut oy = 0;
    while oy < g.oh {
        let t = row_taps(oy);
        let rows = if s == 1 && oy + 1 < g.oh && full(t) && full(row_taps(oy + 1)) { 2 } else { 1 };
        let drows = &mut dst[oy * ow..(oy + rows) * ow];
        for (r, drow) in drows.chunks_exact_mut(ow).enumerate() {
            let t = row_taps(oy + r);
            for ox in (0..lo).chain(hi..ow) {
                drow[ox] = plane.pixel(k, s, t, ox);
            }
        }
        interior(t, rows, lo..hi, drows);
        oy += rows;
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
        let mut out = Tensor::zeros([n, self.channels, oh, ow]);
        self.run_planes(input.as_slice(), (h, w), out.as_mut_slice());
        out
    }

    fn eval_op(&self) -> Option<EvalOp<'_>> {
        Some(EvalOp::Depthwise(self))
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
