//! Depthwise 2-D convolution (one filter per channel), the workhorse of
//! MobileNetV2's and EfficientNet's inverted-residual blocks.
//!
//! One kernel serves both [`Layer::infer`] (and so the training forward)
//! and the fused eval pass. Each output is `bias`, then `+= x·f` for its
//! in-bounds taps in `(ky, kx)` order — the float sequence of a per-pixel
//! loop, so every rewrite of the loop structure is bit-identical to one.
//!
//! Kernels {3, 5} × strides {1, 2} run over a copy of the plane padded
//! with `+0.0` — `p` zero columns on either side of each row and a zero
//! row for every row above or below — so every output, borders included,
//! takes all `k²` taps and each output row is one loop over its columns
//! that the compiler vectorises (at stride 2 the padded rows are stored
//! deinterleaved, so each tap still reads consecutive values). At stride
//! 1 two output rows run together and share each loaded input row.
//!
//! A padded tap adds `+0.0·f`, which is `±0.0` when `f` is finite, and
//! `a + (±0.0)` is `a` to the bit for every `a` except `-0.0`. In
//! round-to-nearest a sum is `-0.0` only when both addends are, so the
//! accumulator can be `-0.0` only if it started from a `-0.0` bias. A
//! channel whose taps are all finite and whose bias is not `-0.0`
//! therefore gets the per-pixel loop's bits from the padded kernel; any
//! other channel, and any other geometry, runs pixel by pixel over its
//! in-bounds taps.
//!
//! The fused pass's batch norm and activation are applied to each
//! output plane as soon as the kernel has written it, while it is in L1,
//! and the plane goes to a `C×H×W` map or, when a 1×1 conv follows,
//! straight into that conv's packed GEMM operand ([`PanelWriter`]).

use crate::fused::{ChannelEpilogue, Epilogue, Map, Workspace};
use crate::init::he_normal;
use crate::layer::{EvalOp, Layer, Mode};
use crate::param::Param;
use crate::shape::ShapeError;
use nshd_tensor::{conv_out_dim, PanelWriter, Rng, Shape, Tensor};

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

    /// The output shape of one `C×H×W` image.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch or a window that does not fit.
    pub(crate) fn image_out(&self, [c, h, w]: [usize; 3]) -> [usize; 3] {
        assert_eq!(c, self.channels, "channel mismatch in {}", self.name());
        let (oh, ow) = self.out_hw(h, w);
        [c, oh, ow]
    }

    /// Convolves the `planes` consecutive `h×w` channel planes of `x`
    /// (plane `i` is channel `i mod C`) into `target`, applying
    /// `epilogue` to each output before it is stored.
    fn run_planes(
        &self,
        x: &[f32],
        (planes, h, w): (usize, usize, usize),
        epilogue: &Epilogue<'_>,
        mut target: Target<'_, '_>,
        pad: &mut PadScratch,
    ) {
        let (oh, ow) = self.out_hw(h, w);
        let k2 = self.kernel * self.kernel;
        let wv = self.weight.value.as_slice();
        let bv = self.bias.value.as_slice();
        let geom = PlaneGeometry { h, w, oh, ow, k: self.kernel, s: self.stride, p: self.padding };
        for i in 0..planes {
            let c = i % self.channels;
            let plane = Plane {
                src: &x[i * h * w..(i + 1) * h * w],
                filt: &wv[c * k2..(c + 1) * k2],
                bias: bv[c],
                w,
                p: self.padding,
            };
            let mut dest = match &mut target {
                Target::Planes(out) => Dest::Plane(&mut out[i * oh * ow..(i + 1) * oh * ow]),
                Target::Panels(panels) => Dest::Panels(panels, i),
            };
            depthwise_plane(&plane, &geom, epilogue.channel(c), &mut dest, pad);
        }
    }

    /// The fused eval pass's depthwise step: one `C×H×W` image into a
    /// workspace map, bias included and `epilogue` (the batch norm and
    /// activation that follow) applied to each plane as it is computed.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch or a window that does not fit.
    pub(crate) fn infer_image(
        &self,
        ws: &mut Workspace,
        x: &[f32],
        chw: [usize; 3],
        epilogue: &Epilogue<'_>,
    ) -> Map {
        let out = self.image_out(chw);
        let len = out.iter().product();
        let mut buf = ws.take(len);
        let planes = (chw[0], chw[1], chw[2]);
        self.run_planes(x, planes, epilogue, Target::Planes(&mut buf[..len]), &mut ws.pad);
        Map { buf, chw: out }
    }

    /// [`infer_image`](Self::infer_image), storing the outputs straight
    /// into the workspace's packed operand as the `C`×`OH·OW` right-hand
    /// side of the 1×1 conv that follows, instead of into a map. Returns
    /// the output shape.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch or a window that does not fit.
    pub(crate) fn infer_panels(
        &self,
        ws: &mut Workspace,
        x: &[f32],
        chw: [usize; 3],
        epilogue: &Epilogue<'_>,
    ) -> [usize; 3] {
        let out @ [c, oh, ow] = self.image_out(chw);
        let mut panels = ws.packed.panel_writer(c, oh * ow);
        let planes = (c, chw[1], chw[2]);
        self.run_planes(x, planes, epilogue, Target::Panels(&mut panels), &mut ws.pad);
        out
    }
}

/// Where [`DepthwiseConv2d::run_planes`] stores its outputs.
enum Target<'a, 'w> {
    /// Consecutive row-major output planes.
    Planes(&'a mut [f32]),
    /// The packed `C`×`OH·OW` operand of a GEMM, one row per channel.
    Panels(&'a mut PanelWriter<'w>),
}

/// Where one plane's outputs go: output `(oy, ox)` is element
/// `oy·ow + ox` of a row-major plane, or column `oy·ow + ox` of row `c`
/// of a packed operand.
enum Dest<'a, 'w> {
    Plane(&'a mut [f32]),
    Panels(&'a mut PanelWriter<'w>, usize),
}

impl Dest<'_, '_> {
    /// Has `compute` fill the `oh×ow` output plane — in place, or in
    /// `scratch` on its way into panels — then applies `epi` to it while
    /// it is in L1 and stores it.
    #[inline(always)]
    fn plane(
        &mut self,
        (oh, ow): (usize, usize),
        scratch: &mut Vec<f32>,
        epi: ChannelEpilogue,
        compute: impl FnOnce(&mut [f32]),
    ) {
        let (out, panels) = match self {
            Dest::Plane(plane) => (&mut **plane, None),
            Dest::Panels(panels, c) => (grown(scratch, oh * ow), Some((panels, *c))),
        };
        compute(out);
        epi.apply(out, None);
        if let Some((panels, c)) = panels {
            for (oy, row) in out.chunks_exact(ow).enumerate() {
                panels.write(c, oy * ow, row);
            }
        }
    }
}

/// The geometry of one depthwise plane: input `h×w`, output `oh×ow`,
/// square `k`-tap kernel, stride `s`, zero padding `p`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PlaneGeometry {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k: usize,
    s: usize,
    p: usize,
}

/// Convolves one channel plane into `dest`: `bias + Σ src·filt` over the
/// in-bounds taps in `(ky, kx)` order, then `epi`. The padded kernel
/// runs the common geometries whenever it is exact for the channel
/// (module docs); anything else runs pixel by pixel.
fn depthwise_plane(
    plane: &Plane<'_>,
    g: &PlaneGeometry,
    epi: ChannelEpilogue,
    dest: &mut Dest<'_, '_>,
    pad: &mut PadScratch,
) {
    let padding_exact = plane.filt.iter().all(|f| f.is_finite())
        && plane.bias.to_bits() != (-0.0f32).to_bits()
        && g.w > 0;
    match (g.k, g.s) {
        (3, 1) if padding_exact => padded_plane::<3, 1>(plane, g, epi, dest, pad),
        (3, 2) if padding_exact => padded_plane::<3, 2>(plane, g, epi, dest, pad),
        (5, 1) if padding_exact => padded_plane::<5, 1>(plane, g, epi, dest, pad),
        (5, 2) if padding_exact => padded_plane::<5, 2>(plane, g, epi, dest, pad),
        _ => dest.plane((g.oh, g.ow), &mut pad.out, epi, |out| {
            for (oy, row) in out.chunks_exact_mut(g.ow).enumerate() {
                let (ky0, ky1) = taps(oy * g.s, g.k, g.p, g.h);
                let t = RowTaps { y0: oy * g.s, ky0, ky1 };
                for (ox, v) in row.iter_mut().enumerate() {
                    *v = plane.pixel(g.k, g.s, t, ox);
                }
            }
        }),
    }
}

/// The first `len` elements of `buf`, grown to hold them.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// A plane with constant kernel `K` and stride `S` over its padded rows,
/// two output rows at a time at stride 1 (sharing each loaded input row)
/// and one otherwise.
fn padded_plane<const K: usize, const S: usize>(
    plane: &Plane<'_>,
    g: &PlaneGeometry,
    epi: ChannelEpilogue,
    dest: &mut Dest<'_, '_>,
    pad: &mut PadScratch,
) {
    let PadScratch { out: scratch, rows, zeroed } = pad;
    let padded = pad_plane::<S>(plane.src, g, rows, zeroed);
    let filt: [[f32; K]; K] =
        std::array::from_fn(|ky| std::array::from_fn(|kx| plane.filt[ky * K + kx]));
    dest.plane((g.oh, g.ow), scratch, epi, |out| {
        let mut rest = out;
        let mut oy = 0;
        while oy < g.oh {
            let pair = S == 1 && oy + 1 < g.oh;
            let (block, tail) = rest.split_at_mut(if pair { 2 * g.ow } else { g.ow });
            let (out0, out1) = block.split_at_mut(g.ow);
            if pair {
                padded.rows::<K, S, 2>(oy, &filt, plane.bias, out0, out1);
                oy += 2;
            } else {
                padded.rows::<K, S, 1>(oy, &filt, plane.bias, out0, out1);
                oy += 1;
            }
            rest = tail;
        }
    });
}

/// A plane's rows padded with `+0.0`: `p` zero columns on either side,
/// and a zero row standing in for every row above or below the plane.
/// At stride 2 each padded row is stored deinterleaved — its even
/// columns, then its odd ones — so every tap reads consecutive values.
struct Padded<'a> {
    /// The zero row, then the `h` padded rows, each `w + 2p` long.
    rows: &'a [f32],
    g: &'a PlaneGeometry,
}

/// The depthwise kernel's scratch: an output plane on its way into
/// panels, and the padded copy of the plane being convolved. The zeros
/// of the padded copy are written once per plane geometry; each plane
/// then overwrites only the values it copies in.
#[derive(Default)]
pub(crate) struct PadScratch {
    out: Vec<f32>,
    rows: Vec<f32>,
    /// The geometry whose zeros `rows` holds.
    zeroed: Option<PlaneGeometry>,
}

/// The padded copy of `src` in `rows`, whose zeros are current when
/// `zeroed` is `g`.
fn pad_plane<'a, const S: usize>(
    src: &[f32],
    g: &'a PlaneGeometry,
    rows: &'a mut Vec<f32>,
    zeroed: &mut Option<PlaneGeometry>,
) -> Padded<'a> {
    let wp = g.w + 2 * g.p;
    let rows = grown(rows, (g.h + 1) * wp);
    if zeroed.replace(*g) != Some(*g) {
        rows.fill(0.0);
    }
    for (dst, row) in rows[wp..].chunks_exact_mut(wp).zip(src.chunks_exact(g.w)) {
        if S == 1 {
            dst[g.p..g.p + g.w].copy_from_slice(row);
            continue;
        }
        // Column `x + p` of the padded row goes to `even[(x + p) / 2]`
        // or `odd[(x + p) / 2]`; take the row's columns in pairs.
        let (even, odd) = dst.split_at_mut(wp.div_ceil(2));
        let (first, second) = if g.p.is_multiple_of(2) {
            (&mut even[g.p / 2..], &mut odd[g.p / 2..])
        } else {
            (&mut odd[g.p / 2..], &mut even[g.p / 2 + 1..])
        };
        for ((a, b), pair) in first.iter_mut().zip(second.iter_mut()).zip(row.chunks_exact(2)) {
            *a = pair[0];
            *b = pair[1];
        }
        if g.w % 2 == 1 {
            first[g.w / 2] = row[g.w - 1];
        }
    }
    Padded { rows, g }
}

impl Padded<'_> {
    /// Output rows `oy..oy + R` of a plane with constant kernel `K` and
    /// stride `S`. Input row `j` of the block is tap `j − r` of output
    /// row `r`, so each output sums its taps in `(ky, kx)` order while
    /// each input row is read once for all `R` output rows. The loop over
    /// output columns vectorises; each column is one accumulator, so the
    /// float sequence is the per-pixel one.
    #[inline(always)]
    fn rows<const K: usize, const S: usize, const R: usize>(
        &self,
        oy: usize,
        filt: &[[f32; K]; K],
        bias: f32,
        out0: &mut [f32],
        out1: &mut [f32],
    ) {
        let g = self.g;
        let (wp, ow) = (g.w + 2 * g.p, g.ow);
        // `inputs[j][kx][ox]` is tap `kx` of output column `ox` in input
        // row `j` of the block.
        let mut inputs: [[&[f32]; K]; 6] = [[&[]; K]; 6];
        for (j, row_taps) in inputs.iter_mut().enumerate().take(K + R - 1) {
            let y = (oy * S + j).wrapping_sub(g.p);
            let row = &self.rows[if y < g.h { (y + 1) * wp } else { 0 }..][..wp];
            for (kx, tap) in row_taps.iter_mut().enumerate() {
                let start = if S == 1 { kx } else { (kx % 2) * wp.div_ceil(2) + kx / 2 };
                *tap = &row[start..start + ow];
            }
        }
        // Two separate `&mut` outputs: the compiler knows no input aliases
        // them, so the loop needs no overlap checks.
        let out1 = &mut out1[..if R == 2 { ow } else { 0 }];
        for (ox, o0) in out0[..ow].iter_mut().enumerate() {
            let mut acc = [bias; R];
            for (j, row_taps) in inputs.iter().enumerate().take(K + R - 1) {
                for (r, a) in acc.iter_mut().enumerate() {
                    let ky = j.wrapping_sub(r);
                    if ky < K {
                        for (tap, &f) in row_taps.iter().zip(&filt[ky]) {
                            *a += tap[ox] * f;
                        }
                    }
                }
            }
            *o0 = acc[0];
            if R == 2 {
                out1[ox] = acc[R - 1];
            }
        }
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
}

/// `lo..hi` of the taps `t < k` whose input coordinate `at + t − p`
/// lies in `0..extent`.
#[inline(always)]
fn taps(at: usize, k: usize, p: usize, extent: usize) -> (usize, usize) {
    let hi = (extent + p).saturating_sub(at).min(k);
    (p.saturating_sub(at).min(hi), hi)
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
        let planes = (n * self.channels, h, w);
        let target = Target::Planes(out.as_mut_slice());
        let pad = &mut PadScratch::default();
        self.run_planes(input.as_slice(), planes, &Epilogue::default(), target, pad);
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
