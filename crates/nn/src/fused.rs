//! The fused evaluation pass behind [`Sequential::infer_to`] (and so
//! every evaluation-mode forward of a layer stack).
//!
//! The pass walks the layer stack through [`Layer::eval_op`] and groups
//! each run of conv/depthwise → batch norm → activation, plus the
//! enclosing residual's `body + skip` when the run ends the body, into
//! one *step*. A conv step's GEMM writes the output map, then one
//! [`Epilogue`] pass finishes every element while it is in cache; the
//! depthwise kernel applies the epilogue itself, to each output plane
//! while it is in L1. The epilogue performs the layer-by-layer
//! float operations in the layer-by-layer order — the conv's `+ bias`,
//! the norm's `(y − mean)·inv_std` then `γ·n + β`, the activation, then
//! `+ skip` — never folding the norm into the weights and never
//! contracting a multiply-add, so the fused result is bit-identical to
//! chaining [`Layer::infer`]. Layers without a view (pools,
//! squeeze-excite, linear, flatten) run their own `infer`.
//!
//! When a depthwise step is followed by a stride-1, unpadded 1×1 conv
//! (a projection) and the micro-kernels are on, the depthwise kernel
//! stores its rows straight into the workspace's packed GEMM operand and
//! the conv multiplies by it: the map between them never exists.
//!
//! A batch runs image by image, each image's GEMMs on one thread:
//! eval-mode layers are batch-size independent, so this changes no bit,
//! and it bounds the activations a call holds to a few single-image
//! maps. A batch of at least as many images as [`par`] workers is split
//! across them by image. The maps live in a per-thread [`Workspace`]
//! whose buffers grow to the largest map on first use and are reused by
//! every later call on the thread. The grouping itself is recomputed per
//! call (a few microseconds), so nothing compiled goes stale when
//! training mutates the weights.

use crate::act::{relu, relu6, sigmoid, silu, ActKind};
use crate::conv::Conv2d;
use crate::dwconv::PadScratch;
use crate::layer::{EvalOp, Layer};
use crate::norm::BatchNorm2d;
use crate::sequential::{layer_span, Sequential};
use nshd_tensor::{par, simd_enabled, PackedRhs, Tensor};
use std::cell::RefCell;
use std::ops::Range;

/// Buffers a [`Workspace`] keeps for reuse. A pass holds only a few maps
/// at once (each open residual's input, the current map and the next
/// one), so keeping more would only pin memory.
const MAX_FREE: usize = 6;

/// One batch-norm channel in evaluation mode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BnAffine {
    pub(crate) mean: f32,
    /// `1 / (var + eps).sqrt()`, computed exactly as the layer does.
    pub(crate) inv_std: f32,
    pub(crate) gamma: f32,
    pub(crate) beta: f32,
}

impl BnAffine {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        self.gamma * ((v - self.mean) * self.inv_std) + self.beta
    }
}

/// The per-element tail of a fused step, applied in place to a stack of
/// channel planes: `+ bias`, then the batch norm, then the activation,
/// then `+ skip`. Absent parts are skipped, not replaced by identities
/// (`1·v + 0` would turn `-0.0` into `+0.0`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Epilogue<'a> {
    /// Per-channel bias (a convolution's).
    pub(crate) bias: Option<&'a [f32]>,
    /// Batch norm over its running statistics.
    pub(crate) bn: Option<&'a BatchNorm2d>,
    /// Elementwise activation.
    pub(crate) act: Option<ActKind>,
}

impl Epilogue<'_> {
    /// Channel `c`'s share of the epilogue.
    pub(crate) fn channel(&self, c: usize) -> ChannelEpilogue {
        ChannelEpilogue {
            bias: self.bias.map(|b| b[c]),
            bn: self.bn.map(|bn| bn.affine(c)),
            act: self.act,
        }
    }

    /// Applies the epilogue to `maps`, consecutive `plane`-element
    /// channel planes (plane `i` is channel `i mod C` for the bias and
    /// norm), then adds `skip` elementwise as `body + skip`.
    pub(crate) fn apply(&self, maps: &mut [f32], plane: usize, skip: Option<&[f32]>) {
        if maps.is_empty() || plane == 0 {
            return;
        }
        let channels =
            self.bias.map_or(1, <[f32]>::len).max(self.bn.map_or(1, BatchNorm2d::channels));
        for (i, dst) in maps.chunks_mut(plane).enumerate() {
            let skip = skip.map(|s| &s[i * plane..i * plane + dst.len()]);
            self.channel(i % channels).apply(dst, skip);
        }
    }
}

/// One channel's [`Epilogue`]: `+ bias`, the batch norm, the activation,
/// then `+ skip`, with absent parts skipped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelEpilogue {
    bias: Option<f32>,
    bn: Option<BnAffine>,
    act: Option<ActKind>,
}

impl ChannelEpilogue {
    /// Applies the epilogue to `dst` in place, then adds `skip`
    /// elementwise as `body + skip`.
    pub(crate) fn apply(self, dst: &mut [f32], skip: Option<&[f32]>) {
        // Dispatch the activation once, outside the element loops.
        match self.act {
            None => self.run(dst, skip, |v| v),
            Some(ActKind::Relu) => self.run(dst, skip, relu),
            Some(ActKind::Relu6) => self.run(dst, skip, relu6),
            Some(ActKind::Silu) => self.run(dst, skip, silu),
            Some(ActKind::Sigmoid) => self.run(dst, skip, sigmoid),
        }
    }

    #[inline(always)]
    fn run(self, dst: &mut [f32], skip: Option<&[f32]>, act: impl Fn(f32) -> f32) {
        // One loop per combination, so no per-element branch is left.
        match (self.bias, self.bn) {
            (Some(b), Some(a)) => plane_loop(dst, skip, |v| act(a.apply(v + b))),
            (Some(b), None) => plane_loop(dst, skip, |v| act(v + b)),
            (None, Some(a)) => plane_loop(dst, skip, |v| act(a.apply(v))),
            (None, None) => plane_loop(dst, skip, &act),
        }
    }
}

#[inline(always)]
fn plane_loop(dst: &mut [f32], skip: Option<&[f32]>, f: impl Fn(f32) -> f32) {
    match skip {
        Some(skip) => {
            for (d, &s) in dst.iter_mut().zip(skip) {
                *d = f(*d) + s;
            }
        }
        None => {
            for d in dst {
                *d = f(*d);
            }
        }
    }
}

/// One thread's reusable activation storage.
pub(crate) struct Workspace {
    /// Map buffers not in use; each only ever grows.
    free: Vec<Vec<f32>>,
    /// Panel storage the convolution steps pack their GEMM operand into,
    /// or a depthwise step stores its output into for the 1×1 conv after.
    pub(crate) packed: PackedRhs,
    /// The depthwise kernel's padded plane and output scratch.
    pub(crate) pad: PadScratch,
}

impl Workspace {
    fn new() -> Self {
        Workspace { free: Vec::new(), packed: PackedRhs::empty(), pad: PadScratch::default() }
    }

    /// A buffer of at least `len` elements, with unspecified contents.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.free.pop().unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        buf
    }

    fn give(&mut self, buf: Vec<f32>) {
        if self.free.len() < MAX_FREE {
            self.free.push(buf);
        }
    }

    fn recycle(&mut self, act: Act) {
        if let Act::Map(map) = act {
            self.give(map.buf);
        }
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// A `C×H×W` map held in the first `C·H·W` elements of a workspace
/// buffer.
pub(crate) struct Map {
    pub(crate) buf: Vec<f32>,
    pub(crate) chw: [usize; 3],
}

impl Map {
    fn len(&self) -> usize {
        self.chw.iter().product()
    }
}

/// `data` copied into a workspace buffer.
fn copy_map(ws: &mut Workspace, data: &[f32], chw: [usize; 3]) -> Map {
    let mut buf = ws.take(data.len());
    buf[..data.len()].copy_from_slice(data);
    Map { buf, chw }
}

/// One image's activation between steps.
enum Act {
    Map(Map),
    /// A non-spatial value an uncovered layer produced, as a batch of one.
    Tensor(Tensor),
}

impl Act {
    fn view(&self) -> View<'_> {
        match self {
            Act::Map(m) => View::Map(&m.buf[..m.len()], m.chw),
            Act::Tensor(t) => View::Tensor(t),
        }
    }
}

/// A borrowed [`Act`]: a step's input, or the batch input's image.
#[derive(Clone, Copy)]
enum View<'a> {
    Map(&'a [f32], [usize; 3]),
    Tensor(&'a Tensor),
}

impl View<'_> {
    fn to_owned(self, ws: &mut Workspace) -> Act {
        match self {
            View::Map(data, chw) => Act::Map(copy_map(ws, data, chw)),
            View::Tensor(t) => Act::Tensor(t.clone()),
        }
    }

    /// The value as the batch-of-one tensor a layer's `infer` takes.
    fn to_tensor(self) -> Tensor {
        match self {
            View::Map(data, [c, h, w]) => {
                let mut t = Tensor::zeros([1, c, h, w]);
                t.as_mut_slice().copy_from_slice(data);
                t
            }
            View::Tensor(t) => t.clone(),
        }
    }
}

/// Moves a layer's batch-of-one output into the pass: a `1×C×H×W`
/// result becomes a map (its storage joins the workspace's buffers),
/// anything else stays a tensor.
fn from_tensor(t: Tensor) -> Act {
    match *t.dims() {
        [1, c, h, w] => Act::Map(Map { buf: t.into_vec(), chw: [c, h, w] }),
        _ => Act::Tensor(t),
    }
}

/// Runs layers `layers` of `seq` over a batch through the fused pass.
/// Inputs other than `N×C×H×W` run the layers' own `infer` on the whole
/// batch.
///
/// Each image runs serially (its GEMMs are too small to gain from
/// threads). A batch with at least as many images as [`par`] workers is
/// split across them by image instead; every image runs the same serial
/// code either way, so the result is bit-identical at any thread count.
pub(crate) fn infer_range(seq: &Sequential, input: &Tensor, layers: Range<usize>) -> Tensor {
    let &[n, c, h, w] = input.dims() else {
        return infer_layerwise(seq, input, layers);
    };
    let len = c * h * w;
    let workers = par::threads();
    let batch = if workers > 1 && n >= workers && len > 0 {
        let parts: Vec<Range<usize>> =
            (0..workers).map(|i| i * n / workers..(i + 1) * n / workers).collect();
        let outs = par::par_map(&parts, |images| {
            let data = &input.as_slice()[images.start * len..images.end * len];
            with_workspace(|ws| infer_batch(ws, seq, data, (images.len(), [c, h, w]), &layers))
        });
        concat(outs)
    } else {
        par::with_threads(1, || {
            with_workspace(|ws| infer_batch(ws, seq, input.as_slice(), (n, [c, h, w]), &layers))
        })
    };
    // An empty batch, or one of empty images: nothing ran, so report
    // the shapes the layers would have produced.
    batch.unwrap_or_else(|| infer_layerwise(seq, input, layers))
}

/// Runs `f` with this thread's workspace.
fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        // An uncovered layer's own `infer` re-entered the pass on this
        // thread: that inner pass gets a workspace of its own.
        Err(_) => f(&mut Workspace::new()),
    })
}

/// Joins the outputs of consecutive sub-batches along the batch axis.
fn concat(parts: Vec<Option<Tensor>>) -> Option<Tensor> {
    let parts: Vec<Tensor> = parts.into_iter().collect::<Option<_>>()?;
    let first = parts.first()?;
    let mut dims = first.dims().to_vec();
    dims[0] = parts.iter().map(|t| t.dims()[0]).sum();
    let mut out = Tensor::zeros(dims);
    let mut at = 0;
    for part in &parts {
        out.write_slice(at, part.as_slice());
        at += part.len();
    }
    Some(out)
}

/// The unfused chain: each layer's own `infer` on the whole batch.
fn infer_layerwise(seq: &Sequential, input: &Tensor, layers: Range<usize>) -> Tensor {
    let mut x = input.clone();
    for index in layers {
        let layer = seq.layer(index);
        let _sp = layer_span(index, layer, "");
        x = layer.infer(&x);
    }
    x
}

/// The `n` images of `images` through the pass one by one, or `None`
/// when nothing ran (no images, or empty ones).
fn infer_batch(
    ws: &mut Workspace,
    seq: &Sequential,
    images: &[f32],
    (n, chw): (usize, [usize; 3]),
    layers: &Range<usize>,
) -> Option<Tensor> {
    let len: usize = chw.iter().product();
    let mut out: Option<Tensor> = None;
    for (b, image) in images.chunks_exact(len.max(1)).take(n).enumerate() {
        let y = run_seq(ws, seq, View::Map(image, chw), layers.clone(), None);
        let y_data = match y.view() {
            View::Map(data, _) => data,
            View::Tensor(t) => t.as_slice(),
        };
        let out = out.get_or_insert_with(|| {
            let mut dims = vec![n];
            match y.view() {
                View::Map(_, chw) => dims.extend(chw),
                View::Tensor(t) => dims.extend(&t.dims()[1..]),
            }
            Tensor::zeros(dims)
        });
        out.write_slice(b * y_data.len(), y_data);
        ws.recycle(y);
    }
    out
}

/// Runs layers `layers` of `seq` on one image, then adds `skip` (the
/// enclosing residual's input) — fused into the last step's epilogue
/// when that step is a fused one.
fn run_seq(
    ws: &mut Workspace,
    seq: &Sequential,
    x: View<'_>,
    layers: Range<usize>,
    skip: Option<(&[f32], [usize; 3])>,
) -> Act {
    // `None` while the input is still the caller's borrowed value.
    let mut cur: Option<Act> = None;
    let mut skip_pending = skip;
    let (mut i, end) = (layers.start, layers.end);
    while i < end {
        let layer = seq.layer(i);
        let _sp = layer_span(i, layer, "");
        let input = cur.as_ref().map_or(x, Act::view);
        let (next, consumed) = match (layer.eval_op(), input) {
            (Some(EvalOp::Conv(conv)), View::Map(data, chw)) => {
                let map = conv.infer_image(ws, data, chw);
                fuse(seq, i + 1, end, map, Some(conv.bias()), &mut skip_pending)
            }
            (Some(EvalOp::Depthwise(dw)), View::Map(data, chw)) => {
                let (epilogue, j) = epilogue_at(seq, i + 1, end, None);
                let c = dw.image_out(chw)[0];
                check_norm(&epilogue, c);
                match pointwise_at(seq, j, end, c) {
                    Some(conv) => {
                        // The depthwise output goes straight into the
                        // conv's GEMM operand; the conv is its own span.
                        let out = dw.infer_panels(ws, data, chw, &epilogue);
                        drop(_sp);
                        let _sp = layer_span(j, seq.layer(j), "");
                        let map = conv.infer_packed(ws, out);
                        fuse(seq, j + 1, end, map, Some(conv.bias()), &mut skip_pending)
                    }
                    None => {
                        let mut map = dw.infer_image(ws, data, chw, &epilogue);
                        if let Some(skip) = skip_pending.filter(|_| j == end) {
                            finish(&mut map, Epilogue::default(), Some(skip));
                            skip_pending = None;
                        }
                        (Act::Map(map), j)
                    }
                }
            }
            (Some(EvalOp::BatchNorm(_) | EvalOp::Activation(_)), View::Map(data, chw)) => {
                let map = copy_map(ws, data, chw);
                fuse(seq, i, end, map, None, &mut skip_pending)
            }
            (Some(EvalOp::Sequential(inner)), _) => {
                (run_seq(ws, inner, input, 0..inner.len(), None), i + 1)
            }
            (Some(EvalOp::Residual(body)), View::Map(data, chw)) => {
                (run_seq(ws, body, input, 0..body.len(), Some((data, chw))), i + 1)
            }
            _ => (from_tensor(layer.infer(&input.to_tensor())), i + 1),
        };
        if let Some(old) = cur.replace(next) {
            ws.recycle(old);
        }
        i = consumed;
    }
    let mut out = match cur {
        Some(act) => act,
        None => x.to_owned(ws),
    };
    if let Some(skip) = skip_pending {
        match &mut out {
            Act::Map(map) => finish(map, Epilogue::default(), Some(skip)),
            Act::Tensor(t) => {
                panic!("residual body must preserve shape ({} vs {:?})", t.shape(), skip.1)
            }
        }
    }
    out
}

/// The batch norm and activation layers directly at `start` (within
/// `..end`) as an epilogue after `bias`, and the index after them.
fn epilogue_at<'a>(
    seq: &'a Sequential,
    start: usize,
    end: usize,
    bias: Option<&'a [f32]>,
) -> (Epilogue<'a>, usize) {
    let mut epilogue = Epilogue { bias, ..Epilogue::default() };
    let mut j = start;
    if j < end {
        if let Some(EvalOp::BatchNorm(bn)) = seq.layer(j).eval_op() {
            epilogue.bn = Some(bn);
            j += 1;
        }
    }
    if j < end {
        if let Some(EvalOp::Activation(kind)) = seq.layer(j).eval_op() {
            epilogue.act = Some(kind);
            j += 1;
        }
    }
    (epilogue, j)
}

/// The conv at `j` (within `..end`) that a depthwise step with `c`
/// output channels stores its output for straight into GEMM panels: a
/// stride-1, unpadded 1×1 conv over those channels, with the
/// micro-kernels on (the scalar reference multiplies the map as it is).
fn pointwise_at(seq: &Sequential, j: usize, end: usize, c: usize) -> Option<&Conv2d> {
    if j >= end || !simd_enabled() {
        return None;
    }
    let Some(EvalOp::Conv(conv)) = seq.layer(j).eval_op() else { return None };
    (conv.is_pointwise() && conv.in_channels() == c).then_some(conv)
}

/// Finishes a step whose kernel produced `map`: the batch norm and
/// activation layers directly at `start` (within `..end`) join `bias`
/// in its epilogue, and so does the pending residual `skip` when the
/// step ends the body. Returns the map and the index after the step.
fn fuse(
    seq: &Sequential,
    start: usize,
    end: usize,
    mut map: Map,
    bias: Option<&[f32]>,
    skip: &mut Option<(&[f32], [usize; 3])>,
) -> (Act, usize) {
    let (epilogue, j) = epilogue_at(seq, start, end, bias);
    finish(&mut map, epilogue, if j == end { skip.take() } else { None });
    (Act::Map(map), j)
}

/// Panics, naming the norm, if an epilogue's norm is not over `c`
/// channels.
fn check_norm(epilogue: &Epilogue<'_>, c: usize) {
    if let Some(bn) = epilogue.bn {
        assert_eq!(c, bn.channels(), "channel mismatch in {}", bn.name());
    }
}

/// Applies `epilogue` and the optional residual `skip` to `map` in place.
///
/// # Panics
///
/// Panics if the skip's shape differs from the map's (a residual body
/// that changes shape), or a norm's channel count from the map's.
fn finish(map: &mut Map, epilogue: Epilogue<'_>, skip: Option<(&[f32], [usize; 3])>) {
    let [c, h, w] = map.chw;
    if let Some((_, skip_chw)) = skip {
        assert_eq!(
            map.chw, skip_chw,
            "residual body must preserve shape ({:?} vs {:?})",
            map.chw, skip_chw
        );
    }
    check_norm(&epilogue, c);
    let len = c * h * w;
    epilogue.apply(&mut map.buf[..len], h * w, skip.map(|(data, _)| data));
}
