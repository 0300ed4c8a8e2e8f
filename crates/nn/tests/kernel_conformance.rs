//! Eval-kernel conformance: the padded, vectorised depthwise
//! convolution, the run-copy `im2col` and the activation loops must
//! reproduce, bit for bit, the per-element scalar loops they replaced.
//! Those loops live on here as oracles. The fused eval pass of
//! `Sequential::infer_to` must reproduce the explicit layer-by-layer
//! `Layer::infer` chain.
//!
//! The grid covers kernel sizes {1, 3, 5}, strides {1, 2, 3}, paddings
//! {0, 1, 2}, odd and unit spatial extents and batches of one and three,
//! over inputs seeded with ±0.0, ±inf and NaN — a NaN must still reach
//! the output, or the serving engine's non-finite activation check
//! stops firing. Every non-NaN output must match to the bit.

use nshd_nn::{
    ActKind, Activation, Architecture, BatchNorm2d, Conv2d, DepthwiseConv2d, EvalOp, Layer, Mode,
    Model, Residual, Sequential,
};
use nshd_tensor::{
    conv_out_dim, im2col, par, set_simd_enabled, simd_enabled, ConvGeometry, Rng, Tensor,
};

const KERNELS: [usize; 3] = [1, 3, 5];
const STRIDES: [usize; 3] = [1, 2, 3];
const PADDINGS: [usize; 3] = [0, 1, 2];
/// `(height, width)`: odd extents, non-square pairs (one with rows long
/// enough for the vectorised loops' main body), and unit rows and
/// columns.
const EXTENTS: [(usize, usize); 6] = [(7, 9), (3, 21), (5, 5), (1, 6), (6, 1), (1, 1)];
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// Seeded values with every eleventh element replaced by a special
/// value, cycling through [`SPECIALS`].
fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|i| if i % 11 == 5 { SPECIALS[(i / 11) % SPECIALS.len()] } else { rng.normal() })
        .collect()
}

/// Bit equality, except that a NaN matches any NaN: the sign and
/// payload of a NaN result are unspecified (they depend on which operand
/// the compiler puts first, and already differ between the GEMM's batch
/// shapes), so the contract pins *where* NaNs appear, not their bits.
fn assert_bits_eq(actual: &[f32], expected: &[f32], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        let same = a.to_bits() == e.to_bits() || (a.is_nan() && e.is_nan());
        assert!(
            same,
            "{what}: element {i} is {a} ({:#010x}), oracle {e} ({:#010x})",
            a.to_bits(),
            e.to_bits()
        );
    }
}

/// The pre-rewrite `DepthwiseConv2d::infer`: one output pixel at a
/// time, its taps in `(ky, kx)` order, with a branch-free path for
/// fully in-bounds windows.
fn dwconv_oracle(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    (n, channels, h, w): (usize, usize, usize, usize),
    k: usize,
    stride: usize,
    padding: usize,
) -> Vec<f32> {
    let oh = (h + 2 * padding - k) / stride + 1;
    let ow = (w + 2 * padding - k) / stride + 1;
    let mut ov = vec![0.0f32; n * channels * oh * ow];
    for b in 0..n {
        for c in 0..channels {
            let plane = &x[(b * channels + c) * h * w..(b * channels + c + 1) * h * w];
            let filt = &weight[c * k * k..(c + 1) * k * k];
            let dst = &mut ov[(b * channels + c) * oh * ow..(b * channels + c + 1) * oh * ow];
            for oy in 0..oh {
                let y0 = (oy * stride) as isize - padding as isize;
                let y_interior = y0 >= 0 && (y0 as usize) + k <= h;
                for ox in 0..ow {
                    let x0 = (ox * stride) as isize - padding as isize;
                    let mut acc = bias[c];
                    if y_interior && x0 >= 0 && (x0 as usize) + k <= w {
                        let base = y0 as usize * w + x0 as usize;
                        for ky in 0..k {
                            let row = &plane[base + ky * w..base + ky * w + k];
                            let frow = &filt[ky * k..ky * k + k];
                            for (&pv, &fv) in row.iter().zip(frow) {
                                acc += pv * fv;
                            }
                        }
                    } else {
                        for ky in 0..k {
                            let iy = y0 + ky as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = x0 + kx as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    acc += plane[iy as usize * w + ix as usize] * filt[ky * k + kx];
                                }
                            }
                        }
                    }
                    dst[oy * ow + ox] = acc;
                }
            }
        }
    }
    ov
}

/// The pre-rewrite `im2col`: one bounds test per patch element.
fn im2col_oracle(image: &[f32], g: &ConvGeometry) -> Vec<f32> {
    let (oh, ow) = (g.out_height(), g.out_width());
    let cols = oh * ow;
    let mut buf = vec![0.0f32; g.patch_len() * cols];
    let mut row = 0usize;
    for c in 0..g.channels {
        let plane = &image[c * g.height * g.width..(c + 1) * g.height * g.width];
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                let dst = &mut buf[row * cols..(row + 1) * cols];
                let mut col = 0usize;
                for oy in 0..oh {
                    let iy = (oy * g.stride + kh) as isize - g.padding as isize;
                    if iy < 0 || iy as usize >= g.height {
                        col += ow;
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kw) as isize - g.padding as isize;
                        if ix >= 0 && (ix as usize) < g.width {
                            dst[col] = plane[iy * g.width + ix as usize];
                        }
                        col += 1;
                    }
                }
                row += 1;
            }
        }
    }
    buf
}

/// Every `(k, s, p, h, w)` of the grid whose window fits the padded
/// input.
fn grid() -> impl Iterator<Item = (usize, usize, usize, usize, usize)> {
    KERNELS.into_iter().flat_map(|k| {
        STRIDES.into_iter().flat_map(move |s| {
            PADDINGS.into_iter().flat_map(move |p| {
                EXTENTS.into_iter().filter_map(move |(h, w)| {
                    (conv_out_dim(h, k, s, p).is_some() && conv_out_dim(w, k, s, p).is_some())
                        .then_some((k, s, p, h, w))
                })
            })
        })
    })
}

#[test]
fn depthwise_conv_matches_scalar_oracle_bitwise() {
    let channels = 3;
    let mut cases = 0;
    for (case, (k, s, p, h, w)) in grid().enumerate() {
        let mut rng = Rng::new(case as u64);
        let mut dw = DepthwiseConv2d::new(channels, k, s, p, &mut rng);
        // Non-zero biases, and a special value among the weights too.
        for v in dw.params_mut()[1].value.as_mut_slice() {
            *v = rng.normal();
        }
        dw.params_mut()[0].value.as_mut_slice()[case % (channels * k * k)] = SPECIALS[case % 5];
        for n in [1, 3] {
            let x =
                Tensor::from_vec(seeded(n * channels * h * w, case as u64), [n, channels, h, w])
                    .expect("matching length");
            let expected = dwconv_oracle(
                x.as_slice(),
                dw.params()[0].value.as_slice(),
                dw.params()[1].value.as_slice(),
                (n, channels, h, w),
                k,
                s,
                p,
            );
            let what = format!("dwconv k{k} s{s} p{p} {h}x{w} n{n}");
            assert_bits_eq(dw.infer(&x).as_slice(), &expected, &what);
            assert_bits_eq(dw.forward(&x, Mode::Train).as_slice(), &expected, &what);
            cases += 1;
        }
    }
    assert!(cases > 100, "grid too small: {cases} cases");
}

#[test]
fn im2col_matches_scalar_oracle_bitwise() {
    for (case, (k, s, p, h, w)) in grid().enumerate() {
        for channels in [1, 3] {
            let g = ConvGeometry {
                channels,
                height: h,
                width: w,
                kernel_h: k,
                kernel_w: k,
                stride: s,
                padding: p,
            };
            let image = seeded(channels * h * w, 1000 + case as u64);
            let what = format!("im2col c{channels} k{k} s{s} p{p} {h}x{w}");
            assert_bits_eq(im2col(&image, &g).as_slice(), &im2col_oracle(&image, &g), &what);
        }
    }
}

#[test]
fn nan_propagates_through_depthwise_conv() {
    let mut dw = DepthwiseConv2d::new(1, 3, 1, 1, &mut Rng::new(5));
    let mut x = Tensor::from_fn([1, 1, 5, 5], |i| i as f32 * 0.1);
    x.as_mut_slice()[12] = f32::NAN;
    let y = dw.forward(&x, Mode::Eval);
    // The centre pixel feeds the 3×3 neighbourhood around it.
    let nans: Vec<usize> = (0..25).filter(|&i| y.as_slice()[i].is_nan()).collect();
    assert_eq!(nans, vec![6, 7, 8, 11, 12, 13, 16, 17, 18]);
}

#[test]
fn conv_batch_of_one_equals_its_item_in_a_batch_of_three() {
    for (case, (k, s, p, h, w)) in grid().enumerate() {
        let mut rng = Rng::new(case as u64);
        let mut conv = Conv2d::new(2, 4, k, s, p, &mut rng);
        for v in conv.params_mut()[1].value.as_mut_slice() {
            *v = rng.normal();
        }
        let batch =
            Tensor::from_vec(seeded(3 * 2 * h * w, 2000 + case as u64), [3, 2, h, w]).expect("len");
        let whole = conv.infer(&batch);
        for b in 0..3 {
            let one = conv.infer(&batch.batch_item(b).reshaped([1, 2, h, w]).expect("len"));
            let what = format!("conv k{k} s{s} p{p} {h}x{w} item {b}");
            assert_bits_eq(one.as_slice(), whole.batch_item(b).as_slice(), &what);
        }
    }
}

#[test]
fn activations_match_per_element_dispatch_bitwise() {
    let x = Tensor::from_vec(seeded(1031, 7), [1031]).expect("len");
    for kind in [ActKind::Relu, ActKind::Relu6, ActKind::Silu, ActKind::Sigmoid] {
        // The pre-rewrite loop: a `match` on the kind inside the closure.
        let kind_at_runtime = std::hint::black_box(kind);
        let expected = x.map(|v| match kind_at_runtime {
            ActKind::Relu => v.max(0.0),
            ActKind::Relu6 => v.clamp(0.0, 6.0),
            ActKind::Silu => v * (1.0 / (1.0 + (-v).exp())),
            ActKind::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        });
        let actual = Activation::new(kind).infer(&x);
        assert_bits_eq(actual.as_slice(), expected.as_slice(), &format!("{kind:?}"));
    }
}

/// Every depthwise geometry the kernel compiles with constant shape
/// (kernels {3, 5} × strides {1, 2}, every padding up to `k / 2`), over
/// planes from narrower than one vector to a few vectors wide, so the
/// vectorised column loop runs not at all, whole, and with a scalar
/// remainder. A third of the inputs are special values. The channels
/// exercise both halves of the padded kernel's exactness guard: a
/// `-0.0` bias, a plain channel, filters with a `+inf`, a `-inf` and a
/// NaN tap, which a padded `+0.0` input would turn into NaN, and a
/// `-0.0` bias with positive taps over a plane of `-0.0`, whose every
/// output is `-0.0` only if no padded tap is added.
#[test]
fn depthwise_chunk_edges_match_scalar_oracle_bitwise() {
    let channels = 6;
    let mut cases = 0;
    for k in [3, 5] {
        for s in [1, 2] {
            for p in 0..=k / 2 {
                for h in [1, 2, 5, 8] {
                    for w in 1..=21 {
                        if conv_out_dim(h, k, s, p).is_none() || conv_out_dim(w, k, s, p).is_none()
                        {
                            continue;
                        }
                        let case = (k * 1000 + s * 100 + p * 10 + h) * 100 + w;
                        let mut rng = Rng::new(case as u64);
                        let mut dw = DepthwiseConv2d::new(channels, k, s, p, &mut rng);
                        let biases = [-0.0, 0.5, 0.5, 0.5, 0.5, -0.0];
                        dw.params_mut()[1].value.as_mut_slice().copy_from_slice(&biases);
                        let specials = [(2, f32::INFINITY), (3, f32::NEG_INFINITY), (4, f32::NAN)];
                        for (c, special) in specials {
                            let tap = c * k * k + case % (k * k);
                            dw.params_mut()[0].value.as_mut_slice()[tap] = special;
                        }
                        for v in &mut dw.params_mut()[0].value.as_mut_slice()[5 * k * k..] {
                            *v = v.abs();
                        }
                        let x: Vec<f32> = (0..channels * h * w)
                            .map(|i| {
                                if i >= 5 * h * w {
                                    -0.0
                                } else if i % 3 == 1 {
                                    SPECIALS[(i / 3) % SPECIALS.len()]
                                } else {
                                    rng.normal()
                                }
                            })
                            .collect();
                        let x = Tensor::from_vec(x, [1, channels, h, w]).expect("length");
                        let expected = dwconv_oracle(
                            x.as_slice(),
                            dw.params()[0].value.as_slice(),
                            dw.params()[1].value.as_slice(),
                            (1, channels, h, w),
                            k,
                            s,
                            p,
                        );
                        let what = format!("dwconv k{k} s{s} p{p} {h}x{w}");
                        assert_bits_eq(dw.infer(&x).as_slice(), &expected, &what);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 300, "grid too small: {cases} cases");
}

#[test]
fn depthwise_keeps_negative_zero() {
    // `-0.0 + (-0.0)·f` stays `-0.0` for a positive filter: a kernel
    // that starts from `+0.0` or adds padding taps as `0·f` would flip
    // the sign of every output.
    let mut dw = DepthwiseConv2d::new(1, 3, 1, 1, &mut Rng::new(9));
    dw.params_mut()[0].value.as_mut_slice().fill(0.25);
    dw.params_mut()[1].value.as_mut_slice().fill(-0.0);
    let y = dw.infer(&Tensor::full([1, 1, 4, 19], -0.0));
    assert!(y.as_slice().iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
}

/// `layer.infer` with every container opened up: a nested stack runs
/// its children one by one, a residual runs its body and then adds its
/// input, and every other layer runs its own `infer`.
fn layerwise(layer: &dyn Layer, x: &Tensor) -> Tensor {
    match layer.eval_op() {
        Some(EvalOp::Sequential(seq)) => {
            (0..seq.len()).fold(x.clone(), |x, i| layerwise(seq.layer(i), &x))
        }
        Some(EvalOp::Residual(body)) => {
            (0..body.len()).fold(x.clone(), |y, i| layerwise(body.layer(i), &y)).add(x)
        }
        _ => layer.infer(x),
    }
}

fn layerwise_features(model: &Model, x: &Tensor, cut: usize) -> Tensor {
    (0..cut).fold(x.clone(), |x, i| layerwise(model.features.layer(i), &x))
}

/// A seeded zoo model with non-zero biases and normalisation affines.
fn seeded_model(arch: Architecture) -> Model {
    let mut model = arch.build(10, &mut Rng::new(0xf05e));
    let mut rng = Rng::new(0xb1a5);
    for p in model.params_mut() {
        if p.value.dims().len() == 1 {
            for v in p.value.as_mut_slice() {
                *v += 0.1 * rng.normal();
            }
        }
    }
    model
}

fn seeded_images(model: &Model, n: usize, seed: u64) -> Tensor {
    let mut rng = Rng::new(seed);
    let [c, h, w] = model.input_shape[..] else { panic!("CHW input expected") };
    Tensor::from_fn([n, c, h, w], |_| rng.normal())
}

#[test]
fn fused_extractor_matches_layerwise_chain_bitwise() {
    // n = 5 also runs at 1 and 4 workers: a batch of at least as many
    // images as workers is split across them by image.
    let runs = [(1, None), (3, None), (5, Some(1)), (5, Some(4))];
    for arch in Architecture::ALL {
        let model = seeded_model(arch);
        for (n, threads) in runs {
            let x = seeded_images(&model, n, 0x5ca1e + n as u64);
            for &cut in arch.paper_cuts() {
                let what = format!("{arch:?} cut {cut} n{n} threads {threads:?}");
                let fused = match threads {
                    Some(t) => par::with_threads(t, || model.infer_features_at(&x, cut)),
                    None => model.infer_features_at(&x, cut),
                };
                let chain = layerwise_features(&model, &x, cut);
                assert_eq!(fused.dims(), chain.dims(), "{what}");
                assert_bits_eq(fused.as_slice(), chain.as_slice(), &what);
                // The whole-model forward rides the same pass.
                if cut == arch.paper_cuts()[0] {
                    let logits = model.infer(&x);
                    let tail = (cut..model.features.len())
                        .fold(chain, |y, i| layerwise(model.features.layer(i), &y));
                    let expected = layerwise(&model.classifier, &tail);
                    assert_bits_eq(logits.as_slice(), expected.as_slice(), &what);
                }
            }
        }
    }
}

/// A depthwise → BN → ReLU6 stack over `c` channels, followed by a
/// 1×1 conv → BN projection (the MobileNetV2 block body) or wrapped in
/// a residual, with seeded biases, affines and running statistics.
fn depthwise_block(c: usize, stride: usize, seed: u64, project: bool) -> Sequential {
    let mut rng = Rng::new(seed);
    let body = Sequential::new()
        .with(DepthwiseConv2d::new(c, 3, stride, 1, &mut rng))
        .with(BatchNorm2d::new(c))
        .with(Activation::new(ActKind::Relu6));
    let mut seq = if project {
        body.with(Conv2d::new(c, 6, 1, 1, 0, &mut rng)).with(BatchNorm2d::new(6))
    } else {
        Sequential::new().with(Residual::new(body))
    };
    for p in seq.params_mut() {
        if p.value.dims().len() == 1 {
            for v in p.value.as_mut_slice() {
                *v += 0.3 * rng.normal();
            }
        }
    }
    // One training-mode forward moves the running statistics.
    seq.forward(&Tensor::from_fn([2, c, 9, 9], |_| rng.normal()), Mode::Train);
    seq
}

#[test]
fn depthwise_hands_off_to_pointwise_conv_bitwise() {
    // With the micro-kernels on, the depthwise step stores its rows
    // straight into the 1×1 conv's packed operand; run both backends.
    // Output widths cover whole panels (16, 32), half panels (8), a
    // quarter (4) and rows that straddle panel halves (7); odd heights
    // leave a last row without a partner at stride 1. At stride 1 the
    // depthwise step also ends a residual body, and adds its skip.
    let was_enabled = simd_enabled();
    for simd in [false, true] {
        set_simd_enabled(simd);
        for (case, ow) in [4, 7, 8, 16, 32].into_iter().enumerate() {
            for (stride, oh, project) in [(1, 5, true), (2, 3, true), (1, 5, false)] {
                let c = 3 + case;
                let seq = depthwise_block(c, stride, 40 + case as u64, project);
                let (h, w) = (oh * stride, ow * stride);
                let x = Tensor::from_vec(seeded(2 * c * h * w, case as u64), [2, c, h, w])
                    .expect("length");
                let chain = (0..seq.len()).fold(x.clone(), |y, i| layerwise(seq.layer(i), &y));
                let what = format!("SIMD {simd}, {ow}x{oh} output, stride {stride}, {project}");
                assert_bits_eq(seq.infer_to(&x, seq.len()).as_slice(), chain.as_slice(), &what);
            }
        }
    }
    set_simd_enabled(was_enabled);
}

#[test]
fn fused_extractor_propagates_non_finite_values_like_the_chain() {
    // A NaN running mean in the first batch norm, and NaN and ±inf
    // pixels: both paths must put NaN in the same places, and it must
    // reach the features — the serving engine's non-finite activation
    // check depends on it.
    for arch in [Architecture::MobileNetV2, Architecture::EfficientNetB0] {
        let mut poisoned_stats = seeded_model(arch);
        let mut state = Vec::new();
        poisoned_stats.features.collect_state(&mut state);
        state[0][1] = f32::NAN;
        poisoned_stats.features.restore_state(&mut state.into_iter());
        let clean = seeded_model(arch);
        let mut poisoned_pixels = seeded_images(&clean, 3, 77);
        for (i, v) in poisoned_pixels.as_mut_slice().iter_mut().enumerate() {
            if i % 997 == 3 {
                *v = SPECIALS[2 + (i / 997) % 3];
            }
        }
        for (model, x, what) in [
            (&poisoned_stats, seeded_images(&clean, 3, 78), "NaN running mean"),
            (&clean, poisoned_pixels, "non-finite pixels"),
        ] {
            for &cut in arch.paper_cuts() {
                let what = format!("{arch:?} cut {cut}: {what}");
                let fused = model.infer_features_at(&x, cut);
                let chain = layerwise_features(model, &x, cut);
                assert_bits_eq(fused.as_slice(), chain.as_slice(), &what);
                assert!(fused.as_slice().iter().any(|v| v.is_nan()), "{what}: no NaN reached");
            }
        }
    }
}
