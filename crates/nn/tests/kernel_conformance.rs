//! Eval-kernel conformance: the row-vectorised depthwise convolution,
//! the run-copy `im2col` and the activation loops must reproduce, bit
//! for bit, the per-element scalar loops they replaced. Those loops live
//! on here as oracles.
//!
//! The grid covers kernel sizes {1, 3, 5}, strides {1, 2, 3}, paddings
//! {0, 1, 2}, odd and unit spatial extents and batches of one and three,
//! over inputs seeded with ±0.0, ±inf and NaN — a NaN must still reach
//! the output, or the serving engine's non-finite activation check
//! stops firing. Every non-NaN output must match to the bit.

use nshd_nn::{ActKind, Activation, Conv2d, DepthwiseConv2d, Layer, Mode};
use nshd_tensor::{conv_out_dim, im2col, ConvGeometry, Rng, Tensor};

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
