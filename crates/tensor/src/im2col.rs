//! im2col / col2im lowering for convolution.
//!
//! Convolution of a `C×H×W` input with `K` kernels of size `C×R×S` is
//! expressed as a GEMM between the `K×(C·R·S)` weight matrix and the
//! `(C·R·S)×(H'·W')` patch matrix produced by [`im2col`]. The adjoint
//! operation [`col2im`] scatters patch-space gradients back to image space
//! and is used by convolution's backward pass.

use crate::shape::conv_tap_range;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution over a single image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Output height after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit in the input.
    pub fn out_height(&self) -> usize {
        out_extent(self.height, self.kernel_h, self.stride, self.padding)
    }

    /// Output width after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit in the input.
    pub fn out_width(&self) -> usize {
        out_extent(self.width, self.kernel_w, self.stride, self.padding)
    }

    /// Rows of the patch matrix: `channels * kernel_h * kernel_w`.
    pub fn patch_len(&self) -> usize {
        self.channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the patch matrix: `out_height() * out_width()`.
    pub fn out_positions(&self) -> usize {
        self.out_height() * self.out_width()
    }
}

fn out_extent(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    assert!(padded >= kernel, "kernel {kernel} larger than padded input {padded}");
    assert!(stride > 0, "stride must be positive");
    (padded - kernel) / stride + 1
}

/// Unfolds one `C×H×W` image (given as a flat slice) into the
/// `patch_len × out_positions` patch matrix.
///
/// Out-of-image taps read as zero (zero padding).
///
/// # Panics
///
/// Panics if `image.len()` does not equal `C·H·W`.
pub fn im2col(image: &[f32], g: &ConvGeometry) -> Tensor {
    assert_eq!(
        image.len(),
        g.channels * g.height * g.width,
        "image length does not match geometry"
    );
    let (oh, ow) = (g.out_height(), g.out_width());
    let cols = oh * ow;
    let mut sp = nshd_obs::span("im2col");
    sp.add_bytes(4 * (image.len() + g.patch_len() * cols) as u64);
    let mut out = Tensor::zeros([g.patch_len(), cols]);
    let buf = out.as_mut_slice();
    let (s, p, w) = (g.stride, g.padding, g.width);
    let mut row = 0usize;
    for c in 0..g.channels {
        let plane = &image[c * g.height * w..(c + 1) * g.height * w];
        for kh in 0..g.kernel_h {
            let rows = conv_tap_range(g.height, oh, kh, s, p);
            for kw in 0..g.kernel_w {
                let dst = &mut buf[row * cols..(row + 1) * cols];
                row += 1;
                // The zero-initialised buffer already holds the padding
                // taps; copy the in-bounds run of each output row.
                let (Some(oys), Some(oxs)) = (rows.clone(), conv_tap_range(w, ow, kw, s, p)) else {
                    continue;
                };
                let ix0 = oxs.start * s + kw - p;
                for oy in oys {
                    let src = &plane[(oy * s + kh - p) * w..][ix0..];
                    let run = &mut dst[oy * ow + oxs.start..oy * ow + oxs.end];
                    if s == 1 {
                        run.copy_from_slice(&src[..run.len()]);
                    } else {
                        for (d, &v) in run.iter_mut().zip(src.iter().step_by(s)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Folds a `patch_len × out_positions` gradient matrix back into image
/// space, accumulating overlapping contributions — the adjoint of
/// [`im2col`].
///
/// # Panics
///
/// Panics if `cols` has the wrong shape for the geometry.
pub fn col2im(cols: &Tensor, g: &ConvGeometry) -> Vec<f32> {
    let (oh, ow) = (g.out_height(), g.out_width());
    assert_eq!(
        cols.dims(),
        &[g.patch_len(), oh * ow],
        "patch matrix shape does not match geometry"
    );
    let mut sp = nshd_obs::span("col2im");
    sp.add_bytes(4 * (cols.len() + g.channels * g.height * g.width) as u64);
    let mut image = vec![0.0f32; g.channels * g.height * g.width];
    let buf = cols.as_slice();
    let ncols = oh * ow;
    let mut row = 0usize;
    for c in 0..g.channels {
        let plane = &mut image[c * g.height * g.width..(c + 1) * g.height * g.width];
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                let src = &buf[row * ncols..(row + 1) * ncols];
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
                            plane[iy * g.width + ix as usize] += src[col];
                        }
                        col += 1;
                    }
                }
                row += 1;
            }
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
        ConvGeometry {
            channels: c,
            height: h,
            width: w,
            kernel_h: k,
            kernel_w: k,
            stride: s,
            padding: p,
        }
    }

    #[test]
    fn output_extent_formulae() {
        let g = geom(1, 32, 32, 3, 1, 1);
        assert_eq!(g.out_height(), 32);
        assert_eq!(g.out_width(), 32);
        let g = geom(1, 32, 32, 3, 2, 1);
        assert_eq!(g.out_height(), 16);
        let g = geom(1, 5, 5, 5, 1, 0);
        assert_eq!(g.out_positions(), 1);
    }

    #[test]
    fn im2col_1x1_kernel_is_identity_layout() {
        let g = geom(2, 2, 2, 1, 1, 0);
        let img: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let m = im2col(&img, &g);
        assert_eq!(m.dims(), &[2, 4]);
        assert_eq!(m.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_extracts_expected_patch() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding.
        let g = geom(1, 3, 3, 2, 1, 0);
        let img: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let m = im2col(&img, &g);
        assert_eq!(m.dims(), &[4, 4]);
        // First output position (top-left window): 1,2,4,5 down the rows.
        assert_eq!(m.at(&[0, 0]), 1.0);
        assert_eq!(m.at(&[1, 0]), 2.0);
        assert_eq!(m.at(&[2, 0]), 4.0);
        assert_eq!(m.at(&[3, 0]), 5.0);
        // Last output position (bottom-right window): 5,6,8,9.
        assert_eq!(m.at(&[0, 3]), 5.0);
        assert_eq!(m.at(&[3, 3]), 9.0);
    }

    #[test]
    fn padding_reads_zero() {
        let g = geom(1, 2, 2, 3, 1, 1);
        let img = [1.0, 2.0, 3.0, 4.0];
        let m = im2col(&img, &g);
        assert_eq!(m.dims(), &[9, 4]);
        // Top-left output: kernel centred at (0,0); tap (0,0) is padding.
        assert_eq!(m.at(&[0, 0]), 0.0);
        // Centre tap of kernel at the first position is pixel (0,0)=1.
        assert_eq!(m.at(&[4, 0]), 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for arbitrary x, y — the defining
        // property that makes conv backward correct.
        let g = geom(2, 4, 5, 3, 2, 1);
        let n_img = g.channels * g.height * g.width;
        let x: Vec<f32> = (0..n_img).map(|i| (i as f32 * 0.37).sin()).collect();
        let cols_shape = [g.patch_len(), g.out_positions()];
        let y = Tensor::from_fn(cols_shape, |i| (i as f32 * 0.11).cos());
        let ix = im2col(&x, &g);
        let lhs: f32 = ix.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let cy = col2im(&y, &g);
        let rhs: f32 = x.iter().zip(cy.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn oversized_kernel_panics() {
        geom(1, 2, 2, 5, 1, 0).out_height();
    }
}
