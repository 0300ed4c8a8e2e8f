//! Shapes and index arithmetic for row-major (C-order) tensors.

use crate::error::TensorError;
use std::fmt;
use std::ops::Range;

/// The shape of a tensor: an ordered list of dimension sizes.
///
/// Shapes are row-major: the last dimension varies fastest in memory. The
/// crate convention for image tensors is NCHW (batch, channel, height,
/// width).
///
/// # Examples
///
/// ```
/// use nshd_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    ///
    /// A rank-0 shape (scalar) is permitted and has one element.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dimensions; 1 for scalars).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides (in elements) for this shape.
    ///
    /// The stride of the last axis is always 1; a scalar has no strides.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != self.rank()` or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &s)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(
                i < self.dims[axis],
                "index {i} out of bounds for axis {axis} with size {}",
                self.dims[axis]
            );
            off += i * s;
        }
        off
    }

    /// Checks that `self` and `other` are identical, returning a descriptive
    /// error otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when the shapes differ.
    pub fn ensure_same(&self, other: &Shape) -> Result<(), TensorError> {
        if self == other {
            Ok(())
        } else {
            Err(TensorError::IncompatibleShapes { lhs: self.dims.clone(), rhs: other.dims.clone() })
        }
    }
}

/// Spatial output size of a convolution along one axis, or `None` when
/// the (padded) input is smaller than the kernel.
///
/// Computes `(input + 2·padding - kernel) / stride + 1` with the same
/// floor semantics as the `im2col` lowering.
///
/// # Examples
///
/// ```
/// use nshd_tensor::conv_out_dim;
///
/// assert_eq!(conv_out_dim(32, 3, 1, 1), Some(32));
/// assert_eq!(conv_out_dim(5, 3, 2, 1), Some(3));
/// assert_eq!(conv_out_dim(2, 5, 1, 0), None);
/// ```
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    let padded = input + 2 * padding;
    if kernel == 0 || stride == 0 || padded < kernel {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

/// The output positions `lo..hi` (out of `out`) at which kernel tap `tap`
/// reads inside the input along one axis, i.e. `0 <= o·stride + tap −
/// padding < input`, or `None` when no position does. The in-bounds
/// positions of a tap are always one contiguous run, so a convolution
/// loop can visit them without a bounds test per element.
///
/// # Examples
///
/// ```
/// use nshd_tensor::conv_tap_range;
///
/// // 3-tap kernel, stride 1, padding 1 over 4 inputs (4 outputs): the
/// // first tap falls off the left edge at output 0, the last off the
/// // right edge at output 3.
/// assert_eq!(conv_tap_range(4, 4, 0, 1, 1), Some(1..4));
/// assert_eq!(conv_tap_range(4, 4, 1, 1, 1), Some(0..4));
/// assert_eq!(conv_tap_range(4, 4, 2, 1, 1), Some(0..3));
/// // A tap that only ever reads padding.
/// assert_eq!(conv_tap_range(1, 1, 0, 1, 1), None);
/// ```
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn conv_tap_range(
    input: usize,
    out: usize,
    tap: usize,
    stride: usize,
    padding: usize,
) -> Option<Range<usize>> {
    let lo = padding.saturating_sub(tap).div_ceil(stride);
    let hi = ((input + padding).checked_sub(tap + 1)? / stride + 1).min(out);
    (lo < hi).then_some(lo..hi)
}

/// Spatial output size of an unpadded pooling window along one axis, or
/// `None` when the window does not fit the input.
///
/// # Examples
///
/// ```
/// use nshd_tensor::pool_out_dim;
///
/// assert_eq!(pool_out_dim(16, 2, 2), Some(8));
/// assert_eq!(pool_out_dim(3, 2, 1), Some(2));
/// assert_eq!(pool_out_dim(2, 4, 4), None);
/// ```
pub fn pool_out_dim(input: usize, window: usize, stride: usize) -> Option<usize> {
    if window == 0 || stride == 0 || input < window {
        return None;
    }
    Some((input - window) / stride + 1)
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([5]).strides(), vec![1]);
        assert_eq!(Shape::new(vec![]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::from([2, 3, 4]);
        let mut seen = vec![false; s.len()];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]);
                    assert!(!seen[off], "offset {off} visited twice");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::from([2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn ensure_same_reports_both_shapes() {
        let a = Shape::from([2, 3]);
        let b = Shape::from([3, 2]);
        let err = a.ensure_same(&b).unwrap_err();
        assert_eq!(err, TensorError::IncompatibleShapes { lhs: vec![2, 3], rhs: vec![3, 2] });
        assert!(a.ensure_same(&a.clone()).is_ok());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::from([2, 3]).to_string(), "(2×3)");
    }

    #[test]
    fn conv_and_pool_out_dims() {
        // Same-padding 3×3 stride-1 conv preserves the spatial size.
        assert_eq!(conv_out_dim(32, 3, 1, 1), Some(32));
        // Stride-2 halving as used by the MobileNet downsampling convs.
        assert_eq!(conv_out_dim(32, 3, 2, 1), Some(16));
        // Degenerate configurations never divide by zero or underflow.
        assert_eq!(conv_out_dim(4, 0, 1, 0), None);
        assert_eq!(conv_out_dim(4, 3, 0, 1), None);
        assert_eq!(conv_out_dim(2, 5, 1, 1), None);
        assert_eq!(pool_out_dim(16, 2, 2), Some(8));
        assert_eq!(pool_out_dim(5, 2, 1), Some(4));
        assert_eq!(pool_out_dim(1, 2, 2), None);
        assert_eq!(pool_out_dim(4, 0, 1), None);
    }

    #[test]
    fn zero_sized_dimension_is_empty() {
        let s = Shape::from([2, 0, 3]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }
}
