//! # nshd-tensor
//!
//! Dense `f32` tensor math for the NSHD workspace: the substrate that plays
//! the role PyTorch's tensor library plays in the original paper
//! (*Comprehensive Integration of Hyperdimensional Computing with Deep
//! Learning towards Neuro-Symbolic AI*, DAC 2023).
//!
//! The crate provides:
//!
//! - [`Tensor`] — an owned, contiguous, row-major `f32` container with
//!   elementwise ops, reductions, and a numerically-stable softmax;
//! - [`Shape`] — dimension bookkeeping and row-major index arithmetic;
//! - [`matmul`]/[`matmul_bt`]/[`matmul_at`] — GEMM kernels that
//!   convolution lowers onto, row-parallel across the [`par`] worker set
//!   with bit-identical results at any thread count. A runtime dispatch
//!   ([`simd_enabled`]) selects packed AVX2 micro-kernels when compiled
//!   in (`simd` feature, on by default) and supported by the CPU; the
//!   cache-blocked scalar loop is always present as the bit-exact
//!   reference fallback;
//! - [`PackedRhs`]/[`matmul_packed`] — a right-hand operand packed once
//!   into the micro-kernels' panel layout, in f32 or (for ±1 matrices
//!   such as a random-projection basis) as sign bits, so constant
//!   operands skip the per-call packing with bit-identical results;
//! - [`par`] — std-only structured parallelism (scoped workers honoring
//!   the `NSHD_THREADS` override, deterministic row partitioning);
//! - [`im2col`]/[`col2im`] — the convolution ⇄ GEMM bridge and its adjoint;
//! - [`Rng`] — a deterministic SplitMix64 generator that makes every
//!   experiment in the workspace reproducible from a seed.
//!
//! # Examples
//!
//! ```
//! use nshd_tensor::{matmul, Rng, Tensor};
//!
//! let mut rng = Rng::new(42);
//! let a = Tensor::from_fn([2, 3], |_| rng.normal());
//! let b = Tensor::from_fn([3, 4], |_| rng.normal());
//! let c = matmul(&a, &b);
//! assert_eq!(c.dims(), &[2, 4]);
//! ```

#![warn(missing_docs)]

mod error;
mod im2col;
mod matmul;
mod ops;
pub mod par;
mod rng;
mod shape;
mod simd;
mod tensor;

pub use error::TensorError;
pub use im2col::{col2im, im2col, ConvGeometry};
pub use matmul::{
    matmul, matmul_at, matmul_bt, matmul_bt_into, matmul_into, matmul_packed, matmul_packed_into,
    matmul_slice_into, matvec, vecmat,
};
pub use ops::dot;
pub use rng::Rng;
pub use shape::{conv_out_dim, conv_tap_range, pool_out_dim, Shape};
pub use simd::{set_simd_enabled, simd_available, simd_enabled, PackedRhs, PanelWriter};
pub use tensor::Tensor;
