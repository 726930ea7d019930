//! Dense row-major `f32` matrix kernels.
//!
//! This crate stands in for the numerical core of PyTorch in the paper's
//! pipeline: everything DHE, DLRM and the GPT-2-style model need reduces to
//! dense matrix multiplication, element-wise maps, broadcasting adds and
//! row-wise reductions, all on `f32`.
//!
//! The product that carries the forward passes, `A·Bᵀ` against an
//! `out × in` weight ([`Matrix::matmul_transpose_b`]), runs on a
//! register-tiled kernel (`gemm`): one safe Rust body, compiled once per
//! instruction-set level (baseline, AVX2, AVX-512) and picked once per
//! process, that reads the weights once per call whatever the batch — the
//! weight reuse that makes the paper's DHE cheaper per query as the batch
//! grows. It uses no intrinsics, keeps no packed copy of the weights, and
//! computes every element with the same sequence of multiplies and adds at
//! every level, batch size and row position, so outputs are bit-identical
//! across hosts and across the batches a server happens to coalesce. The
//! backward-pass products ([`Matrix::matmul`],
//! [`Matrix::transpose_a_matmul`]) are plain streaming loops.
//!
//! # Example
//!
//! ```
//! use secemb_tensor::Matrix;
//!
//! let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
//! let b = Matrix::eye(3);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

// `deny`, not `forbid`: the one exception is the call through the cached
// ISA dispatch pointer in `gemm::run`, `#[allow]`ed there.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod gemm;
mod init;
mod matrix;
pub mod ops;

pub use init::{normal_init, XavierInit};
pub use matrix::Matrix;
