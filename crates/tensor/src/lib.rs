//! # mime-tensor
//!
//! Dense `f32` tensor kernels used throughout the MIME reproduction: shape
//! arithmetic, broadcasting elementwise operations, a register-blocked
//! multi-threaded matrix multiply (worker count from `MIME_THREADS`, see
//! [`threads`]), batched `im2col`-based 2-D convolution with reusable
//! scratch buffers, and max pooling with argmax tracking for
//! backpropagation.
//!
//! Inference GEMMs have one entry point per weight form, each bit-identical
//! to the dense packed product:
//!
//! * raw weight `A`: [`matmul_sparse_dispatch_into`] (activity list or
//!   probe, [`SparseDispatch`] mode, worker count), with [`matmul_into`]
//!   as its dense call at the default worker count;
//! * resident conv weight [`PrepackedA`]: [`matmul_prepacked_a_into`],
//!   with the same arguments;
//! * resident FC panels [`PrepackedB`]: [`matmul_fused_batch_into`] and
//!   its `B = 1` case [`matmul_fused_row_into`], with the bias, threshold
//!   mask and activity bitmap fused into the epilogue.
//!
//! The crate is deliberately small and dependency-light: it implements
//! exactly the kernels a VGG-style network needs, nothing more. Layouts are
//! always contiguous row-major (`NCHW` for image tensors).
//!
//! ## Example
//!
//! ```
//! # use mime_tensor::{Tensor, TensorError};
//! # fn main() -> Result<(), TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

mod cat;
mod conv;
mod error;
mod init;
mod matmul;
mod ops;
mod pool;
mod prepack;
mod reduce;
mod shape;
mod tensor;
pub mod threads;

pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_with_scratch,
    conv2d_sparse_prepacked_with_scratch, conv2d_sparse_with_scratch, conv2d_with_scratch,
    im2col, Conv2dGrads, ConvScratch, ConvSpec,
};
pub use error::TensorError;
pub use init::{kaiming_normal, kaiming_uniform, xavier_uniform};
pub use matmul::{
    matmul_into, matmul_nt, matmul_nt_into_acc, matmul_scalar_ref,
    matmul_sparse_dispatch_into, matmul_tn, matmul_tn_into, SparseDispatch, SparseStats,
    MR, NR, SPARSE_ACTIVE_MAX,
};
pub use pool::{max_pool2d, max_pool2d_backward, max_pool2d_values, MaxPoolOut, PoolSpec};
pub use prepack::{
    matmul_fused_batch_into, matmul_fused_row_into, matmul_prepacked_a_into, FusedMask,
    PrepackedA, PrepackedB,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias used by all fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
