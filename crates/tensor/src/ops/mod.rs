//! Differentiable operations on [`crate::Tensor`], grouped by family.

mod arith;
mod conv;
pub mod gumbel;
mod matmul;
mod norm;
mod pool;
mod reduce;
pub mod softmax;
mod unary;

pub use norm::BatchNormOutput;
