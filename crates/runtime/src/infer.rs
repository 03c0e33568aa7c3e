//! The model-agnostic [`BatchModel`] trait that the serving front end
//! ([`crate::serve::Server`]) runs.
//!
//! `edd-runtime` sits below the model crates in the workspace graph, so
//! serving is generic over anything that can turn a batch of images into a
//! batch of logits — the integer engine `edd_ir::CompiledModel`
//! implements [`BatchModel`] and is the intended occupant. A caller that
//! wants one synchronous forward calls [`BatchModel::infer_batch`]
//! directly.

/// A model that maps a batch of flat NCHW images to a batch of logits.
pub trait BatchModel {
    /// Error type surfaced by a failed forward pass.
    type Error: std::fmt::Display;

    /// Number of values in one input image (`c·h·w`).
    fn image_len(&self) -> usize;

    /// Number of logits per image.
    fn num_classes(&self) -> usize;

    /// Runs the model on `batch` images packed contiguously in `images`
    /// (`images.len() == batch · image_len()`), returning
    /// `batch · num_classes()` logits.
    ///
    /// # Errors
    ///
    /// Implementation-defined; shape mismatches at minimum.
    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, Self::Error>;
}
