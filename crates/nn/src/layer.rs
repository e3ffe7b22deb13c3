//! The [`Layer`] trait and the [`Parameter`] container.

use mime_tensor::Tensor;

/// A trainable parameter: its value, the gradient accumulated by the most
/// recent backward pass, and a freeze flag.
///
/// Freezing is how MIME keeps `W_parent` fixed while the per-task threshold
/// banks learn: optimizers skip frozen parameters entirely.
#[derive(Debug, Clone)]
pub struct Parameter {
    /// Current value.
    pub value: Tensor,
    /// Gradient from the most recent backward pass (same shape as
    /// `value`).
    pub grad: Tensor,
    /// When `true`, optimizers must not update this parameter.
    pub frozen: bool,
    name: String,
}

impl Parameter {
    /// Creates an unfrozen parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Parameter { value, grad, frozen: false, name: name.into() }
    }

    /// The parameter's diagnostic name (e.g. `"conv3.weight"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }
}

/// Coarse classification of a layer, used by network surgery (e.g.
/// replacing every ReLU with a threshold mask) and by the hardware
/// geometry extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Fully-connected layer.
    Linear,
    /// ReLU activation.
    Relu,
    /// Max pooling.
    Pool,
    /// NCHW → NF flattening.
    Flatten,
    /// A layer defined outside this crate (e.g. MIME's threshold mask).
    Custom,
}

/// The GEMM shape (`[M×K] · [K×N]`) one layer invocation lowers to —
/// im2col for convolutions, the weight product for linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmDims {
    /// Output rows (output channels / features).
    pub m: usize,
    /// Output columns (batch × output sites).
    pub n: usize,
    /// Reduction extent (input channels × kernel taps / input features).
    pub k: usize,
}

impl GemmDims {
    /// Dense floating-point operations of this GEMM, counting a
    /// multiply-accumulate as two.
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// An object-safe neural-network layer with explicit forward and backward
/// passes.
///
/// Layers cache whatever they need during [`forward`](Layer::forward) and
/// consume the cache in [`backward`](Layer::backward); callers must pair
/// the two calls. Gradients accumulate into each [`Parameter::grad`].
///
/// The trait serves training and the dense reference forward only. No
/// layer skips work on zero activations: sparse inference runs in the
/// `mime-runtime` executor over bound, prepacked plans, which must stay
/// bit-identical to this dense forward.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (unique within a network).
    fn name(&self) -> &str;

    /// The layer's coarse kind.
    fn kind(&self) -> LayerKind;

    /// Runs the layer on `input`, caching intermediates for the backward
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when `input` has an incompatible shape.
    fn forward(&mut self, input: &Tensor) -> crate::Result<Tensor>;

    /// Propagates `grad_output` backwards, accumulating parameter
    /// gradients and returning the gradient w.r.t. the layer input.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when `grad_output` has an incompatible
    /// shape, or when called without a preceding `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor>;

    /// Mutable access to the layer's parameters (empty for stateless
    /// layers). The order must be stable across calls — optimizers key
    /// their state on it.
    fn parameters_mut(&mut self) -> Vec<&mut Parameter>;

    /// Immutable access to the layer's parameters.
    fn parameters(&self) -> Vec<&Parameter>;

    /// Clones the layer behind the trait object (backs `Clone` for
    /// `Box<dyn Layer>`, and so for [`Sequential`](crate::Sequential)).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// The GEMM shape a forward call on an input of `input_dims` lowers
    /// to, or `None` for layers that execute no GEMM (activations,
    /// pooling, reshapes). The profiling hooks use this to attribute
    /// flops and matrix dimensions to spans.
    fn gemm_dims(&self, _input_dims: &[usize]) -> Option<GemmDims> {
        None
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_zero_grad() {
        let mut p = Parameter::new("w", Tensor::ones(&[3]));
        p.grad = Tensor::ones(&[3]);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(!p.frozen);
    }
}
