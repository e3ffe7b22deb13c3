//! The [`Conv2d`] layer.

use crate::{GemmDims, Layer, LayerKind, Parameter};
use mime_tensor::{
    conv2d_backward_with_scratch, conv2d_with_scratch, kaiming_uniform, ConvScratch,
    ConvSpec, Tensor,
};
use rand::Rng;

/// A 2-D convolution layer (`NCHW`, square kernel), with bias.
///
/// ```
/// # use mime_nn::{Conv2d, Layer};
/// # use mime_tensor::{ConvSpec, Tensor};
/// # use rand::{rngs::StdRng, SeedableRng};
/// # fn main() -> Result<(), mime_tensor::TensorError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new("conv1", 3, 8, ConvSpec::vgg3x3(), &mut rng);
/// let x = Tensor::zeros(&[2, 3, 8, 8]);
/// let y = conv.forward(&x)?;
/// assert_eq!(y.dims(), &[2, 8, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    spec: ConvSpec,
    weight: Parameter,
    bias: Parameter,
    cached_input: Option<Tensor>,
    // Reused across forward/backward calls so steady-state training does
    // no per-step lowering allocation. Cloned layers share no buffers
    // (ConvScratch::clone copies), so replicas stay independent.
    scratch: ConvScratch,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights and zero bias.
    pub fn new<R: Rng>(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        spec: ConvSpec,
        rng: &mut R,
    ) -> Self {
        let name = name.into();
        let fan_in = in_channels * spec.kernel * spec.kernel;
        let weight = kaiming_uniform(
            rng,
            &[out_channels, in_channels, spec.kernel, spec.kernel],
            fan_in,
        );
        Conv2d {
            weight: Parameter::new(format!("{name}.weight"), weight),
            bias: Parameter::new(format!("{name}.bias"), Tensor::zeros(&[out_channels])),
            name,
            spec,
            cached_input: None,
            scratch: ConvScratch::new(),
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Immutable view of the weight parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Mutable view of the weight parameter (used by pruning masks).
    pub fn weight_mut(&mut self) -> &mut Parameter {
        &mut self.weight
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn forward(&mut self, input: &Tensor) -> crate::Result<Tensor> {
        let out = conv2d_with_scratch(
            input,
            &self.weight.value,
            &self.bias.value,
            &self.spec,
            &mut self.scratch,
        )?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let input = self.cached_input.take().ok_or_else(|| {
            mime_tensor::TensorError::InvalidGeometry(format!(
                "{}: backward called before forward",
                self.name
            ))
        })?;
        let grads = conv2d_backward_with_scratch(
            &input,
            &self.weight.value,
            grad_output,
            &self.spec,
            &mut self.scratch,
        )?;
        self.weight.grad.add_assign(&grads.grad_weight)?;
        self.bias.grad.add_assign(&grads.grad_bias)?;
        Ok(grads.grad_input)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn gemm_dims(&self, input_dims: &[usize]) -> Option<GemmDims> {
        let [n, _, h, w] = *input_dims else { return None };
        let out = |x: usize| {
            (x + 2 * self.spec.padding)
                .checked_sub(self.spec.kernel)
                .map(|span| span / self.spec.stride + 1)
        };
        Some(GemmDims {
            m: self.out_channels(),
            n: n * out(h)? * out(w)?,
            k: self.in_channels() * self.spec.kernel * self.spec.kernel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new("c", 3, 8, ConvSpec::vgg3x3(), &mut rng);
        let y = conv.forward(&Tensor::zeros(&[2, 3, 16, 16])).unwrap();
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        assert_eq!(conv.out_channels(), 8);
        assert_eq!(conv.in_channels(), 3);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new("c", 1, 1, ConvSpec::vgg3x3(), &mut rng);
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn gradients_accumulate() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new("c", 1, 2, ConvSpec::vgg3x3(), &mut rng);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        for _ in 0..2 {
            let y = conv.forward(&x).unwrap();
            conv.backward(&Tensor::ones(y.dims())).unwrap();
        }
        // bias grad of sum-loss per pass is 16 sites; two passes accumulate
        assert!((conv.parameters()[1].grad.as_slice()[0] - 32.0).abs() < 1e-3);
    }

    #[test]
    fn parameter_order_stable() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new("c", 1, 1, ConvSpec::vgg3x3(), &mut rng);
        let names: Vec<String> =
            conv.parameters_mut().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names, vec!["c.weight", "c.bias"]);
    }
}
