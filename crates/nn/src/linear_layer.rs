//! The fully-connected [`Linear`] layer.

use crate::{GemmDims, Layer, LayerKind, Parameter};
use mime_tensor::{kaiming_uniform, matmul_nt, matmul_tn, Tensor, TensorError};
use rand::Rng;

/// A fully-connected layer: `y = x·Wᵀ + b` with `x: [N, in]`,
/// `W: [out, in]`, `b: [out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    weight: Parameter,
    bias: Parameter,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform weights and zero bias.
    pub fn new<R: Rng>(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        let name = name.into();
        let weight = kaiming_uniform(rng, &[out_features, in_features], in_features);
        Linear {
            weight: Parameter::new(format!("{name}.weight"), weight),
            bias: Parameter::new(format!("{name}.bias"), Tensor::zeros(&[out_features])),
            name,
            cached_input: None,
        }
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
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

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Linear
    }

    fn forward(&mut self, input: &Tensor) -> crate::Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features() {
            return Err(TensorError::ShapeMismatch {
                lhs: input.dims().to_vec(),
                rhs: self.weight.value.dims().to_vec(),
                op: "linear",
            });
        }
        // y = x · Wᵀ + b
        let y = matmul_nt(input, &self.weight.value)?;
        let out = y.add(&self.bias.value)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let input = self.cached_input.take().ok_or_else(|| {
            TensorError::InvalidGeometry(format!(
                "{}: backward called before forward",
                self.name
            ))
        })?;
        // dW = goutᵀ · x  ([out, N]·[N, in])
        let gw = matmul_tn(grad_output, &input)?;
        self.weight.grad.add_assign(&gw)?;
        // db = column sums of gout
        let gb = grad_output.sum_axis0()?;
        self.bias.grad.add_assign(&gb)?;
        // dx = gout · W  ([N, out]·[out, in])
        grad_output.matmul(&self.weight.value)
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
        let [n, _] = *input_dims else { return None };
        Some(GemmDims { m: self.out_features(), n, k: self.in_features() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new("fc", 2, 2, &mut rng);
        // overwrite params for a known result
        lin.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        lin.bias.value = Tensor::from_slice(&[10.0, 20.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = lin.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lin = Linear::new("fc", 3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]).unwrap();
        let y = lin.forward(&x).unwrap();
        let gout = Tensor::ones(y.dims());
        let gx = lin.backward(&gout).unwrap();

        let eps = 1e-3f32;
        let w0 = lin.weight.value.clone();
        let b0 = lin.bias.value.clone();
        let loss = |lin: &mut Linear, x: &Tensor| lin.forward(x).unwrap().sum();
        for idx in 0..6 {
            let mut wp = w0.clone();
            wp.as_mut_slice()[idx] += eps;
            lin.weight.value = wp;
            let lp = loss(&mut lin, &x);
            let mut wm = w0.clone();
            wm.as_mut_slice()[idx] -= eps;
            lin.weight.value = wm;
            let lm = loss(&mut lin, &x);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - lin.parameters()[0].grad.as_slice()[idx]).abs() < 1e-2,
                "dW[{idx}]"
            );
        }
        lin.weight.value = w0.clone();
        lin.bias.value = b0;
        for idx in 0..6 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut lin, &xp);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lm = loss(&mut lin, &xm);
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-2, "dX[{idx}]");
        }
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new("fc", 4, 2, &mut rng);
        assert!(lin.forward(&Tensor::zeros(&[1, 3])).is_err());
        assert!(lin.forward(&Tensor::zeros(&[4])).is_err());
    }
}
