//! The fully-connected [`Linear`] layer.

use crate::{GemmDims, Layer, LayerKind, Parameter};
use mime_tensor::{
    kaiming_uniform, matmul_nt, matmul_sparse_dispatch_into, matmul_tn, threads,
    SparseDispatch, SparseStats, Tensor, TensorError,
};
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

    fn forward_sparse(
        &mut self,
        input: &Tensor,
        active_in: Option<&[bool]>,
        dispatch: SparseDispatch,
    ) -> crate::Result<(Tensor, Option<SparseStats>)> {
        if input.rank() != 2 || input.dims()[1] != self.in_features() {
            return Err(TensorError::ShapeMismatch {
                lhs: input.dims().to_vec(),
                rhs: self.weight.value.dims().to_vec(),
                op: "linear",
            });
        }
        if input.dims()[0] != 1 {
            // the [F, 1] reformulation below coincides with a row of
            // x·Wᵀ only for a single-image batch; larger batches stay on
            // the dense path (training never comes through here anyway)
            return Ok((self.forward(input)?, None));
        }
        let f = self.in_features();
        if let Some(act) = active_in {
            if act.len() != f {
                return Err(TensorError::InvalidGeometry(format!(
                    "{}: activity bitmap length {} does not match in_features {f}",
                    self.name,
                    act.len()
                )));
            }
        }
        // One row of y = x·Wᵀ is yᵀ = W·xᵀ, and for a single image the
        // [1, F] input *is* the [F, 1] column operand — so the masked
        // input features become skippable zero k-rows of the GEMM.
        let xt = input.reshape(&[f, 1])?;
        let mut yt = Tensor::zeros(&[self.out_features(), 1]);
        let rows: Option<Vec<usize>> = active_in.map(|act| {
            act.iter().enumerate().filter_map(|(i, &a)| a.then_some(i)).collect()
        });
        let stats = matmul_sparse_dispatch_into(
            &self.weight.value,
            &xt,
            &mut yt,
            rows.as_deref(),
            dispatch,
            threads::worker_count(),
        )?;
        let y = yt.reshape(&[1, self.out_features()])?.add(&self.bias.value)?;
        Ok((y, Some(stats)))
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
    fn forward_sparse_is_bit_identical_to_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lin = Linear::new("fc", 8, 5, &mut rng);
        let xv: Vec<f32> =
            (0..8).map(|i| if i % 3 == 0 { 0.0 } else { i as f32 * 0.3 - 1.0 }).collect();
        let x = Tensor::from_vec(xv, &[1, 8]).unwrap();
        let dense = lin.forward(&x).unwrap();
        let bitmap: Vec<bool> = (0..8).map(|i| i % 3 != 0).collect();
        for (act, disp) in [
            (None, SparseDispatch::Auto),
            (None, SparseDispatch::SparseOnly),
            (Some(bitmap.as_slice()), SparseDispatch::SparseOnly),
            (None, SparseDispatch::DenseOnly),
        ] {
            let (y, stats) = lin.forward_sparse(&x, act, disp).unwrap();
            assert_eq!(y.as_slice(), dense.as_slice(), "act={act:?} disp={disp:?}");
            let stats = stats.expect("single-image linear reports sparse stats");
            if disp == SparseDispatch::SparseOnly {
                assert_eq!(stats.rows_skipped(), 3, "features 0, 3, 6 are zero");
            }
        }
        // larger batches fall back to the dense forward (no stats)
        let xb = Tensor::from_fn(&[3, 8], |i| i as f32 * 0.1);
        let db = lin.forward(&xb).unwrap();
        let (yb, sb) = lin.forward_sparse(&xb, None, SparseDispatch::SparseOnly).unwrap();
        assert_eq!(yb.as_slice(), db.as_slice());
        assert!(sb.is_none());
        // a bitmap of the wrong length is rejected
        assert!(lin.forward_sparse(&x, Some(&[true; 7]), SparseDispatch::Auto).is_err());
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new("fc", 4, 2, &mut rng);
        assert!(lin.forward(&Tensor::zeros(&[1, 3])).is_err());
        assert!(lin.forward(&Tensor::zeros(&[4])).is_err());
    }
}
