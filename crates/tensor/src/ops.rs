//! Broadcasting elementwise arithmetic on [`Tensor`].
//!
//! Binary operations support numpy-style right-aligned broadcasting via
//! [`Shape::broadcast`]. The fast path (identical shapes) avoids index
//! arithmetic entirely.

use crate::{Result, Shape, Tensor, TensorError};

fn zip_broadcast(
    lhs: &Tensor,
    rhs: &Tensor,
    op: &'static str,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    if lhs.shape() == rhs.shape() {
        let data =
            lhs.as_slice().iter().zip(rhs.as_slice()).map(|(&a, &b)| f(a, b)).collect();
        return Tensor::from_vec(data, lhs.dims());
    }
    let out_shape =
        lhs.shape().broadcast(rhs.shape()).map_err(|_| TensorError::ShapeMismatch {
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
            op,
        })?;
    let rank = out_shape.rank();
    let out_dims = out_shape.dims().to_vec();
    let lstrides = padded_strides(lhs.shape(), &out_shape);
    let rstrides = padded_strides(rhs.shape(), &out_shape);
    let mut out = Tensor::zeros(&out_dims);
    let (lv, rv, ov) = (lhs.as_slice(), rhs.as_slice(), out.as_mut_slice());
    let mut index = vec![0usize; rank];
    for o in ov.iter_mut() {
        let mut l_off = 0usize;
        let mut r_off = 0usize;
        for d in 0..rank {
            l_off += index[d] * lstrides[d];
            r_off += index[d] * rstrides[d];
        }
        *o = f(lv[l_off], rv[r_off]);
        // increment row-major index
        for d in (0..rank).rev() {
            index[d] += 1;
            if index[d] < out_dims[d] {
                break;
            }
            index[d] = 0;
        }
    }
    Ok(out)
}

/// Strides of `shape` right-aligned into `out_shape`, with broadcast
/// dimensions (extent 1 or missing) given stride 0.
fn padded_strides(shape: &Shape, out_shape: &Shape) -> Vec<usize> {
    let rank = out_shape.rank();
    let src_rank = shape.rank();
    let src_strides = shape.strides();
    let mut strides = vec![0usize; rank];
    for (i, &s) in src_strides.iter().enumerate() {
        let out_d = rank - src_rank + i;
        if shape.dim(i) != 1 {
            strides[out_d] = s;
        }
    }
    strides
}

impl Tensor {
    /// Elementwise sum with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        zip_broadcast(self, rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        zip_broadcast(self, rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product with broadcasting.
    ///
    /// This is the masking operation of the paper's equation (2):
    /// `A = Y ∘ M`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        zip_broadcast(self, rhs, "mul", |a, b| a * b)
    }

    /// Elementwise quotient with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes cannot broadcast.
    pub fn div(&self, rhs: &Tensor) -> Result<Tensor> {
        zip_broadcast(self, rhs, "div", |a, b| a / b)
    }

    /// Adds `rhs` in place (shapes must match exactly).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
                op: "add_assign",
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// `self + s·rhs` in place (the AXPY primitive used by the optimizers).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, s: f32, rhs: &Tensor) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
                op: "axpy",
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += s * b;
        }
        Ok(())
    }

    /// Rectified linear unit: `max(x, 0)` elementwise.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 100.0], &[2, 1]).unwrap();
        let c = a.mul(&b).unwrap();
        assert_eq!(c.as_slice(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = Tensor::from_slice(&[2.0, 4.0]);
        let s = Tensor::scalar(0.5);
        assert_eq!(a.mul(&s).unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn incompatible_shapes_rejected() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { op: "add", .. })));
    }

    #[test]
    fn sub_div() {
        let a = Tensor::from_slice(&[4.0, 9.0]);
        let b = Tensor::from_slice(&[2.0, 3.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[2.0, 6.0]);
        assert_eq!(a.div(&b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
        assert_eq!(g.scale(2.0).as_slice(), &[4.0, 8.0]);
        let wrong = Tensor::zeros(&[3]);
        assert!(a.axpy(1.0, &wrong).is_err());
    }

    #[test]
    fn relu_masks_negatives() {
        let a = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn add_assign_in_place() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        a.add_assign(&Tensor::from_slice(&[1.0, 1.0])).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        assert!(a.add_assign(&Tensor::zeros(&[3])).is_err());
    }
}
