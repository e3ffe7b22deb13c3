//! Max pooling: [`max_pool2d`] with argmax tracking for backpropagation,
//! and the values-only [`max_pool2d_values`] for inference.

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D max pooling operation (square window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Window height/width.
    pub window: usize,
    /// Spatial stride.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a spec; both fields must be non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] on zero window or stride.
    pub fn new(window: usize, stride: usize) -> Result<Self> {
        if window == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {window} and stride {stride} must be non-zero"
            )));
        }
        Ok(PoolSpec { window, stride })
    }

    /// The standard VGG 2×2 / stride-2 pooling.
    pub fn vgg2x2() -> Self {
        PoolSpec { window: 2, stride: 2 }
    }

    /// Output spatial extent for input extent `h`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the window exceeds the
    /// input.
    pub fn out_extent(&self, h: usize) -> Result<usize> {
        if h < self.window {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {} exceeds input extent {h}",
                self.window
            )));
        }
        Ok((h - self.window) / self.stride + 1)
    }
}

/// Output of [`max_pool2d`]: the pooled tensor plus the flat argmax index
/// (into the *input*) of every output element, needed by the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolOut {
    /// Pooled activations, `[N, C, Ho, Wo]`.
    pub output: Tensor,
    /// For every output element, the flat index of the winning input
    /// element.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling over `[N, C, H, W]`.
///
/// # Errors
///
/// Returns rank/geometry errors for inconsistent arguments.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<MaxPoolOut> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
            op: "max_pool2d",
        });
    }
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let ho = spec.out_extent(h)?;
    let wo = spec.out_extent(w)?;
    let mut output = Tensor::zeros(&[n, c, ho, wo]);
    let mut argmax = vec![0usize; n * c * ho * wo];
    let src = input.as_slice();
    let dst = output.as_mut_slice();
    let mut out_i = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..spec.window {
                        for dx in 0..spec.window {
                            let iy = oy * spec.stride + dy;
                            let ix = ox * spec.stride + dx;
                            let idx = plane + iy * w + ix;
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    dst[out_i] = best;
                    argmax[out_i] = best_idx;
                    out_i += 1;
                }
            }
        }
    }
    Ok(MaxPoolOut { output, argmax })
}

/// [`max_pool2d`] without the argmax: the pooled `[N, C, Ho, Wo]` values
/// only, for inference, which never routes a gradient. Each window is
/// scanned in the same order with the same `>` comparisons from
/// `-∞`, so every output bit equals [`max_pool2d`]'s.
///
/// # Errors
///
/// Returns rank/geometry errors for inconsistent arguments.
pub fn max_pool2d_values(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
            op: "max_pool2d",
        });
    }
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let ho = spec.out_extent(h)?;
    let wo = spec.out_extent(w)?;
    let mut output = Tensor::zeros(&[n, c, ho, wo]);
    let src = input.as_slice();
    for (plane, dst) in
        src.chunks_exact(h * w).zip(output.as_mut_slice().chunks_exact_mut(ho * wo))
    {
        for (oy, out_row) in dst.chunks_exact_mut(wo).enumerate() {
            let rows = &plane[oy * spec.stride * w..][..spec.window * w];
            for (ox, d) in out_row.iter_mut().enumerate() {
                let x0 = ox * spec.stride;
                let mut best = f32::NEG_INFINITY;
                for row in rows.chunks_exact(w) {
                    for &v in &row[x0..x0 + spec.window] {
                        if v > best {
                            best = v;
                        }
                    }
                }
                *d = best;
            }
        }
    }
    Ok(output)
}

/// Backward pass of max pooling: routes each output gradient to the winning
/// input position recorded in `argmax`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `grad_output` and `argmax`
/// disagree in length.
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad_output.len(),
        });
    }
    let mut grad_input = Tensor::zeros(input_dims);
    let gi = grad_input.as_mut_slice();
    for (&g, &idx) in grad_output.as_slice().iter().zip(argmax) {
        gi[idx] += g;
    }
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_2x2_known_values() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let out = max_pool2d(&input, &PoolSpec::vgg2x2()).unwrap();
        assert_eq!(out.output.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn argmax_points_at_winner() {
        let input = Tensor::from_vec(vec![0.0, 9.0, 0.0, 0.0], &[1, 1, 2, 2]).unwrap();
        let out = max_pool2d(&input, &PoolSpec::vgg2x2()).unwrap();
        assert_eq!(out.argmax, vec![1]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let input = Tensor::from_vec(vec![0.0, 9.0, 0.0, 0.0], &[1, 1, 2, 2]).unwrap();
        let fwd = max_pool2d(&input, &PoolSpec::vgg2x2()).unwrap();
        let g = Tensor::from_slice(&[5.0]).reshape(&[1, 1, 1, 1]).unwrap();
        let gi = max_pool2d_backward(&g, &fwd.argmax, &[1, 1, 2, 2]).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn all_negative_inputs_still_pool() {
        let input = Tensor::full(&[1, 1, 2, 2], -3.0);
        let out = max_pool2d(&input, &PoolSpec::vgg2x2()).unwrap();
        assert_eq!(out.output.as_slice(), &[-3.0]);
    }

    #[test]
    fn geometry_errors() {
        assert!(PoolSpec::new(0, 2).is_err());
        assert!(PoolSpec::new(2, 0).is_err());
        let p = PoolSpec::vgg2x2();
        assert!(p.out_extent(1).is_err());
        assert!(max_pool2d(&Tensor::zeros(&[2, 2]), &p).is_err());
    }

    #[test]
    fn values_only_pool_matches_the_argmax_pool_bitwise() {
        // ties, -0.0 vs +0.0, NaN and all -inf windows, odd extents that
        // leave a trailing row and column, and an overlapping window
        let pattern = [1.0, -0.0, 0.0, f32::NAN, -2.5, 1.0, f32::NEG_INFINITY, 3.0, -7.0];
        let input = Tensor::from_fn(&[2, 3, 7, 5], |i| pattern[(i * 7) % pattern.len()]);
        let all_neg_inf = Tensor::full(&[1, 1, 2, 2], f32::NEG_INFINITY);
        for spec in
            [PoolSpec::vgg2x2(), PoolSpec::new(3, 2).unwrap(), PoolSpec::new(1, 1).unwrap()]
        {
            for x in [&input, &all_neg_inf] {
                if spec.window > x.dims()[2] {
                    continue;
                }
                let full = max_pool2d(x, &spec).unwrap().output;
                let values = max_pool2d_values(x, &spec).unwrap();
                assert_eq!(values.dims(), full.dims());
                let bits = |t: &Tensor| {
                    t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(&values), bits(&full), "{spec:?}");
            }
        }
        assert!(max_pool2d_values(&Tensor::zeros(&[2, 2]), &PoolSpec::vgg2x2()).is_err());
    }

    #[test]
    fn multichannel_batch() {
        let input = Tensor::from_fn(&[2, 3, 4, 4], |i| (i % 16) as f32);
        let out = max_pool2d(&input, &PoolSpec::vgg2x2()).unwrap();
        assert_eq!(out.output.dims(), &[2, 3, 2, 2]);
        // every 2x2 window max of the repeating 0..16 ramp
        assert_eq!(&out.output.as_slice()[0..4], &[5.0, 7.0, 13.0, 15.0]);
    }
}
