//! The threshold-masking layer (paper eqs. 1–2) and its surrogate
//! gradient.

use mime_nn::{Layer, LayerKind, Parameter};
use mime_tensor::{Tensor, TensorError};

/// Piecewise-linear surrogate for the derivative of the Heaviside step,
/// following Liu et al., *Dynamic Sparse Training* (the paper's ref.
/// \[31\], cited for the mask-gradient estimator in Fig. 3a):
///
/// ```text
/// H'(x) ≈ 2 − 4·|x|   for |x| ≤ 0.4
///         0.4          for 0.4 < |x| ≤ 1.0
///         0            otherwise
/// ```
///
/// ```
/// # use mime_core::surrogate_gradient;
/// assert_eq!(surrogate_gradient(0.0), 2.0);
/// assert_eq!(surrogate_gradient(0.5), 0.4);
/// assert_eq!(surrogate_gradient(2.0), 0.0);
/// ```
pub fn surrogate_gradient(x: f32) -> f32 {
    let a = x.abs();
    if a <= 0.4 {
        2.0 - 4.0 * a
    } else if a <= 1.0 {
        0.4
    } else {
        0.0
    }
}

/// A per-neuron threshold mask: `a_i = y_i · [y_i ≥ t_i]`.
///
/// The threshold tensor has the per-image shape of the incoming
/// activation (e.g. `[K, H, W]` after a conv, `[F]` after a linear layer)
/// and broadcasts over the batch dimension — **one threshold per output
/// neuron**, exactly as the paper stores them.
///
/// The layer implements [`mime_nn::Layer`] so it composes with the rest of
/// the network stack; its single parameter is the threshold bank, so a
/// standard optimizer trains it while the (frozen) backbone stays fixed.
#[derive(Debug, Clone)]
pub struct ThresholdMask {
    name: String,
    thresholds: Parameter,
    /// Per-image activation shape this mask applies to.
    neuron_dims: Vec<usize>,
    /// Neurons sharing each threshold (1 for per-neuron granularity).
    group: usize,
    granularity: ThresholdGranularity,
    /// Cached (input, mask) from forward.
    cache: Option<(Tensor, Vec<f32>)>,
    /// Sparsity of the most recent forward output (fraction of masked
    /// neurons), for cheap instrumentation.
    last_sparsity: f64,
}

/// How many neurons share one threshold parameter.
///
/// The paper stores **one threshold per output neuron**
/// ([`ThresholdGranularity::PerNeuron`], `K·H·W` values per conv layer).
/// [`ThresholdGranularity::PerChannel`] is the storage-saving ablation
/// this repo adds: one threshold per output channel (`K` values),
/// shrinking each task's bank by the spatial factor `H·W` at some cost in
/// masking precision. See the `ablation_granularity` bench binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThresholdGranularity {
    /// One threshold per output neuron (the paper's scheme).
    #[default]
    PerNeuron,
    /// One threshold per output channel (shared across spatial sites).
    PerChannel,
}

impl ThresholdMask {
    /// Creates a mask layer over neurons of per-image shape
    /// `neuron_dims`, with all thresholds initialized to `init`.
    ///
    /// The paper requires `t_i > 0`; a small positive init (e.g. `0.01`)
    /// starts training close to plain identity-above-zero (ReLU-like)
    /// masking.
    pub fn new(name: impl Into<String>, neuron_dims: &[usize], init: f32) -> Self {
        Self::with_granularity(name, neuron_dims, init, ThresholdGranularity::PerNeuron)
    }

    /// Creates a mask layer with an explicit threshold granularity.
    ///
    /// For [`ThresholdGranularity::PerChannel`] on a conv activation
    /// `[K, H, W]` the bank holds `K` thresholds, each shared by the
    /// channel's `H·W` sites; on a rank-1 activation it is identical to
    /// per-neuron.
    pub fn with_granularity(
        name: impl Into<String>,
        neuron_dims: &[usize],
        init: f32,
        granularity: ThresholdGranularity,
    ) -> Self {
        let name = name.into();
        let (bank_dims, group): (Vec<usize>, usize) = match granularity {
            ThresholdGranularity::PerNeuron => (neuron_dims.to_vec(), 1),
            ThresholdGranularity::PerChannel => {
                let k = neuron_dims.first().copied().unwrap_or(1);
                let sites: usize = neuron_dims.iter().skip(1).product();
                (vec![k], sites.max(1))
            }
        };
        ThresholdMask {
            thresholds: Parameter::new(
                format!("{name}.threshold"),
                Tensor::full(&bank_dims, init),
            ),
            neuron_dims: neuron_dims.to_vec(),
            group,
            granularity,
            name,
            cache: None,
            last_sparsity: 0.0,
        }
    }

    /// The mask's threshold granularity.
    pub fn granularity(&self) -> ThresholdGranularity {
        self.granularity
    }

    /// Number of neurons the mask covers per image.
    pub fn num_neurons(&self) -> usize {
        self.neuron_dims.iter().product()
    }

    /// Number of stored threshold parameters (= neurons for per-neuron
    /// granularity, = channels for per-channel).
    pub fn num_thresholds(&self) -> usize {
        self.thresholds.len()
    }

    /// Immutable view of the threshold bank.
    pub fn thresholds(&self) -> &Tensor {
        &self.thresholds.value
    }

    /// Replaces the threshold bank (task switching).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn set_thresholds(&mut self, t: Tensor) -> mime_tensor::Result<()> {
        if t.dims() != self.thresholds.value.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: t.dims().to_vec(),
                rhs: self.thresholds.value.dims().to_vec(),
                op: "set_thresholds",
            });
        }
        self.thresholds.value = t;
        Ok(())
    }

    /// Clamps all thresholds to `[min, ∞)` — the trainer calls this after
    /// every step to preserve the paper's `t_i > 0` constraint.
    pub fn clamp_min(&mut self, min: f32) {
        self.thresholds.value.map_inplace(|t| t.max(min));
    }

    /// Output sparsity observed during the most recent forward pass.
    pub fn last_sparsity(&self) -> f64 {
        self.last_sparsity
    }

    fn check_input(&self, input: &Tensor) -> mime_tensor::Result<usize> {
        if input.rank() != self.neuron_dims.len() + 1
            || input.dims()[1..] != self.neuron_dims[..]
        {
            return Err(TensorError::ShapeMismatch {
                lhs: input.dims().to_vec(),
                rhs: self.neuron_dims.clone(),
                op: "threshold_mask",
            });
        }
        Ok(input.dims()[0])
    }
}

impl Layer for ThresholdMask {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Custom
    }

    fn forward(&mut self, input: &Tensor) -> mime_tensor::Result<Tensor> {
        let n = self.check_input(input)?;
        let per_img = self.num_neurons();
        let tv = self.thresholds.value.as_slice();
        let xv = input.as_slice();
        let mut out = Tensor::zeros(input.dims());
        let ov = out.as_mut_slice();
        let mut mask = vec![0.0f32; n * per_img];
        let mut masked = 0usize;
        for b in 0..n {
            for i in 0..per_img {
                let idx = b * per_img + i;
                // eq. (1): m = 1 iff y − t ≥ 0
                if xv[idx] - tv[i / self.group] >= 0.0 {
                    mask[idx] = 1.0;
                    ov[idx] = xv[idx]; // eq. (2): a = y · m
                } else {
                    masked += 1;
                }
            }
        }
        self.last_sparsity =
            if mask.is_empty() { 0.0 } else { masked as f64 / mask.len() as f64 };
        self.cache = Some((input.clone(), mask));
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> mime_tensor::Result<Tensor> {
        let (input, mask) = self.cache.take().ok_or_else(|| {
            TensorError::InvalidGeometry(format!(
                "{}: backward called before forward",
                self.name
            ))
        })?;
        if grad_output.dims() != input.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.dims().to_vec(),
                rhs: input.dims().to_vec(),
                op: "threshold_mask_backward",
            });
        }
        let n = input.dims()[0];
        let per_img = self.num_neurons();
        let group = self.group;
        let tv = self.thresholds.value.as_slice();
        let xv = input.as_slice();
        let gv = grad_output.as_slice();
        let tg = self.thresholds.grad.as_mut_slice();
        let mut grad_input = Tensor::zeros(input.dims());
        let giv = grad_input.as_mut_slice();
        for b in 0..n {
            for i in 0..per_img {
                let idx = b * per_img + i;
                let y = xv[idx];
                let g = gv[idx];
                let m = mask[idx];
                // a = y · H(y − t):
                //   ∂a/∂y = H(y − t) + y · H'(y − t)
                //   ∂a/∂t = −y · H'(y − t)   (shared thresholds accumulate
                //   over all neurons in their group)
                let ti = i / group;
                let surr = surrogate_gradient(y - tv[ti]);
                giv[idx] = g * (m + y * surr);
                tg[ti] += -g * y * surr;
            }
        }
        Ok(grad_input)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.thresholds]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.thresholds]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogate_shape() {
        assert_eq!(surrogate_gradient(0.0), 2.0);
        assert!((surrogate_gradient(0.2) - 1.2).abs() < 1e-6);
        assert!((surrogate_gradient(-0.2) - 1.2).abs() < 1e-6);
        // boundary: both branches agree at |x| = 0.4
        assert!((surrogate_gradient(0.4) - 0.4).abs() < 1e-6);
        assert_eq!(surrogate_gradient(0.7), 0.4);
        assert_eq!(surrogate_gradient(-0.9), 0.4);
        assert_eq!(surrogate_gradient(1.1), 0.0);
    }

    #[test]
    fn forward_masks_below_threshold() {
        let mut m = ThresholdMask::new("t", &[4], 1.0);
        let x = Tensor::from_vec(vec![0.5, 1.0, 2.0, -3.0], &[1, 4]).unwrap();
        let y = m.forward(&x).unwrap();
        // 0.5 < 1 masked; 1.0 ≥ 1 kept; 2.0 kept; −3 masked
        assert_eq!(y.as_slice(), &[0.0, 1.0, 2.0, 0.0]);
        assert!((m.last_sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_threshold_equals_relu_on_nonnegatives() {
        let mut m = ThresholdMask::new("t", &[3], 0.0);
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        let y = m.forward(&x).unwrap();
        // 0 − 0 ≥ 0 keeps exact zeros (still zero output), negatives pruned
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn broadcast_over_batch() {
        let mut m = ThresholdMask::new("t", &[2, 2, 2], 0.5);
        let x = Tensor::from_fn(&[3, 2, 2, 2], |i| (i % 8) as f32 * 0.2);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.dims(), x.dims());
        // each image masked identically (same values per image here)
        assert_eq!(&y.as_slice()[0..8], &y.as_slice()[8..16]);
    }

    #[test]
    fn threshold_gradient_sign_encourages_keeping_useful_neurons() {
        // If a neuron's output increases the loss (positive grad), pushing
        // the threshold UP (pruning it) should reduce loss → dL/dt < 0 is
        // wrong direction; check the actual analytic sign:
        // dL/dt = −g · y · surr. With g > 0, y > 0 near t: dL/dt < 0 means
        // the optimizer *raises* t... Adam moves against the gradient:
        // t ← t − lr·(dL/dt) = t + lr·g·y·surr → threshold rises, neuron
        // gets pruned. That is the desired behaviour.
        let mut m = ThresholdMask::new("t", &[1], 1.0);
        let x = Tensor::from_vec(vec![1.1], &[1, 1]).unwrap();
        m.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        m.backward(&g).unwrap();
        let tgrad = m.parameters()[0].grad.as_slice()[0];
        assert!(tgrad < 0.0, "threshold grad {tgrad} should be negative");
    }

    #[test]
    fn input_gradient_flows_through_kept_neurons() {
        let mut m = ThresholdMask::new("t", &[2], 1.0);
        let x = Tensor::from_vec(vec![5.0, -5.0], &[1, 2]).unwrap();
        m.forward(&x).unwrap();
        let gi = m.backward(&Tensor::ones(&[1, 2])).unwrap();
        // kept neuron far from threshold: gradient ≈ 1 (mask) + 0 (surr)
        assert!((gi.as_slice()[0] - 1.0).abs() < 1e-6);
        // pruned neuron far from threshold: zero gradient
        assert_eq!(gi.as_slice()[1], 0.0);
    }

    #[test]
    fn finite_difference_check_on_smoothed_loss() {
        // Near the threshold the surrogate makes the layer differentiable
        // in t; compare analytic dL/dt with the surrogate's own prediction
        // rather than the true (discontinuous) step.
        let mut m = ThresholdMask::new("t", &[1], 0.5);
        let x = Tensor::from_vec(vec![0.6], &[1, 1]).unwrap();
        m.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![2.0], &[1, 1]).unwrap();
        m.backward(&g).unwrap();
        let analytic = m.parameters()[0].grad.as_slice()[0];
        // expected: −g·y·surr(y−t) = −2·0.6·surrogate(0.1)
        let expected = -2.0 * 0.6 * surrogate_gradient(0.1);
        assert!((analytic - expected).abs() < 1e-5);
    }

    #[test]
    fn set_thresholds_validates_shape() {
        let mut m = ThresholdMask::new("t", &[4], 0.1);
        assert!(m.set_thresholds(Tensor::zeros(&[3])).is_err());
        assert!(m.set_thresholds(Tensor::zeros(&[4])).is_ok());
    }

    #[test]
    fn clamp_min_enforces_positivity() {
        let mut m = ThresholdMask::new("t", &[3], 0.5);
        m.set_thresholds(Tensor::from_slice(&[-1.0, 0.0, 2.0])).unwrap();
        m.clamp_min(1e-4);
        let t = m.thresholds().as_slice();
        assert!(t.iter().all(|&x| x >= 1e-4));
        assert_eq!(t[2], 2.0);
    }

    #[test]
    fn rejects_mismatched_input() {
        let mut m = ThresholdMask::new("t", &[4], 0.1);
        assert!(m.forward(&Tensor::zeros(&[2, 5])).is_err());
        assert!(m.forward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn per_channel_bank_size_is_channel_count() {
        let m = ThresholdMask::with_granularity(
            "t",
            &[8, 4, 4],
            0.1,
            ThresholdGranularity::PerChannel,
        );
        assert_eq!(m.num_thresholds(), 8);
        assert_eq!(m.num_neurons(), 8 * 16);
        assert_eq!(m.granularity(), ThresholdGranularity::PerChannel);
    }

    #[test]
    fn per_channel_masks_whole_channel_uniformly() {
        let mut m = ThresholdMask::with_granularity(
            "t",
            &[2, 2, 2],
            0.0,
            ThresholdGranularity::PerChannel,
        );
        m.set_thresholds(Tensor::from_slice(&[0.5, 2.0])).unwrap();
        // channel 0 values 1.0 (pass 0.5), channel 1 values 1.0 (fail 2.0)
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let y = m.forward(&x).unwrap();
        assert_eq!(&y.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&y.as_slice()[4..], &[0.0; 4]);
        assert!((m.last_sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_channel_gradients_accumulate_over_sites() {
        let mut m = ThresholdMask::with_granularity(
            "t",
            &[1, 2, 2],
            0.4,
            ThresholdGranularity::PerChannel,
        );
        let x = Tensor::full(&[1, 1, 2, 2], 0.5);
        m.forward(&x).unwrap();
        m.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        // each site contributes −1·0.5·surr(0.1); four sites accumulate
        let expected = -4.0 * 0.5 * surrogate_gradient(0.1);
        let got = m.parameters()[0].grad.as_slice()[0];
        assert!((got - expected).abs() < 1e-5, "{got} vs {expected}");
    }

    #[test]
    fn per_channel_on_rank1_equals_per_neuron() {
        let mut a = ThresholdMask::with_granularity(
            "a",
            &[6],
            0.2,
            ThresholdGranularity::PerChannel,
        );
        let mut b = ThresholdMask::new("b", &[6], 0.2);
        let x = Tensor::from_fn(&[2, 6], |i| (i as f32) * 0.1 - 0.3);
        let ya = a.forward(&x).unwrap();
        let yb = b.forward(&x).unwrap();
        assert_eq!(ya.as_slice(), yb.as_slice());
        assert_eq!(a.num_thresholds(), b.num_thresholds());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut m = ThresholdMask::new("t", &[4], 0.1);
        assert!(m.backward(&Tensor::zeros(&[1, 4])).is_err());
    }
}
