//! [`MimeNetwork`]: a frozen VGG backbone with per-neuron threshold masks
//! spliced in where the baseline network has ReLUs.

use crate::{ThresholdGranularity, ThresholdMask};
use mime_nn::{
    Conv2d, Flatten, Layer, Linear, MaxPool2d, Parameter, Sequential, VggArch, VggBlock,
};
use mime_tensor::{ConvSpec, PoolSpec, Tensor, TensorError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

enum Stage {
    Backbone(Box<dyn Layer>),
    Mask(Box<ThresholdMask>),
}

/// A MIME inference network: the parent backbone (weights frozen) with a
/// [`ThresholdMask`] after every convolution and every hidden FC layer —
/// replacing the ReLUs of the conventional network, exactly as in the
/// paper's Fig. 2(a).
///
/// The network exposes its threshold banks for export/import so that a
/// [`crate::MultiTaskModel`] can swap tasks by swapping thresholds only.
pub struct MimeNetwork {
    stages: Vec<Stage>,
    arch: VggArch,
}

impl std::fmt::Debug for MimeNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self
            .stages
            .iter()
            .map(|s| match s {
                Stage::Backbone(l) => l.name(),
                Stage::Mask(m) => m.name(),
            })
            .collect();
        f.debug_struct("MimeNetwork").field("stages", &names).finish()
    }
}

impl MimeNetwork {
    /// Builds a MIME network from an architecture and a trained parent
    /// network produced by [`mime_nn::build_network`] on the **same**
    /// architecture. Backbone weights are copied by parameter name and
    /// frozen; every threshold starts at `init_threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the parent's parameters
    /// do not match the architecture (wrong arch or a renamed layer).
    pub fn from_trained(
        arch: &VggArch,
        parent: &Sequential,
        init_threshold: f32,
    ) -> crate::Result<Self> {
        Self::from_trained_with_head(arch, parent, init_threshold, false)
    }

    /// Like [`from_trained`](Self::from_trained), but when
    /// `trainable_head` is set the **final classifier layer stays
    /// unfrozen** and trains jointly with the thresholds.
    ///
    /// Child tasks with class counts different from the parent's need
    /// their own (tiny) classifier; everything below it remains the
    /// frozen `W_parent`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the parent's parameters
    /// do not match the architecture.
    pub fn from_trained_with_head(
        arch: &VggArch,
        parent: &Sequential,
        init_threshold: f32,
        trainable_head: bool,
    ) -> crate::Result<Self> {
        Self::from_trained_with_options(
            arch,
            parent,
            init_threshold,
            trainable_head,
            ThresholdGranularity::PerNeuron,
        )
    }

    /// Fully-configurable constructor: trainable head and threshold
    /// granularity ([`ThresholdGranularity::PerChannel`] shrinks each
    /// task's stored bank by the spatial factor — see the
    /// `ablation_granularity` bench).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the parent's parameters
    /// do not match the architecture.
    pub fn from_trained_with_options(
        arch: &VggArch,
        parent: &Sequential,
        init_threshold: f32,
        trainable_head: bool,
        granularity: ThresholdGranularity,
    ) -> crate::Result<Self> {
        let parent_params: HashMap<&str, &Parameter> =
            parent.parameters().into_iter().map(|p| (p.name(), p)).collect();
        // deterministic dummy rng; weights are overwritten from the parent
        let mut rng = StdRng::seed_from_u64(0);
        let mut stages = Vec::new();
        let extents = arch.conv_spatial_extents();
        let mut weighted = 0usize;
        let mut conv_i = 0usize;
        let mut pool_i = 0usize;
        for block in &arch.blocks {
            match *block {
                VggBlock::Conv { in_ch, out_ch } => {
                    weighted += 1;
                    let name = format!("conv{weighted}");
                    let mut conv =
                        Conv2d::new(&name, in_ch, out_ch, ConvSpec::vgg3x3(), &mut rng);
                    copy_params(&mut conv, &parent_params)?;
                    freeze(&mut conv);
                    stages.push(Stage::Backbone(Box::new(conv)));
                    let hw = extents[conv_i];
                    conv_i += 1;
                    stages.push(Stage::Mask(Box::new(ThresholdMask::with_granularity(
                        format!("{name}.mask"),
                        &[out_ch, hw, hw],
                        init_threshold,
                        granularity,
                    ))));
                }
                VggBlock::Pool => {
                    pool_i += 1;
                    stages.push(Stage::Backbone(Box::new(MaxPool2d::new(
                        format!("pool{pool_i}"),
                        PoolSpec::vgg2x2(),
                    ))));
                }
                VggBlock::Flatten => {
                    stages.push(Stage::Backbone(Box::new(Flatten::new("flatten"))));
                }
                VggBlock::Linear { in_f, out_f, activation } => {
                    weighted += 1;
                    let name = format!("fc{weighted}");
                    let mut lin = Linear::new(&name, in_f, out_f, &mut rng);
                    let is_classifier = !activation;
                    if is_classifier && trainable_head {
                        // task-specific head: keep the fresh init (the
                        // parent's head may not even match in width) and
                        // leave it trainable
                    } else {
                        copy_params(&mut lin, &parent_params)?;
                        freeze(&mut lin);
                    }
                    stages.push(Stage::Backbone(Box::new(lin)));
                    if activation {
                        stages.push(Stage::Mask(Box::new(
                            ThresholdMask::with_granularity(
                                format!("{name}.mask"),
                                &[out_f],
                                init_threshold,
                                granularity,
                            ),
                        )));
                    }
                }
            }
        }
        Ok(MimeNetwork { stages, arch: arch.clone() })
    }

    /// The architecture the network was built from.
    pub fn arch(&self) -> &VggArch {
        &self.arch
    }

    /// Forward pass: the dense reference every execution path must match
    /// bitwise (the runtime executor's software path skips zero rows and
    /// still reproduces these logits bit for bit).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward(&mut self, input: &Tensor) -> crate::Result<Tensor> {
        let mut x = input.clone();
        for stage in &mut self.stages {
            x = match stage {
                Stage::Backbone(l) => l.forward(&x)?,
                Stage::Mask(m) => m.forward(&x)?,
            };
        }
        Ok(x)
    }

    /// Forward pass that records the **pre-mask** activation of every
    /// threshold layer (used by [`crate::calibrate_thresholds`]).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward_preactivations(&mut self, input: &Tensor) -> crate::Result<Vec<Tensor>> {
        let mut x = input.clone();
        let mut preacts = Vec::new();
        for stage in &mut self.stages {
            x = match stage {
                Stage::Backbone(l) => l.forward(&x)?,
                Stage::Mask(m) => {
                    preacts.push(x.clone());
                    m.forward(&x)?
                }
            };
        }
        Ok(preacts)
    }

    /// Backward pass (after a forward pass).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let mut g = grad_output.clone();
        for stage in self.stages.iter_mut().rev() {
            g = match stage {
                Stage::Backbone(l) => l.backward(&g)?,
                Stage::Mask(m) => m.backward(&g)?,
            };
        }
        Ok(g)
    }

    /// Zeroes every parameter gradient (backbone and thresholds).
    pub fn zero_grad(&mut self) {
        for stage in &mut self.stages {
            let params = match stage {
                Stage::Backbone(l) => l.parameters_mut(),
                Stage::Mask(m) => m.parameters_mut(),
            };
            for p in params {
                p.zero_grad();
            }
        }
    }

    /// Mutable access to the threshold parameters only (the trainable set).
    pub fn threshold_params_mut(&mut self) -> Vec<&mut Parameter> {
        self.stages
            .iter_mut()
            .filter_map(|s| match s {
                Stage::Mask(m) => m.parameters_mut().into_iter().next(),
                Stage::Backbone(_) => None,
            })
            .collect()
    }

    /// Every unfrozen parameter: threshold banks plus (when built with a
    /// trainable head) the classifier's weights.
    pub fn trainable_params_mut(&mut self) -> Vec<&mut Parameter> {
        self.stages
            .iter_mut()
            .flat_map(|s| match s {
                Stage::Mask(m) => m.parameters_mut(),
                Stage::Backbone(l) => l.parameters_mut(),
            })
            .filter(|p| !p.frozen)
            .collect()
    }

    /// Immutable access to the mask layers, in network order.
    pub fn masks(&self) -> Vec<&ThresholdMask> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Mask(m) => Some(m.as_ref()),
                Stage::Backbone(_) => None,
            })
            .collect()
    }

    /// Mutable access to the mask layers, in network order.
    pub fn masks_mut(&mut self) -> Vec<&mut ThresholdMask> {
        self.stages
            .iter_mut()
            .filter_map(|s| match s {
                Stage::Mask(m) => Some(m.as_mut()),
                Stage::Backbone(_) => None,
            })
            .collect()
    }

    /// Names of the masked (weighted) layers in order, matching the
    /// paper's numbering: `conv1..conv13`, then `fc14`, `fc15`.
    pub fn mask_layer_names(&self) -> Vec<String> {
        self.masks()
            .iter()
            .map(|m| m.name().trim_end_matches(".mask").to_string())
            .collect()
    }

    /// Clamps every threshold to `[min, ∞)`.
    pub fn clamp_thresholds(&mut self, min: f32) {
        for m in self.masks_mut() {
            m.clamp_min(min);
        }
    }

    /// Exports a copy of every threshold bank, in network order — the
    /// `T_child` that gets stored per task.
    pub fn export_thresholds(&self) -> Vec<Tensor> {
        self.masks().iter().map(|m| m.thresholds().clone()).collect()
    }

    /// Installs threshold banks previously produced by
    /// [`export_thresholds`](Self::export_thresholds) (task switching).
    ///
    /// # Errors
    ///
    /// Returns a shape/length error when the banks do not match this
    /// network.
    pub fn import_thresholds(&mut self, banks: &[Tensor]) -> crate::Result<()> {
        let mut masks = self.masks_mut();
        if banks.len() != masks.len() {
            return Err(TensorError::LengthMismatch {
                expected: masks.len(),
                actual: banks.len(),
            }
            .into());
        }
        for (m, b) in masks.iter_mut().zip(banks) {
            m.set_thresholds(b.clone())?;
        }
        Ok(())
    }

    /// Per-mask output sparsity observed during the most recent forward
    /// pass, as `(layer_name, sparsity)` pairs.
    pub fn layer_sparsities(&self) -> Vec<(String, f64)> {
        self.mask_layer_names()
            .into_iter()
            .zip(self.masks().iter().map(|m| m.last_sparsity()))
            .collect()
    }

    /// Immutable access to every backbone parameter (the stored
    /// `W_parent`), in network order.
    pub fn backbone_params(&self) -> Vec<&Parameter> {
        self.stages
            .iter()
            .flat_map(|s| match s {
                Stage::Backbone(l) => l.parameters(),
                Stage::Mask(_) => Vec::new(),
            })
            .collect()
    }

    /// Replaces backbone parameter values by name (deployment unpacking).
    ///
    /// # Errors
    ///
    /// Returns a shape error when a provided tensor does not match its
    /// parameter; missing names are left untouched.
    pub fn import_backbone(
        &mut self,
        values: &std::collections::HashMap<String, Tensor>,
    ) -> crate::Result<()> {
        for stage in &mut self.stages {
            if let Stage::Backbone(l) = stage {
                for p in l.parameters_mut() {
                    if let Some(v) = values.get(p.name()) {
                        if v.dims() != p.value.dims() {
                            return Err(TensorError::ShapeMismatch {
                                lhs: v.dims().to_vec(),
                                rhs: p.value.dims().to_vec(),
                                op: "import_backbone",
                            }
                            .into());
                        }
                        p.value = v.clone();
                    }
                }
            }
        }
        Ok(())
    }

    /// Total frozen backbone weight count (weights + biases).
    pub fn num_backbone_params(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::Backbone(l) => l.parameters().iter().map(|p| p.len()).sum(),
                Stage::Mask(_) => 0,
            })
            .sum()
    }

    /// Total stored threshold count, the per-task storage (equals the
    /// masked-neuron count for per-neuron granularity).
    pub fn num_thresholds(&self) -> usize {
        self.masks().iter().map(|m| m.num_thresholds()).sum()
    }
}

fn copy_params<L: Layer>(
    layer: &mut L,
    parent: &HashMap<&str, &Parameter>,
) -> crate::Result<()> {
    for p in layer.parameters_mut() {
        let src = parent.get(p.name()).ok_or(TensorError::ShapeMismatch {
            lhs: vec![],
            rhs: vec![],
            op: "mime backbone: parent parameter missing",
        })?;
        if src.value.dims() != p.value.dims() {
            return Err(TensorError::ShapeMismatch {
                lhs: src.value.dims().to_vec(),
                rhs: p.value.dims().to_vec(),
                op: "mime backbone copy",
            }
            .into());
        }
        p.value = src.value.clone();
    }
    Ok(())
}

fn freeze<L: Layer>(layer: &mut L) {
    for p in layer.parameters_mut() {
        p.frozen = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_nn::{build_network, vgg16_arch};

    fn mini() -> (VggArch, Sequential) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
        let mut rng = StdRng::seed_from_u64(11);
        let parent = build_network(&arch, &mut rng);
        (arch, parent)
    }

    #[test]
    fn builds_with_one_mask_per_masked_layer() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        // 13 convs + 2 hidden FCs = 15 masks
        assert_eq!(net.masks().len(), 15);
        let names = net.mask_layer_names();
        assert_eq!(names[0], "conv1");
        assert_eq!(names[12], "conv13");
        assert_eq!(names[13], "fc14");
        assert_eq!(names[14], "fc15");
    }

    #[test]
    fn threshold_count_matches_arch_neuron_count() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        assert_eq!(net.num_thresholds(), arch.neuron_count());
    }

    #[test]
    fn forward_shape_and_sparsity_report() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        let y = net
            .forward(&Tensor::from_fn(&[2, 3, 32, 32], |i| (i % 17) as f32 * 0.1))
            .unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        let sp = net.layer_sparsities();
        assert_eq!(sp.len(), 15);
        assert!(sp.iter().all(|(_, s)| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn backbone_is_frozen_thresholds_are_not() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        for p in net.threshold_params_mut() {
            assert!(!p.frozen);
        }
        // all backbone parameters frozen: total trainable = thresholds
        let trainable_elems: usize =
            net.threshold_params_mut().iter().map(|p| p.len()).sum();
        assert_eq!(trainable_elems, net.num_thresholds());
    }

    #[test]
    fn export_import_round_trip() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
        let mut banks = net.export_thresholds();
        banks[0].map_inplace(|_| 9.0);
        net.import_thresholds(&banks).unwrap();
        assert_eq!(net.masks()[0].thresholds().as_slice()[0], 9.0);
        // wrong bank count rejected
        assert!(net.import_thresholds(&banks[1..]).is_err());
    }

    #[test]
    fn weights_copied_from_parent() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        // compare conv1 weights elementwise
        let parent_w =
            parent.parameters().into_iter().find(|p| p.name() == "conv1.weight").unwrap();
        let mime_w = match &net.stages[0] {
            Stage::Backbone(l) => l.parameters()[0].value.clone(),
            Stage::Mask(_) => panic!("first stage must be conv"),
        };
        assert_eq!(mime_w.as_slice(), parent_w.value.as_slice());
    }

    #[test]
    fn mismatched_arch_rejected() {
        let (arch, _) = mini();
        let other_arch = vgg16_arch(0.125, 32, 3, 4, 16);
        let mut rng = StdRng::seed_from_u64(0);
        let other_parent = build_network(&other_arch, &mut rng);
        assert!(MimeNetwork::from_trained(&arch, &other_parent, 0.01).is_err());
    }

    #[test]
    fn clamp_thresholds_applies_to_all_masks() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, -1.0).unwrap();
        net.clamp_thresholds(0.0);
        for m in net.masks() {
            assert!(m.thresholds().as_slice().iter().all(|&t| t >= 0.0));
        }
    }
}
