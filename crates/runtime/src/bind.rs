//! Extraction of hardware execution plans from trained networks.

use mime_core::faults::first_non_finite;
use mime_core::{MimeError, MimeNetwork};
use mime_nn::{Sequential, VggArch, VggBlock};
use mime_systolic::LayerGeometry;
use mime_tensor::{PrepackedA, PrepackedB, Tensor, TensorError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One step of a hardware execution plan.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Array is the dominant variant; plans hold ~35 entries
pub enum BoundLayer {
    /// A weighted layer executed on the PE array (convolutions and FC
    /// layers, the latter as 1×1-spatial convolutions).
    Array {
        /// Hardware-visible geometry.
        geom: LayerGeometry,
        /// Weights `[K, C, R, R]`, sharing storage with the network the
        /// plan was bound from (see [`Tensor`]'s copy-on-write clones).
        /// [`prepack_plans`] makes every plan over one backbone share a
        /// single `Arc` per layer.
        weight: Arc<Tensor>,
        /// Bias `[K]`.
        bias: Tensor,
        /// Per-neuron threshold bank (`K·sites` values) for MIME plans;
        /// `None` makes the executor apply ReLU on the host instead.
        thresholds: Option<Tensor>,
        /// FC weights prepacked once into the blocked microkernel layout
        /// (`Wᵀ` panels, see [`PrepackedB`]), shared read-only across
        /// every worker thread and every plan built from the same
        /// backbone. `None` (conv steps, or before [`prepack_plans`]
        /// runs) keeps the on-the-fly path.
        packed: Option<Arc<PrepackedB>>,
        /// Conv weights prepacked once into the GEMM's `A` strips (see
        /// [`PrepackedA`]), shared like `packed`. `None` (FC steps, or
        /// before [`prepack_plans`] runs) keeps the raw-weight path.
        packed_a: Option<Arc<PrepackedA>>,
    },
    /// 2×2/s2 max pooling, performed by the on-chip pooling unit (host
    /// arithmetic, negligible energy at this model's granularity).
    Pool,
    /// NCHW → flat feature reshaping before the classifier head.
    Flatten,
}

/// A hardware execution plan: the ordered [`BoundLayer`] steps of one
/// network.
#[derive(Debug, Clone)]
pub struct BoundNetwork {
    steps: Vec<BoundLayer>,
    classes: usize,
    input_hw: usize,
    in_channels: usize,
}

impl BoundNetwork {
    /// The plan's steps in execution order.
    pub fn steps(&self) -> &[BoundLayer] {
        &self.steps
    }

    /// Classifier width.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Expected input spatial extent.
    pub fn input_hw(&self) -> usize {
        self.input_hw
    }

    /// Expected input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Total weight words across array steps.
    pub fn weight_words(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                BoundLayer::Array { geom, .. } => geom.weight_count(),
                _ => 0,
            })
            .sum()
    }

    /// Checks every threshold bank for non-finite values — the guard the
    /// executor runs before trusting a task's plan.
    ///
    /// # Errors
    ///
    /// Returns [`MimeError::NonFinite`] naming the first offending bank
    /// (by array-step index) and element.
    pub fn validate_thresholds(&self) -> crate::Result<()> {
        for (layer, step) in self.steps.iter().enumerate() {
            if let BoundLayer::Array { thresholds: Some(t), .. } = step {
                if let Some(index) = first_non_finite(t.as_slice()) {
                    return Err(MimeError::NonFinite {
                        stage: "threshold bank",
                        layer,
                        index,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks the shared parameters (weights and biases) for non-finite
    /// values. Unlike a bad threshold bank, a bad weight cannot be worked
    /// around by falling back to the parent path — the weights *are* the
    /// parent.
    ///
    /// # Errors
    ///
    /// Returns [`MimeError::NonFinite`] naming the first offending step
    /// and element.
    pub fn validate_parameters(&self) -> crate::Result<()> {
        for (layer, step) in self.steps.iter().enumerate() {
            if let BoundLayer::Array { weight, bias, .. } = step {
                if let Some(index) = first_non_finite(weight.as_slice()) {
                    return Err(MimeError::NonFinite { stage: "weights", layer, index });
                }
                if let Some(index) = first_non_finite(bias.as_slice()) {
                    return Err(MimeError::NonFinite { stage: "bias", layer, index });
                }
            }
        }
        Ok(())
    }

    /// A copy of this plan with every threshold bank removed: masked
    /// layers fall back to the host-ReLU baseline path, i.e. the parent
    /// task's exact behavior over the same frozen weights. This is the
    /// graceful-degradation plan the executor switches to when a task's
    /// threshold bank fails validation.
    pub fn strip_thresholds(&self) -> BoundNetwork {
        let steps = self
            .steps
            .iter()
            .map(|s| match s {
                BoundLayer::Array { geom, weight, bias, packed, packed_a, .. } => {
                    BoundLayer::Array {
                        geom: geom.clone(),
                        weight: Arc::clone(weight),
                        bias: bias.clone(),
                        thresholds: None,
                        // stripping thresholds never touches the weights,
                        // so the degraded plan keeps the shared weights
                        // and panels
                        packed: packed.clone(),
                        packed_a: packed_a.clone(),
                    }
                }
                other => other.clone(),
            })
            .collect();
        BoundNetwork {
            steps,
            classes: self.classes,
            input_hw: self.input_hw,
            in_channels: self.in_channels,
        }
    }

    /// A copy of this plan with every threshold bank scaled by
    /// `factor`: the eq.(2) compare `y - t >= 0` fails for more neurons
    /// as thresholds grow, so larger factors zero progressively more
    /// channels and the §9 sparse fast path skips more GEMM rows. This
    /// is a brownout rung — a cheaper, lower-fidelity variant of the
    /// same task sharing the frozen weights (and their prepacked
    /// panels) with the original plan.
    ///
    /// `factor == 1.0` reproduces the original plan exactly; factors
    /// below 1.0 are clamped to 1.0 because a rung must never be *more*
    /// permissive than the fidelity it browns out from.
    pub fn brownout_rung(&self, factor: f32) -> BoundNetwork {
        let factor = factor.max(1.0);
        let steps = self
            .steps
            .iter()
            .map(|s| match s {
                BoundLayer::Array { geom, weight, bias, thresholds, packed, packed_a } => {
                    BoundLayer::Array {
                        geom: geom.clone(),
                        weight: Arc::clone(weight),
                        bias: bias.clone(),
                        // raise every threshold monotonically in
                        // `factor`, whatever its sign: positive values
                        // scale up, negative values shrink toward zero
                        // (scaling a negative threshold up would *admit*
                        // more neurons, the opposite of a brownout)
                        thresholds: thresholds.as_ref().map(|t| {
                            t.map(|v| if v >= 0.0 { v * factor } else { v / factor })
                        }),
                        // thresholds never touch the weights, so every
                        // rung keeps the shared weights and panels
                        packed: packed.clone(),
                        packed_a: packed_a.clone(),
                    }
                }
                other => other.clone(),
            })
            .collect();
        BoundNetwork {
            steps,
            classes: self.classes,
            input_hw: self.input_hw,
            in_channels: self.in_channels,
        }
    }

    /// Binds a MIME network: frozen backbone weights plus the currently
    /// installed threshold banks. Per-channel banks are broadcast to
    /// per-neuron form for the PE comparators.
    ///
    /// # Errors
    ///
    /// Returns an error when the network's parameters are inconsistent
    /// with its architecture (should not happen for well-formed networks).
    pub fn from_mime(net: &MimeNetwork) -> crate::Result<Self> {
        let params: HashMap<&str, &Tensor> =
            net.backbone_params().into_iter().map(|p| (p.name(), &p.value)).collect();
        let banks = net.export_thresholds();
        Self::build(net.arch(), &params, Some(&banks))
    }

    /// Binds a conventional baseline network (ReLU activations applied by
    /// the executor on the host).
    ///
    /// # Errors
    ///
    /// Returns an error when the network's parameters do not match
    /// `arch`.
    pub fn from_baseline(arch: &VggArch, net: &Sequential) -> crate::Result<Self> {
        let params: HashMap<&str, &Tensor> =
            net.parameters().into_iter().map(|p| (p.name(), &p.value)).collect();
        Self::build(arch, &params, None)
    }

    /// Builds the plan from borrowed parameters. Each step's weight and
    /// bias share the parameter's storage (a copy-on-write clone or
    /// reshape), so binding copies no backbone data.
    fn build(
        arch: &VggArch,
        params: &HashMap<&str, &Tensor>,
        banks: Option<&[Tensor]>,
    ) -> crate::Result<Self> {
        let param = |name: String| {
            params.get(name.as_str()).copied().ok_or_else(|| {
                TensorError::InvalidGeometry(format!(
                    "bound network: missing parameter {name}"
                ))
            })
        };
        let extents = arch.conv_spatial_extents();
        let mut steps = Vec::new();
        let mut weighted = 0usize;
        let mut conv_i = 0usize;
        let mut mask_i = 0usize;
        for block in &arch.blocks {
            match *block {
                VggBlock::Conv { in_ch, out_ch } => {
                    weighted += 1;
                    let name = format!("conv{weighted}");
                    let hw = extents[conv_i];
                    conv_i += 1;
                    let geom = LayerGeometry::conv(&name, in_ch, out_ch, hw);
                    let thresholds = take_bank(banks, &mut mask_i, out_ch, hw * hw)?;
                    steps.push(BoundLayer::Array {
                        weight: Arc::new(param(format!("{name}.weight"))?.clone()),
                        bias: param(format!("{name}.bias"))?.clone(),
                        geom,
                        thresholds,
                        packed: None,
                        packed_a: None,
                    });
                }
                VggBlock::Pool => steps.push(BoundLayer::Pool),
                VggBlock::Flatten => steps.push(BoundLayer::Flatten),
                VggBlock::Linear { in_f, out_f, activation } => {
                    weighted += 1;
                    let name = format!("fc{weighted}");
                    let geom = LayerGeometry::fc(&name, in_f, out_f, activation);
                    let weight =
                        param(format!("{name}.weight"))?.reshape(&[out_f, in_f, 1, 1])?;
                    let thresholds = if activation {
                        take_bank(banks, &mut mask_i, out_f, 1)?
                    } else {
                        None
                    };
                    steps.push(BoundLayer::Array {
                        weight: Arc::new(weight),
                        bias: param(format!("{name}.bias"))?.clone(),
                        geom,
                        thresholds,
                        packed: None,
                        packed_a: None,
                    });
                }
            }
        }
        Ok(BoundNetwork {
            steps,
            classes: arch.classes,
            input_hw: arch.input_hw,
            in_channels: arch.in_channels,
        })
    }
}

/// Extracts the hardware-visible [`LayerGeometry`] list of an
/// architecture (conv layers plus FC layers as 1×1 convs) — the bridge
/// from `mime-nn` architectures to `mime-systolic` analytical runs at
/// matching (mini) scale.
pub fn geometry_from_arch(arch: &VggArch) -> Vec<LayerGeometry> {
    let extents = arch.conv_spatial_extents();
    let mut out = Vec::new();
    let mut weighted = 0usize;
    let mut conv_i = 0usize;
    for block in &arch.blocks {
        match *block {
            VggBlock::Conv { in_ch, out_ch } => {
                weighted += 1;
                out.push(LayerGeometry::conv(
                    format!("conv{weighted}"),
                    in_ch,
                    out_ch,
                    extents[conv_i],
                ));
                conv_i += 1;
            }
            VggBlock::Linear { in_f, out_f, activation } => {
                weighted += 1;
                out.push(LayerGeometry::fc(
                    format!("fc{weighted}"),
                    in_f,
                    out_f,
                    activation,
                ));
            }
            _ => {}
        }
    }
    out
}

/// What one prepack pass built: published as `mime_prepack_*` gauges so
/// check.sh can assert prepack happens exactly once per process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrepackStats {
    /// Weighted steps (conv and FC) now carrying a prepacked operand
    /// (across all plans).
    pub layers: usize,
    /// Of those, steps that reused another plan's operand (shared frozen
    /// backbone) instead of packing their own copy.
    pub shared: usize,
    /// Heap bytes of *unique* packed storage built — FC panels and conv
    /// strips, shared `Arc`s counted once.
    pub bytes: usize,
    /// Wall-clock milliseconds the pass took (set by [`prepack_plans`]).
    pub ms: f64,
}

/// One distinct backbone weight of a prepack pass and the operands packed
/// from it.
struct Resident {
    weight: Arc<Tensor>,
    fc: Option<Arc<PrepackedB>>,
    conv: Option<Arc<PrepackedA>>,
}

/// Prepacks the weighted steps of every plan, once per process. First the
/// plans' raw weights are deduplicated: a layer whose weight equals
/// another plan's bit for bit (the shared MIME backbone) takes that
/// plan's `Arc`, so the backbone is held once before anything is packed.
/// Plans bound from one network already share each weight's storage, so
/// for them that comparison is a pointer check, not a scan.
/// Then each distinct weight is packed once — FC weights as fused-kernel
/// panels ([`PrepackedB`]), conv weights as GEMM `A` strips
/// ([`PrepackedA`]) — and shared read-only via `Arc` across plans.
/// Steps that already carry an operand are left as they are.
/// Publishes `mime_prepack_ms` / `mime_prepack_bytes` gauges and bumps
/// the `mime_prepack_total` counter (exactly once per call, so a serve
/// process startup shows `1` however many requests follow).
///
/// # Errors
///
/// Returns an error when a step's weight disagrees with its geometry
/// (cannot happen for plans built by this module).
pub fn prepack_plans(plans: &mut [BoundNetwork]) -> crate::Result<PrepackStats> {
    let start = Instant::now();
    let mut residents: Vec<Resident> = Vec::new();
    for step in plans.iter_mut().flat_map(|p| p.steps.iter_mut()) {
        let BoundLayer::Array { weight, .. } = step else { continue };
        // bits, not `==`: the packed operand is built from them
        match residents.iter().find(|r| r.weight.bits_eq(weight)) {
            Some(r) => *weight = Arc::clone(&r.weight),
            None => residents.push(Resident {
                weight: Arc::clone(weight),
                fc: None,
                conv: None,
            }),
        }
    }
    let mut stats = PrepackStats::default();
    for step in plans.iter_mut().flat_map(|p| p.steps.iter_mut()) {
        let BoundLayer::Array { geom, weight, packed, packed_a, .. } = step else {
            continue;
        };
        let resident = residents
            .iter_mut()
            .find(|r| Arc::ptr_eq(&r.weight, weight))
            .expect("the dedup pass made every weight resident");
        if geom.r == 1 {
            share_or_pack(packed, &mut resident.fc, &mut stats, || {
                let pb = PrepackedB::from_weight_transposed(weight, geom.c, geom.k)?;
                let bytes = pb.bytes();
                Ok((pb, bytes))
            })?;
        } else {
            share_or_pack(packed_a, &mut resident.conv, &mut stats, || {
                let pa = PrepackedA::from_weight(weight)?;
                let bytes = pa.bytes();
                Ok((pa, bytes))
            })?;
        }
    }
    stats.ms = start.elapsed().as_secs_f64() * 1e3;
    let r = mime_obs::metrics::global();
    r.gauge("mime_prepack_ms").set(stats.ms);
    r.gauge("mime_prepack_bytes").set(stats.bytes as f64);
    r.counter("mime_prepack_total").add(1);
    mime_obs::info!(
        "runtime.prepack",
        "prepacked weighted layers",
        layers = stats.layers,
        shared = stats.shared,
        bytes = stats.bytes
    );
    Ok(stats)
}

/// Gives a step the operand packed from its weight: the one another plan
/// already packed, or a fresh one. A step that already carries an operand
/// (from an earlier pass) offers it to the other plans instead.
fn share_or_pack<T>(
    slot: &mut Option<Arc<T>>,
    resident: &mut Option<Arc<T>>,
    stats: &mut PrepackStats,
    pack: impl FnOnce() -> crate::Result<(T, usize)>,
) -> crate::Result<()> {
    if let Some(own) = slot {
        resident.get_or_insert_with(|| Arc::clone(own));
        return Ok(());
    }
    let operand = match resident {
        Some(shared) => {
            stats.shared += 1;
            Arc::clone(shared)
        }
        None => {
            let (operand, bytes) = pack()?;
            stats.bytes += bytes;
            Arc::clone(resident.insert(Arc::new(operand)))
        }
    };
    stats.layers += 1;
    *slot = Some(operand);
    Ok(())
}

/// Pulls the next threshold bank (if plans are MIME-bound) and normalizes
/// it to per-neuron form: a `[K]` bank is broadcast across `sites`.
fn take_bank(
    banks: Option<&[Tensor]>,
    mask_i: &mut usize,
    k: usize,
    sites: usize,
) -> crate::Result<Option<Tensor>> {
    let Some(banks) = banks else {
        return Ok(None);
    };
    let bank = banks.get(*mask_i).ok_or_else(|| {
        TensorError::InvalidGeometry("bound network: threshold bank missing".into())
    })?;
    *mask_i += 1;
    let flat = if bank.len() == k * sites {
        bank.reshape(&[k * sites])?
    } else if bank.len() == k {
        // per-channel granularity: broadcast across the channel's sites
        let mut v = Vec::with_capacity(k * sites);
        for &t in bank.as_slice() {
            v.extend(std::iter::repeat_n(t, sites));
        }
        Tensor::from_vec(v, &[k * sites])?
    } else {
        return Err(TensorError::LengthMismatch {
            expected: k * sites,
            actual: bank.len(),
        }
        .into());
    };
    Ok(Some(flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_core::ThresholdGranularity;
    use mime_nn::{build_network, vgg16_arch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mini() -> (VggArch, Sequential) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
        let mut rng = StdRng::seed_from_u64(2);
        let net = build_network(&arch, &mut rng);
        (arch, net)
    }

    #[test]
    fn baseline_plan_structure() {
        let (arch, net) = mini();
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let arrays =
            plan.steps().iter().filter(|s| matches!(s, BoundLayer::Array { .. })).count();
        assert_eq!(arrays, 16, "13 convs + 3 FC");
        let pools = plan.steps().iter().filter(|s| matches!(s, BoundLayer::Pool)).count();
        assert_eq!(pools, 5);
        assert_eq!(plan.classes(), 4);
        assert_eq!(plan.input_hw(), 32);
        assert_eq!(plan.in_channels(), 3);
        assert!(plan.weight_words() > 0);
        // baseline plans carry no thresholds
        assert!(plan.steps().iter().all(|s| match s {
            BoundLayer::Array { thresholds, .. } => thresholds.is_none(),
            _ => true,
        }));
    }

    #[test]
    fn mime_plan_carries_thresholds() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained(&arch, &parent, 0.07).unwrap();
        let plan = BoundNetwork::from_mime(&net).unwrap();
        let with_t = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, BoundLayer::Array { thresholds: Some(_), .. }))
            .count();
        // 13 convs + 2 hidden FCs masked; the classifier is not
        assert_eq!(with_t, 15);
        for s in plan.steps() {
            if let BoundLayer::Array { geom, thresholds: Some(t), .. } = s {
                assert_eq!(t.len(), geom.k * geom.sites());
                assert!(t.as_slice().iter().all(|&x| (x - 0.07).abs() < 1e-6));
            }
        }
    }

    #[test]
    fn plans_bound_from_an_unpacked_image_share_the_receivers_backbone() {
        use mime_core::deploy::{pack_model, unpack_model};
        use mime_core::MultiTaskModel;
        let (arch, parent) = mini();
        let mut source =
            MultiTaskModel::new(MimeNetwork::from_trained(&arch, &parent, 0.0).unwrap());
        for (i, t) in [0.05f32, 0.1, 0.2].into_iter().enumerate() {
            let banks =
                source.network().export_thresholds().iter().map(|b| b.map(|_| t)).collect();
            source.register_task(format!("task{i}"), banks).unwrap();
        }
        let image = pack_model(&source).unwrap();
        let other = build_network(&arch, &mut StdRng::seed_from_u64(3));
        let mut receiver =
            MultiTaskModel::new(MimeNetwork::from_trained(&arch, &other, 0.0).unwrap());
        let report = unpack_model(&image, &mut receiver).unwrap();
        let mut plans = Vec::new();
        for name in &report.loaded {
            receiver.activate(name).unwrap();
            plans.push(BoundNetwork::from_mime(receiver.network()).unwrap());
        }
        assert_eq!(plans.len(), 3);
        let resident: HashMap<&str, *const f32> = receiver
            .network()
            .backbone_params()
            .into_iter()
            .map(|p| (p.name(), p.value.as_slice().as_ptr()))
            .collect();
        let assert_shared = |plans: &[BoundNetwork], when: &str| {
            for plan in plans {
                for step in plan.steps() {
                    let BoundLayer::Array { geom, weight, bias, .. } = step else {
                        continue;
                    };
                    let name = &geom.name;
                    assert_eq!(
                        weight.as_slice().as_ptr(),
                        resident[format!("{name}.weight").as_str()],
                        "{name}: weight copied {when}"
                    );
                    assert_eq!(
                        bias.as_slice().as_ptr(),
                        resident[format!("{name}.bias").as_str()],
                        "{name}: bias copied {when}"
                    );
                }
            }
        };
        assert_shared(&plans, "by the bind");
        let stats = prepack_plans(&mut plans).unwrap();
        assert_eq!((stats.layers, stats.shared), (3 * 16, 2 * 16));
        assert_shared(&plans, "by prepack");
    }

    #[test]
    fn geometry_matches_plan_structure() {
        let (arch, net) = mini();
        let geoms = geometry_from_arch(&arch);
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let plan_geoms: Vec<&LayerGeometry> = plan
            .steps()
            .iter()
            .filter_map(|s| match s {
                BoundLayer::Array { geom, .. } => Some(geom),
                _ => None,
            })
            .collect();
        assert_eq!(geoms.len(), plan_geoms.len());
        for (a, b) in geoms.iter().zip(plan_geoms) {
            assert_eq!(a, b);
        }
        // total weights consistent with the trained network's weight params
        let w: usize = geoms.iter().map(|g| g.weight_count()).sum();
        assert_eq!(w, plan.weight_words());
    }

    #[test]
    fn per_channel_banks_broadcast() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained_with_options(
            &arch,
            &parent,
            0.3,
            false,
            ThresholdGranularity::PerChannel,
        )
        .unwrap();
        let plan = BoundNetwork::from_mime(&net).unwrap();
        if let BoundLayer::Array { geom, thresholds: Some(t), .. } = &plan.steps()[0] {
            assert_eq!(t.len(), geom.k * geom.sites());
        } else {
            panic!("first step must be a masked conv");
        }
    }
}
