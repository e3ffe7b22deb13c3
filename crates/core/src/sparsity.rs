//! Activation-sparsity measurement — the quantity reported in the paper's
//! Tables II (MIME) and III (baseline ReLU).

use crate::MimeNetwork;
use mime_nn::{LayerKind, Sequential};
use mime_tensor::Tensor;

/// Sparsity of one masked/activated layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSparsity {
    /// Layer name (`conv1..conv13`, `fc14`, `fc15`).
    pub name: String,
    /// Mean fraction of zero output activations across the measured set.
    pub sparsity: f64,
}

/// Average layerwise neuronal sparsity of a network over a dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparsityReport {
    /// One entry per activated layer, in network order.
    pub layers: Vec<LayerSparsity>,
}

impl SparsityReport {
    /// Looks up a layer's sparsity by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|l| l.name == name).map(|l| l.sparsity)
    }

    /// Mean sparsity across all layers (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(|l| l.sparsity).sum::<f64>() / self.layers.len() as f64
    }

    /// The per-layer sparsities as a plain vector (network order).
    pub fn values(&self) -> Vec<f64> {
        self.layers.iter().map(|l| l.sparsity).collect()
    }
}

impl std::fmt::Display for SparsityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for l in &self.layers {
            writeln!(f, "{:<8} {:.4}", l.name, l.sparsity)?;
        }
        Ok(())
    }
}

/// Measures the average output sparsity of every threshold mask of a
/// [`MimeNetwork`] over `batches` (the Table II measurement).
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn measure_sparsity(
    net: &mut MimeNetwork,
    batches: &[(Tensor, Vec<usize>)],
) -> crate::Result<SparsityReport> {
    let names = net.mask_layer_names();
    let mut sums = vec![0.0f64; names.len()];
    let mut count = 0usize;
    for (images, _) in batches {
        net.forward(images)?;
        for (s, (_, v)) in sums.iter_mut().zip(net.layer_sparsities()) {
            *s += v;
        }
        count += 1;
    }
    let count = count.max(1) as f64;
    Ok(SparsityReport {
        layers: names
            .into_iter()
            .zip(sums)
            .map(|(name, s)| LayerSparsity { name, sparsity: s / count })
            .collect(),
    })
}

/// Measures the average ReLU output sparsity of a conventional network
/// built by [`mime_nn::build_network`] (the Table III baseline
/// measurement). Layers are labelled by the weighted layer preceding each
/// ReLU.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn measure_sparsity_baseline(
    net: &mut Sequential,
    batches: &[(Tensor, Vec<usize>)],
) -> crate::Result<SparsityReport> {
    // Identify ReLU positions and their preceding weighted layer's name.
    let mut relu_info: Vec<(usize, String)> = Vec::new();
    let mut last_weighted = String::new();
    for (i, layer) in net.iter().enumerate() {
        match layer.kind() {
            LayerKind::Conv | LayerKind::Linear => {
                last_weighted = layer.name().to_string();
            }
            LayerKind::Relu => relu_info.push((i, last_weighted.clone())),
            _ => {}
        }
    }
    let mut sums = vec![0.0f64; relu_info.len()];
    let mut count = 0usize;
    for (images, _) in batches {
        let (_, trace) = net.forward_trace(images)?;
        for (s, (idx, _)) in sums.iter_mut().zip(&relu_info) {
            *s += trace[*idx].sparsity();
        }
        count += 1;
    }
    let count = count.max(1) as f64;
    Ok(SparsityReport {
        layers: relu_info
            .into_iter()
            .zip(sums)
            .map(|((_, name), s)| LayerSparsity { name, sparsity: s / count })
            .collect(),
    })
}

/// Reference implementation of the eq. (2) threshold pass: keep each
/// value iff `v - t >= 0.0`, else write exact `0.0`. The runtime
/// executor runs it on every conv output; on FC steps the fused kernel
/// epilogue applies the identical arithmetic in-register.
pub fn apply_thresholds_rescan(values: &mut [f32], thresholds: &[f32]) {
    debug_assert_eq!(values.len(), thresholds.len());
    for (v, t) in values.iter_mut().zip(thresholds) {
        *v = if *v - *t >= 0.0 { *v } else { 0.0 };
    }
}

/// Reference implementation of the per-channel activity re-scan: channel
/// `ki` is active iff any of its `sites` values is nonzero (`-0.0`
/// counts as zero — it contributes exact `±0.0` GEMM terms downstream).
/// The runtime executor runs this second pass on every conv output; on
/// FC steps the fused epilogue emits the bitmap instead, and debug builds
/// assert it equal to this one.
pub fn channel_activity_rescan(values: &[f32], channels: usize, sites: usize) -> Vec<bool> {
    debug_assert_eq!(values.len(), channels * sites);
    (0..channels)
        .map(|ki| values[ki * sites..(ki + 1) * sites].iter().any(|&v| v != 0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_nn::{build_network, vgg16_arch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn probe_batches() -> Vec<(Tensor, Vec<usize>)> {
        vec![
            (
                Tensor::from_fn(&[2, 3, 32, 32], |i| ((i % 13) as f32 - 6.0) * 0.2),
                vec![0, 1],
            ),
            (
                Tensor::from_fn(&[2, 3, 32, 32], |i| ((i % 7) as f32 - 3.0) * 0.3),
                vec![1, 0],
            ),
        ]
    }

    #[test]
    fn baseline_report_covers_all_relus() {
        let arch = vgg16_arch(0.0625, 32, 3, 2, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = build_network(&arch, &mut rng);
        let report = measure_sparsity_baseline(&mut net, &probe_batches()).unwrap();
        // 13 convs + 2 hidden FCs have ReLUs
        assert_eq!(report.layers.len(), 15);
        assert_eq!(report.layers[0].name, "conv1");
        assert_eq!(report.layers[14].name, "fc15");
        for l in &report.layers {
            assert!((0.0..=1.0).contains(&l.sparsity), "{}: {}", l.name, l.sparsity);
        }
        // random-weight ReLU sparsity should hover near 0.5 in early layers
        let s0 = report.get("conv1").unwrap();
        assert!(s0 > 0.15 && s0 < 0.85, "conv1 relu sparsity {s0}");
    }

    #[test]
    fn mime_report_matches_mask_names() {
        let arch = vgg16_arch(0.0625, 32, 3, 2, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let parent = build_network(&arch, &mut rng);
        let mut net = crate::MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
        let report = measure_sparsity(&mut net, &probe_batches()).unwrap();
        assert_eq!(report.layers.len(), 15);
        assert!(report.mean() > 0.0);
        assert!(report.get("conv2").is_some());
        assert!(report.get("nonexistent").is_none());
    }

    #[test]
    fn higher_thresholds_mean_more_sparsity() {
        let arch = vgg16_arch(0.0625, 32, 3, 2, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let parent = build_network(&arch, &mut rng);
        let batches = probe_batches();
        let mut low = crate::MimeNetwork::from_trained(&arch, &parent, 0.0).unwrap();
        let mut high = crate::MimeNetwork::from_trained(&arch, &parent, 0.5).unwrap();
        let rl = measure_sparsity(&mut low, &batches).unwrap();
        let rh = measure_sparsity(&mut high, &batches).unwrap();
        assert!(
            rh.mean() >= rl.mean(),
            "raising thresholds cannot reduce sparsity: {} vs {}",
            rh.mean(),
            rl.mean()
        );
    }

    #[test]
    fn display_lists_every_layer() {
        let report = SparsityReport {
            layers: vec![
                LayerSparsity { name: "conv1".into(), sparsity: 0.5 },
                LayerSparsity { name: "fc14".into(), sparsity: 0.25 },
            ],
        };
        let s = report.to_string();
        assert!(s.contains("conv1"));
        assert!(s.contains("0.2500"));
        assert!((report.mean() - 0.375).abs() < 1e-9);
        assert_eq!(report.values(), vec![0.5, 0.25]);
    }

    #[test]
    fn rescan_reference_applies_eq2_and_reports_activity() {
        let mut v = vec![0.5, 0.1, -0.3, 0.2, 0.0, 0.0];
        let t = vec![0.2, 0.2, -0.5, 0.2, 0.0, 0.1];
        apply_thresholds_rescan(&mut v, &t);
        // kept iff v - t >= 0 (note -0.3 - (-0.5) = 0.2 >= 0 keeps -0.3,
        // and 0.0 - 0.0 = 0.0 >= 0 keeps the zero)
        assert_eq!(v, vec![0.5, 0.0, -0.3, 0.2, 0.0, 0.0]);
        assert_eq!(
            channel_activity_rescan(&v, 3, 2),
            vec![true, true, false],
            "a channel is active iff any site survived"
        );
        assert_eq!(channel_activity_rescan(&[0.0, -0.0], 2, 1), vec![false, false]);
    }

    #[test]
    fn empty_batches_give_zero_sparsity() {
        let arch = vgg16_arch(0.0625, 32, 3, 2, 8);
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = build_network(&arch, &mut rng);
        let report = measure_sparsity_baseline(&mut net, &[]).unwrap();
        assert!(report.layers.iter().all(|l| l.sparsity == 0.0));
    }
}
