//! Fused-epilogue parity: with FC weight panels prepacked once per
//! process ([`mime_runtime::prepack_plans`]) the executor runs the
//! GEMM + eq. (2) threshold compare + activity bitmap as one fused
//! kernel. Every observable — logits, analytic counters, degraded-task
//! bookkeeping — must be bit-identical to the unfused re-scan path.
//! Debug builds additionally `debug_assert` the fused activity bitmap
//! against the mime-core re-scan reference on every step, so running
//! this test at all re-proves the bitmap equivalence.

use mime_core::faults::FaultInjector;
use mime_core::MimeNetwork;
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{
    prepack_plans, BatchReport, BoundLayer, BoundNetwork, ComputePath, HardwareExecutor,
    SparseDispatch,
};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Weighted steps of a VGG16 plan: 13 convs and 3 FC layers.
const WEIGHTED_STEPS: usize = 16;

/// Two healthy MIME tasks plus one with a poisoned threshold bank
/// (exercises the thresholds-stripped degradation route, which must keep
/// sharing the parent's prepacked panels).
fn three_plans() -> Vec<BoundNetwork> {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
    let mut rng = StdRng::seed_from_u64(6);
    let parent = build_network(&arch, &mut rng);
    let mime_a = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
    let mime_b = MimeNetwork::from_trained(&arch, &parent, 0.30).unwrap();
    let mut poisoned = MimeNetwork::from_trained(&arch, &parent, 0.25).unwrap();
    let mut banks = poisoned.export_thresholds();
    mime_core::faults::FaultInjector::new(11).poison_tensor(&mut banks[0], 2);
    poisoned.import_thresholds(&banks).unwrap();
    vec![
        BoundNetwork::from_mime(&mime_a).unwrap(),
        BoundNetwork::from_mime(&mime_b).unwrap(),
        BoundNetwork::from_mime(&poisoned).unwrap(),
    ]
}

fn batch() -> Vec<(usize, Tensor)> {
    (0..7)
        .map(|i| {
            (
                i % 3,
                Tensor::from_fn(&[3, 32, 32], move |j| {
                    (((j + i * 97) % 17) as f32 - 8.0) * 0.09
                }),
            )
        })
        .collect()
}

fn assert_reports_identical(a: &BatchReport, b: &BatchReport, what: &str) {
    assert_eq!(a.counters, b.counters, "{what}: counters diverge");
    assert_eq!(a.degraded_tasks, b.degraded_tasks, "{what}");
    assert_eq!(a.logits, b.logits, "{what}: logits diverge");
}

#[test]
fn fused_prepacked_path_is_bit_identical() {
    let batch = batch();
    let mut exec = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );

    // reference: the unfused re-scan path (no plan carries panels)
    let unfused_plans = three_plans();
    let reference = exec.run_pipelined(&unfused_plans, &batch, true, true).unwrap();
    assert_eq!(reference.degraded_tasks, vec![2]);

    // prepack once per process; the three tasks share one frozen
    // backbone, so its conv strips and FC panels must be packed once and
    // Arc-shared
    let mut plans = three_plans();
    let stats = prepack_plans(&mut plans).unwrap();
    assert_eq!(stats.layers, 3 * WEIGHTED_STEPS, "every weighted step gets packed");
    assert_eq!(
        stats.shared,
        2 * WEIGHTED_STEPS,
        "two plans reuse the first plan's operands instead of repacking"
    );
    assert!(stats.bytes > 0);
    assert!(stats.ms >= 0.0);

    // prepacking twice is a no-op (steps already carrying panels skip)
    let again = prepack_plans(&mut plans).unwrap();
    assert_eq!(again.layers, 0, "second prepack pass must find nothing to do");
    assert_eq!(again.bytes, 0);

    let fused = exec.run_pipelined(&plans, &batch, true, true).unwrap();
    assert_reports_identical(&reference, &fused, "fused vs unfused");

    // dense-pinned dispatch through the fused kernel: same logit bits
    let mut dense = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::DenseOnly,
    );
    let dense_fused = dense.run_pipelined(&plans, &batch, true, true).unwrap();
    assert_eq!(dense_fused.logits, reference.logits, "dense-only fused logits");
}

fn weights(plan: &BoundNetwork) -> Vec<Arc<Tensor>> {
    plan.steps()
        .iter()
        .filter_map(|s| match s {
            BoundLayer::Array { weight, .. } => Some(Arc::clone(weight)),
            _ => None,
        })
        .collect()
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn resident_conv_weights_are_bit_identical_on_every_path() {
    // CIFAR VGG16 at quarter width: conv11–conv13 see 2×2 sites (n = 4,
    // below one NR panel) over C·9 = 1152 taps (three KC windows)
    let arch = vgg16_arch(0.25, 32, 3, 10, 64);
    let mut parent = build_network(&arch, &mut StdRng::seed_from_u64(12));
    let mut nets: Vec<MimeNetwork> = [0.05f32, 0.30, 0.25]
        .iter()
        .map(|&t| MimeNetwork::from_trained(&arch, &parent, t).unwrap())
        .collect();
    // task 2's bank is poisoned: it serves on its thresholds-stripped
    // parent plan, as the replica resolves it
    let mut banks = nets[2].export_thresholds();
    FaultInjector::new(11).poison_tensor(&mut banks[0], 2);
    nets[2].import_thresholds(&banks).unwrap();
    let raw: Vec<BoundNetwork> =
        nets.iter().map(|n| BoundNetwork::from_mime(n).unwrap()).collect();
    let mut plans = raw.clone();
    let stats = prepack_plans(&mut plans).unwrap();
    assert_eq!((stats.layers, stats.shared), (3 * WEIGHTED_STEPS, 2 * WEIGHTED_STEPS));
    for step in plans[0].steps() {
        if let BoundLayer::Array { geom, packed, packed_a, .. } = step {
            assert_eq!(packed.is_some(), geom.r == 1, "{}: FC panels", geom.name);
            assert_eq!(packed_a.is_some(), geom.r > 1, "{}: conv strips", geom.name);
        }
    }

    // one raw-weight Arc per layer across plans, stripped parents and rungs
    let stripped = plans[2].strip_thresholds();
    let rung = plans[0].brownout_rung(4.0);
    let lead = weights(&plans[0]);
    for view in [&plans[1], &plans[2], &stripped, &rung] {
        for (a, b) in lead.iter().zip(weights(view)) {
            assert!(Arc::ptr_eq(a, &b), "plans must share the backbone weights");
        }
    }

    // a mixed batch of 8, the poisoned task on its stripped parent
    let tasks = [0usize, 1, 2, 0, 2, 1, 1, 0];
    let raw_stripped = raw[2].strip_thresholds();
    let view = |t: usize| if t == 2 { &stripped } else { &plans[t] };
    let raw_view = |t: usize| if t == 2 { &raw_stripped } else { &raw[t] };
    let images: Vec<Tensor> = (0..tasks.len())
        .map(|i| {
            Tensor::from_fn(&[3, 32, 32], move |j| {
                (((j + i * 97) % 17) as f32 - 8.0) * 0.09
            })
        })
        .collect();
    let mut exec = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );
    let coalesced = exec
        .run_coalesced(
            &tasks.iter().map(|&t| view(t)).collect::<Vec<_>>(),
            &images.iter().collect::<Vec<_>>(),
            true,
        )
        .unwrap();
    for (s, (&t, image)) in tasks.iter().zip(&images).enumerate() {
        let single = exec.run_image(view(t), image, true).unwrap();
        let no_prepack = exec.run_image(raw_view(t), image, true).unwrap();
        let batch = image.reshape(&[1, 3, 32, 32]).unwrap();
        // the stripped parent plan is the parent network's ReLU forward
        let host = if t == 2 {
            parent.forward(&batch).unwrap()
        } else {
            nets[t].forward(&batch).unwrap()
        };
        let want = bits(host.as_slice());
        assert_eq!(bits(&single), want, "sample {s}: run_image");
        assert_eq!(bits(&coalesced[s]), want, "sample {s}: run_coalesced");
        assert_eq!(bits(&no_prepack), want, "sample {s}: --no-prepack");
    }
}
