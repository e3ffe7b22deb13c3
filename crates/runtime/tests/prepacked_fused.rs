//! Forward-oracle parity for the resident software path: with the conv
//! strips and FC panels prepacked once per process
//! ([`mime_runtime::prepack_plans`]), every executor entry point must
//! return logits bit-identical to the host [`MimeNetwork::forward`] with
//! the same (brownout-scaled) banks, or to the parent network's forward
//! for a task whose bank was bound degraded. Debug builds also
//! `debug_assert` the fused FC epilogue's activity bitmap against the
//! mime-core re-scan reference on every step.

use mime_core::faults::{first_non_finite, FaultInjector};
use mime_core::{MimeError, MimeNetwork, ThresholdGranularity};
use mime_nn::{build_network, vgg16_arch, Sequential, VggArch};
use mime_runtime::{
    prepack_plans, BoundLayer, BoundNetwork, ComputePath, HardwareExecutor, SparseDispatch,
};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Weighted steps of a VGG16 plan: 13 convs and 3 FC layers.
const WEIGHTED_STEPS: usize = 16;
const TASKS: usize = 3;
/// Brownout rungs drawn per item (rung 0 is the task's own plan).
const RUNGS: usize = 4;

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

fn image(salt: usize) -> Tensor {
    Tensor::from_fn(&[3, 32, 32], move |j| (((j + salt * 97) % 17) as f32 - 8.0) * 0.09)
}

/// The factor brownout rung `rung` scales a task's banks by.
fn rung_factor(rung: usize) -> f32 {
    4f32.powi(rung as i32)
}

/// One task over the shared parent: every threshold in `0..t`, spread
/// per element so neurons (or channels) of a layer differ; NaN-poisoned
/// when `poisoned`.
fn task_network(
    arch: &VggArch,
    parent: &Sequential,
    task: usize,
    t: f32,
    granularity: ThresholdGranularity,
    poisoned: bool,
) -> MimeNetwork {
    let mut net =
        MimeNetwork::from_trained_with_options(arch, parent, t, false, granularity)
            .unwrap();
    let mut banks: Vec<Tensor> = net
        .export_thresholds()
        .iter()
        .map(|b| {
            Tensor::from_fn(b.dims(), |i| t * ((i * 7919 + task * 131) % 13) as f32 / 12.0)
        })
        .collect();
    if poisoned {
        FaultInjector::new(11).poison_tensor(&mut banks[0], 2);
    }
    net.import_thresholds(&banks).unwrap();
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_software_entry_point_matches_the_host_forward(
        tasks in prop::collection::vec(
            (
                0.0f32..0.3,
                prop::sample::select(vec![
                    ThresholdGranularity::PerNeuron,
                    ThresholdGranularity::PerChannel,
                ]),
            ),
            TASKS,
        ),
        poisoned in prop::sample::select(vec![None, Some(0usize), Some(1), Some(2)]),
        items in prop::collection::vec((0..TASKS, 0..RUNGS), 1..10),
        dispatch in prop::sample::select(vec![
            SparseDispatch::Auto,
            SparseDispatch::SparseOnly,
            SparseDispatch::DenseOnly,
        ]),
        threads in prop::sample::select(vec![1usize, 2, 5]),
    ) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
        let mut parent = build_network(&arch, &mut StdRng::seed_from_u64(6));
        let mut nets: Vec<MimeNetwork> = tasks
            .iter()
            .enumerate()
            .map(|(task, &(t, g))| {
                task_network(&arch, &parent, task, t, g, poisoned == Some(task))
            })
            .collect();
        let mut plans: Vec<BoundNetwork> =
            nets.iter().map(|n| BoundNetwork::from_mime(n).unwrap()).collect();
        let banks: Vec<Vec<Tensor>> = nets.iter().map(|n| n.export_thresholds()).collect();

        // prepack once per process; the tasks share one frozen backbone,
        // so its conv strips and FC panels are packed once and Arc-shared
        let stats = prepack_plans(&mut plans).unwrap();
        prop_assert_eq!(
            stats.layers,
            TASKS * WEIGHTED_STEPS,
            "every weighted step gets packed"
        );
        prop_assert_eq!(
            stats.shared,
            (TASKS - 1) * WEIGHTED_STEPS,
            "the other plans reuse the first plan's operands instead of repacking"
        );
        prop_assert!(stats.bytes > 0);
        prop_assert!(stats.ms >= 0.0);
        // prepacking twice is a no-op (steps already carrying operands skip)
        let again = prepack_plans(&mut plans).unwrap();
        prop_assert_eq!(again.layers, 0, "second prepack pass must find nothing to do");
        prop_assert_eq!(again.bytes, 0);

        // a poisoned task is bound as its parent path, keeping the first
        // non-finite threshold: conv1's bank (step 0), broadcast per
        // neuron when the bank is per channel
        for (task, plan) in plans.iter().enumerate() {
            let verdict = (poisoned == Some(task)).then(|| {
                let BoundLayer::Array { geom, .. } = &plan.steps()[0] else {
                    unreachable!("step 0 is conv1")
                };
                let bank = &banks[task][0];
                let first = first_non_finite(bank.as_slice()).unwrap();
                MimeError::NonFinite {
                    stage: "threshold bank",
                    layer: 0,
                    index: first * geom.k * geom.sites() / bank.len(),
                }
            });
            prop_assert_eq!(plan.degraded(), verdict.as_ref(), "task {}", task);
        }

        // plan index task * RUNGS + rung, as the replica's ladders hold
        // them; a poisoned task's rungs are its parent path too
        let rungs: Vec<BoundNetwork> = plans
            .iter()
            .flat_map(|p| (0..RUNGS).map(move |r| p.brownout_rung(rung_factor(r))))
            .collect();
        let view = |(task, rung): (usize, usize)| &rungs[task * RUNGS + rung];
        let images: Vec<Tensor> = (0..items.len()).map(image).collect();
        let want: Vec<Vec<u32>> = items
            .iter()
            .zip(&images)
            .map(|(&(task, rung), image)| {
                let x = image.reshape(&[1, 3, 32, 32]).unwrap();
                let host = if poisoned == Some(task) {
                    parent.forward(&x).unwrap()
                } else {
                    // the rung's banks: every (non-negative) threshold
                    // scaled by its factor
                    let f = rung_factor(rung);
                    let scaled: Vec<Tensor> =
                        banks[task].iter().map(|b| b.map(|v| v * f)).collect();
                    nets[task].import_thresholds(&scaled).unwrap();
                    nets[task].forward(&x).unwrap()
                };
                bits(host.as_slice())
            })
            .collect();

        let mut exec = HardwareExecutor::with_options(
            ArrayConfig::eyeriss_65nm(),
            ComputePath::Software,
            dispatch,
        );
        for (s, (&item, image)) in items.iter().zip(&images).enumerate() {
            let single = exec.run_image(view(item), image, true).unwrap();
            prop_assert_eq!(
                bits(&single),
                want[s].clone(),
                "item {} {:?}: run_image",
                s,
                item
            );
        }
        let views: Vec<&BoundNetwork> = items.iter().map(|&item| view(item)).collect();
        let coalesced = exec
            .run_coalesced_guarded_with_threads(
                &views,
                &images.iter().collect::<Vec<_>>(),
                true,
                &mut |_| Ok(()),
                threads,
            )
            .unwrap();
        for (s, logits) in coalesced.iter().enumerate() {
            prop_assert_eq!(
                bits(logits),
                want[s].clone(),
                "item {} {:?}: run_coalesced ({} threads)",
                s,
                items[s],
                threads
            );
        }
        // run_pipelined reports the poisoned task's rungs as degraded
        let batch: Vec<(usize, Tensor)> = items
            .iter()
            .zip(&images)
            .map(|(&(task, rung), image)| (task * RUNGS + rung, image.clone()))
            .collect();
        let report = exec.run_pipelined(&rungs, &batch, true, true).unwrap();
        for (s, logits) in report.logits.iter().enumerate() {
            prop_assert_eq!(
                bits(logits),
                want[s].clone(),
                "item {} {:?}: run_pipelined",
                s,
                items[s]
            );
        }
        let mut degraded: Vec<usize> = batch
            .iter()
            .map(|(index, _)| *index)
            .filter(|index| poisoned == Some(index / RUNGS))
            .collect();
        degraded.sort_unstable();
        degraded.dedup();
        prop_assert_eq!(report.degraded_tasks, degraded);
    }
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
    // task 2's bank is poisoned: its plan is bound as the parent path
    let mut banks = nets[2].export_thresholds();
    FaultInjector::new(11).poison_tensor(&mut banks[0], 2);
    nets[2].import_thresholds(&banks).unwrap();
    let mut plans: Vec<BoundNetwork> =
        nets.iter().map(|n| BoundNetwork::from_mime(n).unwrap()).collect();
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

    // a mixed batch of 8, the poisoned task on its parent path
    let tasks = [0usize, 1, 2, 0, 2, 1, 1, 0];
    let view = |t: usize| &plans[t];
    let images: Vec<Tensor> = (0..tasks.len()).map(image).collect();
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
        let batch = image.reshape(&[1, 3, 32, 32]).unwrap();
        // the degraded plan is the parent network's ReLU forward
        let host = if t == 2 {
            parent.forward(&batch).unwrap()
        } else {
            nets[t].forward(&batch).unwrap()
        };
        let want = bits(host.as_slice());
        assert_eq!(bits(&single), want, "sample {s}: run_image");
        assert_eq!(bits(&coalesced[s]), want, "sample {s}: run_coalesced");
    }
}
