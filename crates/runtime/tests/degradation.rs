//! Graceful task-level degradation: a corrupted child threshold bank
//! must not take the device down — the plan bound from it is the
//! baseline parent path for that task (exactly, not approximately), the
//! executor reports the degradation, and healthy sibling tasks keep
//! their MIME behavior.

use mime_core::faults::FaultInjector;
use mime_core::{MimeError, MimeNetwork};
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{BoundNetwork, HardwareExecutor};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn probe(salt: usize) -> Tensor {
    Tensor::from_fn(&[3, 32, 32], |i| (((i + salt * 97) % 17) as f32 - 8.0) * 0.09)
}

/// Builds a parent backbone plus a MIME child whose thresholds are high
/// enough to visibly change the logits relative to the parent path.
fn setup() -> (mime_nn::VggArch, mime_nn::Sequential, MimeNetwork) {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
    let mut rng = StdRng::seed_from_u64(11);
    let parent = build_network(&arch, &mut rng);
    let net = MimeNetwork::from_trained(&arch, &parent, 0.25).unwrap();
    (arch, parent, net)
}

/// Poisons one value in the first threshold bank with a non-finite,
/// returning the rebuilt (corrupt) plan.
fn poisoned_plan(net: &mut MimeNetwork, seed: u64) -> BoundNetwork {
    let mut banks = net.export_thresholds();
    let mut injector = FaultInjector::new(seed);
    let sites = injector.poison_tensor(&mut banks[0], 2);
    assert!(!sites.is_empty(), "poisoning must land somewhere");
    net.import_thresholds(&banks).unwrap();
    BoundNetwork::from_mime(net).unwrap()
}

#[test]
fn corrupted_child_bank_degrades_to_exact_parent_path() {
    let (arch, parent, mut net) = setup();
    let healthy = BoundNetwork::from_mime(&net).unwrap();
    let corrupt = poisoned_plan(&mut net, 21);
    assert!(matches!(
        corrupt.degraded(),
        Some(MimeError::NonFinite { stage: "threshold bank", .. })
    ));

    let batch: Vec<(usize, Tensor)> = (0..3).map(|i| (0usize, probe(i))).collect();
    let cfg = ArrayConfig::eyeriss_65nm();

    let degraded =
        HardwareExecutor::new(cfg).run_pipelined(&[corrupt], &batch, true, true).unwrap();
    assert_eq!(degraded.degraded_tasks, vec![0]);

    // Reference A: the same frozen weights run as an explicit baseline
    // plan. Reference B: the healthy MIME plan (thresholds active).
    let baseline = BoundNetwork::from_baseline(&arch, &parent).unwrap();
    let parent_path =
        HardwareExecutor::new(cfg).run_pipelined(&[baseline], &batch, false, true).unwrap();
    assert!(parent_path.degraded_tasks.is_empty());
    let mime_path =
        HardwareExecutor::new(cfg).run_pipelined(&[healthy], &batch, true, true).unwrap();

    let mut saw_threshold_effect = false;
    for (d, p) in degraded.logits.iter().zip(&parent_path.logits) {
        assert_eq!(d, p, "degraded task must reproduce the parent path exactly");
    }
    for (d, m) in degraded.logits.iter().zip(&mime_path.logits) {
        if d != m {
            saw_threshold_effect = true;
        }
    }
    assert!(
        saw_threshold_effect,
        "thresholds at 0.25 should change at least one logit vector; \
         otherwise this test proves nothing"
    );
}

#[test]
fn sibling_tasks_keep_mime_behavior_when_one_bank_is_poisoned() {
    let (_, _, mut net) = setup();
    let healthy = BoundNetwork::from_mime(&net).unwrap();
    let corrupt = poisoned_plan(&mut net, 33);

    // Two plans, both referenced by the batch; only plan 1 is corrupt.
    let plans = vec![healthy.clone(), corrupt];
    let batch: Vec<(usize, Tensor)> =
        vec![(0, probe(0)), (1, probe(0)), (0, probe(1)), (1, probe(1))];
    let report = HardwareExecutor::new(ArrayConfig::eyeriss_65nm())
        .run_pipelined(&plans, &batch, true, true)
        .unwrap();
    assert_eq!(report.degraded_tasks, vec![1]);

    // The healthy task's logits match a run where no corruption exists.
    let clean = HardwareExecutor::new(ArrayConfig::eyeriss_65nm())
        .run_pipelined(&[healthy], &[(0usize, probe(0)), (0usize, probe(1))], true, true)
        .unwrap();
    assert_eq!(report.logits[0], clean.logits[0]);
    assert_eq!(report.logits[2], clean.logits[1]);
}

#[test]
fn healthy_plans_are_never_marked_degraded() {
    let (_, _, net) = setup();
    let plan = BoundNetwork::from_mime(&net).unwrap();
    let batch: Vec<(usize, Tensor)> = vec![(0, probe(0))];
    let report = HardwareExecutor::new(ArrayConfig::eyeriss_65nm())
        .run_pipelined(&[plan], &batch, true, true)
        .unwrap();
    assert!(report.degraded_tasks.is_empty());
}

#[test]
fn non_finite_logits_are_reported_not_propagated() {
    // Poison the classifier-head bias: unlike a NaN in the input or a
    // hidden layer (which a threshold mask or ReLU can silently swallow,
    // since NaN comparisons are false), nothing downstream filters the
    // head bias, so the logits come out non-finite and the executor must
    // say so instead of handing them back.
    let (arch, mut parent, _) = setup();
    let classes = 4;
    let head_bias = parent
        .parameters_mut()
        .into_iter()
        .rfind(|p| p.value.len() == classes)
        .expect("head bias parameter");
    head_bias.value.as_mut_slice()[0] = f32::NAN;
    let plan = BoundNetwork::from_baseline(&arch, &parent).unwrap();
    let mut exec = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
    match exec.run_image(&plan, &probe(0), true) {
        Err(MimeError::NonFinite { stage: "logits", .. }) => {}
        other => panic!("expected a non-finite logits error, got {other:?}"),
    }
}
