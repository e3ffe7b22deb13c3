//! Blast-radius containment and the metrics it publishes: when one
//! task's threshold bank is NaN-poisoned, a pipelined batch runs that
//! task's images on the degraded parent path, while every image of a
//! *surviving* task stays bit-identical to its solo run — and the batch
//! still publishes its observability counters, survivors included.
//!
//! This lives in its own integration-test binary (one process, one
//! `#[test]`) because the hooks record into the process-wide registry.

use mime_core::MimeNetwork;
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{BoundNetwork, HardwareExecutor};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const POISONED_TASK: usize = 1;

/// Three MIME tasks sharing one parent; the middle one's bank is
/// NaN-poisoned so it degrades mid-batch, not at the edges.
fn plans_with_poisoned_middle() -> Vec<BoundNetwork> {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
    let mut rng = StdRng::seed_from_u64(17);
    let parent = build_network(&arch, &mut rng);
    (0..3)
        .map(|i| {
            let mut net =
                MimeNetwork::from_trained(&arch, &parent, 0.03 + 0.09 * i as f32).unwrap();
            if i == POISONED_TASK {
                let mut banks = net.export_thresholds();
                mime_core::faults::FaultInjector::new(13).poison_tensor(&mut banks[0], 2);
                net.import_thresholds(&banks).unwrap();
            }
            BoundNetwork::from_mime(&net).unwrap()
        })
        .collect()
}

/// Per-series counter increments across `f`.
fn counter_delta(f: impl FnOnce()) -> BTreeMap<String, u64> {
    let reg = mime_obs::metrics::global();
    let before = reg.counter_snapshot();
    f();
    reg.counter_snapshot()
        .into_iter()
        .map(|(name, after)| {
            let b = before.get(&name).copied().unwrap_or(0);
            (name, after - b)
        })
        .collect()
}

#[test]
fn poisoned_task_is_contained_and_the_batch_publishes_its_counters() {
    mime_obs::set_metrics_enabled(true);
    let plans = plans_with_poisoned_middle();
    let batch: Vec<(usize, Tensor)> = (0..9)
        .map(|i| {
            (
                i % 3,
                Tensor::from_fn(&[3, 32, 32], move |j| {
                    (((j + i * 97) % 17) as f32 - 8.0) * 0.09
                }),
            )
        })
        .collect();
    let mut exec = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());
    let mut report = None;
    let delta = counter_delta(|| {
        report = Some(exec.run_pipelined(&plans, &batch, true, true).unwrap());
    });
    mime_obs::set_metrics_enabled(false);
    let report = report.unwrap();

    // Only the poisoned task degrades.
    assert_eq!(report.degraded_tasks, vec![POISONED_TASK]);

    // Survivors are bit-identical to a fresh single-image run of their
    // own plan: the poisoned task's degradation leaked into nobody
    // else's logits.
    for (idx, (task, image)) in batch.iter().enumerate() {
        if *task != POISONED_TASK {
            let solo = HardwareExecutor::new(ArrayConfig::eyeriss_65nm())
                .run_image(&plans[*task], image, true)
                .unwrap();
            assert_eq!(
                report.logits[idx], solo,
                "surviving task {task} not bit-identical to its solo run (image {idx})"
            );
        }
    }

    let get =
        |name: &str| *delta.get(name).unwrap_or_else(|| panic!("missing counter {name}"));
    assert_eq!(get("mime_runtime_images_total"), batch.len() as u64);
    assert_eq!(get("mime_runtime_degraded_tasks_total"), 1);
    assert_eq!(get("mime_runtime_macs_executed_total"), report.counters.macs);
    assert!(get("mime_runtime_macs_executed_total") > 0, "survivors must execute");
    assert!(get("mime_runtime_macs_skipped_total") > 0, "survivors must zero-skip");
    assert!(get("mime_systolic_dram_accesses_total") > 0);
    assert_eq!(get("mime_runtime_task_switches_total"), report.task_switches as u64);
    assert!(report.task_switches > 0);
}
