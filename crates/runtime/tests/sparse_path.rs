//! End-to-end sparse fast path invariants: a Software-path batch must
//! skip compacted rows and publish the sparse-dispatch series, and
//! pinning it to the dense packed kernels must not change a logit bit,
//! the MAC count or the degraded-task bookkeeping. One task's threshold
//! bank is poisoned so its images run the thresholds-stripped parent
//! plan (the dense-fallback route: no mask, activity bitmaps come from
//! observed zeros only).
//!
//! Lives in its own integration-test binary (one process, one `#[test]`)
//! because the assertions read the process-wide metrics registry.

use mime_core::MimeNetwork;
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{
    prepack_plans, BoundNetwork, ComputePath, HardwareExecutor, SparseDispatch,
};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Two healthy MIME tasks plus one with a poisoned threshold bank: the
/// poisoned task degrades to the stripped parent plan, exercising the
/// sparse path without upstream activity bitmaps.
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
fn sparse_path_skips_rows_and_matches_dense_dispatch() {
    mime_obs::set_metrics_enabled(true);
    let mut plans = three_plans();
    prepack_plans(&mut plans).unwrap();
    let batch: Vec<(usize, Tensor)> = (0..7)
        .map(|i| {
            (
                i % 3,
                Tensor::from_fn(&[3, 32, 32], move |j| {
                    (((j + i * 97) % 17) as f32 - 8.0) * 0.09
                }),
            )
        })
        .collect();

    let mut exec = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );
    let mut report = None;
    let sparse = counter_delta(|| {
        report = Some(exec.run_pipelined(&plans, &batch, true, true).unwrap());
    });
    let report = report.unwrap();
    assert_eq!(report.degraded_tasks, vec![2]);

    // the dense-pinned dispatch must agree on every logit bit (counters
    // legitimately differ: no rows are skipped)
    let mut dense = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::DenseOnly,
    );
    let dense_report = counter_delta(|| {
        let r = dense.run_pipelined(&plans, &batch, true, true).unwrap();
        assert_eq!(r.logits, report.logits, "dense-only logits diverge");
        assert_eq!(r.degraded_tasks, report.degraded_tasks);
        assert_eq!(r.counters.macs, report.counters.macs);
    });
    mime_obs::set_metrics_enabled(false);

    let get = |m: &BTreeMap<String, u64>, name: &str| {
        *m.get(name).unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(get(&sparse, "mime_runtime_images_total"), batch.len() as u64);
    assert_eq!(get(&sparse, "mime_runtime_degraded_tasks_total"), 1);
    assert!(get(&sparse, "mime_runtime_macs_executed_total") > 0);
    assert!(get(&sparse, "mime_sparse_rows_total") > 0);
    assert!(
        get(&sparse, "mime_sparse_rows_skipped_total") > 0,
        "thresholded activations must skip compacted rows"
    );
    assert!(get(&sparse, "mime_sparse_dispatch_total{path=\"sparse\"}") > 0);
    assert_eq!(
        get(&dense_report, "mime_sparse_rows_skipped_total"),
        0,
        "dense-only must skip nothing"
    );
    assert!(get(&dense_report, "mime_sparse_dispatch_total{path=\"dense\"}") > 0);
}
