//! The repository benchmark: three workloads over calibrated three-task
//! MIME images, every result checked bit-for-bit against
//! `MimeNetwork::forward`, with an end-to-end view (untraced runs) and a
//! conv1…fc16 per-layer ledger (traced runs). `BENCHMARK.json` at the
//! repository root lists the workloads and metrics.

pub mod bench;
pub mod ledger;
pub mod model;
pub mod offline;
pub mod serve;
pub mod util;

use util::Metric;

/// The workloads, as named on the command line and in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeMix,
    OfflineSingle,
    OfflinePipelined,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-mix" => Some(Workload::ServeMix),
            "offline-single" => Some(Workload::OfflineSingle),
            "offline-pipelined" => Some(Workload::OfflinePipelined),
            _ => None,
        }
    }
}

/// End-to-end metrics every untraced run prints.
pub const END_TO_END: [&str; 5] =
    ["setup_s", "goodput_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"];

/// The weighted VGG16 layers the kernel ledger has a row for.
pub fn weighted_layers() -> Vec<String> {
    (1..=13)
        .map(|i| format!("conv{i}"))
        .chain((14..=16).map(|i| format!("fc{i}")))
        .collect()
}

/// Per-layer metrics every traced run prints.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "client.late_p99_ms",
        "frontdoor.queue_p50_ms",
        "frontdoor.batch_mean",
        "replica.compute_p50_ms",
        "wire.p50_ms",
        "proto.encode_us",
        "proto.decode_us",
        "deploy.unpack_ms",
        "bind.prepack_ms",
        "brownout.derive_ms",
        "executor.unattributed_ms",
        "trace.overhead_ms",
        "roof.copy_gbps",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for layer in weighted_layers() {
        for field in ["ms", "sparsity", "skip_share", "gflops", "weight_gbps"] {
            names.push(format!("{layer}.{field}"));
        }
    }
    names
}

/// Checks that `metrics` is exactly the expected set for a run, each
/// name well-formed and used once.
pub fn check_metric_set(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let mut want: Vec<String> = if trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let mut got: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
    if let Some(bad) = got.iter().find(|n| !util::valid_name(n)) {
        return Err(format!("malformed metric name {bad:?}"));
    }
    want.sort();
    got.sort();
    if want != got {
        return Err(format!("metric set mismatch: want {want:?}, got {got:?}"));
    }
    Ok(())
}
