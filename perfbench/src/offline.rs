//! The in-process workloads: `offline-single` (one image per
//! `HardwareExecutor::run_image` call) and `offline-pipelined` (mixed-task
//! batches through `HardwareExecutor::run_coalesced`), plus the traced
//! per-layer replay of the same calls.

use crate::ledger::{replay, LayerSample};
use crate::model::{load_plans, receiver, Geometry, PoolItem, SetupTimes};
use crate::util::{
    median, peak_rss_kib, quantile, windowed, windowed_rate, Checksum, Metric, Tally,
    WINDOWS,
};
use bytes::Bytes;
use mime_runtime::{BoundNetwork, ComputePath, HardwareExecutor, SparseDispatch};
use mime_systolic::ArrayConfig;
use mime_tensor::{ConvScratch, Tensor};
use std::time::{Duration, Instant};

/// Images per `run_coalesced` call on `offline-pipelined`.
pub const PIPELINED_BATCH: usize = 8;

/// Deploy → bind → prepack passes per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Untimed calls before measuring, so lazy set-up and caches settle.
const WARMUP_CALLS: usize = 3;

/// Offline measurement settings.
#[derive(Debug, Clone, Copy)]
pub struct OfflineRun {
    pub geometry: Geometry,
    /// Images per executor call (1 = `run_image`).
    pub batch: usize,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured, before it is turned into metrics.
pub struct OfflineOutcome {
    pub tally: Tally,
    pub checksum: Checksum,
    pub metrics: Vec<Metric>,
    /// Traced runs: whether every replay was bit-identical to the
    /// executor call it shadowed.
    pub replay_identical: bool,
    pub lines: Vec<String>,
}

fn executor() -> HardwareExecutor {
    HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    )
}

/// Sets up [`SETUP_REPS`] times and keeps the last plans.
pub fn timed_setup(
    geom: Geometry,
    image: &Bytes,
) -> Result<(Vec<BoundNetwork>, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // drop the previous pass first so peak memory is one deployment
        drop(kept.take());
        let mut rx = receiver(geom).map_err(|e| e.to_string())?;
        let (plans, t) = load_plans(image, &mut rx)?;
        times.push(t);
        kept = Some(plans);
    }
    Ok((kept.expect("SETUP_REPS > 0"), times))
}

/// Medians of the set-up layers as metrics: `setup_s`,
/// `deploy.unpack_ms`, `bind.prepack_ms`.
pub fn setup_metrics(times: &[SetupTimes]) -> (Metric, Metric, Metric) {
    let col = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    (
        Metric::new("setup_s", "s", col(SetupTimes::total_s)),
        Metric::new("deploy.unpack_ms", "ms", col(|t| t.unpack_ms)),
        Metric::new("bind.prepack_ms", "ms", col(|t| t.prepack_ms)),
    )
}

/// The calls of a run: pool indices grouped into executor calls, cycling
/// through the pool (which interleaves tasks, so batches are mixed).
fn call_indices(pool_len: usize, batch: usize, call: usize) -> Vec<usize> {
    (0..batch).map(|j| (call * batch + j) % pool_len).collect()
}

/// Runs one offline workload on prepared `image`/`pool`.
pub fn run(
    run: OfflineRun,
    image: &Bytes,
    pool: &[PoolItem],
) -> Result<OfflineOutcome, String> {
    let (plans, setup_times) = timed_setup(run.geometry, image)?;
    let mut exec = executor();
    let call =
        |exec: &mut HardwareExecutor, idx: &[usize]| -> Result<Vec<Vec<f32>>, String> {
            let views: Vec<&BoundNetwork> =
                idx.iter().map(|&i| &plans[pool[i].task as usize]).collect();
            let images: Vec<&Tensor> = idx.iter().map(|&i| &pool[i].input).collect();
            if views.len() == 1 {
                exec.run_image(views[0], images[0], true).map(|l| vec![l])
            } else {
                exec.run_coalesced(&views, &images, true)
            }
            .map_err(|e| e.to_string())
        };
    for c in 0..WARMUP_CALLS {
        call(&mut exec, &call_indices(pool.len(), run.batch, c))?;
    }
    let mut tally = Tally::default();
    let mut checksum = Checksum::default();
    // (completion offset s, call ms) per call; completion offset per
    // correct image
    let mut calls: Vec<(f64, f64)> = Vec::new();
    let mut images_done: Vec<f64> = Vec::new();
    let mut replays: Vec<(f64, crate::ledger::Replay)> = Vec::new();
    let mut replay_identical = true;
    let mut scratch = ConvScratch::new();
    let budget = Duration::from_secs_f64(run.seconds);
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    let mut c = 0usize;
    while started.elapsed() < budget {
        let idx = call_indices(pool.len(), run.batch, c);
        c += 1;
        let t0 = Instant::now();
        let got = call(&mut exec, &idx);
        let dt = t0.elapsed();
        busy += dt;
        let done_s = started.elapsed().as_secs_f64();
        calls.push((done_s, dt.as_secs_f64() * 1e3));
        let logits = got.as_ref().ok();
        for (k, &i) in idx.iter().enumerate() {
            let l = logits.and_then(|l| l.get(k)).map(Vec::as_slice);
            if tally.record(l, &pool[i].reference) {
                checksum.add(i, l.expect("recorded as correct"));
                images_done.push(done_s);
            }
        }
        if run.trace {
            let views: Vec<&BoundNetwork> =
                idx.iter().map(|&i| &plans[pool[i].task as usize]).collect();
            let images: Vec<&Tensor> = idx.iter().map(|&i| &pool[i].input).collect();
            let r = replay(&views, &images, SparseDispatch::Auto, &mut scratch)?;
            let same = logits.is_some_and(|l| {
                l.len() == r.logits.len()
                    && l.iter().zip(&r.logits).all(|(a, b)| crate::util::bit_equal(a, b))
            });
            replay_identical &= same;
            replays.push((dt.as_secs_f64() * 1e3, r));
        }
    }
    let span_s = started.elapsed().as_secs_f64();
    let call_ms: Vec<f64> = calls.iter().map(|c| c.1).collect();
    let (setup, unpack, prepack) = setup_metrics(&setup_times);
    let peak_mb = peak_rss_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0;
    let mut lines = vec![format!(
        "calls={} images={} batch={} busy_s={:.3}",
        calls.len(),
        tally.attempted,
        run.batch,
        busy.as_secs_f64()
    )];
    let metrics = if run.trace {
        lines.push(format!("replay bit-identical to executor: {replay_identical}"));
        let mut m = vec![unpack, prepack];
        m.extend(ledger_metrics(&replays));
        m
    } else {
        lines.push(format!(
            "latency samples={} (per executor call, {WINDOWS} windows) whole-run \
             p50_ms={:.4} p90_ms={:.4} p99_ms={:.4}",
            calls.len(),
            median(&call_ms),
            quantile(&call_ms, 0.9),
            quantile(&call_ms, 0.99)
        ));
        vec![
            setup,
            Metric::new("goodput_per_s", "1/s", windowed_rate(&images_done, span_s)),
            Metric::new("latency_p50_ms", "ms", windowed(&calls, span_s, median)),
            Metric::new(
                "latency_p90_ms",
                "ms",
                windowed(&calls, span_s, |v| quantile(v, 0.9)),
            ),
            Metric::new("peak_rss_mb", "MB", peak_mb),
        ]
    };
    Ok(OfflineOutcome { tally, checksum, metrics, replay_identical, lines })
}

/// Per-layer rows from the traced replays: medians of per-call time and
/// unattributed time; ratios from summed counts.
pub fn ledger_metrics(replays: &[(f64, crate::ledger::Replay)]) -> Vec<Metric> {
    let mut out = Vec::new();
    let Some((_, first)) = replays.first() else { return out };
    for (li, proto) in first.layers.iter().enumerate() {
        let rows: Vec<&LayerSample> = replays.iter().map(|(_, r)| &r.layers[li]).collect();
        let ms = median(&rows.iter().map(|s| s.ms).collect::<Vec<_>>());
        let sum =
            |f: fn(&LayerSample) -> u64| rows.iter().map(|s| f(s)).sum::<u64>() as f64;
        let secs = rows.iter().map(|s| s.ms).sum::<f64>() / 1e3;
        let name = &proto.name;
        out.push(Metric::new(format!("{name}.ms"), "ms", ms));
        out.push(Metric::new(
            format!("{name}.sparsity"),
            "ratio",
            sum(|s| s.zeros) / sum(|s| s.outputs).max(1.0),
        ));
        out.push(Metric::new(
            format!("{name}.skip_share"),
            "ratio",
            sum(|s| s.rows_skipped) / sum(|s| s.rows_total).max(1.0),
        ));
        out.push(Metric::new(
            format!("{name}.gflops"),
            "GFLOP/s",
            2.0 * sum(|s| s.macs) / secs / 1e9,
        ));
        out.push(Metric::new(
            format!("{name}.weight_gbps"),
            "GB/s",
            sum(|s| s.weight_bytes) / secs / 1e9,
        ));
    }
    let unattributed: Vec<f64> =
        replays.iter().map(|(exec_ms, r)| exec_ms - r.step_ms).collect();
    // the traced total (the timed replay of every step) minus the untraced
    // total (the executor call it shadows), paired per call
    let overhead: Vec<f64> =
        replays.iter().map(|(exec_ms, r)| r.wall_ms - exec_ms).collect();
    out.push(Metric::new("executor.unattributed_ms", "ms", median(&unattributed)));
    out.push(Metric::new("trace.overhead_ms", "ms", median(&overhead)));
    out.push(Metric::new("roof.copy_gbps", "GB/s", copy_roof_gbps()));
    out
}

/// Memcpy bandwidth over a buffer larger than the last-level cache: the
/// roof `weight_gbps` is read against (bytes read, counted once).
pub fn copy_roof_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    dst.copy_from_slice(&src); // fault the pages in
    let mut runs = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        runs.push(BYTES as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    median(&runs)
}
