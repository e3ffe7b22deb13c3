//! One benchmark run: prepare the seeded inputs (in a separate process,
//! so the reference model stays out of the measured one), run the
//! workload, compare every result with the reference, and produce the
//! metric set of an untraced or traced run.

use crate::model::{self, Geometry, PoolItem};
use crate::offline::{self, OfflineRun, PIPELINED_BATCH};
use crate::serve::{self, Fleet};
use crate::util::{median, quantile, read_pool, windowed, write_pool, Metric, Tally};
use crate::{check_metric_set, Workload};
use bytes::Bytes;
use mime_runtime::{derive_ladders, ComputePath, LadderConfig, SparseDispatch};
use mime_serve::proto::{read_frame, write_frame, Frame, RequestInput};
use mime_systolic::ArrayConfig;
use mime_tensor::ConvScratch;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fleet spawns per `serve-mix` run; `setup_s` is the median.
const FLEET_SPAWNS: usize = 5;

/// Share of a `serve-mix` run driven open-loop (latency); the rest is
/// driven closed-loop (goodput).
const OPEN_LOOP_SHARE: f64 = 2.0 / 3.0;

/// Calibration images and pool entries per task for each geometry. The
/// small serving model's narrow late layers need more images for their
/// measured sparsity to settle near the calibration quantile.
fn sizes(geom: Geometry) -> (usize, usize) {
    match geom {
        Geometry::Serve => (64, 64),
        Geometry::Cifar => (16, 8),
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `mime` CLI binary `serve-mix` launches.
    pub mime: PathBuf,
    /// The `perfbench` binary whose `prepare` command builds the inputs.
    pub perfbench: PathBuf,
    /// Scratch directory for the prepared images and pools.
    pub work: PathBuf,
    /// Offline workloads run the serving geometry instead of CIFAR
    /// (self-tests).
    pub tiny: bool,
}

/// A finished run.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

/// Writes `image.mime` and `pool.bin` for `geom` under `dir` and returns
/// the sparsity report lines. Fails when a task misses the Table II band.
pub fn prepare_into(geom: Geometry, seed: u64, dir: &Path) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (calibration, per_task) = sizes(geom);
    let p = model::prepare(geom, seed, calibration, per_task).map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for t in &p.sparsity {
        let per: Vec<String> =
            t.layers.iter().map(|(n, s)| format!("{n}={s:.3}")).collect();
        lines.push(format!(
            "sparsity {} {}: mean={:.4} {}",
            geom.name(),
            t.task,
            t.mean,
            per.join(" ")
        ));
    }
    if !p.in_band() {
        let (lo, hi) = model::SPARSITY_BAND;
        return Err(format!(
            "refusing to measure: a task's mean sparsity is outside {lo}..{hi}\n{}",
            lines.join("\n")
        ));
    }
    std::fs::write(dir.join("image.mime"), &p.image).map_err(|e| e.to_string())?;
    write_pool(&dir.join("pool.bin"), &p.pool).map_err(|e| e.to_string())?;
    Ok(lines)
}

struct Inputs {
    image_path: PathBuf,
    image: Bytes,
    pool: Vec<PoolItem>,
}

fn prepared(
    opts: &Options,
    geom: Geometry,
    lines: &mut Vec<String>,
) -> Result<Inputs, String> {
    let dir = opts.work.join(geom.name());
    let out = std::process::Command::new(&opts.perfbench)
        .arg("prepare")
        .args(["--geometry", geom.name(), "--seed", &opts.seed.to_string()])
        .arg("--out")
        .arg(&dir)
        .output()
        .map_err(|e| format!("spawn {} prepare: {e}", opts.perfbench.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    lines.extend(text.lines().map(str::to_string));
    if !out.status.success() {
        return Err(format!(
            "prepare {} failed: {}{}",
            geom.name(),
            text,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let image_path = dir.join("image.mime");
    let image = Bytes::from(std::fs::read(&image_path).map_err(|e| e.to_string())?);
    let pool = read_pool(&dir.join("pool.bin"))?;
    Ok(Inputs { image_path, image, pool })
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut lines = Vec::new();
    let serve_inputs = if opts.workload == Workload::ServeMix || opts.trace || opts.tiny {
        Some(prepared(opts, Geometry::Serve, &mut lines)?)
    } else {
        None
    };
    let mut outcome = match opts.workload {
        Workload::ServeMix => {
            let inputs = serve_inputs.as_ref().expect("serve inputs prepared");
            serve_mix(opts, inputs, lines)?
        }
        Workload::OfflineSingle | Workload::OfflinePipelined => {
            let geometry = if opts.tiny { Geometry::Serve } else { Geometry::Cifar };
            let inputs = match (&serve_inputs, geometry) {
                (Some(s), Geometry::Serve) => Inputs {
                    image_path: s.image_path.clone(),
                    image: s.image.clone(),
                    pool: s.pool.clone(),
                },
                _ => prepared(opts, geometry, &mut lines)?,
            };
            let batch =
                if opts.workload == Workload::OfflineSingle { 1 } else { PIPELINED_BATCH };
            let r = offline::run(
                OfflineRun { geometry, batch, seconds: opts.seconds, trace: opts.trace },
                &inputs.image,
                &inputs.pool,
            )?;
            lines.extend(r.lines);
            lines.push(format!("logits checksum: {:016x}", r.checksum.value()));
            let mut metrics = r.metrics;
            let mut tally = r.tally;
            let mut correct = r.replay_identical;
            if opts.trace {
                let s =
                    serve_inputs.as_ref().expect("serve inputs prepared for traced runs");
                let fleet = serve_layers(opts, s, opts.seconds.min(3.0), &mut lines)?;
                tally.add(&fleet.tally);
                correct &= fleet.off_rung0 == 0;
                metrics.extend(fleet.metrics);
            }
            Outcome { correct, tally, metrics, lines }
        }
    };
    if outcome.tally.attempted == 0 {
        return Err("the run measured no results".into());
    }
    outcome.correct &= outcome.tally.failed == 0;
    outcome.lines.push(format!(
        "attempted={} failed={} mismatched={} error_rate={}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.mismatched,
        outcome.tally.error_rate()
    ));
    check_metric_set(&outcome.metrics, opts.trace)?;
    Ok(outcome)
}

/// Serve-layer rows from one fleet session on the serving image.
struct FleetLayers {
    tally: Tally,
    off_rung0: u64,
    metrics: Vec<Metric>,
}

/// Starts a fleet, drives it open-loop for `seconds`, and returns the
/// client, front-door, replica, wire, proto and brownout rows.
fn serve_layers(
    opts: &Options,
    inputs: &Inputs,
    seconds: f64,
    lines: &mut Vec<String>,
) -> Result<FleetLayers, String> {
    let fleet = Fleet::start(&opts.mime, &inputs.image_path, &inputs.pool[0])?;
    let run = drive_measured(opts, &fleet, &inputs.pool, seconds);
    let scrape =
        serve::http_get(fleet.addr, "/metrics").map(|(_, b)| b).unwrap_or_default();
    fleet.stop();
    let run = run?;
    lines.push(format!("fleet session: {}", serve::describe(&run)));
    let batch_mean = serve::histogram_mean(&scrape, "mime_frontdoor_batch_size")
        .ok_or("front door exported no mime_frontdoor_batch_size histogram")?;
    let (encode_us, decode_us) = proto_costs(&inputs.pool);
    let derive_ms = brownout_derive_ms(&inputs.image)?;
    Ok(FleetLayers {
        tally: run.tally,
        off_rung0: run.off_rung0,
        metrics: vec![
            Metric::new("client.late_p99_ms", "ms", quantile(&run.late_ms, 0.99)),
            Metric::new("frontdoor.queue_p50_ms", "ms", median(&run.queue_ms)),
            Metric::new("frontdoor.batch_mean", "count", batch_mean),
            Metric::new("replica.compute_p50_ms", "ms", median(&run.compute_ms)),
            Metric::new("wire.p50_ms", "ms", median(&run.wire_ms)),
            Metric::new("proto.encode_us", "us", encode_us),
            Metric::new("proto.decode_us", "us", decode_us),
            Metric::new("brownout.derive_ms", "ms", derive_ms),
        ],
    })
}

/// A short untimed warm-up, then the seeded schedule over `seconds`.
fn drive_measured(
    opts: &Options,
    fleet: &Fleet,
    pool: &[PoolItem],
    seconds: f64,
) -> Result<serve::ClientRun, String> {
    let conns = crate::util::nproc();
    let warm =
        serve::schedule(opts.seed.wrapping_add(1), serve::RATE_PER_S, 0.5, pool.len());
    serve::drive(fleet.addr, pool, &warm, conns, None)?;
    let arrivals = serve::schedule(opts.seed, serve::RATE_PER_S, seconds, pool.len());
    serve::drive(fleet.addr, pool, &arrivals, conns, None)
}

fn serve_mix(
    opts: &Options,
    inputs: &Inputs,
    mut lines: Vec<String>,
) -> Result<Outcome, String> {
    if opts.trace {
        let fleet = serve_layers(opts, inputs, opts.seconds, &mut lines)?;
        let (plans, times) = offline::timed_setup(Geometry::Serve, &inputs.image)?;
        let (_, unpack, prepack) = offline::setup_metrics(&times);
        let (ledger, identical) =
            serve_ledger(&plans, &inputs.pool, opts.seconds.min(3.0))?;
        lines.push(format!("replay bit-identical to executor: {identical}"));
        let mut metrics = fleet.metrics;
        metrics.extend([unpack, prepack]);
        metrics.extend(ledger);
        return Ok(Outcome {
            correct: identical && fleet.off_rung0 == 0,
            tally: fleet.tally,
            metrics,
            lines,
        });
    }
    // Every fleet is timed to its first reply (setup_s) and then driven
    // closed-loop, where the fleet, not a schedule, sets the pace
    // (goodput_per_s); both are medians over the fleets. The last fleet
    // then runs the open-loop schedule (latency).
    let open_s = opts.seconds * OPEN_LOOP_SHARE;
    let closed_s = (opts.seconds - open_s) / FLEET_SPAWNS as f64;
    let mut ready = Vec::new();
    let mut rates = Vec::new();
    let mut tally = Tally::default();
    let mut off_rung0 = 0;
    let mut fleet = None;
    for k in 0..FLEET_SPAWNS {
        if let Some(f) = fleet.take() {
            Fleet::stop(f);
        }
        let f = Fleet::start(&opts.mime, &inputs.image_path, &inputs.pool[0])?;
        ready.push(f.ready_s);
        let seed = opts.seed.wrapping_add(k as u64);
        let closed = match closed_loop(&f, &inputs.pool, seed, closed_s) {
            Ok(c) => c,
            Err(e) => {
                f.stop();
                return Err(e);
            }
        };
        rates.push(closed.tally.correct() as f64 / closed.span_s);
        tally.add(&closed.tally);
        off_rung0 += closed.off_rung0;
        fleet = Some(f);
    }
    let fleet = fleet.expect("FLEET_SPAWNS > 0");
    let open = drive_measured(opts, &fleet, &inputs.pool, open_s);
    let rss_kib = fleet.peak_rss_kib();
    fleet.stop();
    let open = open?;
    tally.add(&open.tally);
    off_rung0 += open.off_rung0;
    lines.push(format!("fleet spawn to first reply (s): {ready:?}"));
    lines.push(format!("closed-loop goodput per fleet (1/s): {rates:?}"));
    lines.push(format!(
        "open loop at {} rps: {}",
        serve::RATE_PER_S,
        serve::describe(&open)
    ));
    lines.push(format!("logits checksum: {:016x}", open.checksum.value()));
    let timed: Vec<(f64, f64)> =
        open.done_s.iter().copied().zip(open.latency_ms.iter().copied()).collect();
    let p90s = crate::util::per_window(&timed, open_s, |v| quantile(v, 0.9));
    lines.push(format!("p90_ms per window: {p90s:.3?}"));
    let metrics = vec![
        Metric::new("setup_s", "s", median(&ready)),
        Metric::new("goodput_per_s", "1/s", median(&rates)),
        Metric::new("latency_p50_ms", "ms", windowed(&timed, open_s, median)),
        Metric::new("latency_p90_ms", "ms", windowed(&timed, open_s, |v| quantile(v, 0.9))),
        Metric::new("peak_rss_mb", "MB", rss_kib as f64 / 1024.0),
    ];
    Ok(Outcome { correct: off_rung0 == 0, tally, metrics, lines })
}

/// Untimed warm-up of a fresh fleet before its closed-loop phase.
const CLOSED_LOOP_WARMUP_S: f64 = 0.2;

/// A short closed-loop warm-up, then `seconds` of closed-loop requests
/// over nproc connections.
fn closed_loop(
    fleet: &Fleet,
    pool: &[PoolItem],
    seed: u64,
    seconds: f64,
) -> Result<serve::ClientRun, String> {
    let conns = crate::util::nproc();
    let drive_for = |s: u64, secs: f64| {
        let requests = serve::back_to_back(s, secs, pool.len());
        serve::drive(
            fleet.addr,
            pool,
            &requests,
            conns,
            Some(Duration::from_secs_f64(secs)),
        )
    };
    drive_for(seed.wrapping_add(1), CLOSED_LOOP_WARMUP_S)?;
    drive_for(seed, seconds)
}

/// Kernel ledger of the serving model at batch 1 (what a replica runs for
/// an unbatched request), replayed for `seconds`.
fn serve_ledger(
    plans: &[mime_runtime::BoundNetwork],
    pool: &[PoolItem],
    seconds: f64,
) -> Result<(Vec<Metric>, bool), String> {
    let mut exec = mime_runtime::HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );
    let mut scratch = ConvScratch::new();
    let mut replays = Vec::new();
    let mut identical = true;
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < Duration::from_secs_f64(seconds) || replays.is_empty() {
        let item = &pool[i % pool.len()];
        i += 1;
        let plan = &plans[item.task as usize];
        let t0 = Instant::now();
        let got = exec.run_image(plan, &item.input, true).map_err(|e| e.to_string())?;
        let exec_ms = t0.elapsed().as_secs_f64() * 1e3;
        let r = crate::ledger::replay(
            &[plan],
            &[&item.input],
            SparseDispatch::Auto,
            &mut scratch,
        )?;
        identical &= crate::util::bit_equal(&got, &r.logits[0])
            && crate::util::bit_equal(&got, &item.reference);
        replays.push((exec_ms, r));
    }
    Ok((offline::ledger_metrics(&replays), identical))
}

/// Median µs to encode (`write_frame`) and decode (`read_frame`) one
/// request's frames — its `Request` and its `Reply` — in memory.
fn proto_costs(pool: &[PoolItem]) -> (f64, f64) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut buf = Vec::with_capacity(16 << 10);
    for round in 0..2000 {
        let item = &pool[round % pool.len()];
        let frames = [
            Frame::Request {
                id: round as u64,
                trace: 0,
                task: item.task,
                deadline_ms: 0,
                rung: 0,
                input: RequestInput::Tensor(item.input.clone()),
            },
            Frame::Reply {
                id: round as u64,
                trace: 7,
                degraded: false,
                queue_us: 11,
                compute_us: 222,
                rung: 0,
                logits: item.reference.clone(),
            },
        ];
        buf.clear();
        let t0 = Instant::now();
        for f in &frames {
            write_frame(&mut buf, f).expect("writing to memory cannot fail");
        }
        let t1 = Instant::now();
        let mut r = buf.as_slice();
        for _ in 0..frames.len() {
            std::hint::black_box(read_frame(&mut r).expect("frames just written decode"));
        }
        let t2 = Instant::now();
        enc.push((t1 - t0).as_secs_f64() * 1e6);
        dec.push((t2 - t1).as_secs_f64() * 1e6);
    }
    (median(&enc), median(&dec))
}

/// Time to derive the serving replicas' brownout ladders (default depth,
/// as `mime replica-worker` does before `Ready`) on the serving image.
fn brownout_derive_ms(image: &Bytes) -> Result<f64, String> {
    let mut rx = model::receiver(Geometry::Serve).map_err(|e| e.to_string())?;
    let (plans, _) = model::load_plans(image, &mut rx)?;
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        derive_ladders(
            &plans,
            ArrayConfig::eyeriss_65nm(),
            ComputePath::Software,
            SparseDispatch::Auto,
            &LadderConfig { rungs: 4, zero_skip: true, ..LadderConfig::default() },
        )
        .map_err(|e| e.to_string())?;
        runs.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&runs))
}
