//! Replica workers: the process-level isolation unit behind the front
//! door.
//!
//! Two halves live here. [`run_replica_worker`] is the *child* side — a
//! single-threaded loop speaking [`crate::proto`] frames over
//! stdin/stdout, executing requests against a read-only packed image
//! and emitting [`Frame::Heartbeat`]s from the executor's between-layer
//! guard (so a wedged request handler stops beating and the supervisor
//! can declare it dead). [`ReplicaProc`] is the *supervisor* side — a
//! spawned [`std::process::Command`] child with piped stdio, a reader
//! thread turning its stdout into a frame channel (the channel closing
//! is the death signal), and a stderr thread republishing the child's
//! log lines through the `MIME_LOG` leveled logger under a
//! `replica=<n>` key so chaos failures are debuggable from one stream.

use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, ProtoError, RequestInput,
    MAX_SPANS_PER_CHUNK,
};
use mime_core::MimeError;
use mime_obs::flight::{self, FlightKind};
use mime_runtime::{
    derive_ladders, BoundLayer, BoundNetwork, BrownoutLadder, ComputePath,
    HardwareExecutor, LadderConfig, SparseDispatch,
};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Supervisor-side hook invoked by the stdout reader thread for
/// observability frames (`TraceChunk`, `MetricsChunk`, `ClockReply`),
/// which are consumed at arrival time — never queued behind request
/// traffic — so clock offsets and scrape snapshots stay fresh even
/// while the replica's runner is blocked on an empty queue.
pub type SideChannel = Arc<dyn Fn(u32, Frame) + Send + Sync>;

/// Replica lifecycle states, as the supervisor sees them (logged on
/// every transition; see DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Process launched, waiting for its [`Frame::Ready`].
    Spawning,
    /// Ready received; serving requests.
    Ready,
    /// In-flight request with no heartbeat inside the liveness window —
    /// presumed wedged, about to be killed.
    Suspect,
    /// Process exited (or was killed); respawn pending.
    Dead,
    /// Respawn delayed by backoff or an open per-replica breaker.
    Cooldown,
}

impl ReplicaState {
    /// Lower-case name for logs.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaState::Spawning => "spawning",
            ReplicaState::Ready => "ready",
            ReplicaState::Suspect => "suspect",
            ReplicaState::Dead => "dead",
            ReplicaState::Cooldown => "cooldown",
        }
    }
}

/// Process-level fault injection inside the replica worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaFault {
    /// No injection.
    #[default]
    None,
    /// `std::process::abort()` — uncatchable death, as a segfault or
    /// OOM-kill would look to the supervisor.
    Abort,
    /// Stop responding *and* stop heartbeating mid-request — the wedge
    /// the liveness deadline exists to catch.
    Hang,
    /// Serve, slowly: per-layer sleeps with heartbeats still flowing,
    /// so the replica stays "alive" while requests blow deadlines.
    Slow,
}

/// Knobs for the child-side worker loop.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaWorkerConfig {
    /// This replica's index (heartbeats, Ready frame, logs).
    pub replica: u32,
    /// Injected fault mode.
    pub fault: ReplicaFault,
    /// Inject on every `fault_every`-th request this replica serves
    /// (its local 1-based counter; 0 disables injection).
    pub fault_every: usize,
    /// Target heartbeat interval while a request executes.
    pub heartbeat: Duration,
    /// Deadline budget applied when a request arrives with
    /// `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Per-layer sleep under [`ReplicaFault::Slow`].
    pub slow_layer: Duration,
    /// Zero-gating on the functional array.
    pub zero_skip: bool,
    /// Sparse GEMM dispatch policy.
    pub dispatch: SparseDispatch,
    /// Ship observability frames back to the supervisor: a
    /// `MetricsChunk` per request (plus one at startup) and, when span
    /// tracing is enabled, `TraceChunk`s for stitching. Off by default
    /// so raw worker streams carry only protocol traffic.
    pub obs: bool,
    /// Brownout ladder depth derived at startup (rung 0 included; see
    /// [`mime_runtime::BrownoutLadder`]). 1 disables brownout serving —
    /// every rung request falls through to the parent path.
    pub brownout_rungs: usize,
}

impl Default for ReplicaWorkerConfig {
    fn default() -> Self {
        ReplicaWorkerConfig {
            replica: 0,
            fault: ReplicaFault::None,
            fault_every: 0,
            heartbeat: Duration::from_millis(250),
            default_deadline: Duration::from_millis(5000),
            slow_layer: Duration::from_millis(150),
            zero_skip: true,
            dispatch: SparseDispatch::Auto,
            obs: false,
            brownout_rungs: 4,
        }
    }
}

/// The child-side worker loop: announce [`Frame::Ready`], then serve
/// requests from `input` until a [`Frame::Shutdown`] or clean EOF.
///
/// Every request receives exactly one terminal frame. Panics are *not*
/// caught here — in multi-process serving the process is the isolation
/// unit, and the supervisor's requeue path is the recovery route.
///
/// # Errors
///
/// Returns an error on a malformed control stream or a broken stdout
/// pipe; the CLI surfaces it and exits non-zero (which the supervisor
/// sees as a death).
pub fn run_replica_worker(
    plans: &[BoundNetwork],
    hw: ArrayConfig,
    cfg: ReplicaWorkerConfig,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), ProtoError> {
    let parents: Vec<BoundNetwork> = plans.iter().map(|p| p.strip_thresholds()).collect();
    // Brownout ladders are derived and validated once, before Ready —
    // the supervisor never dispatches to a replica whose browned
    // variants haven't passed the rank-degradation probes.
    let ladders: Vec<BrownoutLadder> = derive_ladders(
        plans,
        hw,
        ComputePath::Software,
        cfg.dispatch,
        &LadderConfig {
            rungs: cfg.brownout_rungs.max(1),
            zero_skip: cfg.zero_skip,
            ..LadderConfig::default()
        },
    )
    .map_err(|e| ProtoError::Malformed(format!("brownout ladder derivation: {e}")))?;
    let mut exec = HardwareExecutor::with_options(hw, ComputePath::Software, cfg.dispatch);
    // Verified once, off the request path: batch coalescing requires
    // every task plan to be a view over ONE backbone (the MIME
    // invariant). A mixed-weight image — e.g. conventional per-task
    // baselines packed together — serves batches through the serial
    // per-item path instead.
    let coalesce = shares_backbone(plans);
    if !coalesce && plans.len() > 1 {
        mime_obs::warn!(
            "serve.replica",
            "plans do not share one backbone; batch coalescing disabled",
            replica = cfg.replica
        );
    }
    let mut served = 0usize;
    let mut heartbeat_seq = 0u64;
    let mut last_full_ship = std::time::Instant::now();

    write_frame(output, &Frame::Ready { replica: cfg.replica, tasks: plans.len() as u32 })
        .map_err(ProtoError::Io)?;
    mime_obs::info!("serve.replica", "replica ready", replica = cfg.replica);
    if cfg.obs {
        // Seed the supervisor's scrape cache before the first request.
        ship_obs_frames(cfg.replica, output, true)?;
    }

    loop {
        let frame = match read_frame(input) {
            Ok(frame) => frame,
            Err(ProtoError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let (id, trace, task, deadline_ms, rung, input_spec) = match frame {
            Frame::Shutdown => {
                mime_obs::info!(
                    "serve.replica",
                    "shutdown frame; draining",
                    replica = cfg.replica
                );
                if cfg.obs {
                    // Final full snapshot so the supervisor's aggregate
                    // (histograms included) is exact at drain.
                    ship_obs_frames(cfg.replica, output, true)?;
                }
                return Ok(());
            }
            Frame::ClockProbe { t0_us } => {
                write_frame(
                    output,
                    &Frame::ClockReply { t0_us, now_us: mime_obs::trace::now_us() },
                )
                .map_err(ProtoError::Io)?;
                continue;
            }
            Frame::Request { id, trace, task, deadline_ms, rung, input } => {
                (id, trace, task, deadline_ms, rung, input)
            }
            Frame::BatchRequest { items } => {
                served += 1;
                let inject = cfg.fault_every > 0 && served.is_multiple_of(cfg.fault_every);
                if inject && cfg.fault == ReplicaFault::Abort {
                    mime_obs::warn!(
                        "serve.replica",
                        "injected abort",
                        replica = cfg.replica,
                        batch = items.len()
                    );
                    flight::dump_now("abort");
                    std::process::abort();
                }
                let reply = serve_batch(
                    &mut exec,
                    plans,
                    &parents,
                    &ladders,
                    coalesce,
                    &cfg,
                    items,
                    if inject { cfg.fault } else { ReplicaFault::None },
                    &mut heartbeat_seq,
                    output,
                )?;
                if let Frame::BatchReply { items } = &reply {
                    for item in items {
                        let trace = match item {
                            Frame::Reply { trace, .. }
                            | Frame::ErrorReply { trace, .. } => *trace,
                            _ => 0,
                        };
                        flight::record(FlightKind::Terminal, trace, terminal_detail(item));
                    }
                }
                emit_terminal(&cfg, output, &mut last_full_ship, &reply)?;
                continue;
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected frame on replica control pipe: {other:?}"
                )));
            }
        };

        flight::record(FlightKind::Dequeue, trace, u64::from(task));
        served += 1;
        let inject = cfg.fault_every > 0 && served.is_multiple_of(cfg.fault_every);
        if inject && cfg.fault == ReplicaFault::Abort {
            mime_obs::warn!(
                "serve.replica",
                "injected abort",
                replica = cfg.replica,
                request = id
            );
            // The flight recorder is the whole post-mortem story for an
            // uncatchable death: dump before the process vanishes, with
            // this request still in-flight (Dequeue without Terminal).
            flight::dump_now("abort");
            std::process::abort();
        }

        let reply = serve_one(
            &mut exec,
            plans,
            &parents,
            &ladders,
            &cfg,
            id,
            trace,
            task,
            deadline_ms,
            rung,
            input_spec,
            if inject { cfg.fault } else { ReplicaFault::None },
            &mut heartbeat_seq,
            output,
        )?;
        flight::record(FlightKind::Terminal, trace, terminal_detail(&reply));
        emit_terminal(&cfg, output, &mut last_full_ship, &reply)?;
    }
}

/// Writes a terminal frame, with observability shipped first when
/// enabled. Ship spans/metrics *before* the terminal frame: once the
/// supervisor sees the reply, this request's spans are already ingested
/// — drain order is what makes the stitched trace complete for every
/// terminated request. Scalar counters ship every request (cheap map
/// copies, keeps the live scrape exact); full snapshots with histogram
/// bucket arrays are throttled — cloning and re-decoding every bucket
/// vector per request measurably slowed the serving path. The obs
/// frames and the reply coalesce into ONE pipe write: separate writes
/// meant separate reader-thread wakeups per request, which also showed
/// up in p50.
fn emit_terminal(
    cfg: &ReplicaWorkerConfig,
    output: &mut impl Write,
    last_full_ship: &mut Instant,
    reply: &Frame,
) -> Result<(), ProtoError> {
    if cfg.obs {
        match reply {
            Frame::BatchReply { items } => items.iter().for_each(record_replica_outcome),
            _ => record_replica_outcome(reply),
        }
        let full = last_full_ship.elapsed() >= FULL_SNAPSHOT_INTERVAL;
        let mut batch: Vec<u8> = Vec::with_capacity(256);
        ship_obs_frames(cfg.replica, &mut batch, full)?;
        if full {
            *last_full_ship = Instant::now();
        }
        write_frame(&mut batch, reply).map_err(ProtoError::Io)?;
        output.write_all(&batch).map_err(ProtoError::Io)?;
        output.flush().map_err(ProtoError::Io)?;
    } else {
        write_frame(output, reply).map_err(ProtoError::Io)?;
    }
    Ok(())
}

/// Outcome code stored in a `Terminal` flight event: 0 = ok,
/// 1 = degraded, `2 + ErrorCode` for typed failures.
fn terminal_detail(reply: &Frame) -> u64 {
    match reply {
        Frame::Reply { degraded, .. } => u64::from(*degraded),
        Frame::ErrorReply { code, .. } => 2 + u64::from(code.to_u8()),
        _ => u64::MAX,
    }
}

/// Bumps the replica-local `mime_replica_*` outcome counters that ride
/// back to the front door inside `MetricsChunk`s. The hot handles
/// (total + success) are resolved once — this runs per request, and a
/// registry lookup is a lock plus string hashing.
fn record_replica_outcome(reply: &Frame) {
    use std::sync::OnceLock;
    static REQUESTS: OnceLock<mime_obs::metrics::Counter> = OnceLock::new();
    static SUCCESS: OnceLock<mime_obs::metrics::Counter> = OnceLock::new();
    // One handle per rung, resolved lazily: the brownout rung a reply
    // was served at rides in the reply itself, and rungs above the
    // array bound (protocol allows u8) clamp into the last bucket.
    static RUNGS: OnceLock<[mime_obs::metrics::Counter; 8]> = OnceLock::new();
    let reg = mime_obs::metrics::global();
    REQUESTS.get_or_init(|| reg.counter("mime_replica_requests_total")).inc();
    if let Frame::Reply { rung, .. } | Frame::ErrorReply { rung, .. } = reply {
        RUNGS.get_or_init(|| {
            std::array::from_fn(|r| {
                reg.counter_with("mime_replica_rung_total", &[("rung", &r.to_string())])
            })
        })[(*rung as usize).min(7)]
        .inc();
    }
    match reply {
        Frame::Reply { degraded: false, .. } => SUCCESS
            .get_or_init(|| {
                reg.counter_with("mime_replica_outcomes_total", &[("outcome", "success")])
            })
            .inc(),
        Frame::Reply { degraded: true, .. } => reg
            .counter_with("mime_replica_outcomes_total", &[("outcome", "degraded")])
            .inc(),
        Frame::ErrorReply { code, .. } => reg
            .counter_with("mime_replica_outcomes_total", &[("outcome", code.name())])
            .inc(),
        _ => {
            reg.counter_with("mime_replica_outcomes_total", &[("outcome", "unknown")]).inc()
        }
    }
}

/// Minimum spacing between full registry snapshots (histogram bucket
/// arrays included) on the wire; scalar deltas flow every request.
const FULL_SNAPSHOT_INTERVAL: std::time::Duration = std::time::Duration::from_millis(25);

/// Drains this process's finished spans into bounded `TraceChunk`s and
/// appends one `MetricsChunk` registry snapshot — the whole registry
/// when `full`, otherwise just the counters and gauges (the supervisor
/// overlays either onto its per-replica cache). Pipe backpressure is
/// the flow control: the supervisor's reader thread consumes these at
/// arrival, and a stalled supervisor stalls the replica rather than
/// growing an unbounded buffer.
fn ship_obs_frames(
    replica: u32,
    output: &mut impl Write,
    full: bool,
) -> Result<(), ProtoError> {
    if mime_obs::trace::enabled() {
        let spans = mime_obs::trace::drain();
        for chunk in spans.chunks(MAX_SPANS_PER_CHUNK) {
            write_frame(output, &Frame::TraceChunk { replica, spans: chunk.to_vec() })
                .map_err(ProtoError::Io)?;
        }
    }
    let registry = mime_obs::metrics::global();
    let snapshot = if full { registry.snapshot() } else { registry.snapshot_scalars() };
    if !snapshot.is_empty() {
        write_frame(output, &Frame::MetricsChunk { replica, snapshot: snapshot.encode() })
            .map_err(ProtoError::Io)?;
    }
    Ok(())
}

/// The between-layer guard both serving paths hand the executor, for one
/// request or for one coalesced batch (under its lead item's `trace`).
///
/// The guard is the liveness story: heartbeats are emitted *here*,
/// between layers, so a hung handler ([`ReplicaFault::Hang`], or a real
/// wedge) stops beating and trips the supervisor's liveness deadline
/// instead of ticking along from a side thread. Past `deadline` it fails
/// the run with `DeadlineExceeded` for `task`.
fn layer_guard<'a, W: Write>(
    cfg: &'a ReplicaWorkerConfig,
    fault: ReplicaFault,
    trace: u64,
    task: String,
    deadline: Instant,
    heartbeat_seq: &'a mut u64,
    output: &'a mut W,
) -> impl FnMut(usize) -> Result<(), MimeError> + 'a {
    let mut last_beat = Instant::now();
    move |step| {
        match fault {
            ReplicaFault::Hang => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            ReplicaFault::Slow => std::thread::sleep(cfg.slow_layer),
            _ => {}
        }
        flight::record(FlightKind::Layer, trace, step as u64);
        if last_beat.elapsed() >= cfg.heartbeat / 2 {
            *heartbeat_seq += 1;
            write_frame(output, &Frame::Heartbeat { seq: *heartbeat_seq, trace })
                .map_err(|e| MimeError::io("replica control pipe", &e))?;
            last_beat = Instant::now();
        }
        let now = Instant::now();
        if now > deadline {
            return Err(MimeError::DeadlineExceeded {
                task: task.clone(),
                over_ms: (now - deadline).as_millis() as u64,
            });
        }
        Ok(())
    }
}

/// Drives one request to its terminal frame, emitting heartbeats from
/// the between-layer guard along the way.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    exec: &mut HardwareExecutor,
    plans: &[BoundNetwork],
    parents: &[BoundNetwork],
    ladders: &[BrownoutLadder],
    cfg: &ReplicaWorkerConfig,
    id: u64,
    trace: u64,
    task: u32,
    deadline_ms: u32,
    rung: u8,
    input: RequestInput,
    fault: ReplicaFault,
    heartbeat_seq: &mut u64,
    output: &mut impl Write,
) -> Result<Frame, ProtoError> {
    let mut request_span = mime_obs::trace::span_cat("replica_request", "serve.replica");
    if request_span.is_active() {
        request_span.arg("trace", trace);
        request_span.arg("request", id);
        request_span.arg("task", task);
        request_span.arg("replica", cfg.replica);
        if rung > 0 {
            request_span.arg("rung", rung);
        }
    }
    let Some(ladder) = ladders.get(task as usize) else {
        return Ok(Frame::ErrorReply {
            id,
            trace,
            code: ErrorCode::UnknownTask,
            rung,
            retry_after_ms: 0,
            message: format!("task {task} of {}", plans.len()),
        });
    };
    // Degradation order (DESIGN.md §13): rungs validated at startup
    // serve their browned threshold banks; a rung beyond the validated
    // ladder depth serves the thresholds-stripped parent path and is
    // marked degraded — quality-unknown territory the ladder refused to
    // certify. Rung 0 is the ladder's bit-identical clone of the plan.
    let (plan, beyond_ladder) = if (rung as usize) < ladder.len() {
        (ladder.plan(rung as usize), false)
    } else {
        (&parents[task as usize], true)
    };
    let image = match input {
        RequestInput::Probe(i) => crate::proto::probe_image(i as usize),
        RequestInput::Tensor(t) => t,
    };
    let budget = if deadline_ms == 0 {
        cfg.default_deadline
    } else {
        Duration::from_millis(u64::from(deadline_ms))
    };
    let started = Instant::now();
    let mut guard = layer_guard(
        cfg,
        fault,
        trace,
        format!("task{task}"),
        started + budget,
        heartbeat_seq,
        output,
    );
    let primary = (|| {
        plan.validate_thresholds()?;
        exec.run_image_guarded(plan, &image, cfg.zero_skip, &mut guard)
    })();
    let compute_us = started.elapsed().as_micros().min(u128::from(u32::MAX)) as u32;
    Ok(match primary {
        Ok(logits) => Frame::Reply {
            id,
            trace,
            degraded: beyond_ladder,
            queue_us: 0,
            compute_us,
            rung,
            logits,
        },
        Err(MimeError::DeadlineExceeded { over_ms, .. }) => Frame::ErrorReply {
            id,
            trace,
            code: ErrorCode::DeadlineExceeded,
            rung,
            retry_after_ms: 0,
            message: format!("{over_ms}ms over budget"),
        },
        Err(primary_err) => {
            // Permanent primary-path failure: the exact parent path is
            // the gentler route, exactly as the in-process server
            // degrades (PR 1's fallback).
            mime_obs::warn!(
                "serve.replica",
                "primary path failed; serving parent fallback",
                replica = cfg.replica,
                request = id,
                error = primary_err
            );
            match exec.run_image_guarded(
                &parents[task as usize],
                &image,
                cfg.zero_skip,
                &mut guard,
            ) {
                Ok(logits) => {
                    let compute_us =
                        started.elapsed().as_micros().min(u128::from(u32::MAX)) as u32;
                    Frame::Reply {
                        id,
                        trace,
                        degraded: true,
                        queue_us: 0,
                        compute_us,
                        rung,
                        logits,
                    }
                }
                Err(MimeError::DeadlineExceeded { over_ms, .. }) => Frame::ErrorReply {
                    id,
                    trace,
                    code: ErrorCode::DeadlineExceeded,
                    rung,
                    retry_after_ms: 0,
                    message: format!("{over_ms}ms over budget"),
                },
                Err(parent_err) => Frame::ErrorReply {
                    id,
                    trace,
                    code: ErrorCode::FailedAfterRetries,
                    rung,
                    retry_after_ms: 0,
                    message: format!("primary: {primary_err}; parent: {parent_err}"),
                },
            }
        }
    })
}

/// Drives one coalesced batch to its [`Frame::BatchReply`] (one
/// terminal sub-frame per item, in request order).
///
/// Each item resolves its plan view exactly as [`serve_one`] would:
/// unknown task → typed error; a rung beyond the validated ladder or an
/// invalid threshold bank → the thresholds-stripped parent, marked
/// degraded. All runnable items then execute as ONE pass over the
/// shared backbone ([`HardwareExecutor::run_coalesced_guarded`]) — the
/// weights stream once for the whole batch and only per-sample
/// threshold banks are swapped between samples — so per-item logits are
/// bit-identical to serial serving.
///
/// The batch runs under the loosest in-batch deadline budget (the front
/// door already closed the batch window against the *tightest* one);
/// items whose own budget lapsed by the end fail individually with
/// `DeadlineExceeded`. A pass stopped by that loosest budget is past
/// every item's budget, so every item fails `DeadlineExceeded` without
/// another pass. Any other whole-batch failure (malformed input,
/// non-finite logits), or a mixed-weight image with coalescing
/// disabled, falls back to the serial per-item path, preserving
/// single-request semantics — parent fallback included.
#[allow(clippy::too_many_arguments)]
fn serve_batch(
    exec: &mut HardwareExecutor,
    plans: &[BoundNetwork],
    parents: &[BoundNetwork],
    ladders: &[BrownoutLadder],
    coalesce: bool,
    cfg: &ReplicaWorkerConfig,
    items: Vec<Frame>,
    fault: ReplicaFault,
    heartbeat_seq: &mut u64,
    output: &mut impl Write,
) -> Result<Frame, ProtoError> {
    struct Req {
        id: u64,
        trace: u64,
        task: u32,
        deadline_ms: u32,
        rung: u8,
    }
    let mut reqs = Vec::with_capacity(items.len());
    let mut inputs = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Frame::Request { id, trace, task, deadline_ms, rung, input } => {
                flight::record(FlightKind::Dequeue, trace, u64::from(task));
                reqs.push(Req { id, trace, task, deadline_ms, rung });
                inputs.push(input);
            }
            other => {
                // the decoder already rejects these on the wire; guard
                // against in-process construction too
                return Err(ProtoError::Malformed(format!(
                    "unexpected frame inside BatchRequest: {other:?}"
                )));
            }
        }
    }
    let mut span = mime_obs::trace::span_cat("replica_batch", "serve.replica");
    if span.is_active() {
        span.arg("batch", reqs.len());
        span.arg("replica", cfg.replica);
    }
    let mut replies: Vec<Option<Frame>> = (0..reqs.len()).map(|_| None).collect();
    // (item index, plan view, degraded, image, budget)
    let mut run: Vec<(usize, &BoundNetwork, bool, Tensor, Duration)> =
        Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let Some(ladder) = ladders.get(r.task as usize) else {
            replies[i] = Some(Frame::ErrorReply {
                id: r.id,
                trace: r.trace,
                code: ErrorCode::UnknownTask,
                rung: r.rung,
                retry_after_ms: 0,
                message: format!("task {} of {}", r.task, plans.len()),
            });
            continue;
        };
        let (plan, beyond_ladder) = if (r.rung as usize) < ladder.len() {
            (ladder.plan(r.rung as usize), false)
        } else {
            (&parents[r.task as usize], true)
        };
        // pre-substitute the degradation serial serving reaches: an
        // invalid bank never runs the primary path
        let (plan, degraded) = if plan.validate_thresholds().is_ok() {
            (plan, beyond_ladder)
        } else {
            (&parents[r.task as usize], true)
        };
        let image = match &inputs[i] {
            RequestInput::Probe(p) => crate::proto::probe_image(*p as usize),
            RequestInput::Tensor(t) => t.clone(),
        };
        let budget = if r.deadline_ms == 0 {
            cfg.default_deadline
        } else {
            Duration::from_millis(u64::from(r.deadline_ms))
        };
        run.push((i, plan, degraded, image, budget));
    }
    if !run.is_empty() {
        let started = Instant::now();
        let max_budget = run.iter().map(|(.., b)| *b).max().expect("run is non-empty");
        let views: Vec<&BoundNetwork> = run.iter().map(|&(_, p, ..)| p).collect();
        let images: Vec<&Tensor> = run.iter().map(|(_, _, _, img, _)| img).collect();
        let coalesced = coalesce.then(|| {
            let mut guard = layer_guard(
                cfg,
                fault,
                reqs[run[0].0].trace,
                "batch".to_string(),
                started + max_budget,
                heartbeat_seq,
                output,
            );
            exec.run_coalesced_guarded(&views, &images, cfg.zero_skip, &mut guard)
        });
        let lapsed = |r: &Req, over: Duration| Frame::ErrorReply {
            id: r.id,
            trace: r.trace,
            code: ErrorCode::DeadlineExceeded,
            rung: r.rung,
            retry_after_ms: 0,
            message: format!("{}ms over budget (batched)", over.as_millis()),
        };
        match coalesced {
            Some(Ok(all_logits)) => {
                let elapsed = started.elapsed();
                // per-item compute attribution: an equal share of the
                // one backbone pass (what the front door's batch-close
                // EWMA consumes)
                let share_us = (elapsed.as_micros() / run.len().max(1) as u128)
                    .min(u128::from(u32::MAX)) as u32;
                for ((i, _, degraded, _, budget), logits) in run.iter().zip(all_logits) {
                    let r = &reqs[*i];
                    replies[*i] = Some(if elapsed > *budget {
                        lapsed(r, elapsed - *budget)
                    } else {
                        Frame::Reply {
                            id: r.id,
                            trace: r.trace,
                            degraded: *degraded,
                            queue_us: 0,
                            compute_us: share_us,
                            rung: r.rung,
                            logits,
                        }
                    });
                }
            }
            Some(Err(MimeError::DeadlineExceeded { .. })) => {
                // past the loosest budget is past every item's own
                // budget: answer each now instead of re-running it
                let elapsed = started.elapsed();
                for (i, .., budget) in &run {
                    replies[*i] = Some(lapsed(&reqs[*i], elapsed.saturating_sub(*budget)));
                }
            }
            outcome => {
                if let Some(Err(e)) = outcome {
                    mime_obs::warn!(
                        "serve.replica",
                        "coalesced batch failed; serving items serially",
                        replica = cfg.replica,
                        batch = views.len(),
                        error = e
                    );
                }
                for (i, _, _, image, _) in &run {
                    let r = &reqs[*i];
                    replies[*i] = Some(serve_one(
                        exec,
                        plans,
                        parents,
                        ladders,
                        cfg,
                        r.id,
                        r.trace,
                        r.task,
                        r.deadline_ms,
                        r.rung,
                        RequestInput::Tensor(image.clone()),
                        fault,
                        heartbeat_seq,
                        output,
                    )?);
                }
            }
        }
    }
    Ok(Frame::BatchReply {
        items: replies
            .into_iter()
            .map(|r| r.expect("every batch item resolves to a terminal frame"))
            .collect(),
    })
}

/// Whether every plan is a view over ONE backbone, bit-for-bit (weights
/// and biases). Checked once at startup — this is what licenses running
/// a mixed-task batch through a single coalesced pass using the lead
/// plan's weights.
fn shares_backbone(plans: &[BoundNetwork]) -> bool {
    let Some((lead, rest)) = plans.split_first() else { return true };
    rest.iter().all(|p| {
        p.steps().len() == lead.steps().len()
            && lead.steps().iter().zip(p.steps()).all(|(a, b)| match (a, b) {
                (
                    BoundLayer::Array { weight: wa, bias: ba, .. },
                    BoundLayer::Array { weight: wb, bias: bb, .. },
                ) => wa.bits_eq(wb) && ba.bits_eq(bb),
                (BoundLayer::Pool, BoundLayer::Pool) => true,
                (BoundLayer::Flatten, BoundLayer::Flatten) => true,
                _ => false,
            })
    })
}

/// A spawned replica process as the supervisor holds it: piped stdin
/// for dispatch, a frame channel fed by a stdout reader thread (the
/// channel disconnecting *is* the death signal), and a stderr thread
/// republishing the child's log lines under `replica=<n>`.
pub struct ReplicaProc {
    /// Replica slot index.
    pub index: u32,
    child: Child,
    stdin: ChildStdin,
    frames: mpsc::Receiver<Frame>,
}

impl ReplicaProc {
    /// Spawns `argv` with piped stdio and blocks until the child's
    /// [`Frame::Ready`] arrives (at most `spawn_timeout`). On timeout
    /// or early death the child is killed and reaped.
    ///
    /// # Errors
    ///
    /// Any spawn failure, plus ready-timeout / death-before-ready as
    /// `io::Error`s, so the caller's restart budget sees them all the
    /// same way.
    pub fn spawn(
        index: u32,
        argv: &[String],
        spawn_timeout: Duration,
    ) -> std::io::Result<ReplicaProc> {
        Self::spawn_with_side_channel(index, argv, spawn_timeout, None)
    }

    /// [`ReplicaProc::spawn`], with observability frames (`TraceChunk`,
    /// `MetricsChunk`, `ClockReply`) routed to `side` from the reader
    /// thread instead of the frame channel, so they are ingested the
    /// moment they arrive. With `side == None` they flow through the
    /// channel like any other frame.
    ///
    /// # Errors
    ///
    /// As [`ReplicaProc::spawn`].
    pub fn spawn_with_side_channel(
        index: u32,
        argv: &[String],
        spawn_timeout: Duration,
        side: Option<SideChannel>,
    ) -> std::io::Result<ReplicaProc> {
        let (program, args) = argv.split_first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty replica argv")
        })?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let stderr = child.stderr.take().expect("piped stderr");

        let (tx, frames) = mpsc::channel::<Frame>();
        std::thread::spawn(move || {
            // Reader exits (dropping tx) on EOF or any stream error —
            // either way the supervisor sees a disconnected channel.
            while let Ok(frame) = read_frame(&mut stdout) {
                if let Some(side) = side.as_ref() {
                    if matches!(
                        frame,
                        Frame::TraceChunk { .. }
                            | Frame::MetricsChunk { .. }
                            | Frame::ClockReply { .. }
                    ) {
                        side(index, frame);
                        continue;
                    }
                }
                if tx.send(frame).is_err() {
                    return;
                }
            }
        });
        std::thread::spawn(move || relog_stderr(index, stderr));

        let mut proc = ReplicaProc { index, child, stdin, frames };
        match proc.frames.recv_timeout(spawn_timeout) {
            Ok(Frame::Ready { tasks, .. }) => {
                mime_obs::info!(
                    "serve.frontdoor",
                    "replica ready",
                    replica = index,
                    tasks = tasks
                );
                Ok(proc)
            }
            Ok(other) => {
                proc.kill_and_reap();
                Err(std::io::Error::other(format!(
                    "replica {index} sent {other:?} before Ready"
                )))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                proc.kill_and_reap();
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("replica {index} not ready within {spawn_timeout:?}"),
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = proc.kill_and_reap();
                Err(std::io::Error::other(format!(
                    "replica {index} died before Ready (status {status:?})"
                )))
            }
        }
    }

    /// Writes one frame to the child's stdin.
    ///
    /// # Errors
    ///
    /// A broken pipe here means the child died; the caller routes
    /// through its death path.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut self.stdin, frame)
    }

    /// Waits up to `timeout` for the next frame from the child.
    /// `Err(Disconnected)` means the child's stdout closed — death.
    ///
    /// # Errors
    ///
    /// Propagates the channel's timeout/disconnect verbatim.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, mpsc::RecvTimeoutError> {
        self.frames.recv_timeout(timeout)
    }

    /// Whether the process has exited (non-blocking).
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// SIGKILLs (if still running) and reaps the child, returning its
    /// exit status when one could be collected.
    pub fn kill_and_reap(&mut self) -> Option<std::process::ExitStatus> {
        let _ = self.child.kill();
        self.child.wait().ok()
    }

    /// Graceful stop for drain: send [`Frame::Shutdown`], give the
    /// child `grace` to exit on its own, then kill whatever is left.
    pub fn shutdown(&mut self, grace: Duration) {
        let _ = self.send(&Frame::Shutdown);
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if !self.is_alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill_and_reap();
    }
}

impl Drop for ReplicaProc {
    fn drop(&mut self) {
        // Never leak a child process, whatever path dropped us.
        self.kill_and_reap();
    }
}

/// Republishes one replica's stderr through the `MIME_LOG` logger with
/// a `replica=<n>` key. Lines already emitted by the child's own
/// structured logger keep their level (matched on the `level=` token);
/// anything else — panic messages, libc complaints — surfaces at warn.
fn relog_stderr(index: u32, stderr: impl Read) {
    use mime_obs::log::Level;
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { return };
        if line.is_empty() {
            continue;
        }
        let level = ["error", "warn", "info", "debug", "trace"]
            .iter()
            .find(|l| line.contains(&format!("level={l}")))
            .and_then(|l| Level::parse(l).ok().flatten())
            .unwrap_or(Level::Warn);
        mime_obs::log::log(level, "serve.replica", &line, &[("replica", &index)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_core::faults::FaultInjector;
    use mime_core::{MimeNetwork, MultiTaskModel};
    use mime_nn::{build_network, vgg16_arch};
    use mime_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_plans(tasks: usize) -> (Vec<BoundNetwork>, ArrayConfig) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let parent = build_network(&arch, &mut rng);
        let net = MimeNetwork::from_trained(&arch, &parent, 0.02).unwrap();
        let mut model = MultiTaskModel::new(net);
        for i in 0..tasks {
            let banks = model
                .network()
                .export_thresholds()
                .into_iter()
                .map(|t| t.map(|_| 0.02 + 0.05 * i as f32))
                .collect();
            model.register_task(format!("task{i}"), banks).unwrap();
        }
        let plans = (0..tasks)
            .map(|i| {
                model.activate(&format!("task{i}")).unwrap();
                BoundNetwork::from_mime(model.network()).unwrap()
            })
            .collect();
        (plans, ArrayConfig::default())
    }

    /// A plan whose threshold bank fails validation (NaN-poisoned).
    fn poisoned_plan() -> (BoundNetwork, ArrayConfig) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let parent = build_network(&arch, &mut rng);
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.02).unwrap();
        let mut banks = net.export_thresholds();
        FaultInjector::new(7).poison_tensor(&mut banks[0], 2);
        net.import_thresholds(&banks).unwrap();
        (BoundNetwork::from_mime(&net).unwrap(), ArrayConfig::default())
    }

    fn roundtrip_worker(
        plans: &[BoundNetwork],
        hw: ArrayConfig,
        cfg: ReplicaWorkerConfig,
        inbound: &[Frame],
    ) -> Vec<Frame> {
        let mut input = Vec::new();
        for f in inbound {
            write_frame(&mut input, f).unwrap();
        }
        let mut output = Vec::new();
        run_replica_worker(plans, hw, cfg, &mut input.as_slice(), &mut output).unwrap();
        let mut frames = Vec::new();
        let mut cursor = output.as_slice();
        loop {
            match read_frame(&mut cursor) {
                Ok(f) => frames.push(f),
                Err(ProtoError::Closed) => return frames,
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn worker_serves_requests_then_drains_on_shutdown() {
        let (plans, hw) = tiny_plans(2);
        let cfg = ReplicaWorkerConfig::default();
        let frames = roundtrip_worker(
            &plans,
            hw,
            cfg,
            &[
                Frame::Request {
                    id: 1,
                    trace: 101,
                    task: 0,
                    deadline_ms: 0,
                    rung: 0,
                    input: RequestInput::Probe(0),
                },
                Frame::Request {
                    id: 2,
                    trace: 102,
                    task: 1,
                    deadline_ms: 0,
                    rung: 0,
                    input: RequestInput::Probe(1),
                },
                Frame::Shutdown,
            ],
        );
        assert!(matches!(frames[0], Frame::Ready { tasks: 2, .. }));
        let replies: Vec<&Frame> = frames
            .iter()
            .filter(|f| matches!(f, Frame::Reply { .. } | Frame::ErrorReply { .. }))
            .collect();
        assert_eq!(replies.len(), 2, "one terminal frame per request: {frames:?}");
        for (reply, want_id) in replies.iter().zip([1u64, 2]) {
            match reply {
                Frame::Reply { id, trace, degraded, logits, .. } => {
                    assert_eq!(*id, want_id);
                    assert_eq!(*trace, 100 + want_id, "trace echoed");
                    assert!(!degraded);
                    assert!(!logits.is_empty());
                    assert!(logits.iter().all(|v| v.is_finite()));
                }
                other => panic!("expected Reply, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_unknown_task_and_bad_input_are_typed_errors() {
        let (plans, hw) = tiny_plans(1);
        let cfg = ReplicaWorkerConfig::default();
        let frames = roundtrip_worker(
            &plans,
            hw,
            cfg,
            &[
                Frame::Request {
                    id: 10,
                    trace: 0,
                    task: 9,
                    deadline_ms: 0,
                    rung: 0,
                    input: RequestInput::Probe(0),
                },
                Frame::Request {
                    id: 11,
                    trace: 0,
                    task: 0,
                    deadline_ms: 0,
                    rung: 0,
                    input: RequestInput::Tensor(
                        Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(),
                    ),
                },
            ],
        );
        assert!(matches!(
            frames[1],
            Frame::ErrorReply { id: 10, code: ErrorCode::UnknownTask, .. }
        ));
        // a shape-mismatched tensor fails both paths → FailedAfterRetries
        assert!(matches!(
            frames[2],
            Frame::ErrorReply { id: 11, code: ErrorCode::FailedAfterRetries, .. }
        ));
    }

    #[test]
    fn worker_poisoned_bank_degrades_to_parent() {
        let (plan, hw) = poisoned_plan();
        let cfg = ReplicaWorkerConfig::default();
        let frames = roundtrip_worker(
            &[plan],
            hw,
            cfg,
            &[Frame::Request {
                id: 5,
                trace: 0,
                task: 0,
                deadline_ms: 0,
                rung: 0,
                input: RequestInput::Probe(2),
            }],
        );
        match &frames[1] {
            Frame::Reply { id: 5, degraded: true, logits, .. } => {
                assert!(logits.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected degraded Reply, got {other:?}"),
        }
    }

    #[test]
    fn worker_batch_reply_is_bit_identical_to_serial_requests() {
        let (plans, hw) = tiny_plans(3);
        let cfg = ReplicaWorkerConfig::default();
        let mk = |id: u64, task: u32, rung: u8| Frame::Request {
            id,
            trace: 200 + id,
            task,
            deadline_ms: 0,
            rung,
            input: RequestInput::Probe(id as u32),
        };
        // mixed tasks, mixed rungs, one unknown task in the middle
        let items = vec![mk(1, 0, 0), mk(2, 1, 1), mk(3, 9, 0), mk(4, 2, 0), mk(5, 0, 3)];
        let mut serial_in: Vec<Frame> = items.clone();
        serial_in.push(Frame::Shutdown);
        let serial = roundtrip_worker(&plans, hw, cfg, &serial_in);
        let batched = roundtrip_worker(
            &plans,
            hw,
            cfg,
            &[Frame::BatchRequest { items: items.clone() }, Frame::Shutdown],
        );
        let batch_reply = batched
            .iter()
            .find_map(|f| match f {
                Frame::BatchReply { items } => Some(items),
                _ => None,
            })
            .expect("one BatchReply");
        assert_eq!(batch_reply.len(), items.len());
        let serial_terminals: Vec<&Frame> = serial
            .iter()
            .filter(|f| matches!(f, Frame::Reply { .. } | Frame::ErrorReply { .. }))
            .collect();
        assert_eq!(serial_terminals.len(), items.len());
        for (got, want) in batch_reply.iter().zip(serial_terminals) {
            match (got, want) {
                (
                    Frame::Reply { id: ga, degraded: da, rung: ra, logits: la, .. },
                    Frame::Reply { id: gb, degraded: db, rung: rb, logits: lb, .. },
                ) => {
                    assert_eq!(ga, gb);
                    assert_eq!(da, db);
                    assert_eq!(ra, rb);
                    assert_eq!(la.len(), lb.len());
                    assert!(
                        la.iter().zip(lb).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "batched logits diverged from serial for id {ga}"
                    );
                }
                (
                    Frame::ErrorReply { id: ga, code: ca, .. },
                    Frame::ErrorReply { id: gb, code: cb, .. },
                ) => {
                    assert_eq!(ga, gb);
                    assert_eq!(ca, cb);
                }
                other => panic!("terminal kind diverged: {other:?}"),
            }
        }
        // the unknown task surfaced as a typed error in position
        assert!(matches!(
            batch_reply[2],
            Frame::ErrorReply { id: 3, code: ErrorCode::UnknownTask, .. }
        ));
    }

    #[test]
    fn worker_slow_fault_blows_a_tight_deadline() {
        let (plans, hw) = tiny_plans(1);
        let cfg = ReplicaWorkerConfig {
            fault: ReplicaFault::Slow,
            fault_every: 1,
            slow_layer: Duration::from_millis(40),
            // below slow_layer, so every guarded layer beats once
            heartbeat: Duration::from_millis(20),
            ..ReplicaWorkerConfig::default()
        };
        let frames = roundtrip_worker(
            &plans,
            hw,
            cfg,
            &[Frame::Request {
                id: 3,
                trace: 0,
                task: 0,
                deadline_ms: 50,
                rung: 0,
                input: RequestInput::Probe(0),
            }],
        );
        let terminal = frames
            .iter()
            .find(|f| matches!(f, Frame::Reply { .. } | Frame::ErrorReply { .. }))
            .unwrap();
        assert!(
            matches!(
                terminal,
                Frame::ErrorReply { id: 3, code: ErrorCode::DeadlineExceeded, .. }
            ),
            "slow injection with a 50ms budget must blow the deadline: {terminal:?}"
        );

        // A batch that blows its (loosest) budget is answered after ONE
        // backbone pass: the guard stops it by the second layer, so it
        // beats at most twice. Re-serving each item serially would run
        // two more passes (six beats in all) and start fresh budgets.
        let item = |id: u64| Frame::Request {
            id,
            trace: 300 + id,
            task: 0,
            deadline_ms: 50,
            rung: 0,
            input: RequestInput::Probe(id as u32),
        };
        let frames = roundtrip_worker(
            &plans,
            hw,
            cfg,
            &[Frame::BatchRequest { items: vec![item(1), item(2)] }],
        );
        let Some(Frame::BatchReply { items }) =
            frames.iter().find(|f| matches!(f, Frame::BatchReply { .. }))
        else {
            panic!("one BatchReply: {frames:?}");
        };
        assert_eq!(items.len(), 2);
        for (got, want_id) in items.iter().zip([1u64, 2]) {
            assert!(
                matches!(
                    got,
                    Frame::ErrorReply { id, code: ErrorCode::DeadlineExceeded, .. }
                        if *id == want_id
                ),
                "every batch item must end DeadlineExceeded: {got:?}"
            );
        }
        let beats = frames.iter().filter(|f| matches!(f, Frame::Heartbeat { .. })).count();
        assert!(
            (1..=2).contains(&beats),
            "one backbone pass beats once or twice, got {beats}"
        );
    }
}
