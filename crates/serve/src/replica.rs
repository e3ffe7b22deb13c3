//! Replica workers: the process-level isolation unit behind the front
//! door.
//!
//! Two halves live here. [`run_replica_worker`] is the *child* side — a
//! single-threaded loop speaking [`crate::proto`] frames over
//! stdin/stdout, executing each `BatchRequest` (one request or more)
//! against a read-only packed image and emitting [`Frame::Heartbeat`]s
//! from the executor's between-layer guard (so a wedged request handler
//! stops beating and the supervisor can declare it dead).
//! [`ReplicaProc`] is the *supervisor* side — a spawned
//! [`std::process::Command`] child with piped stdio, a reader thread
//! turning its stdout into a frame channel (the channel closing is the
//! death signal), and a stderr thread republishing the child's log lines
//! through the `MIME_LOG` leveled logger under a `replica=<n>` key so
//! chaos failures are debuggable from one stream.

use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, ProtoError, RequestInput,
    MAX_SPANS_PER_CHUNK,
};
use mime_core::MimeError;
use mime_obs::flight::{self, FlightKind};
use mime_runtime::{
    derive_ladders, BoundNetwork, BrownoutLadder, ComputePath, HardwareExecutor,
    LadderConfig, SparseDispatch,
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
    /// Inject on every `fault_every`-th dispatch this replica receives
    /// (its local 1-based count of `BatchRequest`s: a batch counts once,
    /// whatever its size; 0 disables injection).
    pub fault_every: usize,
    /// Target heartbeat interval while a request executes.
    pub heartbeat: Duration,
    /// Deadline budget applied when a request arrives with
    /// `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Per-layer sleep under [`ReplicaFault::Slow`].
    pub slow_layer: Duration,
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
            obs: false,
            brownout_rungs: 4,
        }
    }
}

/// The child-side worker loop: announce [`Frame::Ready`], then serve
/// [`Frame::BatchRequest`]s from `input` until a [`Frame::Shutdown`] or
/// clean EOF.
///
/// Every request item receives exactly one terminal frame. Panics are
/// *not* caught here — in multi-process serving the process is the
/// isolation unit, and the supervisor's requeue path is the recovery
/// route.
///
/// # Errors
///
/// Returns an error on a malformed control stream (including a bare
/// [`Frame::Request`]: requests arrive only as batch items) or a broken
/// stdout pipe; the CLI surfaces it and exits non-zero (which the
/// supervisor sees as a death).
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
        SparseDispatch::Auto,
        &LadderConfig { rungs: cfg.brownout_rungs.max(1), ..LadderConfig::default() },
    )
    .map_err(|e| ProtoError::Malformed(format!("brownout ladder derivation: {e}")))?;
    let rungs = ladders
        .iter()
        .zip(&parents)
        .map(|(ladder, parent)| {
            (0..ladder.len())
                .map(|rung| {
                    let plan = ladder.plan(rung);
                    if plan.validate_thresholds().is_ok() {
                        (plan, false)
                    } else {
                        (parent, true)
                    }
                })
                .collect()
        })
        .collect();
    let mut worker = Worker {
        cfg: &cfg,
        parents: &parents,
        rungs,
        exec: HardwareExecutor::with_options(
            hw,
            ComputePath::Software,
            SparseDispatch::Auto,
        ),
        heartbeat_seq: 0,
    };
    let mut served = 0usize;
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
        let items = match frame {
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
            Frame::BatchRequest { items } => items,
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected frame on replica control pipe: {other:?}"
                )));
            }
        };
        let mut requests = Vec::with_capacity(items.len());
        for item in items {
            let Frame::Request { id, trace, task, deadline_ms, rung, input } = item else {
                // the decoder already rejects these on the wire; guard
                // against in-process construction too
                return Err(ProtoError::Malformed(format!(
                    "unexpected frame inside BatchRequest: {item:?}"
                )));
            };
            flight::record(FlightKind::Dequeue, trace, u64::from(task));
            requests.push(Request { id, trace, task, deadline_ms, rung, input });
        }

        served += 1;
        let inject = cfg.fault_every > 0 && served.is_multiple_of(cfg.fault_every);
        if inject && cfg.fault == ReplicaFault::Abort {
            mime_obs::warn!(
                "serve.replica",
                "injected abort",
                replica = cfg.replica,
                batch = requests.len()
            );
            // The flight recorder is the whole post-mortem story for an
            // uncatchable death: dump before the process vanishes, with
            // these requests still in flight (Dequeue without Terminal).
            flight::dump_now("abort");
            std::process::abort();
        }
        let fault = if inject { cfg.fault } else { ReplicaFault::None };
        let replies = worker.serve_batch(requests, fault, output)?;
        emit_terminal(&cfg, output, &mut last_full_ship, &replies)?;
    }
}

/// Writes one batch's terminal frames, with observability shipped first
/// when enabled. Ship spans/metrics *before* the terminal frames: once
/// the supervisor sees a reply, its request's spans are already
/// ingested — drain order is what makes the stitched trace complete for
/// every terminated request. Scalar counters ship every batch (cheap
/// map copies, keeps the live scrape exact); full snapshots with
/// histogram bucket arrays are throttled — cloning and re-decoding every
/// bucket vector per request measurably slowed the serving path. The
/// obs frames and the replies coalesce into ONE pipe write: separate
/// writes meant separate reader-thread wakeups, which also showed up in
/// p50.
fn emit_terminal(
    cfg: &ReplicaWorkerConfig,
    output: &mut impl Write,
    last_full_ship: &mut Instant,
    replies: &[Frame],
) -> Result<(), ProtoError> {
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    if cfg.obs {
        replies.iter().for_each(record_replica_outcome);
        let full = last_full_ship.elapsed() >= FULL_SNAPSHOT_INTERVAL;
        ship_obs_frames(cfg.replica, &mut buf, full)?;
        if full {
            *last_full_ship = Instant::now();
        }
    }
    for reply in replies {
        if let Frame::Reply { trace, .. } | Frame::ErrorReply { trace, .. } = reply {
            flight::record(FlightKind::Terminal, *trace, terminal_detail(reply));
        }
        write_frame(&mut buf, reply).map_err(ProtoError::Io)?;
    }
    output.write_all(&buf).map_err(ProtoError::Io)?;
    output.flush().map_err(ProtoError::Io)
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

/// The between-layer guard handed to the executor for one pass, under
/// its lead item's `trace`.
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
    task: u32,
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
                task: format!("task{task}"),
                over_ms: (now - deadline).as_millis() as u64,
            });
        }
        Ok(())
    }
}

/// The fields of one [`Frame::Request`] item of a `BatchRequest`.
struct Request {
    id: u64,
    trace: u64,
    task: u32,
    deadline_ms: u32,
    rung: u8,
    input: RequestInput,
}

/// A request resolved to what a pass runs.
struct Item<'a> {
    id: u64,
    trace: u64,
    task: u32,
    rung: u8,
    /// The plan view it runs on: its ladder rung, or the parent.
    plan: &'a BoundNetwork,
    /// Served by the thresholds-stripped parent.
    degraded: bool,
    image: Tensor,
    budget: Duration,
}

/// One replica's serving state, built once before `Ready`.
struct Worker<'a> {
    cfg: &'a ReplicaWorkerConfig,
    /// Each plan with its thresholds stripped: the exact parent path.
    parents: &'a [BoundNetwork],
    /// Per task, the view each validated ladder rung serves and whether
    /// it is degraded: the rung's plan when its banks pass
    /// `validate_thresholds`, else the task's parent. Ladders never
    /// change after `Ready`, so this is worked out once.
    rungs: Vec<Vec<(&'a BoundNetwork, bool)>>,
    exec: HardwareExecutor,
    heartbeat_seq: u64,
}

impl<'a> Worker<'a> {
    /// Drives one `BatchRequest` to its terminal frames, one per item in
    /// request order, emitting heartbeats from the between-layer guard.
    ///
    /// Each item gets its own `replica_request` span and resolves its
    /// plan view: unknown task → typed error; a rung beyond the
    /// validated ladder or an invalid threshold bank → the
    /// thresholds-stripped parent, marked degraded. The runnable items
    /// then run as one pass ([`Worker::run_pass`]).
    fn serve_batch(
        &mut self,
        requests: Vec<Request>,
        fault: ReplicaFault,
        output: &mut impl Write,
    ) -> Result<Vec<Frame>, ProtoError> {
        let batch = requests.len();
        let _spans: Vec<_> = requests
            .iter()
            .map(|r| {
                let mut span =
                    mime_obs::trace::span_cat("replica_request", "serve.replica");
                if span.is_active() {
                    span.arg("trace", r.trace);
                    span.arg("request", r.id);
                    span.arg("task", r.task);
                    span.arg("replica", self.cfg.replica);
                    span.arg("batch", batch);
                    if r.rung > 0 {
                        span.arg("rung", r.rung);
                    }
                }
                span
            })
            .collect();
        let resolved: Vec<_> = requests.into_iter().map(|r| self.resolve(r)).collect();
        let runnable: Vec<&Item<'a>> = resolved.iter().flatten().collect();
        let mut answers = self.run_pass(&runnable, fault, output)?.into_iter();
        Ok(resolved
            .into_iter()
            .map(|r| match r {
                Ok(_) => answers.next().expect("one answer per runnable item"),
                Err(reply) => reply,
            })
            .collect())
    }

    /// The plan view, input image and budget `r` runs with, or its
    /// terminal frame when it cannot run. Degradation order (DESIGN.md
    /// §13): rungs validated at startup serve their browned threshold
    /// banks; a rung beyond the validated ladder depth serves the
    /// thresholds-stripped parent path and is marked degraded —
    /// quality-unknown territory the ladder refused to certify — as does
    /// a rung whose banks failed validation when the worker was built.
    /// Rung 0 is the ladder's bit-identical clone of the plan.
    fn resolve(&self, r: Request) -> Result<Item<'a>, Frame> {
        let Some(rungs) = self.rungs.get(r.task as usize) else {
            return Err(Frame::ErrorReply {
                id: r.id,
                trace: r.trace,
                code: ErrorCode::UnknownTask,
                rung: r.rung,
                retry_after_ms: 0,
                message: format!("task {} of {}", r.task, self.rungs.len()),
            });
        };
        let (plan, degraded) = match rungs.get(r.rung as usize) {
            Some(&view) => view,
            None => (&self.parents[r.task as usize], true),
        };
        Ok(Item {
            id: r.id,
            trace: r.trace,
            task: r.task,
            rung: r.rung,
            plan,
            degraded,
            image: match r.input {
                RequestInput::Probe(i) => crate::proto::probe_image(i as usize),
                RequestInput::Tensor(t) => t,
            },
            budget: match r.deadline_ms {
                0 => self.cfg.default_deadline,
                ms => Duration::from_millis(u64::from(ms)),
            },
        })
    }

    /// Runs `items` as ONE pass over the shared backbone
    /// ([`HardwareExecutor::run_coalesced_guarded`]) and answers each,
    /// in order. The weights stream once for the whole batch and only
    /// per-sample threshold banks are swapped between samples, so
    /// per-item logits are bit-identical to serving each item alone.
    ///
    /// The pass runs under the loosest item budget (the front door
    /// already closed the batch against the *tightest* one); an item
    /// whose own budget lapsed by the end fails `DeadlineExceeded`. A
    /// pass stopped by that loosest budget is past every item's budget,
    /// so every item fails `DeadlineExceeded` without another pass. Any
    /// other failure of a pass over several items (malformed input,
    /// plans over different backbones, which the executor refuses
    /// before any step runs, or non-finite logits) re-runs each item as
    /// a batch of one. A lone item that fails that way gets one try on
    /// the exact parent path under the same deadline, and ends
    /// `FailedAfterRetries` if that fails too.
    fn run_pass(
        &mut self,
        items: &[&Item<'a>],
        fault: ReplicaFault,
        output: &mut impl Write,
    ) -> Result<Vec<Frame>, ProtoError> {
        let Some(lead) = items.first() else { return Ok(Vec::new()) };
        let started = Instant::now();
        let budget = items.iter().map(|i| i.budget).max().unwrap_or_default();
        let mut guard = layer_guard(
            self.cfg,
            fault,
            lead.trace,
            lead.task,
            started + budget,
            &mut self.heartbeat_seq,
            output,
        );
        let views: Vec<&BoundNetwork> = items.iter().map(|i| i.plan).collect();
        let images: Vec<&Tensor> = items.iter().map(|i| &i.image).collect();
        // zero-gated MAC accounting, as the brownout ladders were validated
        let (all_logits, on_parent) =
            match self.exec.run_coalesced_guarded(&views, &images, true, &mut guard) {
                Ok(all_logits) => (all_logits, false),
                Err(MimeError::DeadlineExceeded { .. }) => {
                    let elapsed = started.elapsed();
                    return Ok(items.iter().map(|i| lapsed(i, elapsed)).collect());
                }
                Err(e) if items.len() > 1 => {
                    drop(guard);
                    mime_obs::warn!(
                        "serve.replica",
                        "coalesced batch failed; serving items serially",
                        replica = self.cfg.replica,
                        batch = items.len(),
                        error = e
                    );
                    return self.run_each(items, fault, output);
                }
                Err(primary_err) => {
                    // Permanent failure of a lone item: the exact parent
                    // path is the gentler route.
                    mime_obs::warn!(
                        "serve.replica",
                        "primary path failed; serving parent fallback",
                        replica = self.cfg.replica,
                        request = lead.id,
                        error = primary_err
                    );
                    let parent = &self.parents[lead.task as usize];
                    match self.exec.run_coalesced_guarded(
                        &[parent],
                        &[&lead.image],
                        true,
                        &mut guard,
                    ) {
                        Ok(logits) => (logits, true),
                        Err(MimeError::DeadlineExceeded { .. }) => {
                            return Ok(vec![lapsed(lead, started.elapsed())]);
                        }
                        Err(parent_err) => {
                            return Ok(vec![Frame::ErrorReply {
                                id: lead.id,
                                trace: lead.trace,
                                code: ErrorCode::FailedAfterRetries,
                                rung: lead.rung,
                                retry_after_ms: 0,
                                message: format!(
                                    "primary: {primary_err}; parent: {parent_err}"
                                ),
                            }]);
                        }
                    }
                }
            };
        let elapsed = started.elapsed();
        // per-item compute attribution: an equal share of the one
        // backbone pass (what the front door's batch-close EWMA consumes)
        let share_us =
            (elapsed.as_micros() / items.len() as u128).min(u128::from(u32::MAX)) as u32;
        Ok(items
            .iter()
            .zip(all_logits)
            .map(|(i, logits)| {
                if elapsed > i.budget {
                    lapsed(i, elapsed)
                } else {
                    Frame::Reply {
                        id: i.id,
                        trace: i.trace,
                        degraded: i.degraded || on_parent,
                        queue_us: 0,
                        compute_us: share_us,
                        rung: i.rung,
                        logits,
                    }
                }
            })
            .collect())
    }

    /// Runs each item as a batch of one, with a fresh budget.
    fn run_each(
        &mut self,
        items: &[&Item<'a>],
        fault: ReplicaFault,
        output: &mut impl Write,
    ) -> Result<Vec<Frame>, ProtoError> {
        let mut replies = Vec::with_capacity(items.len());
        for item in items {
            replies.extend(self.run_pass(std::slice::from_ref(item), fault, output)?);
        }
        Ok(replies)
    }
}

/// `DeadlineExceeded` for an item whose budget ran out `elapsed` into
/// its pass.
fn lapsed(item: &Item<'_>, elapsed: Duration) -> Frame {
    Frame::ErrorReply {
        id: item.id,
        trace: item.trace,
        code: ErrorCode::DeadlineExceeded,
        rung: item.rung,
        retry_after_ms: 0,
        message: format!(
            "{}ms over budget",
            elapsed.saturating_sub(item.budget).as_millis()
        ),
    }
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
        let mut plans: Vec<BoundNetwork> = (0..tasks)
            .map(|i| {
                model.activate(&format!("task{i}")).unwrap();
                BoundNetwork::from_mime(model.network()).unwrap()
            })
            .collect();
        mime_runtime::prepack_plans(&mut plans).unwrap();
        (plans, ArrayConfig::default())
    }

    /// A plan whose threshold bank fails validation (NaN-poisoned), not
    /// yet prepacked.
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
            // requests reach a replica only as batch items
            let f = match f {
                Frame::Request { .. } => Frame::BatchRequest { items: vec![f.clone()] },
                other => other.clone(),
            };
            write_frame(&mut input, &f).unwrap();
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
    fn bare_request_on_the_control_pipe_is_malformed() {
        let (plans, hw) = tiny_plans(1);
        let mut input = Vec::new();
        let request = Frame::Request {
            id: 1,
            trace: 0,
            task: 0,
            deadline_ms: 0,
            rung: 0,
            input: RequestInput::Probe(0),
        };
        write_frame(&mut input, &request).unwrap();
        let mut output = Vec::new();
        let err = run_replica_worker(
            &plans,
            hw,
            ReplicaWorkerConfig::default(),
            &mut input.as_slice(),
            &mut output,
        )
        .unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    #[test]
    fn worker_poisoned_bank_degrades_to_parent() {
        let (plan, hw) = poisoned_plan();
        let mut plans = [plan];
        mime_runtime::prepack_plans(&mut plans).unwrap();
        let cfg = ReplicaWorkerConfig::default();
        let frames = roundtrip_worker(
            &plans,
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
        let batch_reply: Vec<&Frame> = batched
            .iter()
            .filter(|f| matches!(f, Frame::Reply { .. } | Frame::ErrorReply { .. }))
            .collect();
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

    /// Plans prepacked once at startup (backbone operands shared across
    /// tasks, task 2's bank NaN-poisoned) must reply bit-identically to
    /// the host forward, one request at a time and as one batch: each
    /// task's `MimeNetwork::forward`, and the parent network's for the
    /// poisoned task, served degraded on its thresholds-stripped parent
    /// plan (which keeps the shared operands).
    #[test]
    fn worker_on_prepacked_plans_matches_host_forward() {
        const TASKS: usize = 3;
        let (mut plans, hw) = tiny_plans(TASKS - 1);
        plans.push(poisoned_plan().0);
        // the host forward: tiny_plans' constant banks over the parent
        // every plan was bound from
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut parent = build_network(&arch, &mut StdRng::seed_from_u64(7));
        let n = 9u32;
        let expected: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let task = i as usize % TASKS;
                let x =
                    crate::proto::probe_image(i as usize).reshape(&[1, 3, 32, 32]).unwrap();
                let host = if task == TASKS - 1 {
                    parent.forward(&x).unwrap()
                } else {
                    let t = 0.02 + 0.05 * task as f32;
                    MimeNetwork::from_trained(&arch, &parent, t)
                        .unwrap()
                        .forward(&x)
                        .unwrap()
                };
                host.as_slice().to_vec()
            })
            .collect();

        // the poisoned plan's steps join the fleet's resident operands
        let stats = mime_runtime::prepack_plans(&mut plans).unwrap();
        assert!(stats.layers > 0, "the poisoned plan's steps must be prepacked");
        assert!(stats.shared > 0, "shared backbone operands must dedup across tasks");
        let requests: Vec<Frame> = (0..n)
            .map(|i| Frame::Request {
                id: u64::from(i),
                trace: 0,
                task: i % TASKS as u32,
                deadline_ms: 0,
                rung: 0,
                input: RequestInput::Probe(i),
            })
            .collect();
        let cfg = ReplicaWorkerConfig::default();
        let one_at_a_time = roundtrip_worker(&plans, hw, cfg, &requests);
        let batched =
            roundtrip_worker(&plans, hw, cfg, &[Frame::BatchRequest { items: requests }]);
        for frames in [one_at_a_time, batched] {
            let replies: Vec<&Frame> = frames
                .iter()
                .filter(|f| matches!(f, Frame::Reply { .. } | Frame::ErrorReply { .. }))
                .collect();
            assert_eq!(replies.len(), n as usize, "{frames:?}");
            for (i, reply) in replies.into_iter().enumerate() {
                let Frame::Reply { id, degraded, logits, .. } = reply else {
                    panic!("request {i} did not produce logits: {reply:?}");
                };
                assert_eq!(*id, i as u64);
                assert_eq!(*degraded, i % TASKS == TASKS - 1, "request {i}");
                assert!(
                    logits.len() == expected[i].len()
                        && logits
                            .iter()
                            .zip(&expected[i])
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "request {i} (task {}): prepacked replica logits diverge from the \
                     host forward",
                    i % TASKS
                );
            }
        }
    }

    /// Task plans over two different backbones (conventional per-task
    /// baselines packed together, say) cannot share a pass: the executor
    /// refuses the batch before any step runs, and the replica serves
    /// each item alone, bit-identical to its solo run.
    #[test]
    fn worker_batch_over_two_backbones_matches_solo_runs() {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut plans: Vec<BoundNetwork> = [7u64, 8]
            .iter()
            .map(|&seed| {
                let parent = build_network(&arch, &mut StdRng::seed_from_u64(seed));
                let net = MimeNetwork::from_trained(&arch, &parent, 0.02).unwrap();
                BoundNetwork::from_mime(&net).unwrap()
            })
            .collect();
        mime_runtime::prepack_plans(&mut plans).unwrap();
        let hw = ArrayConfig::default();
        let n = 6u32;
        let requests: Vec<Frame> = (0..n)
            .map(|i| Frame::Request {
                id: u64::from(i),
                trace: 0,
                task: i % 2,
                deadline_ms: 0,
                rung: 0,
                input: RequestInput::Probe(i),
            })
            .collect();
        let frames = roundtrip_worker(
            &plans,
            hw,
            ReplicaWorkerConfig::default(),
            &[Frame::BatchRequest { items: requests }],
        );
        let replies: Vec<&Frame> = frames
            .iter()
            .filter(|f| matches!(f, Frame::Reply { .. } | Frame::ErrorReply { .. }))
            .collect();
        assert_eq!(replies.len(), n as usize, "{frames:?}");
        let mut solo =
            HardwareExecutor::with_options(hw, ComputePath::Software, SparseDispatch::Auto);
        for (i, reply) in replies.into_iter().enumerate() {
            let Frame::Reply { id, degraded, logits, .. } = reply else {
                panic!("request {i} did not produce logits: {reply:?}");
            };
            assert_eq!(*id, i as u64);
            assert!(!degraded, "request {i}");
            let image = crate::proto::probe_image(i);
            let want = solo.run_image(&plans[i % 2], &image, true).unwrap();
            assert!(
                logits.len() == want.len()
                    && logits.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "request {i} (task {}) diverges from its solo run",
                i % 2
            );
        }
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
        let items: Vec<&Frame> = frames
            .iter()
            .filter(|f| matches!(f, Frame::Reply { .. } | Frame::ErrorReply { .. }))
            .collect();
        assert_eq!(items.len(), 2, "one terminal frame per item: {frames:?}");
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
