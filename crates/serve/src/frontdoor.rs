//! The TCP front door: accept loop, per-connection protocol handlers,
//! and the replica supervisor.
//!
//! One [`FrontDoor`] owns a nonblocking listener, a bounded admission
//! queue shared with N *runner* threads (one per replica slot), and the
//! counters the stats/metrics surfaces read. Each runner supervises one
//! [`ReplicaProc`] through the lifecycle state machine of DESIGN.md §10
//! (Spawning → Ready → Suspect → Dead → Cooldown): heartbeats on the
//! control pipe refresh a liveness deadline, a wedged replica is killed
//! and treated as dead, death consumes a restart budget and feeds a
//! per-replica [`CircuitBreaker`] whose Open state becomes the Cooldown
//! between respawn attempts, and the in-flight request is requeued or
//! failed fast under the shared [`RetryPolicy`].
//!
//! The cross-process invariant: **every request a client manages to
//! send reaches exactly one terminal frame** — a reply, `Overloaded`,
//! `DeadlineExceeded`, `FailedAfterRetries`, `Unavailable`, or
//! `BadFrame` — even while replicas are being killed under it.

use crate::proto::{
    write_frame, ErrorCode, Frame, FrameReader, ProtoError, RequestInput, MAX_BATCH_ITEMS,
    NO_REQUEST_ID, NO_TRACE_ID,
};
use crate::replica::{ReplicaProc, ReplicaState, SideChannel};
use crate::{
    BoundedQueue, BreakerConfig, CircuitBreaker, OverloadConfig, OverloadController,
    RetryPolicy, Route,
};
use mime_obs::flight::{self, FlightKind};
use mime_obs::trace;
use mime_obs::MetricsSnapshot;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Self-injected connection-level chaos (the `--inject conn-*` modes):
/// a background thread abuses the front door's own listener while real
/// traffic flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Frames with an unknown kind and junk payload.
    Garbage,
    /// Headers cut off mid-way, then an abrupt close.
    Truncate,
}

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct FrontDoorConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = kernel-assigned port).
    pub listen: String,
    /// Replica slots to supervise.
    pub replicas: usize,
    /// argv spawned per replica (program + args).
    pub replica_cmd: Vec<String>,
    /// Task count for admission-time `UnknownTask` prechecks
    /// (0 = unknown; the replica rejects instead).
    pub tasks: u32,
    /// Admission-queue capacity; beyond it requests shed `Overloaded`.
    pub queue_capacity: usize,
    /// Default per-request budget when a request carries
    /// `deadline_ms == 0`.
    pub deadline: Duration,
    /// Most requests one dispatch may coalesce into a `BatchRequest`
    /// (DESIGN.md §15). `1` disables batching: every dispatch is a
    /// batch of one.
    pub max_batch: usize,
    /// How long a runner holding a partial batch waits for a ride-along
    /// request once the backlog is empty. Zero (the default) means
    /// batches form from existing backlog only — an idle fleet adds no
    /// latency.
    pub linger: Duration,
    /// Requeue-or-fail policy for requests in flight on a dying replica.
    pub retry: RetryPolicy,
    /// Per-replica breaker over deaths/spawn failures; Open = Cooldown.
    pub breaker: BreakerConfig,
    /// Deaths + spawn failures a slot may consume before it is declared
    /// permanently dead.
    pub restart_budget: u32,
    /// Exponential backoff between respawn attempts (`max_attempts` is
    /// ignored here — the budget above is the cap).
    pub restart_backoff: RetryPolicy,
    /// How long a spawned replica may take to send `Ready`.
    pub spawn_timeout: Duration,
    /// No heartbeat for this long with a request in flight ⇒ Suspect ⇒
    /// killed.
    pub liveness: Duration,
    /// Grace given to draining replicas and late connections at
    /// shutdown before the drain is declared unclean.
    pub drain_timeout: Duration,
    /// Self-injected connection chaos.
    pub self_inject: Option<ConnFault>,
    /// Overload controller knobs (brownout ladder selection); see
    /// [`OverloadConfig`]. `enabled: false` is the shed-only baseline.
    pub overload: OverloadConfig,
    /// Fleet observability: trace stitching, clock probes, flight
    /// events, and replica metrics aggregation. `false` (`--no-obs`)
    /// strips the per-request instrumentation for overhead baselines;
    /// the HTTP scrape endpoints stay up either way.
    pub obs: bool,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            listen: "127.0.0.1:0".into(),
            replicas: 2,
            replica_cmd: Vec::new(),
            tasks: 0,
            queue_capacity: 64,
            deadline: Duration::from_millis(5000),
            max_batch: 8,
            linger: Duration::ZERO,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            restart_budget: 16,
            restart_backoff: RetryPolicy {
                max_attempts: u32::MAX,
                base: Duration::from_millis(50),
                multiplier: 2,
                max_backoff: Duration::from_millis(2000),
            },
            spawn_timeout: Duration::from_secs(30),
            liveness: Duration::from_millis(2000),
            drain_timeout: Duration::from_secs(30),
            self_inject: None,
            overload: OverloadConfig::default(),
            obs: true,
        }
    }
}

/// End-of-run totals (also published as `mime_frontdoor_*` /
/// `mime_replica_*` metrics).
#[derive(Debug, Clone, Default)]
pub struct FrontDoorReport {
    /// Whether shutdown drained every connection and request in time.
    pub drain_clean: bool,
    /// Well-formed requests received.
    pub requests: u64,
    /// Terminal `Reply { degraded: false }`.
    pub success: u64,
    /// Terminal `Reply { degraded: true }` (parent-path fallback).
    pub degraded: u64,
    /// Shed `Overloaded` at admission.
    pub shed: u64,
    /// Terminal `Unavailable` (draining, or no live replica).
    pub unavailable: u64,
    /// Terminal `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Terminal `FailedAfterRetries` / `UnknownTask`.
    pub failed: u64,
    /// Malformed frames answered with `BadFrame`.
    pub bad_frames: u64,
    /// Replies served at a brownout rung above 0 (subset of
    /// success + degraded).
    pub brownout: u64,
    /// Brownout rung transitions the overload controller made.
    pub rung_transitions: u64,
    /// Requeues of in-flight requests after a replica death.
    pub retries: u64,
    /// Replica deaths the supervisor recovered from (each starts a
    /// respawn) — `mime_replica_restarts_total`.
    pub restarts: u64,
    /// Spawn attempts that failed or timed out before `Ready`.
    pub spawn_failures: u64,
    /// Replica slots still live at the end.
    pub live_replicas: usize,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    success: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    unavailable: AtomicU64,
    deadline_exceeded: AtomicU64,
    failed: AtomicU64,
    bad_frames: AtomicU64,
    brownout: AtomicU64,
    retries: AtomicU64,
    restarts: AtomicU64,
    spawn_failures: AtomicU64,
}

/// One admitted request riding the queue between a connection handler
/// and whichever runner dequeues it.
struct Job {
    client_id: u64,
    /// Fleet-wide trace ID, minted at admission (or honored from the
    /// client when nonzero) and threaded through every hop.
    trace: u64,
    task: u32,
    input: RequestInput,
    /// Full budget, anchored at `admitted_at`.
    deadline: Duration,
    admitted_at: Instant,
    attempts: u32,
    resp: mpsc::Sender<Frame>,
}

/// Per-slot observability state fed by the replica's side-channel
/// frames (never the request path).
#[derive(Default)]
struct ReplicaMeta {
    /// Estimated `frontdoor_clock - replica_clock` in µs (NTP midpoint
    /// from the ClockProbe/ClockReply exchange).
    offset_us: i64,
    /// Metrics folded in from dead incarnations of this slot.
    history: MetricsSnapshot,
    /// Latest cumulative snapshot from the live incarnation.
    current: Option<MetricsSnapshot>,
}

struct Shared {
    cfg: FrontDoorConfig,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    live_replicas: AtomicUsize,
    ready_replicas: AtomicUsize,
    in_flight: AtomicUsize,
    next_dispatch_id: AtomicU64,
    /// Trace-ID mint; starts at 1 so `NO_TRACE_ID` is never issued.
    next_trace_id: AtomicU64,
    counters: Counters,
    /// Fleet-wide brownout rung selection (DESIGN.md §13).
    overload: OverloadController,
    replica_meta: Vec<Mutex<ReplicaMeta>>,
    /// Requests currently dispatched to each slot (batch size while a
    /// batch is in flight, 0 while the runner waits on the queue).
    /// Feeds the fair-share batch cap — the pull-model equivalent of
    /// least-loaded routing — and the `/stats` + metrics surfaces.
    replica_outstanding: Vec<AtomicUsize>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Delivers one terminal frame for an *admitted* job, bumping the
    /// matching counter. The send can fail only if the connection
    /// handler gave up (client gone) — the request is terminal either
    /// way.
    fn finish(&self, job: &Job, frame: Frame) {
        let detail = match &frame {
            Frame::Reply { degraded: false, .. } => 0,
            Frame::Reply { degraded: true, .. } => 1,
            Frame::ErrorReply { code, .. } => 2 + u64::from(code.to_u8()),
            _ => unreachable!("terminal frames are Reply/ErrorReply"),
        };
        match &frame {
            Frame::Reply { degraded: false, .. } => &self.counters.success,
            Frame::Reply { degraded: true, .. } => &self.counters.degraded,
            Frame::ErrorReply { code: ErrorCode::DeadlineExceeded, .. } => {
                &self.counters.deadline_exceeded
            }
            Frame::ErrorReply { code: ErrorCode::Unavailable, .. } => {
                &self.counters.unavailable
            }
            Frame::ErrorReply { code: ErrorCode::Overloaded, .. } => &self.counters.shed,
            Frame::ErrorReply { .. } => &self.counters.failed,
            _ => unreachable!("terminal frames are Reply/ErrorReply"),
        }
        .fetch_add(1, Ordering::Relaxed);
        if matches!(&frame, Frame::Reply { rung, .. } if *rung > 0) {
            self.counters.brownout.fetch_add(1, Ordering::Relaxed);
        }
        // Exactly one Terminal flight event per admitted request, at
        // the single point every terminal frame funnels through.
        flight::record(FlightKind::Terminal, job.trace, detail);
        let _ = job.resp.send(frame);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    fn stats_json(&self) -> String {
        let c = &self.counters;
        let outstanding: Vec<String> = self
            .replica_outstanding
            .iter()
            .map(|o| o.load(Ordering::Relaxed).to_string())
            .collect();
        format!(
            "{{\"requests\":{},\"success\":{},\"degraded\":{},\"shed\":{},\
             \"unavailable\":{},\"deadline_exceeded\":{},\"failed\":{},\
             \"bad_frames\":{},\"brownout\":{},\"rung\":{},\"rung_transitions\":{},\
             \"retries\":{},\"restarts\":{},\"spawn_failures\":{},\
             \"ready_replicas\":{},\"live_replicas\":{},\"in_flight\":{},\
             \"replica_outstanding\":[{}]}}",
            c.requests.load(Ordering::Relaxed),
            c.success.load(Ordering::Relaxed),
            c.degraded.load(Ordering::Relaxed),
            c.shed.load(Ordering::Relaxed),
            c.unavailable.load(Ordering::Relaxed),
            c.deadline_exceeded.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
            c.bad_frames.load(Ordering::Relaxed),
            c.brownout.load(Ordering::Relaxed),
            self.overload.current_rung(),
            self.overload.transitions(),
            c.retries.load(Ordering::Relaxed),
            c.restarts.load(Ordering::Relaxed),
            c.spawn_failures.load(Ordering::Relaxed),
            self.ready_replicas.load(Ordering::Relaxed),
            self.live_replicas.load(Ordering::Relaxed),
            self.in_flight.load(Ordering::Relaxed),
            outstanding.join(","),
        )
    }

    fn mint_trace(&self, client_trace: u64) -> u64 {
        if client_trace != NO_TRACE_ID {
            return client_trace;
        }
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The front door's own live counters/gauges as a snapshot, built
    /// from the same atomics `stats_json` reads — so a mid-run scrape
    /// agrees with the terminal report.
    fn frontdoor_snapshot(&self) -> MetricsSnapshot {
        let c = &self.counters;
        let mut s = MetricsSnapshot::default();
        for (name, v) in [
            ("mime_frontdoor_requests_total", &c.requests),
            ("mime_frontdoor_success_total", &c.success),
            ("mime_frontdoor_degraded_total", &c.degraded),
            ("mime_frontdoor_shed_total", &c.shed),
            ("mime_frontdoor_unavailable_total", &c.unavailable),
            ("mime_frontdoor_deadline_exceeded_total", &c.deadline_exceeded),
            ("mime_frontdoor_failed_total", &c.failed),
            ("mime_frontdoor_bad_frames_total", &c.bad_frames),
            ("mime_frontdoor_brownout_total", &c.brownout),
            ("mime_frontdoor_retries_total", &c.retries),
            ("mime_replica_restarts_total", &c.restarts),
            ("mime_replica_spawn_failures_total", &c.spawn_failures),
        ] {
            s.counters.insert((name.to_string(), Vec::new()), v.load(Ordering::Relaxed));
        }
        s.counters.insert(
            ("mime_brownout_rung_transitions_total".to_string(), Vec::new()),
            self.overload.transitions(),
        );
        for (name, v) in [
            ("mime_frontdoor_ready_replicas", self.ready_replicas.load(Ordering::Relaxed)),
            ("mime_frontdoor_live_replicas", self.live_replicas.load(Ordering::Relaxed)),
            ("mime_frontdoor_in_flight", self.in_flight.load(Ordering::Relaxed)),
            ("mime_frontdoor_queue_depth", self.queue.depth()),
            ("mime_brownout_rung", usize::from(self.overload.current_rung())),
        ] {
            s.gauges.insert((name.to_string(), Vec::new()), v as f64);
        }
        for (slot, o) in self.replica_outstanding.iter().enumerate() {
            s.gauges.insert(
                (
                    "mime_frontdoor_replica_outstanding".to_string(),
                    vec![("replica".to_string(), slot.to_string())],
                ),
                o.load(Ordering::Relaxed) as f64,
            );
        }
        s
    }

    /// One `/metrics` scrape: this process's registry, the front door's
    /// live counters, and every replica's shipped snapshot (counters
    /// summed, gauges last-write, histogram buckets added).
    fn scrape_metrics(&self) -> String {
        let mut snap = mime_obs::metrics::global().snapshot();
        snap.merge(&self.frontdoor_snapshot());
        for meta in &self.replica_meta {
            let meta = meta.lock().unwrap();
            snap.merge(&meta.history);
            if let Some(cur) = &meta.current {
                snap.merge(cur);
            }
        }
        snap.render_prometheus()
    }

    /// Ingestion point for replica side-channel frames, called from the
    /// replica stdout reader thread at arrival time (never queued
    /// behind request traffic).
    fn ingest_side_frame(&self, slot: u32, frame: Frame) {
        let Some(meta) = self.replica_meta.get(slot as usize) else { return };
        match frame {
            Frame::TraceChunk { replica: _, mut spans } => {
                if !trace::enabled() {
                    return;
                }
                let offset = meta.lock().unwrap().offset_us;
                let pid = slot + 2; // pid 1 = front door, one lane per slot
                for span in &mut spans {
                    span.ts_us = (span.ts_us as i64 + offset).max(0) as u64;
                    span.pid = pid;
                }
                trace::ingest(spans);
            }
            Frame::MetricsChunk { replica: _, snapshot } => {
                match MetricsSnapshot::decode(&snapshot) {
                    // Overlay, don't replace: scalar-only delta chunks
                    // must not wipe the histograms carried by the last
                    // full snapshot from the same replica incarnation.
                    Ok(snap) => meta
                        .lock()
                        .unwrap()
                        .current
                        .get_or_insert_with(Default::default)
                        .overlay(&snap),
                    Err(e) => mime_obs::warn!(
                        "serve.frontdoor",
                        "undecodable metrics chunk",
                        replica = slot,
                        error = e
                    ),
                }
            }
            Frame::ClockReply { t0_us, now_us } => {
                // NTP midpoint: the replica read its clock roughly
                // halfway between our send (t0) and receive (t1).
                let t1 = trace::now_us();
                let midpoint = ((t0_us + t1) / 2) as i64;
                let offset = midpoint - now_us as i64;
                meta.lock().unwrap().offset_us = offset;
                mime_obs::debug!(
                    "serve.frontdoor",
                    "replica clock offset estimated",
                    replica = slot,
                    offset_us = offset,
                    rtt_us = t1.saturating_sub(t0_us)
                );
            }
            _ => {}
        }
    }

    /// Folds the dying incarnation's metrics into the slot's history so
    /// restarts never lose counts from the aggregate scrape.
    fn fold_replica_metrics(&self, slot: u32) {
        if let Some(meta) = self.replica_meta.get(slot as usize) {
            let mut meta = meta.lock().unwrap();
            if let Some(cur) = meta.current.take() {
                let mut history = std::mem::take(&mut meta.history);
                history.merge(&cur);
                meta.history = history;
            }
        }
    }
}

/// Cloneable shutdown trigger (for signal handlers and `Shutdown`
/// frames).
#[derive(Clone)]
pub struct FrontDoorStopper {
    shared: Arc<Shared>,
}

impl FrontDoorStopper {
    /// Begins graceful drain: stop accepting, close admission, answer
    /// every request still *queued* with a terminal `Overloaded` (it
    /// was admitted but will not be served — silently closing its
    /// connection would violate the one-terminal-frame contract), let
    /// in-flight requests terminate, shut replicas down.
    pub fn stop(&self) {
        if !self.shared.shutdown.swap(true, Ordering::AcqRel) {
            mime_obs::info!("serve.frontdoor", "drain started");
        }
        self.shared.queue.close();
        // Flush the backlog: jobs a runner already popped still get
        // their replica-served terminal frame; everything left in line
        // terminates here instead of hanging until the process exits.
        let retry_after_ms = self.shared.overload.retry_after_ms();
        let rung = self.shared.overload.current_rung();
        while let Some(job) = self.shared.queue.try_pop() {
            let (id, trace) = (job.client_id, job.trace);
            self.shared.finish(
                &job,
                Frame::ErrorReply {
                    id,
                    trace,
                    code: ErrorCode::Overloaded,
                    rung,
                    retry_after_ms,
                    message: "shut down while queued; retry against another instance"
                        .into(),
                },
            );
        }
    }
}

/// A running front door. [`wait`](Self::wait) blocks until a
/// [`FrontDoorStopper::stop`] (or permanent death of every replica)
/// drains it.
pub struct FrontDoor {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept_thread: JoinHandle<bool>,
    runner_threads: Vec<JoinHandle<()>>,
    chaos_thread: Option<JoinHandle<()>>,
}

impl FrontDoor {
    /// Binds the listener, spawns the replica runners and the accept
    /// loop, and returns once the socket is live (replicas keep
    /// spawning in the background; until one is `Ready`, requests get
    /// queued or `Unavailable`).
    ///
    /// # Errors
    ///
    /// Only bind/configuration errors; replica spawn failures are
    /// handled by the supervisor at runtime.
    pub fn start(cfg: FrontDoorConfig) -> std::io::Result<FrontDoor> {
        if cfg.replica_cmd.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replica_cmd must name the worker binary",
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let replicas = cfg.replicas.max(1);
        let queue = BoundedQueue::new(cfg.queue_capacity);
        let overload = OverloadController::new(cfg.overload, Instant::now());
        let shared = Arc::new(Shared {
            cfg,
            queue,
            overload,
            shutdown: AtomicBool::new(false),
            live_replicas: AtomicUsize::new(replicas),
            ready_replicas: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            next_dispatch_id: AtomicU64::new(1),
            next_trace_id: AtomicU64::new(1),
            counters: Counters::default(),
            replica_meta: (0..replicas)
                .map(|_| Mutex::new(ReplicaMeta::default()))
                .collect(),
            replica_outstanding: (0..replicas).map(|_| AtomicUsize::new(0)).collect(),
        });
        if shared.cfg.obs && trace::enabled() {
            trace::set_process_label(trace::LOCAL_PID, "frontdoor".to_string());
            for slot in 0..replicas {
                trace::set_process_label(slot as u32 + 2, format!("replica {slot}"));
            }
        }

        let runner_threads = (0..replicas)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || runner_loop(&shared, slot as u32))
            })
            .collect();
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let chaos_thread = shared.cfg.self_inject.map(|fault| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || conn_chaos_loop(&shared, addr, fault))
        });
        mime_obs::info!("serve.frontdoor", "listening", addr = addr, replicas = replicas);
        Ok(FrontDoor { shared, addr, accept_thread, runner_threads, chaos_thread })
    }

    /// The bound socket address (with the kernel-assigned port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A cloneable handle that triggers graceful drain.
    pub fn stopper(&self) -> FrontDoorStopper {
        FrontDoorStopper { shared: Arc::clone(&self.shared) }
    }

    /// Blocks until the front door has drained (every runner and the
    /// accept loop exited), then publishes metrics and returns the
    /// totals.
    pub fn wait(self) -> FrontDoorReport {
        for t in self.runner_threads {
            let _ = t.join();
        }
        let conns_clean = self.accept_thread.join().unwrap_or(false);
        if let Some(t) = self.chaos_thread {
            let _ = t.join();
        }
        let shared = &self.shared;
        let c = &shared.counters;
        let in_flight = shared.in_flight.load(Ordering::Acquire);
        let report = FrontDoorReport {
            drain_clean: conns_clean && in_flight == 0,
            requests: c.requests.load(Ordering::Relaxed),
            success: c.success.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            unavailable: c.unavailable.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            bad_frames: c.bad_frames.load(Ordering::Relaxed),
            brownout: c.brownout.load(Ordering::Relaxed),
            rung_transitions: shared.overload.transitions(),
            retries: c.retries.load(Ordering::Relaxed),
            restarts: c.restarts.load(Ordering::Relaxed),
            spawn_failures: c.spawn_failures.load(Ordering::Relaxed),
            live_replicas: shared.live_replicas.load(Ordering::Relaxed),
        };
        publish_metrics(&report, shared.ready_replicas.load(Ordering::Relaxed));
        publish_replica_metrics(shared);
        report
    }
}

/// Folds every replica's shipped counters and gauges into the global
/// registry at drain, so the exit-written metrics file carries the same
/// fleet-wide series (`mime_replica_rung_total`, `mime_brownout_rungs`,
/// …) a live `/metrics` scrape shows. Histograms stay scrape-only.
fn publish_replica_metrics(shared: &Shared) {
    if !mime_obs::metrics_enabled() {
        return;
    }
    let mut merged = MetricsSnapshot::default();
    for meta in &shared.replica_meta {
        let meta = meta.lock().unwrap();
        merged.merge(&meta.history);
        if let Some(cur) = &meta.current {
            merged.merge(cur);
        }
    }
    let r = mime_obs::metrics::global();
    for ((name, labels), v) in &merged.counters {
        let labels: Vec<(&str, &str)> =
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        r.counter_with(name, &labels).add(*v);
    }
    for ((name, labels), v) in &merged.gauges {
        let labels: Vec<(&str, &str)> =
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        r.gauge_with(name, &labels).set(*v);
    }
}

/// Publishes the run's counters and gauges to the global mime-obs
/// registry (no-op when metrics are disabled).
fn publish_metrics(report: &FrontDoorReport, ready: usize) {
    if !mime_obs::metrics_enabled() {
        return;
    }
    let r = mime_obs::metrics::global();
    r.counter("mime_frontdoor_requests_total").add(report.requests);
    r.counter("mime_frontdoor_success_total").add(report.success);
    r.counter("mime_frontdoor_degraded_total").add(report.degraded);
    r.counter("mime_frontdoor_shed_total").add(report.shed);
    r.counter("mime_frontdoor_unavailable_total").add(report.unavailable);
    r.counter("mime_frontdoor_deadline_exceeded_total").add(report.deadline_exceeded);
    r.counter("mime_frontdoor_failed_total").add(report.failed);
    r.counter("mime_frontdoor_bad_frames_total").add(report.bad_frames);
    r.counter("mime_frontdoor_brownout_total").add(report.brownout);
    r.counter("mime_brownout_rung_transitions_total").add(report.rung_transitions);
    r.counter("mime_frontdoor_retries_total").add(report.retries);
    r.counter("mime_replica_restarts_total").add(report.restarts);
    r.counter("mime_replica_spawn_failures_total").add(report.spawn_failures);
    r.gauge("mime_frontdoor_ready_replicas").set(ready as f64);
    r.gauge("mime_frontdoor_live_replicas").set(report.live_replicas as f64);
}

// ---------------------------------------------------------------------
// Accept loop + connection handlers
// ---------------------------------------------------------------------

const TICK: Duration = Duration::from_millis(25);

/// Returns `true` when every connection handler exited within the drain
/// timeout.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> bool {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, peer)) => {
                mime_obs::debug!("serve.frontdoor", "connection accepted", peer = peer);
                let shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || handle_conn(&shared, stream)));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(TICK);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                mime_obs::error!("serve.frontdoor", "accept failed", error = e);
                std::thread::sleep(TICK);
            }
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: handlers see the shutdown flag on their next read tick and
    // exit once their in-flight request terminates.
    let deadline = Instant::now() + shared.cfg.drain_timeout;
    while Instant::now() < deadline {
        handlers.retain(|h| !h.is_finished());
        if handlers.is_empty() {
            return true;
        }
        std::thread::sleep(TICK);
    }
    mime_obs::warn!(
        "serve.frontdoor",
        "drain timeout with connections still open",
        open = handlers.len()
    );
    false
}

/// One connection: poll frames (50ms read timeout so the shutdown flag
/// is observed promptly), answer each request with exactly one terminal
/// frame, close on the first malformed frame.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    // Sniff the first byte: `G` (0x47) is not a valid frame kind, so a
    // `GET …` opener means an HTTP scrape client on the frame port.
    let sniff_deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut first = [0u8; 1];
        match stream.peek(&mut first) {
            Ok(0) => return, // closed before the first byte
            Ok(_) => {
                if first[0] == b'G' {
                    serve_http(shared, &mut stream);
                    return;
                }
                break;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Silent client: fall through to the frame loop, which
                // already handles slow senders and drain.
                if shared.draining() || Instant::now() > sniff_deadline {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    let mut reader = FrameReader::new();
    loop {
        let frame = match reader.poll_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
            Err(ProtoError::Closed) => return,
            Err(ProtoError::Io(_)) => return,
            Err(e @ (ProtoError::Malformed(_) | ProtoError::TooLarge(_))) => {
                // Typed error frame, then hang up: after a framing
                // error the byte stream can no longer be trusted.
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                mime_obs::warn!("serve.frontdoor", "malformed frame", error = e);
                let _ = write_frame(
                    &mut stream,
                    &Frame::ErrorReply {
                        id: NO_REQUEST_ID,
                        trace: NO_TRACE_ID,
                        code: ErrorCode::BadFrame,
                        rung: 0,
                        retry_after_ms: 0,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        match frame {
            // The client's rung field is ignored on admission — the
            // fleet's controller, not the client, picks the rung.
            Frame::Request { id, trace, task, deadline_ms, rung: _, input } => {
                let reply = admit_and_await(shared, id, trace, task, deadline_ms, input);
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Frame::StatsRequest => {
                let frame = Frame::StatsReply { json: shared.stats_json() };
                if write_frame(&mut stream, &frame).is_err() {
                    return;
                }
            }
            Frame::Shutdown => {
                FrontDoorStopper { shared: Arc::clone(shared) }.stop();
                return;
            }
            other => {
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut stream,
                    &Frame::ErrorReply {
                        id: NO_REQUEST_ID,
                        trace: NO_TRACE_ID,
                        code: ErrorCode::BadFrame,
                        rung: 0,
                        retry_after_ms: 0,
                        message: format!("unexpected client frame {other:?}"),
                    },
                );
                return;
            }
        }
    }
}

/// Admission for one request: mint the trace ID, precheck,
/// backpressure push, then block until a runner delivers its terminal
/// frame.
fn admit_and_await(
    shared: &Arc<Shared>,
    client_id: u64,
    client_trace: u64,
    task: u32,
    deadline_ms: u32,
    input: RequestInput,
) -> Frame {
    let trace_id = shared.mint_trace(client_trace);
    let mut span = trace::span_cat("request", "serve.frontdoor");
    span.arg("trace", trace_id);
    span.arg("request", client_id);
    span.arg("task", task);
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    if shared.cfg.tasks > 0 && task >= shared.cfg.tasks {
        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        return Frame::ErrorReply {
            id: client_id,
            trace: trace_id,
            code: ErrorCode::UnknownTask,
            rung: 0,
            retry_after_ms: 0,
            message: format!("task {task} of {}", shared.cfg.tasks),
        };
    }
    if shared.draining() || shared.live_replicas.load(Ordering::Acquire) == 0 {
        shared.counters.unavailable.fetch_add(1, Ordering::Relaxed);
        return Frame::ErrorReply {
            id: client_id,
            trace: trace_id,
            code: ErrorCode::Unavailable,
            rung: 0,
            retry_after_ms: 0,
            message: "draining or no live replica".into(),
        };
    }
    let deadline = if deadline_ms == 0 {
        shared.cfg.deadline
    } else {
        Duration::from_millis(u64::from(deadline_ms))
    };
    flight::record(FlightKind::Admit, trace_id, u64::from(task));
    let (tx, rx) = mpsc::channel();
    let job = Job {
        client_id,
        trace: trace_id,
        task,
        input,
        deadline,
        admitted_at: Instant::now(),
        attempts: 0,
        resp: tx,
    };
    shared.in_flight.fetch_add(1, Ordering::AcqRel);
    if shared.queue.try_push(job).is_err() {
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        // Cross-process backpressure: the §8 admission queue's
        // QueueFull shed, surfaced on the wire as Overloaded (or
        // Unavailable when the push lost a race with drain). A shed is
        // the strongest overload signal the controller sees, and the
        // client gets a back-off hint derived from controller state.
        let (counter, code, msg, retry_after_ms) = if shared.draining() {
            (&shared.counters.unavailable, ErrorCode::Unavailable, "draining", 0)
        } else {
            shared.overload.observe_shed(Instant::now());
            (
                &shared.counters.shed,
                ErrorCode::Overloaded,
                "admission queue full",
                shared.overload.retry_after_ms(),
            )
        };
        counter.fetch_add(1, Ordering::Relaxed);
        flight::record(FlightKind::Terminal, trace_id, 2 + u64::from(code.to_u8()));
        return Frame::ErrorReply {
            id: client_id,
            trace: trace_id,
            code,
            rung: shared.overload.current_rung(),
            retry_after_ms,
            message: msg.into(),
        };
    }
    // Safety net far beyond any legitimate path (runner-side deadline +
    // liveness + a full respawn cycle); a job can only be stuck this
    // long if the supervisor itself is broken.
    let cap = deadline
        + shared.cfg.liveness
        + shared.cfg.spawn_timeout
        + shared.cfg.drain_timeout
        + Duration::from_secs(5);
    match rx.recv_timeout(cap) {
        Ok(frame) => frame,
        Err(_) => Frame::ErrorReply {
            id: client_id,
            trace: trace_id,
            code: ErrorCode::FailedAfterRetries,
            rung: 0,
            retry_after_ms: 0,
            message: "internal: request lost in the supervisor".into(),
        },
    }
}

// ---------------------------------------------------------------------
// HTTP scrape endpoints (GET /metrics, /healthz, /readyz)
// ---------------------------------------------------------------------

/// Minimal HTTP/1.1 responder for scrape clients that hit the frame
/// port: reads one request (header cap 8 KiB), answers, closes.
fn serve_http(shared: &Arc<Shared>, stream: &mut TcpStream) {
    use std::io::Read as _;
    let mut buf = Vec::with_capacity(512);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > 8192 || Instant::now() > deadline {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        http_respond(
            stream,
            "405 Method Not Allowed",
            "text/plain",
            "frame protocol or GET only\n",
        );
        return;
    }
    let ready = shared.ready_replicas.load(Ordering::Relaxed);
    let live = shared.live_replicas.load(Ordering::Relaxed);
    match path.split('?').next().unwrap_or("") {
        "/metrics" => {
            let body = shared.scrape_metrics();
            http_respond(
                stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/healthz" => {
            let body = format!(
                "{{\"status\":\"ok\",\"live_replicas\":{live},\"ready_replicas\":{ready},\
                 \"draining\":{}}}\n",
                shared.draining()
            );
            http_respond(stream, "200 OK", "application/json", &body);
        }
        "/readyz" => {
            if ready > 0 && !shared.draining() {
                http_respond(stream, "200 OK", "text/plain", "ready\n");
            } else {
                http_respond(
                    stream,
                    "503 Service Unavailable",
                    "text/plain",
                    "not ready\n",
                );
            }
        }
        "/stats" => {
            let body = shared.stats_json() + "\n";
            http_respond(stream, "200 OK", "application/json", &body);
        }
        _ => http_respond(
            stream,
            "404 Not Found",
            "text/plain",
            "try /metrics /healthz /readyz\n",
        ),
    }
}

fn http_respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    use std::io::Write as _;
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// A chaos thread hammering the front door's own listener with the
/// configured connection fault until drain.
fn conn_chaos_loop(shared: &Arc<Shared>, addr: std::net::SocketAddr, fault: ConnFault) {
    use std::io::Write as _;
    while !shared.draining() {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let bytes: Vec<u8> = match fault {
                // unknown kind 0xEE with 8 junk payload bytes
                ConnFault::Garbage => {
                    let mut b = vec![0xEE];
                    b.extend_from_slice(&8u32.to_le_bytes());
                    b.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33]);
                    b
                }
                // three header bytes, then a hard close
                ConnFault::Truncate => vec![1, 0xFF, 0xFF],
            };
            let _ = s.write_all(&bytes);
            if fault == ConnFault::Garbage {
                // give the server a beat to answer with BadFrame
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                let mut sink = [0u8; 256];
                use std::io::Read as _;
                let _ = s.read(&mut sink);
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

// ---------------------------------------------------------------------
// Replica runners (the supervisor)
// ---------------------------------------------------------------------

/// Supervises one replica slot for the lifetime of the front door:
/// spawn (gated by the slot's breaker), serve jobs from the shared
/// queue, recover from deaths, and exit once the queue is drained or
/// the restart budget is gone.
fn runner_loop(shared: &Arc<Shared>, slot: u32) {
    let epoch = Instant::now();
    let mut breaker = CircuitBreaker::new();
    let mut budget_used: u32 = 0;
    let mut consecutive_faults: u32 = 0;
    // Trace/metrics/clock frames are routed to the supervisor straight
    // off the reader thread, bypassing the reply channel.
    let side: Option<SideChannel> = shared.cfg.obs.then(|| {
        let shared = Arc::clone(shared);
        Arc::new(move |s: u32, frame: Frame| shared.ingest_side_frame(s, frame))
            as SideChannel
    });

    loop {
        if shared.draining() && shared.queue.depth() == 0 {
            // Nothing left to serve; no point paying another spawn.
            runner_exit(shared, slot, "drained before respawn");
            return;
        }
        // Breaker-gated spawn: Open = the Cooldown lifecycle state.
        let route = breaker.route(epoch.elapsed(), &shared.cfg.breaker);
        if route == Route::Parent {
            log_state(slot, ReplicaState::Cooldown);
            std::thread::sleep(TICK);
            continue;
        }
        log_state(slot, ReplicaState::Spawning);
        let mut proc = match ReplicaProc::spawn_with_side_channel(
            slot,
            &shared.cfg.replica_cmd,
            shared.cfg.spawn_timeout,
            side.clone(),
        ) {
            Ok(mut proc) => {
                breaker.report_success(route);
                consecutive_faults = 0;
                if shared.cfg.obs {
                    // Clock-offset probe for trace stitching; the reply
                    // arrives on the side channel.
                    let _ = proc.send(&Frame::ClockProbe { t0_us: trace::now_us() });
                }
                proc
            }
            Err(e) => {
                mime_obs::warn!(
                    "serve.frontdoor",
                    "replica spawn failed",
                    replica = slot,
                    error = e
                );
                shared.counters.spawn_failures.fetch_add(1, Ordering::Relaxed);
                breaker.report_failure(route, epoch.elapsed(), &shared.cfg.breaker);
                if !consume_budget(shared, slot, &mut budget_used) {
                    return;
                }
                backoff_sleep(shared, &mut consecutive_faults);
                continue;
            }
        };
        log_state(slot, ReplicaState::Ready);
        shared.ready_replicas.fetch_add(1, Ordering::AcqRel);

        // Serve until the queue drains (graceful exit) or the replica
        // dies under us.
        let death = serve_with_replica(shared, slot, &mut proc);
        shared.ready_replicas.fetch_sub(1, Ordering::AcqRel);
        match death {
            None => {
                proc.shutdown(shared.cfg.drain_timeout);
                shared.fold_replica_metrics(slot);
                runner_exit(shared, slot, "queue drained");
                return;
            }
            Some(jobs) => {
                log_state(slot, ReplicaState::Dead);
                proc.kill_and_reap();
                shared.fold_replica_metrics(slot);
                shared.counters.restarts.fetch_add(1, Ordering::Relaxed);
                for job in jobs {
                    requeue_or_fail(shared, slot, job);
                }
                breaker.report_failure(
                    Route::Primary,
                    epoch.elapsed(),
                    &shared.cfg.breaker,
                );
                if !consume_budget(shared, slot, &mut budget_used) {
                    return;
                }
                backoff_sleep(shared, &mut consecutive_faults);
            }
        }
    }
}

fn log_state(slot: u32, state: ReplicaState) {
    mime_obs::debug!(
        "serve.frontdoor",
        "replica state",
        replica = slot,
        state = state.name()
    );
}

/// Spends one unit of the slot's restart budget; on exhaustion the slot
/// dies permanently (and the last live slot fails the remaining
/// backlog). Returns `false` when the runner must exit.
fn consume_budget(shared: &Arc<Shared>, slot: u32, used: &mut u32) -> bool {
    *used += 1;
    if *used <= shared.cfg.restart_budget {
        return true;
    }
    mime_obs::error!(
        "serve.frontdoor",
        "restart budget exhausted; replica permanently dead",
        replica = slot,
        budget = shared.cfg.restart_budget
    );
    runner_exit(shared, slot, "restart budget exhausted");
    false
}

/// Marks the slot dead and, when it was the last live one, closes the
/// queue and fails the stranded backlog `Unavailable` so no client ever
/// hangs on a front door with nothing behind it.
fn runner_exit(shared: &Arc<Shared>, slot: u32, why: &str) {
    mime_obs::info!("serve.frontdoor", "runner exiting", replica = slot, reason = why);
    if shared.live_replicas.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last slot gone: nothing can serve, so the whole front door
        // drains — otherwise `wait()` would block on the accept loop
        // forever.
        shared.shutdown.store(true, Ordering::Release);
        shared.queue.close();
        while let Some(job) = shared.queue.try_pop() {
            let (id, trace) = (job.client_id, job.trace);
            shared.finish(
                &job,
                Frame::ErrorReply {
                    id,
                    trace,
                    code: ErrorCode::Unavailable,
                    rung: 0,
                    retry_after_ms: 0,
                    message: "no live replica".into(),
                },
            );
        }
    }
}

fn backoff_sleep(shared: &Arc<Shared>, consecutive_faults: &mut u32) {
    let pause = shared.cfg.restart_backoff.backoff(*consecutive_faults);
    *consecutive_faults = consecutive_faults.saturating_add(1);
    let deadline = Instant::now() + pause;
    while Instant::now() < deadline {
        if shared.draining() && shared.queue.depth() == 0 {
            return; // outer loop re-checks and exits
        }
        std::thread::sleep(TICK.min(pause));
    }
}

/// `mime_frontdoor_batch_size` histogram bounds.
const BATCH_SIZE_BUCKETS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// One admitted job riding a formed batch, with the queue wait the
/// front door measured at its dequeue (stamped onto its reply).
struct BatchItem {
    job: Job,
    queue_us: u32,
}

/// Pumps jobs through one live replica, coalescing the backlog into
/// deadline-aware batches (DESIGN.md §15). Returns `None` on graceful
/// queue drain, or `Some(jobs)` when the replica died with those jobs
/// still unanswered (empty if it died between dispatches).
fn serve_with_replica(
    shared: &Arc<Shared>,
    slot: u32,
    proc: &mut ReplicaProc,
) -> Option<Vec<Job>> {
    // Per-item compute EWMA (µs) feeding the batch-close deadline
    // check, seeded pessimistically so batches stay small until real
    // compute numbers arrive.
    let mut ewma_compute_us: f64 = 5_000.0;
    loop {
        let first = shared.queue.pop()?;
        let Some(first) = dequeue_live(shared, first) else { continue };
        let mut batch = vec![first];
        grow_batch(shared, slot, &mut batch, ewma_compute_us);
        shared.replica_outstanding[slot as usize].store(batch.len(), Ordering::Release);
        if mime_obs::metrics_enabled() {
            mime_obs::metrics::global()
                .histogram_with("mime_frontdoor_batch_size", &[], &BATCH_SIZE_BUCKETS)
                .observe(batch.len() as f64);
        }
        let outcome = dispatch_batch(shared, slot, proc, batch, &mut ewma_compute_us);
        shared.replica_outstanding[slot as usize].store(0, Ordering::Release);
        if let Err(unanswered) = outcome {
            return Some(unanswered);
        }
    }
}

/// At-dequeue bookkeeping for one job: sojourn into the overload
/// controller (the CoDel signal), flight event, queue-wait histogram,
/// and the deadline check — a request that blew its budget in line is
/// not worth a dispatch. Returns `None` (job already answered) when it
/// expired waiting.
fn dequeue_live(shared: &Arc<Shared>, job: Job) -> Option<BatchItem> {
    let now = Instant::now();
    let sojourn = now.duration_since(job.admitted_at);
    let queue_us = sojourn.as_micros().min(u128::from(u32::MAX)) as u32;
    shared.overload.observe_sojourn(now, sojourn);
    flight::record(FlightKind::Dequeue, job.trace, u64::from(queue_us));
    if mime_obs::metrics_enabled() {
        mime_obs::metrics::global()
            .histogram_seconds("mime_frontdoor_queue_wait_seconds")
            .observe(f64::from(queue_us) * 1e-6);
    }
    if now > job.admitted_at + job.deadline {
        shared.overload.observe_deadline_miss(now);
        let (id, trace) = (job.client_id, job.trace);
        shared.finish(
            &job,
            Frame::ErrorReply {
                id,
                trace,
                code: ErrorCode::DeadlineExceeded,
                rung: shared.overload.current_rung(),
                retry_after_ms: 0,
                message: "expired waiting in the admission queue".into(),
            },
        );
        return None;
    }
    Some(BatchItem { job, queue_us })
}

/// Grows a freshly started batch from the backlog. Close conditions
/// (DESIGN.md §15):
///
/// * **size** — `cfg.max_batch`, further fair-share capped at
///   `ceil(backlog / idle_slots)` so one runner never strip-mines a
///   backlog that other idle replicas could be draining in parallel —
///   the pull-model form of least-loaded routing;
/// * **deadline** — one more rider is admitted only while the tightest
///   in-batch expiry still clears the predicted batch compute time
///   (`ewma_per_item · (len + 1)` plus a dispatch margin);
/// * **linger** — with a partial batch and an empty backlog, wait at
///   most `cfg.linger` for a ride-along (zero: backlog-only batching).
fn grow_batch(
    shared: &Arc<Shared>,
    slot: u32,
    batch: &mut Vec<BatchItem>,
    ewma_compute_us: f64,
) {
    let max_batch = shared.cfg.max_batch.clamp(1, MAX_BATCH_ITEMS);
    if max_batch == 1 {
        return;
    }
    let idle_slots = shared
        .replica_outstanding
        .iter()
        .enumerate()
        .filter(|&(s, o)| s == slot as usize || o.load(Ordering::Acquire) == 0)
        .count()
        .max(1);
    let backlog = shared.queue.depth() + batch.len();
    let fair_share = backlog.div_ceil(idle_slots);
    let cap = max_batch.min(fair_share.max(1));
    let margin = Duration::from_millis(2);
    let mut tightest = batch
        .iter()
        .map(|i| i.job.admitted_at + i.job.deadline)
        .min()
        .expect("batch starts non-empty");
    while batch.len() < cap {
        let now = Instant::now();
        let predicted =
            Duration::from_micros((ewma_compute_us * (batch.len() + 1) as f64) as u64);
        if now + predicted + margin > tightest {
            break; // one more rider would endanger the tightest deadline
        }
        let next = match shared.queue.try_pop() {
            Some(job) => job,
            None if shared.cfg.linger > Duration::ZERO => {
                let linger = shared
                    .cfg
                    .linger
                    .min((tightest - margin - predicted).saturating_duration_since(now));
                match shared.queue.pop_timeout(linger) {
                    Some(job) => job,
                    None => break,
                }
            }
            None => break,
        };
        if let Some(item) = dequeue_live(shared, next) {
            tightest = tightest.min(item.job.admitted_at + item.job.deadline);
            batch.push(item);
        }
    }
}

/// Dispatches one formed batch (of one or more jobs) as a
/// `BatchRequest` and waits for every item's terminal frame. On `Err`
/// the replica died or wedged; the returned jobs are still unanswered
/// and the caller requeues them.
fn dispatch_batch(
    shared: &Arc<Shared>,
    slot: u32,
    proc: &mut ReplicaProc,
    batch: Vec<BatchItem>,
    ewma_compute_us: &mut f64,
) -> Result<(), Vec<Job>> {
    let now = Instant::now();
    let mut items = Vec::with_capacity(batch.len());
    let mut pending: Vec<(u64, BatchItem)> = Vec::with_capacity(batch.len());
    let mut max_remaining = Duration::ZERO;
    for item in batch {
        let job = &item.job;
        let remaining = (job.admitted_at + job.deadline).saturating_duration_since(now);
        max_remaining = max_remaining.max(remaining);
        let dispatch_id = shared.next_dispatch_id.fetch_add(1, Ordering::Relaxed);
        // The rung this request is served at: fleet rung, minus the
        // critical-class grace for pinned tasks. Replicas clamp to
        // their validated ladder depth.
        let rung = shared.overload.rung_for(job.task);
        let mut span = trace::span_cat("dispatch", "serve.frontdoor");
        span.arg("trace", job.trace);
        span.arg("replica", slot);
        if rung > 0 {
            span.arg("rung", rung);
        }
        flight::record(FlightKind::Dispatch, job.trace, u64::from(slot));
        items.push(Frame::Request {
            id: dispatch_id,
            trace: job.trace,
            task: job.task,
            deadline_ms: (remaining.as_millis() as u32).max(1),
            rung,
            input: job.input.clone(),
        });
        pending.push((dispatch_id, item));
    }
    if proc.send(&Frame::BatchRequest { items }).is_err() {
        return Err(pending.into_iter().map(|(_, i)| i.job).collect());
    }
    await_batch_replies(shared, slot, proc, pending, max_remaining, ewma_compute_us)
}

/// Waits until every dispatched item has its terminal frame (the
/// replica answers each item with its own `Reply` or `ErrorReply`),
/// refreshing the liveness deadline on heartbeats. A silent replica past
/// the liveness window is Suspect and killed; the unanswered jobs ride
/// the `Err` back for requeue.
fn await_batch_replies(
    shared: &Arc<Shared>,
    slot: u32,
    proc: &mut ReplicaProc,
    mut pending: Vec<(u64, BatchItem)>,
    max_remaining: Duration,
    ewma_compute_us: &mut f64,
) -> Result<(), Vec<Job>> {
    let dispatched = Instant::now();
    let mut last_seen = dispatched;
    // Absolute cap: the replica enforces each request's deadline itself
    // between layers, so a healthy-but-slow replica answers shortly
    // after the longest in-batch budget; this cap only fires on
    // pathological stalls that somehow keep heartbeating.
    let hard_cap = max_remaining + shared.cfg.liveness + Duration::from_secs(2);
    loop {
        match proc.recv_timeout(TICK) {
            Ok(Frame::Heartbeat { .. }) => last_seen = Instant::now(),
            Ok(frame @ (Frame::Reply { .. } | Frame::ErrorReply { .. })) => {
                last_seen = Instant::now();
                settle_one(shared, frame, &mut pending, ewma_compute_us);
                if pending.is_empty() {
                    return Ok(());
                }
            }
            Ok(other) => {
                mime_obs::warn!(
                    "serve.frontdoor",
                    "unexpected replica frame",
                    replica = slot,
                    frame = format!("{other:?}")
                );
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(pending.into_iter().map(|(_, i)| i.job).collect());
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if last_seen.elapsed() > shared.cfg.liveness {
                    log_state(slot, ReplicaState::Suspect);
                    mime_obs::warn!(
                        "serve.frontdoor",
                        "liveness deadline missed; killing wedged replica",
                        replica = slot,
                        silent_ms = last_seen.elapsed().as_millis() as u64
                    );
                    return Err(pending.into_iter().map(|(_, i)| i.job).collect());
                }
                if dispatched.elapsed() > hard_cap {
                    mime_obs::warn!(
                        "serve.frontdoor",
                        "batch overstayed its hard cap; killing replica",
                        replica = slot,
                        outstanding = pending.len()
                    );
                    return Err(pending.into_iter().map(|(_, i)| i.job).collect());
                }
            }
        }
    }
}

/// Routes one replica terminal frame: a dispatch id we are waiting on
/// is rewritten to the client's request id (with the front door's
/// measured queue wait stamped in) and finished; any other id is
/// ignored. Replies also feed the per-item compute EWMA the batch
/// former predicts with.
fn settle_one(
    shared: &Arc<Shared>,
    frame: Frame,
    pending: &mut Vec<(u64, BatchItem)>,
    ewma_compute_us: &mut f64,
) {
    match frame {
        Frame::Reply { id, trace, degraded, queue_us: _, compute_us, rung, logits } => {
            let Some(pos) = pending.iter().position(|(d, _)| *d == id) else { return };
            let (_, item) = pending.swap_remove(pos);
            *ewma_compute_us = 0.8 * *ewma_compute_us + 0.2 * f64::from(compute_us);
            let frame = Frame::Reply {
                id: item.job.client_id,
                trace,
                degraded,
                queue_us: item.queue_us,
                compute_us,
                rung,
                logits,
            };
            shared.finish(&item.job, frame);
        }
        Frame::ErrorReply { id, trace, code, rung, retry_after_ms, message } => {
            let Some(pos) = pending.iter().position(|(d, _)| *d == id) else { return };
            let (_, item) = pending.swap_remove(pos);
            if code == ErrorCode::DeadlineExceeded {
                shared.overload.observe_deadline_miss(Instant::now());
            }
            let frame = Frame::ErrorReply {
                id: item.job.client_id,
                trace,
                code,
                rung,
                retry_after_ms,
                message,
            };
            shared.finish(&item.job, frame);
        }
        _ => unreachable!("settle_one only receives terminal frames"),
    }
}

/// Requeue-or-fail-fast for a request in flight on a dying replica,
/// honoring the shared retry budget.
fn requeue_or_fail(shared: &Arc<Shared>, slot: u32, mut job: Job) {
    job.attempts += 1;
    if shared.cfg.retry.allows(job.attempts) {
        shared.counters.retries.fetch_add(1, Ordering::Relaxed);
        flight::record(FlightKind::Retry, job.trace, u64::from(job.attempts));
        mime_obs::info!(
            "serve.frontdoor",
            "replica died mid-request; requeued",
            replica = slot,
            request = job.client_id,
            attempt = job.attempts
        );
        shared.queue.requeue(job);
    } else {
        let (id, trace) = (job.client_id, job.trace);
        shared.finish(
            &job,
            Frame::ErrorReply {
                id,
                trace,
                code: ErrorCode::FailedAfterRetries,
                rung: 0,
                retry_after_ms: 0,
                message: format!("replica died on all {} attempts", job.attempts),
            },
        );
    }
}
