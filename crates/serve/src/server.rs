//! The resilient serving loop.
//!
//! A [`Server`] owns the per-task execution plans (primary thresholded
//! path + exact parent fallback path), a bounded admission queue, one
//! circuit breaker per task, and a retry policy, and drives a pool of
//! panic-isolated supervised workers over [`HardwareExecutor`]
//! replicas. The structural invariant the chaos tests pin down:
//! **every admitted request terminates in exactly one terminal state**
//! — [`Outcome::Success`], [`Outcome::DegradedToParent`],
//! [`Outcome::Shed`], or [`Outcome::DeadlineExceeded`] — never a hang,
//! never a process abort.

use crate::{
    BoundedQueue, BreakerConfig, BreakerState, CircuitBreaker, Clock, RetryPolicy, Route,
};
use mime_core::MimeError;
use mime_runtime::{BoundNetwork, ComputePath, HardwareExecutor, SparseDispatch};
use mime_systolic::ArrayConfig;
use mime_tensor::{Tensor, TensorError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Serving-loop knobs. Durations are in clock time — virtual under a
/// [`crate::VirtualClock`], wall time under [`crate::SystemClock`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission-queue capacity; requests beyond it shed `QueueFull`.
    pub queue_capacity: usize,
    /// Supervised worker count.
    pub workers: usize,
    /// Retry/backoff policy for transient faults.
    pub retry: RetryPolicy,
    /// Per-task circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Per-request budget, anchored at admission time and checked at
    /// dequeue and between layers.
    pub deadline: Duration,
    /// Simulated cost charged to the clock per executed layer (drives
    /// deterministic deadline behaviour under the virtual clock; free
    /// under the system clock).
    pub layer_cost: Duration,
    /// Zero-gating on the functional array (MIME's compute saving).
    pub zero_skip: bool,
    /// Sparse GEMM dispatch policy on the software path
    /// ([`SparseDispatch::DenseOnly`] pins the packed dense kernels —
    /// the `--dense-only` escape hatch).
    pub dispatch: SparseDispatch,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 48,
            workers: 2,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            deadline: Duration::from_millis(5000),
            layer_cost: Duration::from_millis(1),
            zero_skip: true,
            dispatch: SparseDispatch::Auto,
        }
    }
}

/// Deterministic fault injection for chaos tests and `mime serve
/// --inject`. All hooks key off the request id, so a given plan
/// produces the identical fault sequence on every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Panic the worker on the first attempt of every `n`-th request
    /// (ids `0, n, 2n, …`) — exercises supervised restart + requeue.
    pub panic_every: Option<usize>,
    /// Fail the first attempt of every `n`-th request with a transient
    /// error — exercises backoff retry.
    pub flaky_every: Option<usize>,
    /// Multiply the per-layer cost of every `n`-th request by
    /// [`slow_factor`](Self::slow_factor) — exercises deadlines.
    pub slow_every: Option<usize>,
    /// Cost multiplier for slow requests (values ≤ 1 mean "not slow").
    pub slow_factor: u32,
    /// `(task, until_id)`: the primary path of `task` fails for every
    /// request with `id < until_id` — exercises breaker trip *and*
    /// recovery once ids pass the cutoff.
    pub fail_task_until: Option<(usize, usize)>,
}

impl FaultPlan {
    fn hits(every: Option<usize>, id: usize) -> bool {
        every.is_some_and(|n| n > 0 && id.is_multiple_of(n))
    }
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id; completions are reported sorted by it.
    pub id: usize,
    /// Task (plan) index the request addresses.
    pub task: usize,
    /// Input image `[C, H, W]`.
    pub image: Tensor,
}

/// Why a request was shed without producing logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Rejected at admission: the bounded queue was full.
    QueueFull,
    /// The retry budget ran out without a successful attempt.
    RetriesExhausted,
    /// The request addressed a task index with no plan.
    UnknownTask,
}

/// Terminal state of one request — exactly one per admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Primary (thresholded) path succeeded.
    Success(Vec<f32>),
    /// Served by the exact parent path (breaker open, or per-request
    /// fallback after a primary bank failure).
    DegradedToParent(Vec<f32>),
    /// No logits: shed for the recorded reason.
    Shed(ShedReason),
    /// The deadline budget ran out at dequeue or between layers.
    DeadlineExceeded,
}

/// One request's terminal record.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request id.
    pub id: usize,
    /// The task it addressed.
    pub task: usize,
    /// How it terminated.
    pub outcome: Outcome,
    /// Attempts consumed (0 for requests shed at admission).
    pub attempts: u32,
}

/// Aggregate result of one serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Every request's terminal record, sorted by id.
    pub completions: Vec<Completion>,
    /// Requests that ended [`Outcome::Success`].
    pub success: usize,
    /// Requests that ended [`Outcome::DegradedToParent`].
    pub degraded: usize,
    /// Requests that ended [`Outcome::Shed`].
    pub shed: usize,
    /// Requests that ended [`Outcome::DeadlineExceeded`].
    pub deadline_exceeded: usize,
    /// Retries performed (requeues after transient faults/panics).
    pub retries: u64,
    /// Worker executor replicas rebuilt after a caught panic.
    pub worker_restarts: u64,
    /// Circuit-breaker trips across all tasks.
    pub breaker_trips: u64,
    /// Per-task breaker state at drain time.
    pub breaker_states: Vec<BreakerState>,
    /// Peak admission-queue depth.
    pub peak_queue_depth: usize,
}

struct Job {
    request: Request,
    admitted_at: Duration,
    attempts: u32,
}

/// The serving loop. Plans are fixed at construction;
/// [`serve`](Self::serve) runs one admission-and-drain cycle over a
/// request list.
pub struct Server<'a> {
    plans: &'a [BoundNetwork],
    parents: Vec<BoundNetwork>,
    hw: ArrayConfig,
    cfg: ServeConfig,
    clock: &'a dyn Clock,
    faults: FaultPlan,
}

impl<'a> Server<'a> {
    /// Builds a server over per-task `plans`. The parent fallback path
    /// for every task is derived up front with
    /// [`BoundNetwork::strip_thresholds`] — the exact parent route PR
    /// 1's degradation uses.
    pub fn new(
        plans: &'a [BoundNetwork],
        hw: ArrayConfig,
        cfg: ServeConfig,
        clock: &'a dyn Clock,
        faults: FaultPlan,
    ) -> Self {
        let parents = plans.iter().map(|p| p.strip_thresholds()).collect();
        Server { plans, parents, hw, cfg, clock, faults }
    }

    /// Admits `requests` through the bounded queue, closes admission,
    /// and drains with the supervised worker pool. Returns once every
    /// admitted request has reached its terminal state.
    pub fn serve(&self, requests: Vec<Request>) -> ServeReport {
        let total = requests.len();
        let queue: BoundedQueue<Job> = BoundedQueue::new(self.cfg.queue_capacity);
        let completions: Mutex<Vec<Completion>> = Mutex::new(Vec::with_capacity(total));
        let retries = AtomicU64::new(0);
        let restarts = AtomicU64::new(0);
        let breakers: Vec<Mutex<CircuitBreaker>> =
            self.plans.iter().map(|_| Mutex::new(CircuitBreaker::new())).collect();

        // Admission: shed immediately on unknown task or full queue.
        let mut peak_depth = 0usize;
        for request in requests {
            if request.task >= self.plans.len() {
                completions.lock().unwrap().push(Completion {
                    id: request.id,
                    task: request.task,
                    outcome: Outcome::Shed(ShedReason::UnknownTask),
                    attempts: 0,
                });
                continue;
            }
            let admitted_at = self.clock.now();
            let job = Job { request, admitted_at, attempts: 0 };
            if let Err(job) = queue.try_push(job) {
                completions.lock().unwrap().push(Completion {
                    id: job.request.id,
                    task: job.request.task,
                    outcome: Outcome::Shed(ShedReason::QueueFull),
                    attempts: 0,
                });
            }
            peak_depth = peak_depth.max(queue.depth());
        }
        // Graceful drain: no new admissions; workers exit when the
        // backlog (including requeues) is exhausted.
        queue.close();

        let workers = self.cfg.workers.clamp(1, total.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    self.worker_loop(&queue, &breakers, &completions, &retries, &restarts)
                });
            }
        });

        let mut completions = completions.into_inner().unwrap();
        completions.sort_by_key(|c| c.id);
        debug_assert_eq!(completions.len(), total, "one terminal state per request");
        let mut report = ServeReport {
            retries: retries.into_inner(),
            worker_restarts: restarts.into_inner(),
            peak_queue_depth: peak_depth,
            ..Default::default()
        };
        for b in &breakers {
            let b = b.lock().unwrap();
            report.breaker_trips += b.trips();
            report.breaker_states.push(b.state());
        }
        for c in &completions {
            match c.outcome {
                Outcome::Success(_) => report.success += 1,
                Outcome::DegradedToParent(_) => report.degraded += 1,
                Outcome::Shed(_) => report.shed += 1,
                Outcome::DeadlineExceeded => report.deadline_exceeded += 1,
            }
        }
        report.completions = completions;
        publish_metrics(&report, total);
        report
    }

    fn worker_loop(
        &self,
        queue: &BoundedQueue<Job>,
        breakers: &[Mutex<CircuitBreaker>],
        completions: &Mutex<Vec<Completion>>,
        retries: &AtomicU64,
        restarts: &AtomicU64,
    ) {
        let mut exec = HardwareExecutor::with_options(
            self.hw,
            ComputePath::Software,
            self.cfg.dispatch,
        );
        while let Some(job) = queue.pop() {
            self.process_one(
                &mut exec,
                job,
                queue,
                breakers,
                completions,
                retries,
                restarts,
            );
        }
    }

    /// Drives one dequeued job to a terminal state or a requeue.
    #[allow(clippy::too_many_arguments)]
    fn process_one(
        &self,
        exec: &mut HardwareExecutor,
        job: Job,
        queue: &BoundedQueue<Job>,
        breakers: &[Mutex<CircuitBreaker>],
        completions: &Mutex<Vec<Completion>>,
        retries: &AtomicU64,
        restarts: &AtomicU64,
    ) {
        let Job { request, admitted_at, attempts } = job;
        let task = request.task;
        let id = request.id;
        let budget = admitted_at + self.cfg.deadline;
        let complete = move |outcome: Outcome, attempts: u32| {
            completions.lock().unwrap().push(Completion { id, task, outcome, attempts });
        };

        // Deadline check at dequeue: a request that already blew its
        // budget waiting in line is not worth an attempt.
        if self.clock.now() > budget {
            complete(Outcome::DeadlineExceeded, attempts);
            return;
        }

        let route =
            breakers[task].lock().unwrap().route(self.clock.now(), &self.cfg.breaker);
        let primary = !matches!(route, Route::Parent);
        let plan = if primary { &self.plans[task] } else { &self.parents[task] };
        let layer_cost = if FaultPlan::hits(self.faults.slow_every, request.id) {
            self.cfg.layer_cost * self.faults.slow_factor.max(1)
        } else {
            self.cfg.layer_cost
        };

        let attempt =
            catch_unwind(AssertUnwindSafe(|| -> mime_runtime::Result<Vec<f32>> {
                if primary && attempts == 0 {
                    if FaultPlan::hits(self.faults.panic_every, request.id) {
                        panic!("injected worker panic (request {})", request.id);
                    }
                    if FaultPlan::hits(self.faults.flaky_every, request.id) {
                        return Err(TensorError::WorkerPanic {
                            op: "serve_flaky_injection",
                            message: format!(
                                "injected transient fault (request {})",
                                request.id
                            ),
                        }
                        .into());
                    }
                }
                if primary {
                    // The consecutive bank failures the breaker counts: a
                    // poisoned bank yields finite-but-wrong logits, so it
                    // must be caught by validation, not by execution.
                    plan.validate_thresholds()?;
                    if let Some((bad_task, until)) = self.faults.fail_task_until {
                        if task == bad_task && request.id < until {
                            return Err(MimeError::NonFinite {
                                stage: "injected bank failure",
                                layer: 0,
                                index: request.id,
                            });
                        }
                    }
                }
                exec.run_image_guarded(
                    plan,
                    &request.image,
                    self.cfg.zero_skip,
                    &mut |_| {
                        self.clock.charge(layer_cost);
                        let now = self.clock.now();
                        if now > budget {
                            return Err(MimeError::DeadlineExceeded {
                                task: format!("task{task}"),
                                over_ms: (now - budget).as_millis() as u64,
                            });
                        }
                        Ok(())
                    },
                )
            }));

        match attempt {
            // Worker panicked: the supervisor replaces the executor
            // replica (the "restart") and requeues the in-flight
            // request — it was admitted, so it still must terminate.
            Err(_payload) => {
                restarts.fetch_add(1, Ordering::Relaxed);
                *exec = HardwareExecutor::with_options(
                    self.hw,
                    ComputePath::Software,
                    self.cfg.dispatch,
                );
                mime_obs::warn!(
                    "serve.worker",
                    "worker panicked; replica restarted, request requeued",
                    request = request.id,
                    task = task
                );
                self.retry_or_shed(
                    request,
                    admitted_at,
                    attempts,
                    queue,
                    retries,
                    complete,
                );
            }
            Ok(Ok(logits)) => {
                breakers[task].lock().unwrap().report_success(route);
                let outcome = if primary {
                    Outcome::Success(logits)
                } else {
                    Outcome::DegradedToParent(logits)
                };
                complete(outcome, attempts + 1);
            }
            Ok(Err(MimeError::DeadlineExceeded { .. })) => {
                complete(Outcome::DeadlineExceeded, attempts + 1);
            }
            // Transient fault: deterministic exponential backoff, then
            // back to the front of the queue.
            Ok(Err(MimeError::Tensor(TensorError::WorkerPanic { .. }))) => {
                self.retry_or_shed(
                    request,
                    admitted_at,
                    attempts,
                    queue,
                    retries,
                    complete,
                );
            }
            // Permanent fault (invalid bank, plan mismatch, …): feed
            // the breaker, then fall back to the exact parent path for
            // *this* request so it still terminates with logits.
            Ok(Err(e)) => {
                if primary {
                    breakers[task].lock().unwrap().report_failure(
                        route,
                        self.clock.now(),
                        &self.cfg.breaker,
                    );
                    mime_obs::warn!(
                        "serve.worker",
                        "primary path failed; serving parent fallback",
                        request = request.id,
                        task = task,
                        error = e
                    );
                    let fallback = exec.run_image_guarded(
                        &self.parents[task],
                        &request.image,
                        self.cfg.zero_skip,
                        &mut |_| {
                            self.clock.charge(layer_cost);
                            let now = self.clock.now();
                            if now > budget {
                                return Err(MimeError::DeadlineExceeded {
                                    task: format!("task{task}"),
                                    over_ms: (now - budget).as_millis() as u64,
                                });
                            }
                            Ok(())
                        },
                    );
                    match fallback {
                        Ok(logits) => {
                            complete(Outcome::DegradedToParent(logits), attempts + 1)
                        }
                        Err(MimeError::DeadlineExceeded { .. }) => {
                            complete(Outcome::DeadlineExceeded, attempts + 1)
                        }
                        Err(_) => complete(
                            Outcome::Shed(ShedReason::RetriesExhausted),
                            attempts + 1,
                        ),
                    }
                } else {
                    // The parent path itself failed permanently —
                    // nothing gentler is left to degrade to.
                    complete(Outcome::Shed(ShedReason::RetriesExhausted), attempts + 1);
                }
            }
        }
    }

    /// Requeues after a transient fault when the retry budget allows,
    /// otherwise sheds the request.
    fn retry_or_shed(
        &self,
        request: Request,
        admitted_at: Duration,
        attempts: u32,
        queue: &BoundedQueue<Job>,
        retries: &AtomicU64,
        complete: impl Fn(Outcome, u32),
    ) {
        let next = attempts + 1;
        if self.cfg.retry.allows(next) {
            self.clock.sleep(self.cfg.retry.backoff(attempts));
            retries.fetch_add(1, Ordering::Relaxed);
            queue.requeue(Job { request, admitted_at, attempts: next });
        } else {
            complete(Outcome::Shed(ShedReason::RetriesExhausted), next);
        }
    }
}

/// Publishes the run's counters and gauges to the global mime-obs
/// registry (no-op when metrics are disabled).
fn publish_metrics(report: &ServeReport, total: usize) {
    if !mime_obs::metrics_enabled() {
        return;
    }
    let r = mime_obs::metrics::global();
    r.counter("mime_serve_requests_total").add(total as u64);
    r.counter("mime_serve_success_total").add(report.success as u64);
    r.counter("mime_serve_degraded_total").add(report.degraded as u64);
    r.counter("mime_serve_shed_total").add(report.shed as u64);
    r.counter("mime_serve_deadline_exceeded_total").add(report.deadline_exceeded as u64);
    r.counter("mime_serve_retries_total").add(report.retries);
    r.counter("mime_serve_worker_restarts_total").add(report.worker_restarts);
    r.counter("mime_serve_breaker_trips_total").add(report.breaker_trips);
    r.gauge("mime_serve_queue_depth").set(report.peak_queue_depth as f64);
    let open =
        report.breaker_states.iter().filter(|s| !matches!(s, BreakerState::Closed)).count();
    r.gauge("mime_serve_breaker_open").set(open as f64);
}
