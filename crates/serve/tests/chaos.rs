//! Chaos harness for the serving loop.
//!
//! Replays the `mime_core::faults` injectors (bit-flip, truncate,
//! garble, NaN-poison) through the real deployment pipeline
//! (pack → corrupt → containment unpack → per-task plans) and drives
//! the [`Server`] over the result, plus injected worker panics, flaky
//! transients, stragglers, and breaker-tripping bank failures. The one
//! invariant every scenario asserts: **each request terminates in
//! exactly one terminal state** — success, degraded-to-parent, shed, or
//! deadline-exceeded — with no hang, no abort, and bit-exact
//! serial-path parity for every request that produced logits.

use bytes::Bytes;
use mime_core::deploy::{pack_model, unpack_model};
use mime_core::faults::FaultInjector;
use mime_core::{MimeNetwork, MultiTaskModel};
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{BoundNetwork, ComputePath, HardwareExecutor, SparseDispatch};
use mime_serve::{
    BreakerConfig, BreakerState, FaultPlan, Outcome, Request, RetryPolicy, ServeConfig,
    Server, ShedReason, VirtualClock,
};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SEED: u64 = 21;
const N_TASKS: usize = 3;

fn fleet_model(seed: u64, n_tasks: usize) -> MultiTaskModel {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
    let mut rng = StdRng::seed_from_u64(seed);
    let parent = build_network(&arch, &mut rng);
    let net = MimeNetwork::from_trained(&arch, &parent, 0.02).unwrap();
    let mut model = MultiTaskModel::new(net);
    for i in 0..n_tasks {
        let banks = model
            .network()
            .export_thresholds()
            .into_iter()
            .map(|t| t.map(|_| 0.02 + 0.05 * i as f32))
            .collect();
        model.register_task(format!("task{i}"), banks).unwrap();
    }
    model
}

fn plan_for(model: &mut MultiTaskModel, name: &str) -> BoundNetwork {
    model.activate(name).unwrap();
    BoundNetwork::from_mime(model.network()).unwrap()
}

/// A plan whose banks fail validation — the serving-level stand-in for
/// a task whose section the containment unpack rejected: the task still
/// exists in the fleet, but its bank is unusable, so every request must
/// degrade to the parent path.
fn unusable_plan(model: &mut MultiTaskModel) -> BoundNetwork {
    let orig = model.network().export_thresholds();
    let mut banks = orig.clone();
    FaultInjector::new(7).poison_tensor(&mut banks[0], 2);
    model.network_mut().import_thresholds(&banks).unwrap();
    let plan = BoundNetwork::from_mime(model.network()).unwrap();
    model.network_mut().import_thresholds(&orig).unwrap();
    plan
}

/// Pushes a packed image through `corrupt`, restores it with the
/// containment unpack, and builds one plan per fleet task. Returns the
/// plans and, per task, whether its bank survived (healthy tasks must
/// serve `Success` with serial-parity logits; unhealthy ones must
/// degrade).
fn plans_after_image_fault(
    corrupt: impl FnOnce(&mut Vec<u8>),
) -> (Vec<BoundNetwork>, Vec<bool>) {
    let source = fleet_model(SEED, N_TASKS);
    let mut bytes = pack_model(&source).unwrap().to_vec();
    corrupt(&mut bytes);
    // Receiver shares the architecture (and, via the seed, the parent
    // weights — the fleet's frozen W_parent is known-good even when the
    // shipped image is damaged beyond use).
    let mut receiver = fleet_model(SEED, 0);
    let loaded: Vec<String> = match unpack_model(&Bytes::from(bytes), &mut receiver) {
        Ok(report) => report.loaded,
        Err(_) => Vec::new(), // image unusable: no task bank survives
    };
    let mut plans = Vec::with_capacity(N_TASKS);
    let mut healthy = Vec::with_capacity(N_TASKS);
    for i in 0..N_TASKS {
        let name = format!("task{i}");
        if loaded.contains(&name) {
            plans.push(plan_for(&mut receiver, &name));
            healthy.push(true);
        } else {
            plans.push(unusable_plan(&mut receiver));
            healthy.push(false);
        }
    }
    (plans, healthy)
}

fn probe_image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 32, 32], move |j| (((j + i * 97) % 17) as f32 - 8.0) * 0.09)
}

fn requests(n: usize, n_tasks: usize) -> Vec<Request> {
    (0..n).map(|i| Request { id: i, task: i % n_tasks, image: probe_image(i) }).collect()
}

/// Serial-path reference logits for parity assertions, on the same
/// compute path the server's workers default to.
fn serial_logits(plan: &BoundNetwork, image: &Tensor) -> Vec<f32> {
    HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    )
    .run_image(plan, image, true)
    .unwrap()
}

fn base_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 24,
        workers: 2,
        retry: RetryPolicy::default(),
        breaker: BreakerConfig::default(),
        deadline: Duration::from_millis(5000),
        layer_cost: Duration::from_millis(1),
        zero_skip: true,
        dispatch: SparseDispatch::Auto,
    }
}

/// Every completion is in exactly one terminal state and the report's
/// aggregate counts agree with the per-request records.
fn assert_terminal_invariant(report: &mime_serve::ServeReport, total: usize) {
    assert_eq!(report.completions.len(), total, "every request must terminate");
    let ids: Vec<usize> = report.completions.iter().map(|c| c.id).collect();
    assert_eq!(ids, (0..total).collect::<Vec<_>>(), "one record per id, sorted");
    assert_eq!(
        report.success + report.degraded + report.shed + report.deadline_exceeded,
        total,
        "terminal states must partition the requests"
    );
}

#[test]
fn image_fault_injectors_never_hang_and_preserve_parity() {
    type Corruptor = Box<dyn FnOnce(&mut Vec<u8>)>;
    let modes: Vec<(&str, Corruptor)> = vec![
        (
            "bit-flip",
            Box::new(|b: &mut Vec<u8>| {
                // flip bits inside the last task's section payload
                let off = b.len() - 64;
                FaultInjector::new(3).flip_bits(&mut b[off..], 4);
            }),
        ),
        (
            "truncate",
            Box::new(|b: &mut Vec<u8>| {
                FaultInjector::new(4).truncate(b);
            }),
        ),
        (
            "garble",
            Box::new(|b: &mut Vec<u8>| {
                let off = b.len() - 256;
                FaultInjector::new(5).garble(&mut b[off..], 128);
            }),
        ),
        ("nan-poison", Box::new(|_| { /* handled at the bank level below */ })),
    ];
    for (mode, corrupt) in modes {
        let (plans, healthy) = if mode == "nan-poison" {
            let mut model = fleet_model(SEED, N_TASKS);
            let mut plans: Vec<BoundNetwork> =
                (0..N_TASKS).map(|i| plan_for(&mut model, &format!("task{i}"))).collect();
            plans[2] = unusable_plan(&mut model);
            (plans, vec![true, true, false])
        } else {
            plans_after_image_fault(corrupt)
        };
        let clock = VirtualClock::new();
        let cfg = base_config();
        let server = Server::new(
            &plans,
            ArrayConfig::eyeriss_65nm(),
            cfg,
            &clock,
            FaultPlan::default(),
        );
        let total = 18;
        let report = server.serve(requests(total, N_TASKS));
        assert_terminal_invariant(&report, total);
        assert_eq!(report.shed, 0, "{mode}: within capacity, nothing sheds");
        assert_eq!(report.deadline_exceeded, 0, "{mode}: generous deadline");
        let parents: Vec<BoundNetwork> =
            plans.iter().map(|p| p.strip_thresholds()).collect();
        for c in &report.completions {
            match &c.outcome {
                Outcome::Success(logits) => {
                    assert!(healthy[c.task], "{mode}: unhealthy task served primary");
                    let want = serial_logits(&plans[c.task], &probe_image(c.id));
                    assert_eq!(logits, &want, "{mode}: primary parity broke (id {})", c.id);
                }
                Outcome::DegradedToParent(logits) => {
                    assert!(!healthy[c.task], "{mode}: healthy task degraded");
                    let want = serial_logits(&parents[c.task], &probe_image(c.id));
                    assert_eq!(logits, &want, "{mode}: parent parity broke (id {})", c.id);
                }
                other => panic!("{mode}: unexpected outcome {other:?} (id {})", c.id),
            }
        }
    }
}

#[test]
fn worker_panics_are_isolated_restarted_and_requeued() {
    let mut model = fleet_model(SEED, N_TASKS);
    let plans: Vec<BoundNetwork> =
        (0..N_TASKS).map(|i| plan_for(&mut model, &format!("task{i}"))).collect();
    let clock = VirtualClock::new();
    let cfg = ServeConfig { workers: 1, ..base_config() };
    let faults = FaultPlan { panic_every: Some(4), ..FaultPlan::default() };
    let server = Server::new(&plans, ArrayConfig::eyeriss_65nm(), cfg, &clock, faults);
    let total = 16;
    let report = server.serve(requests(total, N_TASKS));
    assert_terminal_invariant(&report, total);
    // ids 0, 4, 8, 12 panic on their first attempt, get requeued, and
    // succeed on the retry — nothing is lost, nothing aborts.
    assert_eq!(report.success, total);
    assert_eq!(report.worker_restarts, 4);
    assert_eq!(report.retries, 4);
    for c in &report.completions {
        let expected_attempts = if c.id % 4 == 0 { 2 } else { 1 };
        assert_eq!(c.attempts, expected_attempts, "id {}", c.id);
    }
}

#[test]
fn flaky_transients_retry_with_deterministic_backoff() {
    let mut model = fleet_model(SEED, 1);
    let plans = vec![plan_for(&mut model, "task0")];
    let clock = VirtualClock::new();
    let cfg = ServeConfig {
        workers: 1,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(4),
            multiplier: 2,
            max_backoff: Duration::from_millis(64),
        },
        ..base_config()
    };
    let faults = FaultPlan { flaky_every: Some(3), ..FaultPlan::default() };
    let server = Server::new(&plans, ArrayConfig::eyeriss_65nm(), cfg, &clock, faults);
    let total = 9;
    let run = || server.serve(requests(total, 1));
    let a = run();
    assert_terminal_invariant(&a, total);
    assert_eq!(a.success, total, "flaky requests recover on retry");
    assert_eq!(a.retries, 3, "ids 0, 3, 6 each retried once");
    // Determinism under the virtual clock: an identical second run
    // produces the identical outcome sequence and counters.
    let b = run();
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.attempts, y.attempts);
        assert_eq!(x.outcome, y.outcome);
    }
}

#[test]
fn deadlines_fire_between_layers_and_at_dequeue() {
    let mut model = fleet_model(SEED, 1);
    let plans = vec![plan_for(&mut model, "task0")];
    let clock = VirtualClock::new();
    let cfg = ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(10),
        layer_cost: Duration::from_millis(2),
        ..base_config()
    };
    let server =
        Server::new(&plans, ArrayConfig::eyeriss_65nm(), cfg, &clock, FaultPlan::default());
    let total = 6;
    let report = server.serve(requests(total, 1));
    assert_terminal_invariant(&report, total);
    assert_eq!(report.deadline_exceeded, total, "budget is far below one inference");
    // The first request dies *between layers* (it ran some steps before
    // the budget ran out); everyone behind it in the queue dies at
    // dequeue without consuming an attempt.
    assert_eq!(report.completions[0].attempts, 1);
    for c in &report.completions[1..] {
        assert_eq!(c.attempts, 0, "id {} should be shed at dequeue", c.id);
    }
}

/// The sharper dequeue case: a deadline that comfortably covers one
/// inference still expires for requests whose budget is eaten by
/// *queue wait* alone. The head-of-line request succeeds; the one
/// behind it starts computing but dies between layers once the queue
/// time it already paid leaves too little budget; everything further
/// back expires at dequeue having never consumed an attempt.
#[test]
fn deadline_expires_during_queue_wait_at_dequeue() {
    use mime_serve::Clock;
    let mut model = fleet_model(SEED, 1);
    let plans = vec![plan_for(&mut model, "task0")];

    // Calibrate: one inference's virtual cost at 1ms/layer, measured
    // with a deadline far too generous to interfere.
    let probe_clock = VirtualClock::new();
    let cfg = ServeConfig {
        workers: 1,
        layer_cost: Duration::from_millis(1),
        deadline: Duration::from_secs(3600),
        ..base_config()
    };
    let server = Server::new(
        &plans,
        ArrayConfig::eyeriss_65nm(),
        cfg,
        &probe_clock,
        FaultPlan::default(),
    );
    let report = server.serve(requests(1, 1));
    assert_eq!(report.success, 1, "calibration request must succeed");
    let one_inference = probe_clock.now();
    assert!(one_inference >= Duration::from_millis(2), "virtual layer charges accrued");

    // Deadline = 1.5 inferences: plenty for the head-of-line request,
    // fatal for anything queued behind it on a single worker.
    let clock = VirtualClock::new();
    let cfg = ServeConfig {
        workers: 1,
        layer_cost: Duration::from_millis(1),
        deadline: one_inference + one_inference / 2,
        ..base_config()
    };
    let server =
        Server::new(&plans, ArrayConfig::eyeriss_65nm(), cfg, &clock, FaultPlan::default());
    let total = 4;
    let report = server.serve(requests(total, 1));
    assert_terminal_invariant(&report, total);
    assert_eq!(report.success, 1, "head-of-line request finishes inside its budget");
    assert_eq!(report.deadline_exceeded, total - 1, "queued requests expire");
    assert!(
        matches!(report.completions[0].outcome, Outcome::Success(_)),
        "id 0 never waited, so its untouched budget covers the inference"
    );
    // id 1 was dequeued mid-budget (after ~1 inference of queue wait
    // against a 1.5-inference budget): it passes the dequeue check,
    // burns an attempt, and dies between layers.
    assert_eq!(report.completions[1].outcome, Outcome::DeadlineExceeded);
    assert!(report.completions[1].attempts >= 1, "id 1 started computing");
    // ids 2.. expired purely from queue wait: by the time a worker
    // popped them the budget was already gone, so the dequeue check
    // fails them without a single attempt.
    for c in &report.completions[2..] {
        assert_eq!(c.outcome, Outcome::DeadlineExceeded, "id {} expired in queue", c.id);
        assert_eq!(c.attempts, 0, "id {} must not consume an attempt", c.id);
    }
}

#[test]
fn breaker_trips_to_parent_and_recovers_deterministically() {
    let mut model = fleet_model(SEED, 1);
    let plans = vec![plan_for(&mut model, "task0")];
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 64,
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(120),
        },
        ..base_config()
    };
    // Primary path fails for ids < 12, then heals (a transient bank
    // fault: e.g. the image was re-pushed).
    let faults = FaultPlan { fail_task_until: Some((0, 12)), ..FaultPlan::default() };
    let total = 40;
    let run = || {
        let clock = VirtualClock::new();
        let server = Server::new(&plans, ArrayConfig::eyeriss_65nm(), cfg, &clock, faults);
        server.serve(requests(total, 1))
    };
    let report = run();
    assert_terminal_invariant(&report, total);
    // Trip: the first `failure_threshold` requests fail the primary
    // path (each degrading to the parent for its own response), which
    // trips the breaker…
    for c in &report.completions[..3] {
        assert!(
            matches!(c.outcome, Outcome::DegradedToParent(_)),
            "id {} should degrade while the breaker counts failures",
            c.id
        );
    }
    assert!(report.breaker_trips >= 1, "breaker must trip");
    // …and recovery: once ids pass the fault cutoff, a HalfOpen probe
    // succeeds, the breaker closes, and the tail serves Success on the
    // primary path again.
    assert_eq!(report.breaker_states, vec![BreakerState::Closed]);
    let last = report.completions.last().unwrap();
    assert!(
        matches!(last.outcome, Outcome::Success(_)),
        "tail requests must be back on the primary path"
    );
    assert!(report.success > 0 && report.degraded > 0);
    assert_eq!(report.success + report.degraded, total);
    // Deterministic under the virtual clock: identical re-run, identical
    // trip count and outcome sequence.
    let again = run();
    assert_eq!(report.breaker_trips, again.breaker_trips);
    for (x, y) in report.completions.iter().zip(&again.completions) {
        assert_eq!(x.outcome, y.outcome, "id {}", x.id);
    }
}

#[test]
fn overload_sheds_exactly_the_overflow_and_unknown_tasks() {
    let mut model = fleet_model(SEED, 2);
    let plans: Vec<BoundNetwork> =
        (0..2).map(|i| plan_for(&mut model, &format!("task{i}"))).collect();
    let clock = VirtualClock::new();
    let cfg = ServeConfig { queue_capacity: 8, workers: 2, ..base_config() };
    let server =
        Server::new(&plans, ArrayConfig::eyeriss_65nm(), cfg, &clock, FaultPlan::default());
    let mut reqs = requests(12, 2);
    // two requests address a task that does not exist
    reqs.push(Request { id: 12, task: 99, image: probe_image(12) });
    reqs.push(Request { id: 13, task: 7, image: probe_image(13) });
    let total = reqs.len();
    let report = server.serve(reqs);
    assert_terminal_invariant(&report, total);
    // 12 admissible requests into capacity 8 → exactly 4 QueueFull, and
    // the 2 unknown-task requests shed without touching the queue.
    assert_eq!(report.success, 8);
    assert_eq!(report.shed, 6);
    assert_eq!(report.peak_queue_depth, 8);
    let mut queue_full = 0;
    let mut unknown = 0;
    for c in &report.completions {
        match c.outcome {
            Outcome::Shed(ShedReason::QueueFull) => queue_full += 1,
            Outcome::Shed(ShedReason::UnknownTask) => unknown += 1,
            _ => {}
        }
    }
    assert_eq!(queue_full, 4);
    assert_eq!(unknown, 2);
}

#[test]
fn stragglers_blow_their_own_deadline_only() {
    let mut model = fleet_model(SEED, 1);
    let plans = vec![plan_for(&mut model, "task0")];
    let clock = VirtualClock::new();
    // Normal requests take ~one simulated ms per layer and fit the
    // budget with huge headroom; a 1000x-slowed straggler cannot
    // finish. The straggler is the *last* request (id 5): under the
    // shared virtual clock, a straggler at the head of a single-worker
    // line would burn everyone's budget — a real overload collapse, but
    // not what this test isolates.
    let cfg = ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(5000),
        layer_cost: Duration::from_millis(1),
        ..base_config()
    };
    let faults =
        FaultPlan { slow_every: Some(5), slow_factor: 1000, ..FaultPlan::default() };
    let server = Server::new(&plans, ArrayConfig::eyeriss_65nm(), cfg, &clock, faults);
    let reqs: Vec<Request> =
        (1..=5).map(|i| Request { id: i, task: 0, image: probe_image(i) }).collect();
    let report = server.serve(reqs);
    assert_eq!(report.completions.len(), 5, "every request must terminate");
    // id 5 is the straggler; ids 1-4 complete untouched before it.
    let last = report.completions.last().unwrap();
    assert_eq!(last.id, 5);
    assert!(matches!(last.outcome, Outcome::DeadlineExceeded));
    assert_eq!(report.deadline_exceeded, 1);
    assert_eq!(report.success, 4);
}
