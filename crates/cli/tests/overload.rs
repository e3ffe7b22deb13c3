//! Overload brownout ladder, end to end: the compiled `mime` binary
//! serving as a TCP front door while clients offer ~2× its sustained
//! capacity, once with the brownout controller enabled and once with
//! `--no-brownout` as the shed-only control.
//!
//! The acceptance invariants (DESIGN.md §13):
//! - every request reaches exactly one terminal frame in both runs;
//! - under sustained overload the controller escalates (replies carry
//!   rungs above 0) with hysteretic, dwell-rate-bounded transitions —
//!   no flapping;
//! - goodput (requests answered with logits inside their deadline) is
//!   strictly higher with brownout than in the shed-only control;
//! - the `--no-brownout` control never leaves rung 0;
//! - the `mime_brownout_*` / `mime_replica_rung_total` metrics cross
//!   the process boundary into the front door's metrics file.

mod support;

use mime_serve::proto::{read_frame, write_frame, ErrorCode, Frame, RequestInput};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use support::FrontDoor;

const CONNS: usize = 48;
const PER_CONN: usize = 60;
const TASKS: usize = 2;

struct Fleet {
    door: FrontDoor,
    metrics: PathBuf,
}

fn start_fleet(dir: &Path, label: &str, brownout: bool) -> Fleet {
    let metrics = dir.join(format!("metrics_{label}.prom"));
    let tasks = TASKS.to_string();
    let mut args = vec![
        "--metrics-out",
        metrics.to_str().unwrap(),
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--replicas",
        "1",
        "--tasks",
        &tasks,
    ];
    if !brownout {
        args.push("--no-brownout");
    }
    Fleet { door: FrontDoor::spawn(&args), metrics }
}

#[derive(Default)]
struct Tally {
    success: u64,
    degraded: u64,
    shed: u64,
    unavailable: u64,
    deadline_exceeded: u64,
    failed: u64,
    /// Reply (logit-carrying) counts by served rung, clamped at 7.
    rungs: [u64; 8],
}

impl Tally {
    fn terminal(&self) -> u64 {
        self.success
            + self.degraded
            + self.shed
            + self.unavailable
            + self.deadline_exceeded
            + self.failed
    }
    /// Requests answered with logits: validated brownout rungs count —
    /// that is the point of trading pruning aggressiveness for latency.
    fn useful(&self) -> u64 {
        self.success + self.degraded
    }
    fn absorb(&mut self, o: &Tally) {
        self.success += o.success;
        self.degraded += o.degraded;
        self.shed += o.shed;
        self.unavailable += o.unavailable;
        self.deadline_exceeded += o.deadline_exceeded;
        self.failed += o.failed;
        for (a, b) in self.rungs.iter_mut().zip(o.rungs.iter()) {
            *a += b;
        }
    }
}

fn send_one(s: &mut TcpStream, id: u64, deadline_ms: u32, tally: &mut Tally) {
    let req = Frame::Request {
        id,
        trace: 0,
        task: (id as usize % TASKS) as u32,
        deadline_ms,
        rung: 0,
        input: RequestInput::Probe(id as u32),
    };
    write_frame(s, &req).expect("request written");
    match read_frame(s).expect("one terminal frame per request") {
        Frame::Reply { id: rid, degraded, rung, .. } => {
            assert_eq!(rid, id, "reply id matches request");
            tally.rungs[usize::from(rung).min(7)] += 1;
            if degraded {
                tally.degraded += 1;
            } else {
                tally.success += 1;
            }
        }
        Frame::ErrorReply { id: rid, code, .. } => {
            assert_eq!(rid, id, "error id matches request");
            match code {
                ErrorCode::Overloaded => tally.shed += 1,
                ErrorCode::Unavailable => tally.unavailable += 1,
                ErrorCode::DeadlineExceeded => tally.deadline_exceeded += 1,
                _ => tally.failed += 1,
            }
        }
        other => panic!("non-terminal frame for request {id}: {other:?}"),
    }
}

/// Offers ~2× the fleet's sustained capacity: `CONNS` connections each
/// pace sends on a fixed open-loop schedule whose aggregate rate is
/// `2 / service_time`; once the queue saturates, behind-schedule sends
/// go out immediately (closed-loop catch-up), holding the overload.
fn drive(addr: &str, deadline_ms: u32, period: Duration) -> (Tally, Duration) {
    let started = Instant::now();
    let workers: Vec<_> = (0..CONNS)
        .map(|t| {
            let addr = addr.to_string();
            std::thread::spawn(move || -> Tally {
                let mut tally = Tally::default();
                let mut s = TcpStream::connect(&addr).expect("client connects");
                s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                let t0 = Instant::now();
                for k in 0..PER_CONN {
                    let due = period * (k as u32);
                    let elapsed = t0.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    let id = (t * PER_CONN + k) as u64;
                    send_one(&mut s, id, deadline_ms, &mut tally);
                }
                tally
            })
        })
        .collect();
    let mut tally = Tally::default();
    for w in workers {
        tally.absorb(&w.join().expect("client thread"));
    }
    (tally, started.elapsed())
}

fn stats_field(stats: &str, key: &str) -> u64 {
    stats
        .split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("field {key} missing from stats: {stats}"))
}

fn fetch_stats(addr: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("stats connection");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write_frame(&mut s, &Frame::StatsRequest).unwrap();
    match read_frame(&mut s).expect("stats reply") {
        Frame::StatsReply { json } => json,
        other => panic!("expected StatsReply, got {other:?}"),
    }
}

fn shutdown(mut fleet: Fleet) -> (String, PathBuf) {
    let mut s = TcpStream::connect(&fleet.door.addr).expect("shutdown connection");
    write_frame(&mut s, &Frame::Shutdown).unwrap();
    drop(s);
    let status = fleet.door.wait();
    assert!(status.success(), "front door drained cleanly: {status:?}");
    let text = std::fs::read_to_string(&fleet.metrics).expect("metrics file written");
    (text, fleet.metrics)
}

#[test]
fn brownout_beats_shed_only_goodput_under_2x_overload() {
    let dir = std::env::temp_dir().join("mime_overload_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let brown = start_fleet(&dir, "brownout", true);
    let control = start_fleet(&dir, "control", false);

    // An idle fleet serves rung 0.
    let mut cal = Tally::default();
    let mut s = TcpStream::connect(&brown.door.addr).expect("calibration connects");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for i in 0..32u64 {
        send_one(&mut s, 1_000_000 + i, 30_000, &mut cal);
    }
    drop(s);
    assert_eq!(cal.success, 32, "calibration must succeed unloaded");
    assert_eq!(cal.rungs[0], 32, "an unloaded fleet serves rung 0");

    // Calibrate the rung-0 service time both fleets share as the control
    // fleet's time per request under a saturating closed-loop burst (it
    // never leaves rung 0). An unloaded round trip overstates it: a
    // backlog runs as pipelined batches, several requests per pass.
    let total = (CONNS * PER_CONN) as u64;
    let (burst, burst_wall) = drive(&control.door.addr, 30_000, Duration::ZERO);
    assert_eq!(burst.success, total, "calibration burst must succeed");
    let service = burst_wall / total as u32;

    // With CONNS closed-loop clients, a request dequeues behind roughly
    // CONNS-1 others, so its queue wait is ~CONNS × service at rung 0 and
    // ~35% less at the validated top rung. A deadline of 0.8 × CONNS ×
    // service sits between the two: the shed-only control must blow it
    // for a large fraction of requests, the browned-out fleet for few.
    let deadline =
        (service.as_secs_f64() * 1000.0 * CONNS as f64 * 0.8).clamp(20.0, 2000.0) as u32;
    // Aggregate offered rate 2 / service = 2× sustained rung-0 capacity,
    // split evenly across the connections.
    let period = Duration::from_secs_f64(service.as_secs_f64() * CONNS as f64 / 2.0);

    let (brown_tally, brown_wall) = drive(&brown.door.addr, deadline, period);
    let brown_stats = fetch_stats(&brown.door.addr);
    let (control_tally, control_wall) = drive(&control.door.addr, deadline, period);
    let control_stats = fetch_stats(&control.door.addr);

    assert_eq!(brown_tally.terminal(), total, "brownout run: every request terminal");
    assert_eq!(control_tally.terminal(), total, "control run: every request terminal");

    // The controller escalated and replies carried the served rung.
    let browned: u64 = brown_tally.rungs[1..].iter().sum();
    assert!(
        browned > 0,
        "sustained 2× overload must brown out some replies: {:?}",
        brown_tally.rungs
    );
    assert!(stats_field(&brown_stats, "brownout") >= browned);
    // Hysteresis, not flapping: escalation is rate-bounded to one rung
    // per 100ms pressured interval and de-escalation to one rung per
    // 600ms clean dwell, so a multi-second run admits at most a couple
    // dozen transitions; a flapping controller would rack up hundreds.
    let transitions = stats_field(&brown_stats, "rung_transitions");
    assert!(
        (1..=24).contains(&transitions),
        "transitions must be present but dwell-bounded: {transitions}"
    );

    // Control purity: rung 0 only, no controller motion.
    assert_eq!(
        control_tally.rungs[0],
        control_tally.useful(),
        "shed-only control serves every reply at rung 0: {:?}",
        control_tally.rungs
    );
    assert_eq!(stats_field(&control_stats, "rung_transitions"), 0);
    assert_eq!(stats_field(&control_stats, "brownout"), 0);

    // The acceptance bar: browning out buys strictly more goodput than
    // shedding/deadline-missing at rung 0.
    assert!(
        brown_tally.useful() > control_tally.useful(),
        "brownout goodput must beat shed-only: {} vs {} useful of {} \
         (brownout {:.1} rps in {:?}, control {:.1} rps in {:?})",
        brown_tally.useful(),
        control_tally.useful(),
        total,
        brown_tally.useful() as f64 / brown_wall.as_secs_f64(),
        brown_wall,
        control_tally.useful() as f64 / control_wall.as_secs_f64(),
        control_wall,
    );

    // Drain both and check the brownout metrics crossed the process
    // boundary into the metrics file (replica rung counters ride
    // MetricsChunk frames home).
    let (brown_metrics, _) = shutdown(brown);
    let (control_metrics, _) = shutdown(control);
    let metric = |text: &str, name: &str| -> Option<f64> {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
    };
    assert!(metric(&brown_metrics, "mime_brownout_rung ").is_some(), "rung gauge exported");
    assert!(
        metric(&brown_metrics, "mime_frontdoor_brownout_total").unwrap_or(0.0) > 0.0,
        "front door counted browned replies"
    );
    let replica_browned: f64 = (1..8)
        .filter_map(|r| {
            metric(&brown_metrics, &format!("mime_replica_rung_total{{rung=\"{r}\"}}"))
        })
        .sum();
    assert!(replica_browned > 0.0, "replica rung counters shipped home:\n{brown_metrics}");
    assert!(
        metric(&control_metrics, "mime_frontdoor_brownout_total").unwrap_or(f64::NAN)
            == 0.0,
        "control fleet never browned out"
    );
    std::fs::remove_dir_all(&dir).ok();
}
