//! Cross-process chaos: the compiled `mime` binary serving as a TCP
//! front door with `--inject replica-abort`, driven by in-test clients
//! over real sockets while replica processes abort under them.
//!
//! The acceptance invariant: **every request a client sends reaches
//! exactly one terminal frame**, the front door itself never crashes,
//! and the restarts metric records the kills. With observability on,
//! two more: every admitted request's trace ID appears exactly once in
//! the stitched cross-process trace, and each aborted replica leaves a
//! flight-recorder dump behind.

mod support;

use mime_serve::proto::{read_frame, write_frame, ErrorCode, Frame, RequestInput};
use std::net::TcpStream;
use std::time::Duration;
use support::FrontDoor;

const REQUESTS: usize = 64;
const CLIENTS: usize = 4;
const TASKS: usize = 3;

#[derive(Default)]
struct Tally {
    success: u64,
    degraded: u64,
    shed: u64,
    unavailable: u64,
    deadline_exceeded: u64,
    failed: u64,
    /// Trace IDs stamped on the terminal frames — one per request.
    traces: Vec<u64>,
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
}

#[test]
fn every_request_terminates_exactly_once_while_replicas_abort() {
    let dir = std::env::temp_dir().join("mime_frontdoor_chaos_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.prom");
    let metrics_str = metrics.to_str().unwrap().to_string();
    let trace = dir.join("trace.json");
    let trace_str = trace.to_str().unwrap().to_string();
    let flight = dir.join("flight");
    let flight_str = flight.to_str().unwrap().to_string();

    let mut door = FrontDoor::spawn(&[
        "--metrics-out",
        &metrics_str,
        "--trace-out",
        &trace_str,
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--replicas",
        "2",
        "--tasks",
        "3",
        "--flight-dir",
        &flight_str,
        "--inject",
        "replica-abort",
        "--inject-every",
        "5",
    ]);
    let addr = door.addr.clone();

    // CLIENTS connections, one request outstanding each, REQUESTS total.
    // Replicas abort on every 5th request they serve; the supervisor
    // must requeue or fail-fast every victim — never drop one.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Tally {
                let mut tally = Tally::default();
                let mut s = TcpStream::connect(&addr).expect("client connects");
                s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                for i in (t..REQUESTS).step_by(CLIENTS) {
                    let req = Frame::Request {
                        id: i as u64,
                        trace: 0,
                        task: (i % TASKS) as u32,
                        deadline_ms: 30_000,
                        rung: 0,
                        input: RequestInput::Probe(i as u32),
                    };
                    write_frame(&mut s, &req).expect("request written");
                    match read_frame(&mut s).expect("one terminal frame per request") {
                        Frame::Reply { id, trace, degraded, .. } => {
                            assert_eq!(id, i as u64, "reply id matches request");
                            tally.traces.push(trace);
                            if degraded {
                                tally.degraded += 1;
                            } else {
                                tally.success += 1;
                            }
                        }
                        Frame::ErrorReply { id, trace, code, .. } => {
                            assert_eq!(id, i as u64, "error id matches request");
                            tally.traces.push(trace);
                            match code {
                                ErrorCode::Overloaded => tally.shed += 1,
                                ErrorCode::Unavailable => tally.unavailable += 1,
                                ErrorCode::DeadlineExceeded => tally.deadline_exceeded += 1,
                                _ => tally.failed += 1,
                            }
                        }
                        other => panic!("non-terminal frame for request {i}: {other:?}"),
                    }
                }
                tally
            })
        })
        .collect();
    let mut tally = Tally::default();
    for w in workers {
        let t = w.join().expect("client thread");
        tally.success += t.success;
        tally.degraded += t.degraded;
        tally.shed += t.shed;
        tally.unavailable += t.unavailable;
        tally.deadline_exceeded += t.deadline_exceeded;
        tally.failed += t.failed;
        tally.traces.extend(t.traces);
    }
    assert_eq!(
        tally.terminal(),
        REQUESTS as u64,
        "every request reached exactly one terminal state"
    );
    assert!(tally.success > 0, "the fleet still served through the chaos");

    // The front door survived and answers stats; the kills were counted.
    let mut s = TcpStream::connect(&addr).expect("stats connection");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write_frame(&mut s, &Frame::StatsRequest).unwrap();
    let stats = match read_frame(&mut s).expect("stats reply") {
        Frame::StatsReply { json } => json,
        other => panic!("expected StatsReply, got {other:?}"),
    };
    let restarts: u64 = stats
        .split("\"restarts\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparseable stats: {stats}"));
    assert!(restarts >= 1, "abort injection must have killed at least one replica");

    // Graceful drain via the wire, then a clean exit.
    write_frame(&mut s, &Frame::Shutdown).unwrap();
    drop(s);
    let status = door.wait();
    assert!(status.success(), "front door drained cleanly: {status:?}");

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let metric = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
    };
    assert_eq!(metric("mime_frontdoor_requests_total"), REQUESTS as u64);
    assert!(metric("mime_replica_restarts_total") >= restarts);

    // Stitched trace: every admitted request's trace ID shows up as
    // exactly one front-door `request` span, and at least one replica
    // lane made it across the process boundary despite the aborts.
    let trace_json = std::fs::read_to_string(&trace).expect("stitched trace written");
    let mut traces = tally.traces.clone();
    traces.sort_unstable();
    let dups = traces.windows(2).filter(|w| w[0] == w[1]).count();
    assert_eq!(dups, 0, "trace IDs are unique per request");
    for t in &traces {
        assert_ne!(*t, 0, "every terminal frame carries a minted trace ID");
        let needle = format!("\"trace\":\"{t}\"");
        let count = trace_json
            .lines()
            .filter(|l| l.contains("\"name\":\"request\"") && l.contains(&needle))
            .count();
        assert_eq!(count, 1, "trace {t} has exactly one front-door request span");
    }
    assert!(
        trace_json.lines().any(|l| l.contains("\"name\":\"replica_request\"")),
        "replica spans were stitched into the front door's trace"
    );

    // Each injected abort calls `flight::dump_now("abort")` on its way
    // down: the killed replicas must have left parseable dumps behind,
    // each showing the dispatch it died on as in flight — a `dequeue`
    // event whose request has no `terminal` event in that dump.
    let dumps: Vec<_> = std::fs::read_dir(&flight)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.starts_with("mime_flight_replica") && n.contains("_abort_")
            })
        })
        .collect();
    assert!(!dumps.is_empty(), "aborted replica left a flight dump");
    for dump in &dumps {
        let text = std::fs::read_to_string(dump).expect("flight dump readable");
        assert!(text.contains("\"schema\":\"mime-flight/v1\""), "dump has schema: {text}");
        assert!(text.contains("\"reason\":\"abort\""), "dump records the abort");
        let requests = |kind: &str| -> Vec<u64> {
            let tag = format!("\"kind\":\"{kind}\"");
            text.lines()
                .filter(|l| l.contains(&tag))
                .filter_map(|l| {
                    l.split("\"request\":").nth(1)?.split(',').next()?.parse().ok()
                })
                .collect()
        };
        let terminal = requests("terminal");
        assert!(
            requests("dequeue").iter().any(|r| !terminal.contains(r)),
            "abort dump shows no request in flight: {text}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
