//! The `serve-mix` workload: a real `mime serve --listen` fleet driven by
//! this benchmark's own open-loop client over `mime_serve::proto` frames.

use crate::model::PoolItem;
use crate::util::{bit_equal, child_pids, median, peak_rss_kib, quantile, Checksum, Tally};
use mime_serve::proto::{read_frame, write_frame, ErrorCode, Frame, RequestInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Open-loop arrival rate: about a quarter of the closed-loop capacity
/// two connections reach on this fleet (1,100–1,450 rps on a 2-vCPU
/// avx512 host). At half capacity the p90 spread across seeds was three
/// times larger, because queueing amplifies every stall of a shared host.
pub const RATE_PER_S: f64 = 300.0;

/// Upper bound on the closed-loop rate, used to size the request list of
/// a [`back_to_back`] run so it never runs out before its deadline.
const CLOSED_LOOP_MAX_RPS: f64 = 20_000.0;

/// How long a spawned fleet may take to serve its first request.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `mime serve --listen` front door and its replica.
pub struct Fleet {
    child: Child,
    /// Drains the front door's stdout until it exits.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn → first correct reply, seconds.
    pub ready_s: f64,
}

impl Fleet {
    /// Spawns `mime serve --listen 127.0.0.1:0 --replicas 1 --tasks 3
    /// --image <image>` and waits until it serves `probe` correctly.
    ///
    /// Readiness is the first correct reply on a connection opened as soon
    /// as the front door listens, not a `/readyz` poll: the front door
    /// accepts connections on 25 ms ticks, so spawn → `/readyz` reads
    /// either one or two ticks and its median flips between them when
    /// replica start-up sits near one tick. One persistent connection
    /// pays a single tick, and the reply then tracks replica start-up.
    pub fn start(mime: &Path, image: &Path, probe: &PoolItem) -> Result<Fleet, String> {
        let started = Instant::now();
        let mut child = Command::new(mime)
            .args(["serve", "--listen", "127.0.0.1:0", "--replicas", "1", "--tasks", "3"])
            .arg("--image")
            .arg(image)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mime.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout);
        let mut first = String::new();
        let read = lines.read_line(&mut first);
        // keep draining the pipe so the drain report never blocks the server
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        let addr = match read {
            Ok(n) if n > 0 => first
                .strip_prefix("listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = drain.join();
            return Err(format!("mime serve did not announce its address: {first:?}"));
        };
        let mut fleet = Fleet { child, drain: Some(drain), addr, ready_s: 0.0 };
        if let Err(e) = first_reply(addr, probe, started) {
            fleet.kill();
            return Err(e);
        }
        fleet.ready_s = started.elapsed().as_secs_f64();
        Ok(fleet)
    }

    /// Peak RSS of the front door plus its replica(s), KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        let pid = self.child.id();
        let mut total = peak_rss_kib(pid).unwrap_or(0);
        for c in child_pids(pid) {
            total += peak_rss_kib(c).unwrap_or(0);
        }
        total
    }

    /// Graceful drain through a `Shutdown` frame; kills the fleet if it has
    /// not exited in time.
    pub fn stop(mut self) {
        let replicas = child_pids(self.child.id());
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            let _ = write_frame(&mut s, &Frame::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                self.join_drain();
                reap(&replicas);
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let replicas = child_pids(self.child.id());
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_drain();
        reap(&replicas);
    }

    fn join_drain(&mut self) {
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// Sends `probe` on one connection until a correct rung-0 reply arrives;
/// a request admitted before the replica is up waits in the front door's
/// queue, so the reply marks the moment the fleet can serve.
fn first_reply(addr: SocketAddr, probe: &PoolItem, started: Instant) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READY_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut tx = stream.try_clone().map_err(|e| e.to_string())?;
    let mut rx = BufReader::new(stream);
    loop {
        let request = Frame::Request {
            id: 0,
            trace: 0,
            task: probe.task,
            deadline_ms: 0,
            rung: 0,
            input: RequestInput::Tensor(probe.input.clone()),
        };
        write_frame(&mut tx, &request).map_err(|e| e.to_string())?;
        match read_frame(&mut rx).map_err(|e| e.to_string())? {
            Frame::Reply { logits, rung: 0, degraded: false, .. }
                if bit_equal(&logits, &probe.reference) =>
            {
                return Ok(());
            }
            Frame::ErrorReply { code: ErrorCode::Unavailable, .. }
                if started.elapsed() < READY_TIMEOUT =>
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => {
                return Err(format!("fleet answered its first request with {other:?}"))
            }
        }
    }
}

/// Makes sure replica processes are gone once their front door is.
fn reap(pids: &[u32]) {
    for &pid in pids {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Path::new(&format!("/proc/{pid}")).exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if Path::new(&format!("/proc/{pid}")).exists() {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
    }
}

/// One HTTP GET on the frame port: `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let code = raw.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((code, body))
}

/// Mean of a histogram from a Prometheus text scrape (`_sum / _count`).
pub fn histogram_mean(scrape: &str, name: &str) -> Option<f64> {
    let value = |suffix: &str| {
        let series = format!("{name}{suffix}");
        scrape.lines().find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == series || k.starts_with(&format!("{series}{{")))
                .then(|| v.trim().parse().ok())?
        })
    };
    let (sum, count): (f64, f64) = (value("_sum")?, value("_count")?);
    (count > 0.0).then(|| sum / count)
}

/// One scheduled request: when it is due and which pool entry it sends.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due: Duration,
    pub item: usize,
}

/// A Poisson schedule at `rate` over `seconds`, drawn from `seed`; each
/// request picks a pool entry (so a task) uniformly.
pub fn schedule(seed: u64, rate: f64, seconds: f64, pool_len: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11_1BA1);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            item: rng.gen_range(0..pool_len),
        });
    }
}

/// A closed-loop request list: every request is due at once, so each
/// connection sends its next request as soon as the previous reply is in.
/// Pool entries are drawn from `seed` as in [`schedule`]; pair it with a
/// `stop_after` deadline in [`drive`].
pub fn back_to_back(seed: u64, seconds: f64, pool_len: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_ED00);
    let n = (seconds * CLOSED_LOOP_MAX_RPS).ceil() as usize;
    (0..n)
        .map(|_| Arrival { due: Duration::ZERO, item: rng.gen_range(0..pool_len) })
        .collect()
}

/// Per-request observations of one client run.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub tally: Tally,
    pub checksum: Checksum,
    /// Reply time minus due time, ms, for correct replies.
    pub latency_ms: Vec<f64>,
    /// Reply time since the schedule started, s, for correct replies.
    pub done_s: Vec<f64>,
    /// Send time minus due time, ms, for every request.
    pub late_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    /// Client round trip (send → reply) minus queue and compute, ms.
    pub wire_ms: Vec<f64>,
    /// Replies served off rung 0 or degraded to the parent path.
    pub off_rung0: u64,
    /// Schedule start → last reply, s.
    pub span_s: f64,
}

struct Observation {
    item: usize,
    logits: Option<Vec<f32>>,
    rung0: bool,
    latency_ms: f64,
    done_s: f64,
    late_ms: f64,
    queue_ms: f64,
    compute_ms: f64,
    rtt_ms: f64,
}

/// Drives `arrivals` open-loop over `connections` connections (one
/// thread each, one request in flight per connection — the front door
/// answers one at a time per connection). Latency counts from each
/// request's due time, so a stall shows up in every request behind it.
///
/// With `stop_after`, connections send no new request once that much time
/// has passed, and requests left unsent are not attempted; without it,
/// every arrival is attempted and unsent ones count as lost.
pub fn drive(
    addr: SocketAddr,
    pool: &[PoolItem],
    arrivals: &[Arrival],
    connections: usize,
    stop_after: Option<Duration>,
) -> Result<ClientRun, String> {
    let next = AtomicUsize::new(0);
    let observed = Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now();
    let worker = || -> Result<(), String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut tx = stream.try_clone().map_err(|e| e.to_string())?;
        let mut rx = BufReader::new(stream);
        let mut local = Vec::new();
        loop {
            if stop_after.is_some_and(|d| start.elapsed() >= d) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(a) = arrivals.get(i) else { break };
            let due = start + a.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let item = &pool[a.item];
            let request = Frame::Request {
                id: i as u64,
                trace: 0,
                task: item.task,
                deadline_ms: 0,
                rung: 0,
                input: RequestInput::Tensor(item.input.clone()),
            };
            let reply = write_frame(&mut tx, &request)
                .map_err(|e| e.to_string())
                .and_then(|()| read_frame(&mut rx).map_err(|e| e.to_string()));
            let done = Instant::now();
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            let mut obs = Observation {
                item: a.item,
                logits: None,
                rung0: false,
                latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                done_s: (done - start).as_secs_f64(),
                late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                queue_ms: 0.0,
                compute_ms: 0.0,
                rtt_ms: ms(done - sent),
            };
            let lost = reply.is_err();
            if let Ok(Frame::Reply {
                id,
                degraded,
                queue_us,
                compute_us,
                rung,
                logits,
                ..
            }) = reply
            {
                if id == i as u64 {
                    obs.rung0 = rung == 0 && !degraded;
                    obs.queue_ms = f64::from(queue_us) / 1e3;
                    obs.compute_ms = f64::from(compute_us) / 1e3;
                    obs.logits = Some(logits);
                }
            }
            local.push(obs);
            if lost {
                // the connection is unusable: the rest of its share is lost
                // and counted when the schedule is reconciled below
                break;
            }
        }
        observed.lock().expect("observation lock poisoned").extend(local);
        Ok(())
    };
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..connections.max(1)).map(|_| s.spawn(worker)).collect();
        let mut r = vec![worker()];
        r.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into()))),
        );
        r
    });
    for r in results {
        r?;
    }
    let observed = observed.into_inner().expect("observation lock poisoned");
    let mut run =
        ClientRun { span_s: start.elapsed().as_secs_f64(), ..ClientRun::default() };
    for o in &observed {
        let reference = &pool[o.item].reference;
        let got = if o.rung0 { o.logits.as_deref() } else { None };
        if o.logits.is_some() && !o.rung0 {
            run.off_rung0 += 1;
        }
        run.late_ms.push(o.late_ms);
        if run.tally.record(got, reference) {
            run.checksum.add(o.item, got.expect("recorded as correct"));
            run.latency_ms.push(o.latency_ms);
            run.done_s.push(o.done_s);
            run.queue_ms.push(o.queue_ms);
            run.compute_ms.push(o.compute_ms);
            run.wire_ms.push(o.rtt_ms - o.queue_ms - o.compute_ms);
        }
    }
    if stop_after.is_none() {
        // requests a broken connection never sent are lost results
        let lost = arrivals.len() as u64 - observed.len() as u64;
        run.tally.attempted += lost;
        run.tally.failed += lost;
    }
    Ok(run)
}

/// Summary line of a client run.
pub fn describe(run: &ClientRun) -> String {
    format!(
        "requests={} correct={} off_rung0={} latency samples={} p50_ms={:.4} p90_ms={:.4} \
         p99_ms={:.4} client_late_p99_ms={:.4}",
        run.tally.attempted,
        run.tally.correct(),
        run.off_rung0,
        run.latency_ms.len(),
        median(&run.latency_ms),
        quantile(&run.latency_ms, 0.9),
        quantile(&run.latency_ms, 0.99),
        quantile(&run.late_ms, 0.99)
    )
}
