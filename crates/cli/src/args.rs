//! Hand-rolled argument parsing (the workspace's dependency policy keeps
//! third-party crates to the approved offline set, which has no argv
//! parser — and the surface is small enough not to need one).

use std::collections::HashMap;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mime storage`: Fig. 4-style DRAM storage table.
    Storage {
        /// VGG16 input resolution (default 224).
        input_hw: usize,
        /// Maximum child-task count (default 8).
        children: usize,
    },
    /// `mime simulate`: layerwise energy/throughput on the analytical
    /// model.
    Simulate {
        /// `pipelined` (default) or `singular`.
        pipelined: bool,
        /// Inference approach.
        approach: SimApproach,
        /// PE-array size (default 1024).
        pe: usize,
        /// Cache capacity in KB (default 156).
        cache_kb: usize,
        /// VGG16 input resolution (default 224).
        input_hw: usize,
        /// Emit CSV instead of the aligned table.
        csv: bool,
    },
    /// `mime train`: mini-scale threshold training on one child task.
    Train {
        /// Child task name.
        task: String,
        /// Threshold-training epochs (default 10).
        epochs: usize,
        /// RNG seed (default 42).
        seed: u64,
        /// Directory receiving a crash-safe checkpoint image per epoch.
        checkpoint_dir: Option<String>,
        /// Restore the latest clean checkpoint from `checkpoint_dir`
        /// and continue from the recorded epoch.
        resume: bool,
    },
    /// `mime pack`: train a small multi-task model and write its
    /// deployment image.
    Pack {
        /// Output path.
        out: String,
        /// Number of child tasks to pack (default 2).
        tasks: usize,
        /// RNG seed (default 42).
        seed: u64,
    },
    /// `mime inspect`: summarize a deployment image.
    Inspect {
        /// Image path.
        path: String,
    },
    /// `mime verify-image`: integrity-check a deployment image without
    /// loading it into a model (per-section checksum walk).
    VerifyImage {
        /// Image path.
        path: String,
    },
    /// `mime inject-faults`: deterministically corrupt a deployment
    /// image (test/fault-drill tooling).
    InjectFaults {
        /// Input image path.
        path: String,
        /// Output path for the corrupted image.
        out: String,
        /// RNG seed driving fault placement (default 42).
        seed: u64,
        /// Fault model to apply.
        mode: FaultMode,
        /// Bit-flip count, or maximum garble run length (default 1 /
        /// 16 respectively; ignored by `truncate`).
        count: usize,
    },
    /// `mime sweep`: batch-depth and task-mix energy scaling sweeps.
    Sweep {
        /// VGG16 input resolution (default 224).
        input_hw: usize,
        /// Maximum round-robin rounds for the batch-depth sweep
        /// (default 6 → batches of 3..=18).
        rounds: usize,
    },
    /// `mime validate`: analytical-vs-functional cross check.
    Validate {
        /// VGG16 input resolution (default 32; functional execution is
        /// per-MAC, so keep it small).
        input_hw: usize,
    },
    /// `mime batch`: run a small task-interleaved batch as one pipelined
    /// pass on the sparse software path and print its counters and logits
    /// checksum. The quickest command for `--trace-out`/`--metrics-out`
    /// smoke runs.
    Batch {
        /// Number of images in the batch (default 6).
        images: usize,
        /// Number of child tasks round-robined over the batch
        /// (default 2).
        tasks: usize,
        /// RNG seed for the parent backbone (default 42).
        seed: u64,
        /// Fault drill: NaN-poison this task's threshold bank before
        /// running, forcing the graceful-degradation path (and the
        /// degraded exit code 2).
        poison: Option<usize>,
    },
    /// `mime serve`: the multi-process TCP front door supervising
    /// replica worker processes, with optional fault injection. With
    /// `--listen` it serves clients until drained; without, it drives
    /// `--requests` requests through its own fleet and drains.
    Serve {
        /// Requests the self-driven run sends (default 16; ignored with
        /// `--listen`, which serves until stopped).
        requests: usize,
        /// Number of child tasks round-robined over the requests
        /// (default 3).
        tasks: usize,
        /// RNG seed for the parent backbone (default 42).
        seed: u64,
        /// Fault to inject (default none).
        inject: ServeFault,
        /// Admission-queue capacity (default 0 = 64); beyond it
        /// requests shed `Overloaded`.
        capacity: usize,
        /// TCP bind address (e.g. `127.0.0.1:0`) to serve clients on;
        /// absent, the self-driven run binds `127.0.0.1:0` itself.
        listen: Option<String>,
        /// Replica worker processes behind the front door (default 2).
        replicas: usize,
        /// Packed image replicas load read-only (default: pack a
        /// temporary image from `--seed`/`--tasks`).
        image: Option<String>,
        /// Per-request deadline budget in milliseconds (default 5000).
        deadline_ms: u64,
        /// Inject the process-level fault on every n-th dispatch per
        /// replica; a batch counts once (default 4).
        inject_every: usize,
        /// Disable fleet observability (`--no-obs`): no trace
        /// stitching, clock probes, flight events, or per-request
        /// metrics — the overhead baseline for BENCH_serve.json.
        no_obs: bool,
        /// Directory receiving flight-recorder dumps (front door and
        /// replicas) on death, panic, or SIGUSR1.
        flight_dir: Option<String>,
        /// Disable the brownout ladder (`--no-brownout`): overload is
        /// answered by shedding alone — the control-run baseline.
        no_brownout: bool,
        /// Brownout ladder depth including rung 0 (default 4;
        /// forwarded to replica workers).
        brownout_rungs: usize,
        /// Tasks `0..critical_tasks` are priority-class critical: they
        /// brown out [`CRITICAL_GRACE`](mime_serve::CRITICAL_GRACE)
        /// rungs behind the fleet (default 0).
        critical_tasks: usize,
        /// Most requests one dispatch coalesces into a `BatchRequest`
        /// (default 8). `--no-batch` forces 1 — every dispatch is a
        /// batch of one.
        max_batch: usize,
        /// Batch-formation linger in milliseconds: how long a partial
        /// batch waits for a ride-along request once the backlog is
        /// empty (default 0 = batch from existing backlog only).
        linger_ms: u64,
    },
    /// `mime replica-worker`: one replica process behind `mime serve`
    /// (spawned by the front door; not for direct use).
    ReplicaWorker {
        /// Packed image to load read-only.
        image: String,
        /// Replica slot index (logs, heartbeats).
        replica: u32,
        /// Process-level fault to self-inject.
        inject: ServeFault,
        /// Inject on every n-th dispatch this replica receives; a batch
        /// counts once.
        inject_every: usize,
        /// Heartbeat interval in milliseconds.
        heartbeat_ms: u64,
        /// Disable observability shipping (`--no-obs`).
        no_obs: bool,
        /// Record spans and ship them to the front door as
        /// `TraceChunk` frames (`--trace`; set when the front door
        /// itself runs with `--trace-out`).
        trace: bool,
        /// Directory receiving flight-recorder dumps.
        flight_dir: Option<String>,
        /// Brownout ladder depth derived at startup (1 = rung 0 only).
        brownout_rungs: usize,
    },
    /// `mime loadgen`: fixed-count client for a front door — drives
    /// requests over TCP, prints outcome counts and latency
    /// percentiles, optionally appends them to a bench JSON.
    Loadgen {
        /// Front-door address to connect to.
        connect: String,
        /// Requests to send (default 64).
        requests: usize,
        /// Concurrent connections (default 4).
        concurrency: usize,
        /// Task indices round-robined over requests (default 3).
        tasks: usize,
        /// Per-request deadline in milliseconds (default 5000).
        deadline_ms: u64,
        /// Merge this run's percentiles into a bench JSON file.
        bench_out: Option<String>,
        /// Run label recorded in the bench JSON (default `run`).
        label: String,
        /// Send a Shutdown frame after the run (graceful server drain).
        drain: bool,
        /// Print the slowest request IDs at/above this latency with a
        /// queue/wire/compute breakdown (0 = off).
        slow_threshold_ms: u64,
        /// Offered load in requests/second for open-loop (Poisson
        /// arrivals) mode; 0.0 = closed-loop (send-when-answered).
        rate: f64,
    },
    /// `mime help`.
    Help,
}

/// Fault selector for `mime serve --inject`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFault {
    /// No fault: every request should succeed.
    None,
    /// Replicas `abort()` on every n-th dispatch (supervisor respawn +
    /// requeue).
    ReplicaAbort,
    /// Replicas wedge mid-layer on every n-th dispatch (heartbeats
    /// stop, liveness deadline declares them dead).
    ReplicaHang,
    /// Replicas sleep per layer on every n-th dispatch (deadline
    /// enforcement across the process boundary).
    ReplicaSlow,
    /// A chaos client periodically sends garbage frames at the
    /// listener.
    ConnGarbage,
    /// A chaos client periodically opens a connection, sends a
    /// truncated header, and slams it shut.
    ConnTruncate,
}

impl ServeFault {
    /// The `--inject` spelling of this fault.
    pub fn name(self) -> &'static str {
        match self {
            ServeFault::None => "none",
            ServeFault::ReplicaAbort => "replica-abort",
            ServeFault::ReplicaHang => "replica-hang",
            ServeFault::ReplicaSlow => "replica-slow",
            ServeFault::ConnGarbage => "conn-garbage",
            ServeFault::ConnTruncate => "conn-truncate",
        }
    }
}

/// Observability options shared by every command, parsed from the
/// global `--trace-out`, `--metrics-out` and `--log-level` flags by
/// [`parse_invocation`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Write a Chrome-trace JSON (`chrome://tracing` / Perfetto) here.
    pub trace_out: Option<String>,
    /// Write the metrics registry here — JSON when the path ends in
    /// `.json`, Prometheus text otherwise.
    pub metrics_out: Option<String>,
    /// Explicit log level; outer `None` = flag absent (keep `MIME_LOG`
    /// or the default), inner `None` = `off`.
    pub log_level: Option<Option<mime_obs::Level>>,
}

impl ObsOptions {
    /// Enables the sinks this invocation asked for. Call once, before
    /// running the command.
    pub fn apply(&self) {
        if self.trace_out.is_some() {
            mime_obs::trace::set_enabled(true);
        }
        if self.metrics_out.is_some() {
            mime_obs::set_metrics_enabled(true);
        }
        if let Some(level) = self.log_level {
            mime_obs::log::set_level(level);
        }
    }

    /// Drains the collected spans/metrics into the requested files.
    /// Call once, after the command finishes. Writes are atomic
    /// (tmp + rename), so a crash mid-write never leaves a scrape
    /// target or trace viewer holding a half-written file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when a file cannot be written.
    pub fn finish(&self) -> std::io::Result<()> {
        use std::path::Path;
        fn atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
            mime_core::deploy::write_file_atomic(Path::new(path), bytes)
                .map_err(|e| std::io::Error::other(e.to_string()))
        }
        if let Some(path) = &self.trace_out {
            let events = mime_obs::trace::drain();
            let json = mime_obs::trace::chrome_trace_json(&events);
            atomic(path, json.as_bytes())?;
        }
        if let Some(path) = &self.metrics_out {
            let registry = mime_obs::metrics::global();
            let rendered = if path.ends_with(".json") {
                registry.render_json()
            } else {
                registry.render_prometheus()
            };
            atomic(path, rendered.as_bytes())?;
        }
        Ok(())
    }
}

/// Fault model selector for `mime inject-faults`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Flip `count` random bits.
    BitFlip,
    /// Truncate the image at a random offset.
    Truncate,
    /// Overwrite a random run of bytes (length ≤ `count`).
    Garble,
}

/// Approach selector for `mime simulate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimApproach {
    /// MIME.
    Mime,
    /// Baseline without zero-skipping.
    Case1,
    /// Baseline with zero-skipping.
    Case2,
    /// 90 %-pruned conventional models.
    Pruned,
}

/// Error produced by [`parse_args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// Removes a valueless (boolean) flag from the raw args before
/// [`split_flags`] pairs every remaining `--flag` with the next token.
/// Returns the filtered args and whether the flag was present;
/// position-independent and idempotent on repeats.
fn strip_valueless(args: &[String], flag: &str) -> (Vec<String>, bool) {
    let mut present = false;
    let rest = args
        .iter()
        .filter(|a| {
            if a.as_str() == flag {
                present = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, present)
}

/// Splits `--key value` pairs and positionals from raw args. A key not
/// in `allowed` is an unknown flag, reported before its value is looked
/// for.
fn split_flags(
    args: &[String],
    allowed: &[&str],
) -> Result<(HashMap<String, String>, Vec<String>), ArgError> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if !allowed.contains(&key) {
                return Err(err(format!("unknown flag --{key}")));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| err(format!("flag --{key} needs a value")))?;
            if flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(err(format!("flag --{key} given twice")));
            }
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, ArgError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| err(format!("flag --{key}: invalid value '{v}'"))),
    }
}

fn parse_serve_fault(spelling: Option<&str>) -> Result<ServeFault, ArgError> {
    match spelling {
        None | Some("none") => Ok(ServeFault::None),
        Some("replica-abort") => Ok(ServeFault::ReplicaAbort),
        Some("replica-hang") => Ok(ServeFault::ReplicaHang),
        Some("replica-slow") => Ok(ServeFault::ReplicaSlow),
        Some("conn-garbage") => Ok(ServeFault::ConnGarbage),
        Some("conn-truncate") => Ok(ServeFault::ConnTruncate),
        Some(m) => Err(err(format!(
            "unknown fault '{m}' (expected none|replica-abort|replica-hang|\
             replica-slow|conn-garbage|conn-truncate)"
        ))),
    }
}

/// Parses a full argv (excluding the program name) into the global
/// [`ObsOptions`] plus a [`Command`]. The observability flags are
/// position-independent — `mime --trace-out t.json validate` and
/// `mime validate --trace-out t.json` are equivalent — and are stripped
/// before per-command parsing, so [`parse_args`] stays untouched.
///
/// # Errors
///
/// As [`parse_args`], plus missing/duplicated observability flag values
/// and unknown `--log-level` names.
pub fn parse_invocation(args: &[String]) -> Result<(ObsOptions, Command), ArgError> {
    let mut obs = ObsOptions::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut i = 0usize;
    while i < args.len() {
        let key = args[i].as_str();
        if !matches!(key, "--trace-out" | "--metrics-out" | "--log-level") {
            rest.push(args[i].clone());
            i += 1;
            continue;
        }
        let value =
            args.get(i + 1).ok_or_else(|| err(format!("flag {key} needs a value")))?;
        let duplicated = match key {
            "--trace-out" => obs.trace_out.replace(value.clone()).is_some(),
            "--metrics-out" => obs.metrics_out.replace(value.clone()).is_some(),
            _ => {
                let level = mime_obs::Level::parse(value).map_err(|()| {
                    err(format!(
                        "flag --log-level: unknown level '{value}' \
                         (expected error|warn|info|debug|trace|off)"
                    ))
                })?;
                obs.log_level.replace(level).is_some()
            }
        };
        if duplicated {
            return Err(err(format!("flag {key} given twice")));
        }
        i += 2;
    }
    Ok((obs, parse_args(&rest)?))
}

/// Parses a full argv (excluding the program name) into a [`Command`].
///
/// # Errors
///
/// Returns [`ArgError`] with a user-facing message for unknown commands,
/// unknown flags, missing values or out-of-range numbers.
pub fn parse_args(args: &[String]) -> Result<Command, ArgError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "storage" => {
            let (flags, pos) = split_flags(rest, &["input-hw", "children"])?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let input_hw: usize = get_num(&flags, "input-hw", 224)?;
            if !input_hw.is_multiple_of(32) {
                return Err(err("--input-hw must be divisible by 32"));
            }
            Ok(Command::Storage { input_hw, children: get_num(&flags, "children", 8)? })
        }
        "simulate" => {
            let (flags, pos) = split_flags(
                rest,
                &["mode", "approach", "pe", "cache-kb", "input-hw", "format"],
            )?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let pipelined = match flags.get("mode").map(String::as_str) {
                None | Some("pipelined") => true,
                Some("singular") => false,
                Some(m) => return Err(err(format!("unknown mode '{m}'"))),
            };
            let approach = match flags.get("approach").map(String::as_str) {
                None | Some("mime") => SimApproach::Mime,
                Some("case1") => SimApproach::Case1,
                Some("case2") => SimApproach::Case2,
                Some("pruned") => SimApproach::Pruned,
                Some(a) => return Err(err(format!("unknown approach '{a}'"))),
            };
            let input_hw: usize = get_num(&flags, "input-hw", 224)?;
            if !input_hw.is_multiple_of(32) {
                return Err(err("--input-hw must be divisible by 32"));
            }
            let csv = match flags.get("format").map(String::as_str) {
                None | Some("table") => false,
                Some("csv") => true,
                Some(f) => return Err(err(format!("unknown format '{f}'"))),
            };
            Ok(Command::Simulate {
                pipelined,
                approach,
                pe: get_num(&flags, "pe", 1024)?,
                cache_kb: get_num(&flags, "cache-kb", 156)?,
                input_hw,
                csv,
            })
        }
        "train" => {
            // valueless flag: strip before `split_flags`, which pairs
            // every `--flag` with the next token
            let (rest, resume) = strip_valueless(rest, "--resume");
            let (flags, pos) =
                split_flags(&rest, &["task", "epochs", "seed", "checkpoint-dir"])?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let task = flags.get("task").cloned().unwrap_or_else(|| "cifar10".into());
            if !["cifar10", "cifar100", "fmnist"].contains(&task.as_str()) {
                return Err(err(format!(
                    "unknown task '{task}' (expected cifar10|cifar100|fmnist)"
                )));
            }
            let checkpoint_dir = flags.get("checkpoint-dir").cloned();
            if resume && checkpoint_dir.is_none() {
                return Err(err("--resume requires --checkpoint-dir <dir>"));
            }
            Ok(Command::Train {
                task,
                epochs: get_num(&flags, "epochs", 10)?,
                seed: get_num(&flags, "seed", 42)?,
                checkpoint_dir,
                resume,
            })
        }
        "pack" => {
            let (flags, pos) = split_flags(rest, &["out", "tasks", "seed"])?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let out = flags
                .get("out")
                .cloned()
                .ok_or_else(|| err("pack requires --out <file>"))?;
            let tasks: usize = get_num(&flags, "tasks", 2)?;
            if tasks == 0 {
                return Err(err("--tasks must be at least 1"));
            }
            Ok(Command::Pack { out, tasks, seed: get_num(&flags, "seed", 42)? })
        }
        "inspect" => {
            let (_, pos) = split_flags(rest, &[])?;
            let path =
                pos.first().cloned().ok_or_else(|| err("inspect requires a file path"))?;
            Ok(Command::Inspect { path })
        }
        "verify-image" => {
            let (_, pos) = split_flags(rest, &[])?;
            let path = pos
                .first()
                .cloned()
                .ok_or_else(|| err("verify-image requires a file path"))?;
            Ok(Command::VerifyImage { path })
        }
        "inject-faults" => {
            let (flags, pos) = split_flags(rest, &["out", "seed", "mode", "count"])?;
            let path = pos
                .first()
                .cloned()
                .ok_or_else(|| err("inject-faults requires a file path"))?;
            let out = flags
                .get("out")
                .cloned()
                .ok_or_else(|| err("inject-faults requires --out <file>"))?;
            let mode = match flags.get("mode").map(String::as_str) {
                None | Some("bitflip") => FaultMode::BitFlip,
                Some("truncate") => FaultMode::Truncate,
                Some("garble") => FaultMode::Garble,
                Some(m) => {
                    return Err(err(format!(
                        "unknown fault mode '{m}' (expected bitflip|truncate|garble)"
                    )))
                }
            };
            let default_count = match mode {
                FaultMode::Garble => 16,
                _ => 1,
            };
            let count: usize = get_num(&flags, "count", default_count)?;
            if count == 0 {
                return Err(err("--count must be at least 1"));
            }
            Ok(Command::InjectFaults {
                path,
                out,
                seed: get_num(&flags, "seed", 42)?,
                mode,
                count,
            })
        }
        "sweep" => {
            let (flags, pos) = split_flags(rest, &["input-hw", "rounds"])?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let input_hw: usize = get_num(&flags, "input-hw", 224)?;
            if !input_hw.is_multiple_of(32) {
                return Err(err("--input-hw must be divisible by 32"));
            }
            let rounds: usize = get_num(&flags, "rounds", 6)?;
            if rounds == 0 {
                return Err(err("--rounds must be at least 1"));
            }
            Ok(Command::Sweep { input_hw, rounds })
        }
        "validate" => {
            let (flags, pos) = split_flags(rest, &["input-hw"])?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let input_hw: usize = get_num(&flags, "input-hw", 32)?;
            if !input_hw.is_multiple_of(32) {
                return Err(err("--input-hw must be divisible by 32"));
            }
            Ok(Command::Validate { input_hw })
        }
        "batch" => {
            let (flags, pos) = split_flags(rest, &["images", "tasks", "seed", "poison"])?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let images: usize = get_num(&flags, "images", 6)?;
            if images == 0 {
                return Err(err("--images must be at least 1"));
            }
            let tasks: usize = get_num(&flags, "tasks", 2)?;
            if tasks == 0 {
                return Err(err("--tasks must be at least 1"));
            }
            let poison = match flags.get("poison") {
                None => None,
                Some(v) => Some(
                    v.parse::<usize>()
                        .map_err(|_| err(format!("flag --poison: invalid value '{v}'")))?,
                ),
            };
            if let Some(p) = poison {
                if p >= tasks {
                    return Err(err(format!(
                        "--poison {p} is out of range ({tasks} task(s))"
                    )));
                }
            }
            Ok(Command::Batch { images, tasks, seed: get_num(&flags, "seed", 42)?, poison })
        }
        "serve" => {
            let (rest, no_obs) = strip_valueless(rest, "--no-obs");
            let (rest, no_brownout) = strip_valueless(&rest, "--no-brownout");
            let (rest, no_batch) = strip_valueless(&rest, "--no-batch");
            let (flags, pos) = split_flags(
                &rest,
                &[
                    "requests",
                    "tasks",
                    "seed",
                    "inject",
                    "capacity",
                    "listen",
                    "replicas",
                    "image",
                    "deadline-ms",
                    "inject-every",
                    "flight-dir",
                    "brownout-rungs",
                    "critical-tasks",
                    "max-batch",
                    "linger-ms",
                ],
            )?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let requests: usize = get_num(&flags, "requests", 16)?;
            if requests == 0 {
                return Err(err("--requests must be at least 1"));
            }
            let tasks: usize = get_num(&flags, "tasks", 3)?;
            if tasks == 0 {
                return Err(err("--tasks must be at least 1"));
            }
            let inject = parse_serve_fault(flags.get("inject").map(String::as_str))?;
            let listen = flags.get("listen").cloned();
            let replicas: usize = get_num(&flags, "replicas", 2)?;
            if replicas == 0 {
                return Err(err("--replicas must be at least 1"));
            }
            let inject_every: usize = get_num(&flags, "inject-every", 4)?;
            if inject_every == 0 {
                return Err(err("--inject-every must be at least 1"));
            }
            let brownout_rungs: usize = get_num(&flags, "brownout-rungs", 4)?;
            if brownout_rungs == 0 {
                return Err(err("--brownout-rungs must be at least 1 (rung 0)"));
            }
            let max_batch: usize = get_num(&flags, "max-batch", 8)?;
            if max_batch == 0 {
                return Err(err("--max-batch must be at least 1"));
            }
            if no_batch && flags.contains_key("max-batch") {
                return Err(err("--no-batch and --max-batch are mutually exclusive"));
            }
            Ok(Command::Serve {
                requests,
                tasks,
                seed: get_num(&flags, "seed", 42)?,
                inject,
                capacity: get_num(&flags, "capacity", 0)?,
                listen,
                replicas,
                image: flags.get("image").cloned(),
                deadline_ms: get_num(&flags, "deadline-ms", 5000)?,
                inject_every,
                no_obs,
                flight_dir: flags.get("flight-dir").cloned(),
                no_brownout,
                brownout_rungs,
                critical_tasks: get_num(&flags, "critical-tasks", 0)?,
                max_batch: if no_batch { 1 } else { max_batch },
                linger_ms: get_num(&flags, "linger-ms", 0)?,
            })
        }
        "replica-worker" => {
            let (rest, no_obs) = strip_valueless(rest, "--no-obs");
            let (rest, trace) = strip_valueless(&rest, "--trace");
            let (flags, pos) = split_flags(
                &rest,
                &[
                    "image",
                    "replica",
                    "inject",
                    "inject-every",
                    "heartbeat-ms",
                    "flight-dir",
                    "brownout-rungs",
                ],
            )?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let image = flags
                .get("image")
                .cloned()
                .ok_or_else(|| err("replica-worker requires --image <file>"))?;
            let inject = parse_serve_fault(flags.get("inject").map(String::as_str))?;
            match inject {
                ServeFault::None
                | ServeFault::ReplicaAbort
                | ServeFault::ReplicaHang
                | ServeFault::ReplicaSlow => {}
                other => {
                    return Err(err(format!(
                        "replica-worker only self-injects replica-level faults, not '{}'",
                        other.name()
                    )))
                }
            }
            let inject_every: usize = get_num(&flags, "inject-every", 4)?;
            if inject_every == 0 {
                return Err(err("--inject-every must be at least 1"));
            }
            let heartbeat_ms: u64 = get_num(&flags, "heartbeat-ms", 250)?;
            if heartbeat_ms == 0 {
                return Err(err("--heartbeat-ms must be at least 1"));
            }
            let brownout_rungs: usize = get_num(&flags, "brownout-rungs", 4)?;
            if brownout_rungs == 0 {
                return Err(err("--brownout-rungs must be at least 1 (rung 0)"));
            }
            Ok(Command::ReplicaWorker {
                image,
                replica: get_num(&flags, "replica", 0)?,
                inject,
                inject_every,
                heartbeat_ms,
                no_obs,
                trace,
                flight_dir: flags.get("flight-dir").cloned(),
                brownout_rungs,
            })
        }
        "loadgen" => {
            let (rest, drain) = strip_valueless(rest, "--drain");
            let (flags, pos) = split_flags(
                &rest,
                &[
                    "connect",
                    "requests",
                    "concurrency",
                    "tasks",
                    "deadline-ms",
                    "bench-out",
                    "label",
                    "slow-threshold-ms",
                    "rate",
                ],
            )?;
            if !pos.is_empty() {
                return Err(err(format!("unexpected argument '{}'", pos[0])));
            }
            let connect = flags
                .get("connect")
                .cloned()
                .ok_or_else(|| err("loadgen requires --connect <addr>"))?;
            let requests: usize = get_num(&flags, "requests", 64)?;
            if requests == 0 {
                return Err(err("--requests must be at least 1"));
            }
            let concurrency: usize = get_num(&flags, "concurrency", 4)?;
            if concurrency == 0 {
                return Err(err("--concurrency must be at least 1"));
            }
            let tasks: usize = get_num(&flags, "tasks", 3)?;
            if tasks == 0 {
                return Err(err("--tasks must be at least 1"));
            }
            let rate: f64 = get_num(&flags, "rate", 0.0)?;
            if !rate.is_finite() || rate < 0.0 {
                return Err(err("--rate must be a finite non-negative requests/second"));
            }
            Ok(Command::Loadgen {
                connect,
                requests,
                concurrency,
                tasks,
                deadline_ms: get_num(&flags, "deadline-ms", 5000)?,
                bench_out: flags.get("bench-out").cloned(),
                label: flags.get("label").cloned().unwrap_or_else(|| "run".to_string()),
                drain,
                slow_threshold_ms: get_num(&flags, "slow-threshold-ms", 0)?,
                rate,
            })
        }
        other => Err(err(format!("unknown command '{other}' (try 'mime help')"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ArgError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(p(&[]).unwrap(), Command::Help);
        assert_eq!(p(&["help"]).unwrap(), Command::Help);
        assert_eq!(p(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn storage_defaults_and_flags() {
        assert_eq!(
            p(&["storage"]).unwrap(),
            Command::Storage { input_hw: 224, children: 8 }
        );
        assert_eq!(
            p(&["storage", "--children", "3", "--input-hw", "64"]).unwrap(),
            Command::Storage { input_hw: 64, children: 3 }
        );
    }

    #[test]
    fn simulate_variants() {
        match p(&["simulate"]).unwrap() {
            Command::Simulate { pipelined, approach, pe, cache_kb, input_hw, csv } => {
                assert!(pipelined);
                assert_eq!(approach, SimApproach::Mime);
                assert_eq!(pe, 1024);
                assert_eq!(cache_kb, 156);
                assert_eq!(input_hw, 224);
                assert!(!csv);
            }
            other => panic!("{other:?}"),
        }
        match p(&["simulate", "--mode", "singular", "--approach", "pruned", "--pe", "256"])
            .unwrap()
        {
            Command::Simulate { pipelined, approach, pe, .. } => {
                assert!(!pipelined);
                assert_eq!(approach, SimApproach::Pruned);
                assert_eq!(pe, 256);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        assert!(p(&["bogus"]).is_err());
        assert!(p(&["storage", "--bad", "1"]).is_err());
        assert!(p(&["storage", "--children"]).is_err());
        assert!(p(&["storage", "--children", "x"]).is_err());
        assert!(p(&["storage", "--input-hw", "100"]).is_err());
        assert!(p(&["simulate", "--mode", "warp"]).is_err());
        assert!(p(&["simulate", "--approach", "magic"]).is_err());
        assert!(p(&["simulate", "--format", "xml"]).is_err());
        assert!(p(&["train", "--task", "imagenet"]).is_err());
        assert!(p(&["pack"]).is_err());
        assert!(p(&["pack", "--out", "f", "--tasks", "0"]).is_err());
        assert!(p(&["inspect"]).is_err());
        assert!(p(&["storage", "extra"]).is_err());
        assert!(p(&["storage", "--children", "1", "--children", "2"]).is_err());
    }

    #[test]
    fn train_pack_inspect_validate() {
        assert_eq!(
            p(&["train", "--task", "fmnist", "--epochs", "3", "--seed", "7"]).unwrap(),
            Command::Train {
                task: "fmnist".into(),
                epochs: 3,
                seed: 7,
                checkpoint_dir: None,
                resume: false,
            }
        );
        assert_eq!(
            p(&["pack", "--out", "model.mime"]).unwrap(),
            Command::Pack { out: "model.mime".into(), tasks: 2, seed: 42 }
        );
        assert_eq!(
            p(&["inspect", "model.mime"]).unwrap(),
            Command::Inspect { path: "model.mime".into() }
        );
        assert_eq!(p(&["validate"]).unwrap(), Command::Validate { input_hw: 32 });
        assert_eq!(
            p(&["sweep", "--rounds", "2"]).unwrap(),
            Command::Sweep { input_hw: 224, rounds: 2 }
        );
        assert!(p(&["sweep", "--rounds", "0"]).is_err());
        match p(&["simulate", "--format", "csv"]).unwrap() {
            Command::Simulate { csv, .. } => assert!(csv),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verify_image_and_inject_faults() {
        assert_eq!(
            p(&["verify-image", "model.mime"]).unwrap(),
            Command::VerifyImage { path: "model.mime".into() }
        );
        assert!(p(&["verify-image"]).is_err());
        assert_eq!(
            p(&["inject-faults", "a.mime", "--out", "b.mime"]).unwrap(),
            Command::InjectFaults {
                path: "a.mime".into(),
                out: "b.mime".into(),
                seed: 42,
                mode: FaultMode::BitFlip,
                count: 1,
            }
        );
        assert_eq!(
            p(&[
                "inject-faults",
                "a.mime",
                "--out",
                "b.mime",
                "--mode",
                "garble",
                "--seed",
                "7",
                "--count",
                "4",
            ])
            .unwrap(),
            Command::InjectFaults {
                path: "a.mime".into(),
                out: "b.mime".into(),
                seed: 7,
                mode: FaultMode::Garble,
                count: 4,
            }
        );
        match p(&["inject-faults", "a.mime", "--out", "b.mime", "--mode", "garble"])
            .unwrap()
        {
            Command::InjectFaults { mode: FaultMode::Garble, count: 16, .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(p(&["inject-faults", "a.mime"]).is_err(), "--out is required");
        assert!(p(&["inject-faults", "a.mime", "--out", "b", "--mode", "zap"]).is_err());
        assert!(p(&["inject-faults", "a.mime", "--out", "b", "--count", "0"]).is_err());
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = p(&["bogus"]).unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn batch_defaults_and_validation() {
        assert_eq!(
            p(&["batch"]).unwrap(),
            Command::Batch { images: 6, tasks: 2, seed: 42, poison: None }
        );
        assert_eq!(
            p(&["batch", "--images", "4", "--tasks", "3"]).unwrap(),
            Command::Batch { images: 4, tasks: 3, seed: 42, poison: None }
        );
        assert!(p(&["batch", "--images", "0"]).is_err());
        assert!(p(&["batch", "--tasks", "0"]).is_err());
        assert!(p(&["batch", "extra"]).is_err());
        assert!(p(&["batch", "--threads", "2"]).is_err(), "MIME_THREADS sets the workers");
    }

    #[test]
    fn batch_poison_drill_flag() {
        assert_eq!(
            p(&["batch", "--tasks", "3", "--poison", "2"]).unwrap(),
            Command::Batch { images: 6, tasks: 3, seed: 42, poison: Some(2) }
        );
        assert!(p(&["batch", "--poison", "2"]).is_err(), "out of range for 2 tasks");
        assert!(p(&["batch", "--poison", "nope"]).is_err());
    }

    #[test]
    fn dense_only_and_no_prepack_are_rejected() {
        // the software path always runs prepacked operands through the
        // sparsity-aware dispatcher: neither knob parses, in any position
        for flag in ["--dense-only", "--no-prepack"] {
            for args in [
                &["batch", flag][..],
                &["batch", flag, "--images", "4"],
                &["serve", "--replicas", "3", flag],
                &["serve", flag, "--listen", "127.0.0.1:0"],
                &["replica-worker", "--image", "a.mime", flag],
            ] {
                let msg = p(args).unwrap_err().to_string();
                assert_eq!(msg, format!("unknown flag {flag}"), "{args:?}");
            }
        }
    }

    #[test]
    fn train_checkpoint_and_resume_flags() {
        assert_eq!(
            p(&["train", "--checkpoint-dir", "ckpt"]).unwrap(),
            Command::Train {
                task: "cifar10".into(),
                epochs: 10,
                seed: 42,
                checkpoint_dir: Some("ckpt".into()),
                resume: false,
            }
        );
        // --resume is valueless and position-independent
        assert_eq!(
            p(&["train", "--resume", "--checkpoint-dir", "ckpt", "--epochs", "2"]).unwrap(),
            Command::Train {
                task: "cifar10".into(),
                epochs: 2,
                seed: 42,
                checkpoint_dir: Some("ckpt".into()),
                resume: true,
            }
        );
        assert_eq!(
            p(&["train", "--checkpoint-dir", "ckpt", "--resume"]).unwrap(),
            Command::Train {
                task: "cifar10".into(),
                epochs: 10,
                seed: 42,
                checkpoint_dir: Some("ckpt".into()),
                resume: true,
            }
        );
        assert!(p(&["train", "--resume"]).is_err(), "--resume needs --checkpoint-dir");
    }

    #[test]
    fn serve_defaults_and_fault_modes() {
        assert_eq!(
            p(&["serve"]).unwrap(),
            Command::Serve {
                requests: 16,
                tasks: 3,
                seed: 42,
                inject: ServeFault::None,
                capacity: 0,
                listen: None,
                replicas: 2,
                image: None,
                deadline_ms: 5000,
                inject_every: 4,
                no_obs: false,
                flight_dir: None,
                no_brownout: false,
                brownout_rungs: 4,
                critical_tasks: 0,
                max_batch: 8,
                linger_ms: 0,
            }
        );
        // one fault set, with or without --listen
        for (name, fault) in [
            ("none", ServeFault::None),
            ("replica-abort", ServeFault::ReplicaAbort),
            ("replica-hang", ServeFault::ReplicaHang),
            ("replica-slow", ServeFault::ReplicaSlow),
            ("conn-garbage", ServeFault::ConnGarbage),
            ("conn-truncate", ServeFault::ConnTruncate),
        ] {
            assert_eq!(fault.name(), name);
            for args in [
                &["serve", "--inject", name][..],
                &["serve", "--listen", "127.0.0.1:0", "--inject", name],
            ] {
                match p(args).unwrap() {
                    Command::Serve { inject, .. } => assert_eq!(inject, fault),
                    other => panic!("{other:?}"),
                }
            }
        }
        assert_eq!(
            p(&["serve", "--requests", "64", "--capacity", "8"]).unwrap(),
            Command::Serve {
                requests: 64,
                tasks: 3,
                seed: 42,
                inject: ServeFault::None,
                capacity: 8,
                listen: None,
                replicas: 2,
                image: None,
                deadline_ms: 5000,
                inject_every: 4,
                no_obs: false,
                flight_dir: None,
                no_brownout: false,
                brownout_rungs: 4,
                critical_tasks: 0,
                max_batch: 8,
                linger_ms: 0,
            }
        );
        assert!(p(&["serve", "--requests", "0"]).is_err());
        assert!(p(&["serve", "--tasks", "0"]).is_err());
        // the retired in-process knobs no longer parse
        assert!(p(&["serve", "--workers", "2"]).is_err());
        assert!(p(&["serve", "--inject", "panic"]).is_err());
        assert!(p(&["serve", "--inject", "gremlins"]).is_err());
        assert!(p(&["serve", "extra"]).is_err());
    }

    #[test]
    fn serve_listen_front_door_flags() {
        match p(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--replicas",
            "3",
            "--inject",
            "replica-abort",
            "--inject-every",
            "2",
            "--deadline-ms",
            "800",
        ])
        .unwrap()
        {
            Command::Serve {
                listen,
                replicas,
                inject,
                inject_every,
                deadline_ms,
                image,
                ..
            } => {
                assert_eq!(listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(replicas, 3);
                assert_eq!(inject, ServeFault::ReplicaAbort);
                assert_eq!(inject_every, 2);
                assert_eq!(deadline_ms, 800);
                assert_eq!(image, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["serve", "--listen", "127.0.0.1:0", "--replicas", "0"]).is_err());
        assert!(p(&["serve", "--listen", "127.0.0.1:0", "--inject-every", "0"]).is_err());
    }

    #[test]
    fn replica_worker_and_loadgen_parse() {
        assert_eq!(
            p(&["replica-worker", "--image", "fleet.mime", "--replica", "1"]).unwrap(),
            Command::ReplicaWorker {
                image: "fleet.mime".to_string(),
                replica: 1,
                inject: ServeFault::None,
                inject_every: 4,
                heartbeat_ms: 250,
                no_obs: false,
                trace: false,
                flight_dir: None,
                brownout_rungs: 4,
            }
        );
        match p(&[
            "replica-worker",
            "--image",
            "a.mime",
            "--inject",
            "replica-hang",
            "--inject-every",
            "3",
            "--heartbeat-ms",
            "100",
        ])
        .unwrap()
        {
            Command::ReplicaWorker { inject, inject_every, heartbeat_ms, .. } => {
                assert_eq!(inject, ServeFault::ReplicaHang);
                assert_eq!(inject_every, 3);
                assert_eq!(heartbeat_ms, 100);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["replica-worker"]).is_err(), "--image is required");
        assert!(p(&["replica-worker", "--image", "a", "--inject", "panic"]).is_err());
        assert!(p(&["replica-worker", "--image", "a", "--inject", "conn-garbage"]).is_err());
        assert!(p(&["replica-worker", "--image", "a", "--heartbeat-ms", "0"]).is_err());

        assert_eq!(
            p(&["loadgen", "--connect", "127.0.0.1:9000"]).unwrap(),
            Command::Loadgen {
                connect: "127.0.0.1:9000".to_string(),
                requests: 64,
                concurrency: 4,
                tasks: 3,
                deadline_ms: 5000,
                bench_out: None,
                label: "run".to_string(),
                drain: false,
                slow_threshold_ms: 0,
                rate: 0.0,
            }
        );
        match p(&[
            "loadgen",
            "--connect",
            "127.0.0.1:9000",
            "--requests",
            "128",
            "--concurrency",
            "8",
            "--bench-out",
            "BENCH_serve.json",
            "--label",
            "healthy",
            "--drain",
        ])
        .unwrap()
        {
            Command::Loadgen { requests, concurrency, bench_out, label, drain, .. } => {
                assert_eq!(requests, 128);
                assert_eq!(concurrency, 8);
                assert_eq!(bench_out.as_deref(), Some("BENCH_serve.json"));
                assert_eq!(label, "healthy");
                assert!(drain);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["loadgen"]).is_err(), "--connect is required");
        assert!(p(&["loadgen", "--connect", "a", "--requests", "0"]).is_err());
        assert!(p(&["loadgen", "--connect", "a", "--concurrency", "0"]).is_err());
    }

    #[test]
    fn brownout_and_rate_flags_parse() {
        // --no-brownout is valueless and position-independent
        match p(&["serve", "--no-brownout", "--listen", "127.0.0.1:0"]).unwrap() {
            Command::Serve { no_brownout, brownout_rungs, critical_tasks, .. } => {
                assert!(no_brownout);
                assert_eq!(brownout_rungs, 4);
                assert_eq!(critical_tasks, 0);
            }
            other => panic!("{other:?}"),
        }
        match p(&["serve", "--brownout-rungs", "6", "--critical-tasks", "2"]).unwrap() {
            Command::Serve { no_brownout, brownout_rungs, critical_tasks, .. } => {
                assert!(!no_brownout);
                assert_eq!(brownout_rungs, 6);
                assert_eq!(critical_tasks, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["serve", "--brownout-rungs", "0"]).is_err(), "rung 0 always exists");
        match p(&["replica-worker", "--image", "a.mime", "--brownout-rungs", "2"]).unwrap()
        {
            Command::ReplicaWorker { brownout_rungs, .. } => assert_eq!(brownout_rungs, 2),
            other => panic!("{other:?}"),
        }
        assert!(p(&["replica-worker", "--image", "a", "--brownout-rungs", "0"]).is_err());

        match p(&["loadgen", "--connect", "a", "--rate", "120.5"]).unwrap() {
            Command::Loadgen { rate, .. } => assert_eq!(rate, 120.5),
            other => panic!("{other:?}"),
        }
        assert!(p(&["loadgen", "--connect", "a", "--rate", "-1"]).is_err());
        assert!(p(&["loadgen", "--connect", "a", "--rate", "inf"]).is_err());
    }

    #[test]
    fn serve_batching_flags() {
        match p(&["serve", "--max-batch", "16", "--linger-ms", "3"]).unwrap() {
            Command::Serve { max_batch, linger_ms, .. } => {
                assert_eq!(max_batch, 16);
                assert_eq!(linger_ms, 3);
            }
            other => panic!("{other:?}"),
        }
        // --no-batch is valueless and forces per-request dispatch
        match p(&["serve", "--no-batch", "--listen", "127.0.0.1:0"]).unwrap() {
            Command::Serve { max_batch, linger_ms, .. } => {
                assert_eq!(max_batch, 1);
                assert_eq!(linger_ms, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(p(&["serve", "--max-batch", "0"]).is_err());
        assert!(
            p(&["serve", "--no-batch", "--max-batch", "4"]).is_err(),
            "mutually exclusive"
        );
    }

    fn pi(args: &[&str]) -> Result<(ObsOptions, Command), ArgError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_invocation(&v)
    }

    #[test]
    fn invocation_strips_obs_flags_anywhere() {
        let (obs, cmd) =
            pi(&["--trace-out", "t.json", "validate", "--metrics-out", "m.prom"]).unwrap();
        assert_eq!(obs.trace_out.as_deref(), Some("t.json"));
        assert_eq!(obs.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(obs.log_level, None);
        assert_eq!(cmd, Command::Validate { input_hw: 32 });

        let (obs, cmd) = pi(&["storage", "--children", "3"]).unwrap();
        assert_eq!(obs, ObsOptions::default());
        assert_eq!(cmd, Command::Storage { input_hw: 224, children: 3 });
    }

    #[test]
    fn invocation_parses_log_level() {
        let (obs, _) = pi(&["--log-level", "debug", "help"]).unwrap();
        assert_eq!(obs.log_level, Some(Some(mime_obs::Level::Debug)));
        let (obs, _) = pi(&["--log-level", "off", "help"]).unwrap();
        assert_eq!(obs.log_level, Some(None));
        assert!(pi(&["--log-level", "loud", "help"]).is_err());
    }

    #[test]
    fn invocation_rejects_dangling_and_duplicate_obs_flags() {
        assert!(pi(&["validate", "--trace-out"]).is_err());
        assert!(pi(&["--trace-out", "a", "validate", "--trace-out", "b"]).is_err());
        assert!(pi(&["--metrics-out", "a", "--metrics-out", "b", "help"]).is_err());
    }
}
