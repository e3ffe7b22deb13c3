//! Small shared pieces: order statistics, the pool file format, the host
//! record, peak-RSS probes and the result line.

use crate::model::PoolItem;
use mime_tensor::Tensor;
use std::fmt::Write as _;
use std::path::Path;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (NaN if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Equal time windows a measured run is split into. End-to-end figures
/// are the median over windows of each window's statistic, so a burst of
/// interference from other tenants of the host that stays inside one or
/// two windows does not move the result.
pub const WINDOWS: usize = 5;

fn window_of(t: f64, span_s: f64) -> usize {
    ((t / span_s * WINDOWS as f64).max(0.0) as usize).min(WINDOWS - 1)
}

/// Median over [`WINDOWS`] of `stat` applied to the values of
/// `(completion offset s, value)` samples falling in each window of
/// `span_s` (late completions count in the last window).
pub fn windowed(samples: &[(f64, f64)], span_s: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
    median(&per_window(samples, span_s, stat))
}

/// `stat` of each non-empty window, in time order.
pub fn per_window(
    samples: &[(f64, f64)],
    span_s: f64,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut bins = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        bins[window_of(t, span_s)].push(v);
    }
    bins.iter().filter(|b| !b.is_empty()).map(|b| stat(b)).collect()
}

/// Median over [`WINDOWS`] of each window's completions per second.
pub fn windowed_rate(done_s: &[f64], span_s: f64) -> f64 {
    let mut counts = vec![0.0; WINDOWS];
    for &t in done_s {
        counts[window_of(t, span_s)] += 1.0;
    }
    median(&counts) / (span_s / WINDOWS as f64)
}

/// Whether `got` equals `want` bit for bit.
pub fn bit_equal(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Order-independent checksum over `(pool index, logit bits)` pairs: the
/// XOR of one FNV-1a hash per result, so any schedule or batching of the
/// same results gives the same value.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    pub fn add(&mut self, index: usize, logits: &[f32]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(index as u64).to_le_bytes());
        for v in logits {
            eat(&v.to_bits().to_le_bytes());
        }
        self.0 ^= h;
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Attempted/failed tally shared by every workload: a result fails when
/// it is an error, lost, served off rung 0, or not bit-identical to the
/// reference logits.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
}

impl Tally {
    /// Records one result compared against `reference`; returns whether
    /// it counted as correct.
    pub fn record(&mut self, got: Option<&[f32]>, reference: &[f32]) -> bool {
        self.attempted += 1;
        match got {
            Some(l) if bit_equal(l, reference) => true,
            Some(_) => {
                self.failed += 1;
                self.mismatched += 1;
                false
            }
            None => {
                self.failed += 1;
                false
            }
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

const POOL_MAGIC: &[u8; 4] = b"MPB1";

/// Writes a pool as `magic | n | in_len | classes | (task, input, ref)*`,
/// little-endian.
pub fn write_pool(path: &Path, pool: &[PoolItem]) -> std::io::Result<()> {
    let in_len = pool.first().map_or(0, |p| p.input.len());
    let classes = pool.first().map_or(0, |p| p.reference.len());
    let mut buf = Vec::new();
    buf.extend_from_slice(POOL_MAGIC);
    for v in [pool.len(), in_len, classes] {
        buf.extend_from_slice(&(v as u32).to_le_bytes());
    }
    for item in pool {
        buf.extend_from_slice(&item.task.to_le_bytes());
        for v in item.input.as_slice().iter().chain(&item.reference) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    std::fs::write(path, buf)
}

/// Reads a pool written by [`write_pool`]; inputs come back `[3, hw, hw]`.
pub fn read_pool(path: &Path) -> Result<Vec<PoolItem>, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: malformed pool file", path.display());
    if raw.len() < 16 || &raw[..4] != POOL_MAGIC {
        return Err(bad());
    }
    let word =
        |i: usize| u32::from_le_bytes(raw[i..i + 4].try_into().expect("4 bytes")) as usize;
    let (n, in_len, classes) = (word(4), word(8), word(12));
    let item_len = 4 + 4 * (in_len + classes);
    if raw.len() != 16 + n * item_len {
        return Err(bad());
    }
    let hw = ((in_len / 3) as f64).sqrt() as usize;
    if 3 * hw * hw != in_len {
        return Err(bad());
    }
    let floats = |b: &[u8]| -> Vec<f32> {
        b.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    };
    (0..n)
        .map(|i| {
            let at = 16 + i * item_len;
            let task = word(at) as u32;
            let input = floats(&raw[at + 4..at + 4 + 4 * in_len]);
            let reference = floats(&raw[at + 4 + 4 * in_len..at + item_len]);
            let input = Tensor::from_vec(input, &[3, hw, hw]).map_err(|e| e.to_string())?;
            Ok(PoolItem { task, input, reference })
        })
        .collect()
}

/// The GEMM ISA arm `mime-tensor` dispatches to, by the same feature
/// checks its `Isa` detection makes.
pub fn isa_arm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2fma";
        }
    }
    "portable"
}

/// `nproc`: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The git revision of the working directory, or `none` outside a
/// git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

/// One-line host record printed with every result.
pub fn host_record(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "host {{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"nproc\":{},\
         \"mime_threads\":\"{}\",\"isa\":\"{}\",\"git_rev\":\"{}\"}}",
        nproc(),
        std::env::var("MIME_THREADS").unwrap_or_else(|_| "unset".into()),
        isa_arm(),
        git_rev()
    )
}

/// Peak resident set (`VmHWM`) of process `pid` in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Direct children of process `pid`, over all its threads.
pub fn child_pids(pid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for task in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(task.path().join("children")) {
            out.extend(s.split_whitespace().filter_map(|p| p.parse::<u32>().ok()));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value }
    }
}

/// Whether a metric name is made only of `[A-Za-z0-9_.-]`, starts with
/// a letter or digit, and fits 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}
