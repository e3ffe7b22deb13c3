//! The length-framed wire protocol spoken on both hops of the
//! multi-process serving path: TCP client ↔ front door, and front door
//! ↔ replica worker (over the child's stdin/stdout pipes).
//!
//! Every frame is `kind (u8) | payload-len (u32 LE) | payload`. The
//! format is deliberately tiny — no negotiation, no compression — but
//! hostile-input-safe: the length field is capped at
//! [`MAX_FRAME_PAYLOAD`] *before* any allocation, unknown kinds and
//! short payloads are typed [`ProtoError::Malformed`] errors (never
//! panics), and [`FrameReader`] tolerates arbitrary TCP fragmentation
//! so a slow or adversarial peer cannot desynchronize the stream.
//!
//! The client-visible contract: every `Request` receives exactly one
//! terminal frame — a `Reply` (success or degraded-to-parent) or an
//! `ErrorReply` carrying one of the typed [`ErrorCode`]s. On the replica
//! hop the front door sends every request inside a `BatchRequest` (one
//! item or more), and the replica answers each item with its own
//! terminal frame.

use mime_obs::trace::SpanEvent;
use mime_tensor::Tensor;
use std::borrow::Cow;
use std::io::{Read, Write};

/// Hard cap on any frame payload. A length field above this is rejected
/// before allocation, so a garbage header cannot OOM the front door.
pub const MAX_FRAME_PAYLOAD: usize = 4 << 20;

/// Cap on tensor rank in a `Request` payload.
const MAX_NDIM: usize = 8;
/// Cap on tensor/logit element counts in a payload.
const MAX_ELEMS: usize = 4 << 20;
/// Cap on spans per `TraceChunk` (senders split larger batches).
pub const MAX_SPANS_PER_CHUNK: usize = 2048;
/// Cap on any single string inside a `TraceChunk` span.
const MAX_SPAN_STR: usize = 4096;
/// Cap on annotations per span in a `TraceChunk`.
const MAX_SPAN_ARGS: usize = 32;
/// Cap on an encoded `MetricsChunk` snapshot.
const MAX_SNAPSHOT_BYTES: usize = 1 << 20;

/// Sentinel request id used in error replies to frames so malformed
/// that no id could be recovered.
pub const NO_REQUEST_ID: u64 = u64::MAX;

/// Sentinel trace id for frames minted before admission stamps one
/// (client-originated requests, protocol-level errors).
pub const NO_TRACE_ID: u64 = 0;

const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;
const KIND_READY: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;
const KIND_STATS_REQUEST: u8 = 7;
const KIND_STATS_REPLY: u8 = 8;
const KIND_TRACE_CHUNK: u8 = 9;
const KIND_CLOCK_PROBE: u8 = 10;
const KIND_CLOCK_REPLY: u8 = 11;
const KIND_METRICS_CHUNK: u8 = 12;
// A batch request carries its requests as nested `kind|len|payload`
// subframes behind a u16 count.
const KIND_BATCH_REQUEST: u8 = 16;

/// Cap on requests in one `BatchRequest`; a hostile count field is
/// rejected before allocation.
pub const MAX_BATCH_ITEMS: usize = 256;

/// Request input: either a raw `[C, H, W]` tensor, or a deterministic
/// probe index the replica expands itself (keeps loadgen frames tiny).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestInput {
    /// Deterministic probe image index (see [`probe_image`]).
    Probe(u32),
    /// Literal input tensor.
    Tensor(Tensor),
}

/// Typed failure carried by an `ErrorReply` — one of the terminal
/// states a request can reach without producing logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Shed at admission: the cross-process backpressure queue was full.
    Overloaded,
    /// The per-request deadline elapsed (queueing or execution).
    DeadlineExceeded,
    /// The retry budget ran out (e.g. the serving replica kept dying).
    FailedAfterRetries,
    /// The request addressed a task index with no plan.
    UnknownTask,
    /// The connection sent a frame the protocol could not parse.
    BadFrame,
    /// No replica is available (all permanently dead, or draining).
    Unavailable,
}

impl ErrorCode {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 0,
            ErrorCode::DeadlineExceeded => 1,
            ErrorCode::FailedAfterRetries => 2,
            ErrorCode::UnknownTask => 3,
            ErrorCode::BadFrame => 4,
            ErrorCode::Unavailable => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            0 => ErrorCode::Overloaded,
            1 => ErrorCode::DeadlineExceeded,
            2 => ErrorCode::FailedAfterRetries,
            3 => ErrorCode::UnknownTask,
            4 => ErrorCode::BadFrame,
            5 => ErrorCode::Unavailable,
            other => return Err(malformed(format!("unknown error code {other}"))),
        })
    }

    /// Stable lower-snake name (metrics labels, loadgen reports).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::FailedAfterRetries => "failed_after_retries",
            ErrorCode::UnknownTask => "unknown_task",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::Unavailable => "unavailable",
        }
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One inference request (client → front door; front door →
    /// replica only as an item of a [`Frame::BatchRequest`]).
    Request {
        /// Caller-chosen id echoed on the terminal frame.
        id: u64,
        /// Fleet-wide trace id, minted at front-door admission and
        /// carried through retries and replica dispatch
        /// ([`NO_TRACE_ID`] on the client hop, before admission).
        trace: u64,
        /// Task (threshold-set) index.
        task: u32,
        /// Remaining deadline budget in milliseconds (0 = use the
        /// server's default).
        deadline_ms: u32,
        /// Brownout rung to serve at (0 = the full-fidelity threshold
        /// set, today's path; higher rungs select progressively more
        /// aggressive threshold variants). Stamped by the front door's
        /// overload controller on the replica hop.
        rung: u8,
        /// The input.
        input: RequestInput,
    },
    /// Terminal: logits for `id`.
    Reply {
        /// The request id.
        id: u64,
        /// The trace id echoed from the request.
        trace: u64,
        /// `true` when served by the exact parent path.
        degraded: bool,
        /// Microseconds spent queued at the front door before dispatch
        /// (stamped by the front door; 0 on the replica hop).
        queue_us: u32,
        /// Microseconds of replica compute (stamped by the replica).
        compute_us: u32,
        /// Brownout rung this reply was actually served at (0 = full
        /// fidelity), so clients can attribute quality.
        rung: u8,
        /// Classifier logits.
        logits: Vec<f32>,
    },
    /// Terminal: typed failure for `id` ([`NO_REQUEST_ID`] when the
    /// request was too malformed to carry one).
    ErrorReply {
        /// The request id.
        id: u64,
        /// The trace id echoed from the request ([`NO_TRACE_ID`] when
        /// the failure predates admission).
        trace: u64,
        /// Failure class.
        code: ErrorCode,
        /// Brownout rung in force when the failure was produced.
        rung: u8,
        /// For [`ErrorCode::Overloaded`]: a controller-derived hint of
        /// how long the client should back off before retrying
        /// (0 = no hint).
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
    /// Replica → front door liveness beat, emitted between layers while
    /// a request executes (a wedged replica stops beating).
    Heartbeat {
        /// Monotonic per-replica sequence number.
        seq: u64,
        /// Trace id of the request executing when the beat was emitted
        /// ([`NO_TRACE_ID`] when idle) — names the wedged request when
        /// beats stop.
        trace: u64,
    },
    /// Replica → front door: image loaded, plans bound, serving.
    Ready {
        /// Replica index (for logs).
        replica: u32,
        /// Number of task plans loaded.
        tasks: u32,
    },
    /// Graceful drain: front door → replica on shutdown; client → front
    /// door to request a drain-and-exit.
    Shutdown,
    /// Client → front door: ask for a counters snapshot.
    StatsRequest,
    /// Front door → client: JSON counters snapshot.
    StatsReply {
        /// JSON object of counters/gauges.
        json: String,
    },
    /// Replica → front door: a bounded batch of finished spans for
    /// cross-process trace stitching. Timestamps are in the *replica's*
    /// trace epoch; the front door shifts them by the handshake clock
    /// offset and stamps the replica's `pid` lane at ingestion.
    TraceChunk {
        /// Replica index.
        replica: u32,
        /// At most [`MAX_SPANS_PER_CHUNK`] finished spans.
        spans: Vec<SpanEvent>,
    },
    /// Front door → replica clock handshake: `t0_us` is the sender's
    /// send-time on its own trace epoch, echoed back verbatim.
    ClockProbe {
        /// Sender's µs-since-epoch at send time.
        t0_us: u64,
    },
    /// Replica → front door: the probe's `t0_us` plus the replica's own
    /// clock, from which the front door estimates the epoch offset as
    /// `(t0 + t1) / 2 - now_us` (NTP midpoint, t1 = receive time).
    ClockReply {
        /// The probe's `t0_us`, echoed.
        t0_us: u64,
        /// Replica's µs-since-epoch when it handled the probe.
        now_us: u64,
    },
    /// Replica → front door: an encoded
    /// [`mime_obs::MetricsSnapshot`](mime_obs::metrics::MetricsSnapshot)
    /// of the replica's registry, merged into live `/metrics` scrapes.
    MetricsChunk {
        /// Replica index.
        replica: u32,
        /// `MetricsSnapshot::encode` bytes (decoded at ingestion).
        snapshot: Vec<u8>,
    },
    /// Front door → replica: the only work frame on the replica hop —
    /// one or more coalesced [`Frame::Request`]s (mixed tasks, mixed
    /// rungs) to execute as one batched pass over the shared backbone.
    /// The replica answers each item with its own [`Frame::Reply`] or
    /// [`Frame::ErrorReply`], in request order.
    BatchRequest {
        /// The coalesced requests, each a [`Frame::Request`], in
        /// dispatch order (1..=[`MAX_BATCH_ITEMS`]).
        items: Vec<Frame>,
    },
}

/// Decode/transport failure.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the stream at a frame boundary (clean EOF).
    Closed,
    /// The bytes could not be parsed as a frame (with the reason).
    Malformed(String),
    /// The length field exceeded [`MAX_FRAME_PAYLOAD`].
    TooLarge(u64),
    /// Underlying transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Malformed(why) => write!(f, "malformed frame: {why}"),
            ProtoError::TooLarge(len) => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn malformed(why: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(why.into())
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let n = s.len().min(MAX_SPAN_STR);
    put_u16(buf, n as u16);
    buf.extend_from_slice(&s.as_bytes()[..n]);
}

fn encode_payload(frame: &Frame) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    let kind = match frame {
        Frame::Request { id, trace, task, deadline_ms, rung, input } => {
            put_u64(&mut p, *id);
            put_u64(&mut p, *trace);
            put_u32(&mut p, *task);
            put_u32(&mut p, *deadline_ms);
            p.push(*rung);
            match input {
                RequestInput::Probe(i) => {
                    p.push(0);
                    put_u32(&mut p, *i);
                }
                RequestInput::Tensor(t) => {
                    p.push(1);
                    p.push(t.dims().len() as u8);
                    for &d in t.dims() {
                        put_u32(&mut p, d as u32);
                    }
                    for &v in t.as_slice() {
                        put_u32(&mut p, v.to_bits());
                    }
                }
            }
            KIND_REQUEST
        }
        Frame::Reply { id, trace, degraded, queue_us, compute_us, rung, logits } => {
            put_u64(&mut p, *id);
            put_u64(&mut p, *trace);
            p.push(u8::from(*degraded));
            put_u32(&mut p, *queue_us);
            put_u32(&mut p, *compute_us);
            p.push(*rung);
            put_u32(&mut p, logits.len() as u32);
            for &v in logits {
                put_u32(&mut p, v.to_bits());
            }
            KIND_REPLY
        }
        Frame::ErrorReply { id, trace, code, rung, retry_after_ms, message } => {
            put_u64(&mut p, *id);
            put_u64(&mut p, *trace);
            p.push(code.to_u8());
            p.push(*rung);
            put_u32(&mut p, *retry_after_ms);
            let msg = message.as_bytes();
            let n = msg.len().min(u16::MAX as usize);
            put_u16(&mut p, n as u16);
            p.extend_from_slice(&msg[..n]);
            KIND_ERROR
        }
        Frame::Heartbeat { seq, trace } => {
            put_u64(&mut p, *seq);
            put_u64(&mut p, *trace);
            KIND_HEARTBEAT
        }
        Frame::Ready { replica, tasks } => {
            put_u32(&mut p, *replica);
            put_u32(&mut p, *tasks);
            KIND_READY
        }
        Frame::Shutdown => KIND_SHUTDOWN,
        Frame::StatsRequest => KIND_STATS_REQUEST,
        Frame::StatsReply { json } => {
            let b = json.as_bytes();
            put_u32(&mut p, b.len() as u32);
            p.extend_from_slice(b);
            KIND_STATS_REPLY
        }
        Frame::TraceChunk { replica, spans } => {
            put_u32(&mut p, *replica);
            let n = spans.len().min(MAX_SPANS_PER_CHUNK);
            put_u16(&mut p, n as u16);
            for e in &spans[..n] {
                put_str(&mut p, &e.name);
                put_str(&mut p, &e.cat);
                put_u64(&mut p, e.ts_us);
                put_u64(&mut p, e.dur_us);
                put_u64(&mut p, e.tid);
                put_u32(&mut p, e.depth);
                let n_args = e.args.len().min(MAX_SPAN_ARGS);
                p.push(n_args as u8);
                for (k, v) in &e.args[..n_args] {
                    put_str(&mut p, k);
                    put_str(&mut p, v);
                }
            }
            KIND_TRACE_CHUNK
        }
        Frame::ClockProbe { t0_us } => {
            put_u64(&mut p, *t0_us);
            KIND_CLOCK_PROBE
        }
        Frame::ClockReply { t0_us, now_us } => {
            put_u64(&mut p, *t0_us);
            put_u64(&mut p, *now_us);
            KIND_CLOCK_REPLY
        }
        Frame::MetricsChunk { replica, snapshot } => {
            put_u32(&mut p, *replica);
            let n = snapshot.len().min(MAX_SNAPSHOT_BYTES);
            put_u32(&mut p, n as u32);
            p.extend_from_slice(&snapshot[..n]);
            KIND_METRICS_CHUNK
        }
        Frame::BatchRequest { items } => {
            debug_assert!(
                items.iter().all(|f| matches!(f, Frame::Request { .. })),
                "batch request items must be Request frames"
            );
            let n = items.len().min(MAX_BATCH_ITEMS);
            put_u16(&mut p, n as u16);
            for item in &items[..n] {
                let (kind, payload) = encode_payload(item);
                p.push(kind);
                put_u32(&mut p, payload.len() as u32);
                p.extend_from_slice(&payload);
            }
            KIND_BATCH_REQUEST
        }
    };
    (kind, p)
}

/// Writes one frame (header + payload) and flushes.
///
/// # Errors
///
/// Returns the underlying I/O error (a closed pipe/socket surfaces
/// here, which callers treat as peer death).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let (kind, payload) = encode_payload(frame);
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD, "oversized outbound frame");
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload);
    w.write_all(&buf)?;
    w.flush()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A byte-slice cursor with typed shortfall errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed(format!("truncated payload reading {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn done(&self, kind: &str) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(malformed(format!(
                "{} trailing byte(s) after {kind} payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn decode_str(c: &mut Cursor<'_>, what: &str) -> Result<String, ProtoError> {
    let n = c.u16(what)? as usize;
    if n > MAX_SPAN_STR {
        return Err(malformed(format!("{what} length {n} exceeds {MAX_SPAN_STR}")));
    }
    Ok(String::from_utf8_lossy(c.take(n, what)?).into_owned())
}

fn decode_f32s(c: &mut Cursor<'_>, n: usize, what: &str) -> Result<Vec<f32>, ProtoError> {
    if n > MAX_ELEMS {
        return Err(malformed(format!("{what} count {n} exceeds {MAX_ELEMS}")));
    }
    let raw = c.take(n * 4, what)?;
    Ok(raw
        .chunks_exact(4)
        .map(|b| f32::from_bits(u32::from_le_bytes(b.try_into().unwrap())))
        .collect())
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor::new(payload);
    let frame = match kind {
        KIND_REQUEST => {
            let id = c.u64("request id")?;
            let trace = c.u64("trace id")?;
            let task = c.u32("task id")?;
            let deadline_ms = c.u32("deadline")?;
            let rung = c.u8("request rung")?;
            let input = match c.u8("input kind")? {
                0 => RequestInput::Probe(c.u32("probe index")?),
                1 => {
                    let ndim = c.u8("tensor rank")? as usize;
                    if ndim == 0 || ndim > MAX_NDIM {
                        return Err(malformed(format!("tensor rank {ndim} out of range")));
                    }
                    let mut dims = Vec::with_capacity(ndim);
                    let mut elems = 1usize;
                    for _ in 0..ndim {
                        let d = c.u32("tensor dim")? as usize;
                        elems = elems
                            .checked_mul(d)
                            .filter(|&e| e <= MAX_ELEMS)
                            .ok_or_else(|| malformed("tensor element count overflow"))?;
                        dims.push(d);
                    }
                    let data = decode_f32s(&mut c, elems, "tensor data")?;
                    let tensor = Tensor::from_vec(data, &dims)
                        .map_err(|e| malformed(format!("tensor payload: {e}")))?;
                    RequestInput::Tensor(tensor)
                }
                other => return Err(malformed(format!("unknown input kind {other}"))),
            };
            c.done("request")?;
            Frame::Request { id, trace, task, deadline_ms, rung, input }
        }
        KIND_REPLY => {
            let id = c.u64("reply id")?;
            let trace = c.u64("reply trace id")?;
            let degraded = match c.u8("degraded flag")? {
                0 => false,
                1 => true,
                other => return Err(malformed(format!("bad degraded flag {other}"))),
            };
            let queue_us = c.u32("queue time")?;
            let compute_us = c.u32("compute time")?;
            let rung = c.u8("reply rung")?;
            let n = c.u32("logit count")? as usize;
            let logits = decode_f32s(&mut c, n, "logits")?;
            c.done("reply")?;
            Frame::Reply { id, trace, degraded, queue_us, compute_us, rung, logits }
        }
        KIND_ERROR => {
            let id = c.u64("error id")?;
            let trace = c.u64("error trace id")?;
            let code = ErrorCode::from_u8(c.u8("error code")?)?;
            let rung = c.u8("error rung")?;
            let retry_after_ms = c.u32("retry-after hint")?;
            let n = c.u16("message length")? as usize;
            let raw = c.take(n, "error message")?;
            let message = String::from_utf8_lossy(raw).into_owned();
            c.done("error reply")?;
            Frame::ErrorReply { id, trace, code, rung, retry_after_ms, message }
        }
        KIND_HEARTBEAT => {
            let seq = c.u64("heartbeat seq")?;
            let trace = c.u64("heartbeat trace id")?;
            c.done("heartbeat")?;
            Frame::Heartbeat { seq, trace }
        }
        KIND_READY => {
            let replica = c.u32("replica index")?;
            let tasks = c.u32("task count")?;
            c.done("ready")?;
            Frame::Ready { replica, tasks }
        }
        KIND_SHUTDOWN => {
            c.done("shutdown")?;
            Frame::Shutdown
        }
        KIND_STATS_REQUEST => {
            c.done("stats request")?;
            Frame::StatsRequest
        }
        KIND_STATS_REPLY => {
            let n = c.u32("stats length")? as usize;
            let raw = c.take(n, "stats json")?;
            let json = String::from_utf8_lossy(raw).into_owned();
            c.done("stats reply")?;
            Frame::StatsReply { json }
        }
        KIND_TRACE_CHUNK => {
            let replica = c.u32("trace chunk replica")?;
            let n = c.u16("span count")? as usize;
            if n > MAX_SPANS_PER_CHUNK {
                return Err(malformed(format!("span count {n} exceeds cap")));
            }
            let mut spans = Vec::with_capacity(n);
            for _ in 0..n {
                let name = decode_str(&mut c, "span name")?;
                let cat = decode_str(&mut c, "span cat")?;
                let ts_us = c.u64("span ts")?;
                let dur_us = c.u64("span dur")?;
                let tid = c.u64("span tid")?;
                let depth = c.u32("span depth")?;
                let n_args = c.u8("span arg count")? as usize;
                if n_args > MAX_SPAN_ARGS {
                    return Err(malformed(format!("span arg count {n_args} exceeds cap")));
                }
                let mut args = Vec::with_capacity(n_args);
                for _ in 0..n_args {
                    let k = decode_str(&mut c, "span arg key")?;
                    let v = decode_str(&mut c, "span arg value")?;
                    args.push((Cow::Owned(k), v));
                }
                spans.push(SpanEvent {
                    name: Cow::Owned(name),
                    cat: Cow::Owned(cat),
                    ts_us,
                    dur_us,
                    pid: mime_obs::trace::LOCAL_PID,
                    tid,
                    depth,
                    args,
                });
            }
            c.done("trace chunk")?;
            Frame::TraceChunk { replica, spans }
        }
        KIND_CLOCK_PROBE => {
            let t0_us = c.u64("probe t0")?;
            c.done("clock probe")?;
            Frame::ClockProbe { t0_us }
        }
        KIND_CLOCK_REPLY => {
            let t0_us = c.u64("clock t0")?;
            let now_us = c.u64("clock now")?;
            c.done("clock reply")?;
            Frame::ClockReply { t0_us, now_us }
        }
        KIND_METRICS_CHUNK => {
            let replica = c.u32("metrics chunk replica")?;
            let n = c.u32("snapshot length")? as usize;
            if n > MAX_SNAPSHOT_BYTES {
                return Err(malformed(format!("snapshot of {n} bytes exceeds cap")));
            }
            let snapshot = c.take(n, "snapshot bytes")?.to_vec();
            c.done("metrics chunk")?;
            Frame::MetricsChunk { replica, snapshot }
        }
        KIND_BATCH_REQUEST => {
            // only request subframes: no nested batches, so decode
            // recursion is bounded at depth two
            let n = c.u16("batch item count")? as usize;
            if !(1..=MAX_BATCH_ITEMS).contains(&n) {
                return Err(malformed(format!(
                    "batch item count {n} out of range (1..={MAX_BATCH_ITEMS})"
                )));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let kind = c.u8("subframe kind")?;
                if kind != KIND_REQUEST {
                    return Err(malformed(format!(
                        "kind {kind} not allowed in a batch request"
                    )));
                }
                let len = c.u32("subframe length")? as usize;
                items.push(decode_payload(kind, c.take(len, "subframe payload")?)?);
            }
            c.done("batch request")?;
            Frame::BatchRequest { items }
        }
        other => return Err(malformed(format!("unknown frame kind {other}"))),
    };
    Ok(frame)
}

/// Incremental frame decoder for sockets with read timeouts.
///
/// [`poll_frame`](Self::poll_frame) buffers whatever bytes are
/// available and returns `Ok(None)` on `WouldBlock`/`TimedOut`,
/// preserving partial frames across polls — TCP fragmentation and slow
/// writers can never desynchronize the stream.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Header fields once ≥ 5 bytes are buffered, with the length field
    /// validated *before* any payload is read.
    fn header(&self) -> Option<Result<(u8, usize), ProtoError>> {
        if self.buf.len() < 5 {
            return None;
        }
        let kind = self.buf[0];
        let len = u32::from_le_bytes(self.buf[1..5].try_into().unwrap()) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Some(Err(ProtoError::TooLarge(len as u64)));
        }
        Some(Ok((kind, len)))
    }

    /// Reads until one full frame is buffered, the reader would block,
    /// or the stream errors.
    ///
    /// Returns `Ok(Some(frame))` for a complete frame, `Ok(None)` when
    /// the underlying reader timed out mid-frame (call again later).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Closed`] on EOF at a frame boundary,
    /// [`ProtoError::Malformed`] on EOF mid-frame or undecodable bytes,
    /// [`ProtoError::TooLarge`] on a hostile length field.
    pub fn poll_frame(&mut self, r: &mut impl Read) -> Result<Option<Frame>, ProtoError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(h) = self.header() {
                let (kind, len) = h?;
                if self.buf.len() >= 5 + len {
                    let frame = decode_payload(kind, &self.buf[5..5 + len])?;
                    self.buf.drain(..5 + len);
                    return Ok(Some(frame));
                }
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(ProtoError::Closed)
                    } else {
                        Err(malformed("connection closed mid-frame"))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }
}

/// Blocking frame read for pipes and sockets without read timeouts.
///
/// Reads exactly one frame's bytes — never more — so repeated calls on
/// the same stream see every frame (unlike a throwaway [`FrameReader`],
/// whose internal buffer would swallow whatever followed).
///
/// # Errors
///
/// [`ProtoError::Closed`] on EOF at a frame boundary,
/// [`ProtoError::Malformed`] on EOF mid-frame or undecodable bytes,
/// [`ProtoError::TooLarge`] on a hostile length field,
/// [`ProtoError::Io`] on transport errors (including a read timeout,
/// if the caller set one).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    // First byte separately: EOF here is a clean close, EOF anywhere
    // later is a truncated frame.
    let mut header = [0u8; 5];
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(ProtoError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    read_exact_or_malformed(r, &mut header[1..])?;
    let kind = header[0];
    let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::TooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    read_exact_or_malformed(r, &mut payload)?;
    decode_payload(kind, &payload)
}

fn read_exact_or_malformed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            malformed("connection closed mid-frame")
        } else {
            ProtoError::Io(e)
        }
    })
}

/// Deterministic probe input `i`: the `[3, 32, 32]` image generator the
/// CLI batch/serve drills use, shared so replicas expand
/// [`RequestInput::Probe`] to bit-identical tensors everywhere.
pub fn probe_image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 32, 32], move |j| (((j + i * 97) % 17) as f32 - 8.0) * 0.09)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Request {
            id: 7,
            trace: 99,
            task: 2,
            deadline_ms: 1500,
            rung: 0,
            input: RequestInput::Probe(41),
        });
        round_trip(Frame::Request {
            id: u64::MAX - 1,
            trace: NO_TRACE_ID,
            task: 0,
            deadline_ms: 0,
            rung: 3,
            input: RequestInput::Tensor(probe_image(3)),
        });
        round_trip(Frame::Reply {
            id: 9,
            trace: 99,
            degraded: true,
            queue_us: 1200,
            compute_us: 35_000,
            rung: 0,
            logits: vec![0.5, -1.25, 3.0],
        });
        round_trip(Frame::Reply {
            id: 10,
            trace: 99,
            degraded: false,
            queue_us: 0,
            compute_us: 12,
            rung: 2,
            logits: vec![1.0],
        });
        round_trip(Frame::ErrorReply {
            id: NO_REQUEST_ID,
            trace: NO_TRACE_ID,
            code: ErrorCode::BadFrame,
            rung: 0,
            retry_after_ms: 0,
            message: "nope".into(),
        });
        round_trip(Frame::ErrorReply {
            id: 4,
            trace: 77,
            code: ErrorCode::Overloaded,
            rung: 1,
            retry_after_ms: 250,
            message: "admission queue full".into(),
        });
        round_trip(Frame::Heartbeat { seq: 123, trace: 99 });
        round_trip(Frame::Ready { replica: 1, tasks: 3 });
        round_trip(Frame::Shutdown);
        round_trip(Frame::StatsRequest);
        round_trip(Frame::StatsReply { json: "{\"a\":1}".into() });
        round_trip(Frame::TraceChunk {
            replica: 1,
            spans: vec![SpanEvent {
                name: Cow::Owned("serve_request".to_string()),
                cat: Cow::Owned("serve.replica".to_string()),
                ts_us: 1234,
                dur_us: 567,
                pid: mime_obs::trace::LOCAL_PID,
                tid: 3,
                depth: 1,
                args: vec![(Cow::Owned("trace".to_string()), "99".to_string())],
            }],
        });
        round_trip(Frame::TraceChunk { replica: 0, spans: Vec::new() });
        round_trip(Frame::ClockProbe { t0_us: 5_000_123 });
        round_trip(Frame::ClockReply { t0_us: 5_000_123, now_us: 4_999_900 });
        round_trip(Frame::MetricsChunk { replica: 1, snapshot: vec![9, 8, 7] });
    }

    #[test]
    fn trace_chunk_caps_enforced() {
        // span count beyond the cap is rejected before allocation
        let mut p = Vec::new();
        put_u32(&mut p, 0);
        put_u16(&mut p, (MAX_SPANS_PER_CHUNK + 1) as u16);
        assert!(decode_payload(KIND_TRACE_CHUNK, &p).is_err());

        // a hostile span string length fails cleanly
        let mut p = Vec::new();
        put_u32(&mut p, 0);
        put_u16(&mut p, 1);
        put_u16(&mut p, u16::MAX); // name length > MAX_SPAN_STR
        assert!(decode_payload(KIND_TRACE_CHUNK, &p).is_err());

        // an oversized metrics snapshot length is rejected
        let mut p = Vec::new();
        put_u32(&mut p, 0);
        put_u32(&mut p, (MAX_SNAPSHOT_BYTES + 1) as u32);
        assert!(decode_payload(KIND_METRICS_CHUNK, &p).is_err());
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::FailedAfterRetries,
            ErrorCode::UnknownTask,
            ErrorCode::BadFrame,
            ErrorCode::Unavailable,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()).unwrap(), code);
            assert!(!code.name().is_empty());
        }
        assert!(ErrorCode::from_u8(200).is_err());
    }

    #[test]
    fn truncated_header_is_malformed_and_empty_is_closed() {
        assert!(matches!(read_frame(&mut [].as_slice()), Err(ProtoError::Closed)));
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat { seq: 1, trace: 9 }).unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, ProtoError::Malformed(_)), "cut={cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = vec![KIND_HEARTBEAT];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn unknown_kind_and_garbage_payload_are_malformed() {
        let mut buf = vec![99u8];
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3, 4]);
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(ProtoError::Malformed(_))));

        // a request whose payload is junk
        let mut buf = vec![KIND_REQUEST];
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0xde, 0xad, 0xbe]);
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(ProtoError::Malformed(_))));

        // trailing bytes after a valid shutdown payload
        let mut buf = vec![KIND_SHUTDOWN];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0, 0]);
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn tensor_rank_and_element_caps_enforced() {
        // a valid request carrying a [2, 3] tensor, patched in place so
        // each payload fails on exactly one cap
        let (kind, valid) = encode_payload(&Frame::Request {
            id: 1,
            trace: 2,
            task: 0,
            deadline_ms: 0,
            rung: 0,
            input: RequestInput::Tensor(Tensor::from_vec(vec![0.5; 6], &[2, 3]).unwrap()),
        });
        assert!(decode_payload(kind, &valid).is_ok(), "the unpatched payload decodes");
        // id, trace, task, deadline, rung, input kind
        const RANK_AT: usize = 8 + 8 + 4 + 4 + 1 + 1;
        assert_eq!(valid[RANK_AT], 2);
        let why = |payload: &[u8]| match decode_payload(kind, payload) {
            Err(ProtoError::Malformed(why)) => why,
            other => panic!("expected Malformed, got {other:?}"),
        };
        for rank in [0, MAX_NDIM as u8 + 1] {
            let mut p = valid.clone();
            p[RANK_AT] = rank;
            let why = why(&p);
            assert!(why.contains(&format!("tensor rank {rank} out of range")), "{why}");
        }
        // two u32::MAX dims: their product exceeds the element cap
        let mut p = valid.clone();
        p[RANK_AT + 1..RANK_AT + 9].fill(0xFF);
        let why = why(&p);
        assert!(why.contains("tensor element count overflow"), "{why}");
    }

    #[test]
    fn frame_reader_survives_byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Reply {
                id: 5,
                trace: 5,
                degraded: false,
                queue_us: 0,
                compute_us: 0,
                rung: 0,
                logits: vec![1.0],
            },
        )
        .unwrap();
        write_frame(&mut wire, &Frame::Heartbeat { seq: 2, trace: 0 }).unwrap();

        /// Yields one byte per read, then WouldBlock forever.
        struct Trickle {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for Trickle {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                out[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }

        let mut r = Trickle { data: wire, pos: 0 };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.poll_frame(&mut r) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0], Frame::Reply { id: 5, .. }));
        assert!(matches!(frames[1], Frame::Heartbeat { seq: 2, .. }));
    }

    fn req(id: u64, task: u32, rung: u8) -> Frame {
        Frame::Request {
            id,
            trace: id + 100,
            task,
            deadline_ms: 900,
            rung,
            input: RequestInput::Probe(id as u32),
        }
    }

    #[test]
    fn batch_frames_round_trip_mixed_tasks_and_rungs() {
        round_trip(Frame::BatchRequest {
            items: vec![req(1, 0, 0), req(2, 1, 3), req(3, 2, 0)],
        });
        round_trip(Frame::BatchRequest { items: vec![req(4, 1, 2)] });
    }

    #[test]
    fn batch_decode_rejects_hostile_payloads() {
        // count 0 / over the cap
        for n in [0u16, (MAX_BATCH_ITEMS + 1) as u16] {
            let mut p = Vec::new();
            put_u16(&mut p, n);
            assert!(decode_payload(KIND_BATCH_REQUEST, &p).is_err(), "count {n}");
        }
        // a nested batch frame (recursion is bounded at depth two)
        let inner = encode_payload(&req(1, 0, 0));
        let mut p = Vec::new();
        put_u16(&mut p, 2);
        p.push(KIND_BATCH_REQUEST);
        put_u32(&mut p, 0);
        p.push(inner.0);
        put_u32(&mut p, inner.1.len() as u32);
        p.extend_from_slice(&inner.1);
        assert!(decode_payload(KIND_BATCH_REQUEST, &p).is_err());
        // a reply kind inside a batch request
        let reply = Frame::Reply {
            id: 1,
            trace: 0,
            degraded: false,
            queue_us: 0,
            compute_us: 0,
            rung: 0,
            logits: vec![1.0],
        };
        let (rk, rp) = encode_payload(&reply);
        let mut p = Vec::new();
        put_u16(&mut p, 2);
        for _ in 0..2 {
            p.push(rk);
            put_u32(&mut p, rp.len() as u32);
            p.extend_from_slice(&rp);
        }
        assert!(decode_payload(KIND_BATCH_REQUEST, &p).is_err());
        // truncated subframe payload
        let (k, payload) = encode_payload(&req(1, 0, 0));
        let mut p = Vec::new();
        put_u16(&mut p, 2);
        p.push(k);
        put_u32(&mut p, payload.len() as u32 + 8); // lies about length
        p.extend_from_slice(&payload);
        assert!(decode_payload(KIND_BATCH_REQUEST, &p).is_err());
    }

    #[test]
    fn probe_image_matches_batch_generator() {
        let t = probe_image(4);
        assert_eq!(t.dims(), &[3, 32, 32]);
        let j = 100usize;
        assert_eq!(t.as_slice()[j], (((j + 4 * 97) % 17) as f32 - 8.0) * 0.09);
    }
}
