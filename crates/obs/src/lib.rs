//! # mime-obs
//!
//! Zero-dependency observability for the MIME workspace: structured
//! tracing, a metrics registry, and a leveled `key=value` logger. The
//! three hot layers (`mime-nn` forward/backward, the
//! `mime-runtime` executor, and the `mime-systolic` functional array)
//! carry profiling hooks built on this crate; the CLI turns them on
//! with `--trace-out`, `--metrics-out` and `--log-level`.
//!
//! Everything is off by default and costs one relaxed atomic load per
//! hook when disabled — no allocation, no clock read.
//!
//! * [`mod@trace`] — `span`-guards with thread-local nesting and per-thread
//!   buffers, exported as Chrome-trace JSON ([`trace::chrome_trace_json`])
//!   loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//! * [`metrics`] — named counters, gauges and fixed-bucket histograms
//!   under the `mime_<crate>_<noun>_<unit>` naming convention, exported
//!   as Prometheus text ([`metrics::Registry::render_prometheus`]) or
//!   JSON ([`metrics::Registry::render_json`]).
//! * [`mod@log`] — leveled structured logging to stderr, level from
//!   `MIME_LOG` or [`log::set_level`].
//! * [`flight`] — a lock-free flight-recorder ring of request
//!   lifecycle events, dumped to a timestamped JSON file on replica
//!   death, panic, or SIGUSR1 for post-mortem debugging.
//!
//! ## Example
//!
//! ```
//! mime_obs::trace::set_enabled(true);
//! mime_obs::metrics::global().counter("mime_example_events_total").inc();
//! {
//!     let mut span = mime_obs::trace::span_cat("work", "example");
//!     span.arg("n", 3);
//! }
//! let json = mime_obs::trace::chrome_trace_json(&mime_obs::trace::drain());
//! assert!(json.contains("\"work\""));
//! mime_obs::trace::set_enabled(false);
//! ```

pub mod flight;
pub mod log;
pub mod metrics;
pub mod trace;

pub use log::Level;
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use trace::SpanGuard;

/// Whether any profiling sink (tracing or metrics) is active — the one
/// check instrumentation hooks make before reading clocks or touching
/// the registry.
#[inline]
pub fn profiling() -> bool {
    trace::enabled() || metrics_enabled()
}

use std::sync::atomic::{AtomicBool, Ordering};

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording by the built-in hooks on or off. Direct use
/// of the registry (e.g. by benchmarks) works regardless.
pub fn set_metrics_enabled(enabled: bool) {
    METRICS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the built-in hooks record metrics (one relaxed load).
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}
