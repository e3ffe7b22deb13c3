//! # mime-cli
//!
//! Command-line front end to the MIME reproduction. The `mime` binary
//! exposes the library's main workflows without writing Rust:
//!
//! ```text
//! mime storage   [--input-hw 224] [--children 8]
//! mime simulate  [--mode pipelined|singular] [--approach mime|case1|case2|pruned]
//!                [--pe 1024] [--cache-kb 156] [--input-hw 224]
//! mime train     [--task cifar10|cifar100|fmnist] [--epochs 10] [--seed 42]
//!                [--checkpoint-dir <dir>] [--resume]
//! mime pack      --out <file> [--tasks 2] [--seed 42]
//! mime inspect   <file>
//! mime verify-image  <file>
//! mime inject-faults <file> --out <file> [--seed 42] [--mode bitflip|truncate|garble] [--count N]
//! mime validate  [--input-hw 32]
//! mime batch     [--images 6] [--tasks 2] [--seed 42] [--poison i]
//! mime serve     [--listen <addr> | --requests 16] [--tasks 3] [--seed 42]
//!                [--replicas 2] [--image <file>] [--capacity 0] [--deadline-ms 5000]
//!                [--inject none|replica-abort|replica-hang|replica-slow|
//!                 conn-garbage|conn-truncate] [--inject-every 4]
//! mime loadgen   --connect <addr> [--requests 64] [--concurrency 4] [--tasks 3]
//!                [--deadline-ms 5000] [--bench-out <file>] [--label run] [--drain]
//! mime help
//! ```
//!
//! `mime serve` is a multi-process TCP front door: it spawns `--replicas`
//! copies of this binary as `replica-worker` processes (each loading the
//! same packed image read-only), supervises them with heartbeat liveness
//! deadlines, restart budgets and a backoff between respawns, and
//! guarantees every client request one terminal reply even while replicas
//! are killed under it. With `--listen` it serves clients until drained;
//! without, it binds `127.0.0.1:0`, drives `--requests` requests through
//! its own fleet with the `loadgen` client, and drains.
//!
//! Every command additionally accepts the global observability flags
//! `--trace-out <file>` (Chrome-trace JSON for `chrome://tracing` /
//! Perfetto), `--metrics-out <file>` (Prometheus text, or JSON when the
//! path ends in `.json`) and `--log-level <level>`.
//!
//! This crate keeps all command logic in the library (`run` +
//! `parse_invocation`) so it is unit-testable; `src/main.rs` is a thin
//! shim.

mod args;
mod commands;

pub use args::{
    parse_args, parse_invocation, ArgError, Command, FaultMode, ObsOptions, ServeFault,
    SimApproach,
};
pub use commands::{run, CliError, EXIT_DEGRADED};
