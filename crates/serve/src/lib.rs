//! # mime-serve
//!
//! A resilient serving loop over the MIME hardware executor, for the
//! mixed-task shared-weight traffic the paper's pipelined batch mode
//! models (Bhattacharjee et al., DAC 2022):
//!
//! * [`BoundedQueue`] — bounded MPSC admission with backpressure:
//!   requests beyond capacity shed immediately with
//!   [`ShedReason::QueueFull`] instead of growing latency unboundedly.
//! * [`Clock`] — time as a capability. [`SystemClock`] for production,
//!   [`VirtualClock`] for deterministic tests: deadlines, backoff, and
//!   breaker cooldowns are reproducible without wall-clock reads.
//! * [`RetryPolicy`] — bounded retry with deterministic exponential
//!   backoff for transient faults (worker panics, flaky errors).
//! * [`CircuitBreaker`] — per-task Closed → Open → HalfOpen breaker
//!   counting *consecutive* threshold-bank failures; a tripped task
//!   routes to the exact parent path (`strip_thresholds`) for a
//!   cooldown window, leaving sibling tasks untouched.
//! * [`Server`] — panic-isolated supervised workers over
//!   [`mime_runtime::HardwareExecutor`] replicas, with per-request
//!   deadlines checked at dequeue and between layers (the guard hook of
//!   the executor's one step loop, which runs each request as a batch of
//!   one), graceful drain shutdown, and chaos hooks ([`FaultPlan`]).
//! * [`proto`] — the length-framed wire protocol for multi-process
//!   serving: typed request/reply/error frames, heartbeats, and a
//!   fragmentation-tolerant [`proto::FrameReader`]. One frame version:
//!   the replica hop carries a `BatchRequest` of one or more requests
//!   in and one terminal frame per request out.
//! * [`replica`] — the process-level isolation unit:
//!   [`replica::run_replica_worker`] (the child-side serving loop, one
//!   request path where a single request is a batch of one, with
//!   between-layer heartbeats and `--inject replica-*` faults) and
//!   [`replica::ReplicaProc`] (the supervisor-side child handle).
//! * [`FrontDoor`] — the TCP front door and replica supervisor:
//!   liveness deadlines, restart budgets with per-replica breakers,
//!   requeue-or-fail on replica death, cross-process backpressure, and
//!   graceful drain.
//!
//! The invariant everything here defends: **every admitted request
//! terminates in exactly one terminal state** ([`Outcome`] in process,
//! one terminal [`proto::Frame`] on the wire) — never a hang, never an
//! unanswered client.

mod breaker;
mod clock;
mod frontdoor;
mod overload;
pub mod proto;
mod queue;
pub mod replica;
mod retry;
mod server;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Route};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use frontdoor::{
    ConnFault, FrontDoor, FrontDoorConfig, FrontDoorReport, FrontDoorStopper,
};
pub use overload::{OverloadConfig, OverloadController, CRITICAL_GRACE};
pub use queue::BoundedQueue;
pub use replica::{
    ReplicaFault, ReplicaProc, ReplicaState, ReplicaWorkerConfig, SideChannel,
};
pub use retry::RetryPolicy;
pub use server::{
    Completion, FaultPlan, Outcome, Request, ServeConfig, ServeReport, Server, ShedReason,
};
