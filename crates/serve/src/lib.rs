//! # mime-serve
//!
//! A resilient multi-process serving loop over the MIME hardware
//! executor, for the mixed-task shared-weight traffic the paper's
//! pipelined batch mode models (Bhattacharjee et al., DAC 2022):
//!
//! * [`BoundedQueue`] — bounded MPSC admission with backpressure:
//!   requests beyond capacity shed immediately (`Overloaded` on the
//!   wire) instead of growing latency unboundedly.
//! * [`RetryPolicy`] — bounded retry with deterministic exponential
//!   backoff: requeues of requests in flight on a dead replica, and the
//!   pause between respawn attempts.
//! * [`CircuitBreaker`] — per-replica Closed → Open → HalfOpen breaker
//!   counting *consecutive* deaths and spawn failures; Open is the
//!   slot's Cooldown between respawn attempts.
//! * [`OverloadController`] — the fleet-wide brownout rung picked from
//!   queue sojourn, sheds and deadline misses.
//! * [`proto`] — the length-framed wire protocol: typed
//!   request/reply/error frames, heartbeats, and a
//!   fragmentation-tolerant [`proto::FrameReader`]. One frame version:
//!   the replica hop carries a `BatchRequest` of one or more requests
//!   in and one terminal frame per request out.
//! * [`replica`] — the process-level isolation unit:
//!   [`replica::run_replica_worker`] (the child-side serving loop, one
//!   request path where a single request is a batch of one, with
//!   between-layer heartbeats and `--inject replica-*` faults) and
//!   [`replica::ReplicaProc`] (the supervisor-side child handle).
//! * [`FrontDoor`] — the TCP front door and replica supervisor:
//!   admission, deadline-aware batching, brownout, liveness deadlines,
//!   restart budgets with per-replica breakers, requeue-or-fail on
//!   replica death, and graceful drain.
//!
//! The invariant everything here defends: **every admitted request
//! terminates in exactly one terminal [`proto::Frame`]** — never a
//! hang, never an unanswered client.

mod breaker;
mod frontdoor;
mod overload;
pub mod proto;
mod queue;
pub mod replica;
mod retry;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Route};
pub use frontdoor::{
    ConnFault, FrontDoor, FrontDoorConfig, FrontDoorReport, FrontDoorStopper,
};
pub use overload::{OverloadConfig, OverloadController, CRITICAL_GRACE};
pub use queue::BoundedQueue;
pub use replica::{
    ReplicaFault, ReplicaProc, ReplicaState, ReplicaWorkerConfig, SideChannel,
};
pub use retry::RetryPolicy;
