//! Bounded retry with deterministic exponential backoff.
//!
//! The front door requeues a request in flight on a dead replica up to
//! `max_attempts` total attempts, and spaces respawn attempts by
//! `base · multiplier^attempt` (clamped to `max_backoff`). A schedule
//! is a pure function of the attempt number, with no jitter.

use std::time::Duration;

/// Retry/backoff policy for transient faults.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Backoff growth factor per retry.
    pub multiplier: u32,
    /// Upper clamp on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(4),
            multiplier: 2,
            max_backoff: Duration::from_millis(64),
        }
    }
}

impl RetryPolicy {
    /// Whether attempt number `next_attempt` (0-based) may run.
    pub fn allows(&self, next_attempt: u32) -> bool {
        next_attempt < self.max_attempts.max(1)
    }

    /// Backoff to sleep after failed 0-based attempt `attempt`:
    /// `min(base · multiplier^attempt, max_backoff)`. Saturates instead
    /// of overflowing on absurd attempt numbers.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = (self.multiplier.max(1) as u64).saturating_pow(attempt.min(32));
        let nanos = (self.base.as_nanos() as u64).saturating_mul(factor);
        Duration::from_nanos(nanos).min(self.max_backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_clamps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(4),
            multiplier: 2,
            max_backoff: Duration::from_millis(10),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(4));
        assert_eq!(p.backoff(1), Duration::from_millis(8));
        assert_eq!(p.backoff(2), Duration::from_millis(10), "clamped");
        assert_eq!(p.backoff(40), Duration::from_millis(10), "no overflow");
    }

    #[test]
    fn attempt_budget_is_total_attempts() {
        let p = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        assert!(p.allows(0));
        assert!(p.allows(2));
        assert!(!p.allows(3));
    }

    #[test]
    fn schedule_is_deterministic() {
        let p = RetryPolicy::default();
        let a: Vec<Duration> = (0..6).map(|i| p.backoff(i)).collect();
        let b: Vec<Duration> = (0..6).map(|i| p.backoff(i)).collect();
        assert_eq!(a, b);
    }
}
