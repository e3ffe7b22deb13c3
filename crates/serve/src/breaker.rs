//! Per-replica circuit breaker: Closed → Open → HalfOpen.
//!
//! The front door keeps one breaker per replica slot, so a replica that
//! keeps dying (or failing to spawn) stops being respawned in a tight
//! loop and never holds up its sibling slots. After
//! `failure_threshold` *consecutive* deaths or spawn failures, the slot
//! trips Open: its Cooldown, in which no respawn is attempted. After
//! `cooldown`, one respawn is tried as the probe (HalfOpen); a replica
//! that comes up closes the breaker, another failure re-opens it for
//! another cooldown. Time is passed in by the caller as a `Duration`
//! since the slot's epoch.

use std::time::Duration;

/// Breaker thresholds, shared by every replica slot's breaker.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long an Open breaker refuses the primary route before
    /// allowing a HalfOpen probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(100) }
    }
}

/// Observable breaker state (for metrics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: attempts take the primary route.
    Closed,
    /// Tripped: attempts take the fallback route until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: one probe is in flight on the primary route.
    HalfOpen,
}

/// Where the breaker routes one attempt. The front door spawns a
/// replica on either primary route and sits out a Cooldown tick on
/// [`Route::Parent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Primary route (breaker Closed).
    Primary,
    /// Primary route as the single HalfOpen probe; its outcome decides
    /// whether the breaker closes or re-opens.
    PrimaryProbe,
    /// Fallback route (breaker Open, or HalfOpen with the probe
    /// already taken).
    Parent,
}

/// One replica slot's breaker, owned by that slot's runner thread; all
/// methods take `&mut self` and are O(1).
#[derive(Debug)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
    state: BreakerState,
    opened_at: Duration,
    trips: u64,
}

impl CircuitBreaker {
    /// A fresh (Closed) breaker.
    pub fn new() -> Self {
        CircuitBreaker {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            opened_at: Duration::ZERO,
            trips: 0,
        }
    }

    /// Current state (Open reported as HalfOpen only once a probe has
    /// actually been handed out).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped Closed→Open (re-opens after a
    /// failed probe count too).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Decides the route for an attempt at `now`.
    pub fn route(&mut self, now: Duration, cfg: &BreakerConfig) -> Route {
        match self.state {
            BreakerState::Closed => Route::Primary,
            BreakerState::Open if now >= self.opened_at + cfg.cooldown => {
                self.state = BreakerState::HalfOpen;
                Route::PrimaryProbe
            }
            BreakerState::Open => Route::Parent,
            // Only one probe at a time: everyone else keeps degrading.
            BreakerState::HalfOpen => Route::Parent,
        }
    }

    /// Reports a successful attempt on `route`. A fallback success says
    /// nothing about the primary route's health, so it neither closes
    /// the breaker nor resets the failure count.
    pub fn report_success(&mut self, route: Route) {
        match route {
            Route::Primary => self.consecutive_failures = 0,
            Route::PrimaryProbe => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
            }
            Route::Parent => {}
        }
    }

    /// Reports a failed primary-route attempt on `route` at `now`.
    pub fn report_failure(&mut self, route: Route, now: Duration, cfg: &BreakerConfig) {
        match route {
            Route::Primary => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= cfg.failure_threshold {
                    self.trip(now);
                }
            }
            // A failed probe re-opens immediately for another cooldown.
            Route::PrimaryProbe => self.trip(now),
            Route::Parent => {}
        }
    }

    fn trip(&mut self, now: Duration) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.trips += 1;
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn cfg() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(10) }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        for i in 0..2 {
            let r = b.route(MS * i, &cfg);
            assert_eq!(r, Route::Primary);
            b.report_failure(r, MS * i, &cfg);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        let r = b.route(MS * 2, &cfg);
        b.report_failure(r, MS * 2, &cfg);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.route(MS * 3, &cfg), Route::Parent, "open routes to parent");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        for i in 0..10 {
            let r = b.route(MS * i, &cfg);
            if i % 2 == 0 {
                b.report_failure(r, MS * i, &cfg);
            } else {
                b.report_success(r);
            }
        }
        assert_eq!(b.state(), BreakerState::Closed, "alternating failures never trip");
    }

    #[test]
    fn half_open_probe_closes_on_success_reopens_on_failure() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        for i in 0..3 {
            let r = b.route(MS * i, &cfg);
            b.report_failure(r, MS * i, &cfg);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // within cooldown: parent
        assert_eq!(b.route(MS * 5, &cfg), Route::Parent);
        // cooldown elapsed at t=2+10: exactly one probe, others degrade
        let probe = b.route(MS * 12, &cfg);
        assert_eq!(probe, Route::PrimaryProbe);
        assert_eq!(b.route(MS * 12, &cfg), Route::Parent, "single probe at a time");
        // failed probe re-opens for a fresh cooldown
        b.report_failure(probe, MS * 12, &cfg);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert_eq!(b.route(MS * 13, &cfg), Route::Parent);
        // next probe succeeds and closes
        let probe = b.route(MS * 22, &cfg);
        assert_eq!(probe, Route::PrimaryProbe);
        b.report_success(probe);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.route(MS * 23, &cfg), Route::Primary);
    }

    #[test]
    fn concurrent_half_open_probes_yield_exactly_one_primary_probe() {
        use std::sync::{Arc, Barrier, Mutex};

        let cfg = cfg();
        let breaker = Arc::new(Mutex::new(CircuitBreaker::new()));
        {
            let mut b = breaker.lock().unwrap();
            for i in 0..3 {
                let r = b.route(MS * i, &cfg);
                b.report_failure(r, MS * i, &cfg);
            }
            assert_eq!(b.state(), BreakerState::Open);
        }
        // Every thread hits the breaker at the same post-cooldown
        // instant, racing `route()` on a shared `Mutex<CircuitBreaker>`
        // after a cooldown expires: precisely one of them may carry the
        // HalfOpen probe.
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let routes: Vec<Route> = (0..threads)
            .map(|_| {
                let breaker = Arc::clone(&breaker);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let cfg = BreakerConfig {
                        failure_threshold: 3,
                        cooldown: Duration::from_millis(10),
                    };
                    barrier.wait();
                    breaker.lock().unwrap().route(MS * 20, &cfg)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let probes = routes.iter().filter(|r| **r == Route::PrimaryProbe).count();
        let parents = routes.iter().filter(|r| **r == Route::Parent).count();
        assert_eq!(probes, 1, "exactly one probe across racing workers: {routes:?}");
        assert_eq!(parents, threads - 1, "everyone else keeps degrading");
        // The racing probe's success closes the breaker for everyone.
        breaker.lock().unwrap().report_success(Route::PrimaryProbe);
        assert_eq!(breaker.lock().unwrap().route(MS * 21, &cfg), Route::Primary);
    }

    #[test]
    fn parent_success_does_not_close_an_open_breaker() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        for i in 0..3 {
            let r = b.route(MS * i, &cfg);
            b.report_failure(r, MS * i, &cfg);
        }
        let r = b.route(MS * 4, &cfg);
        assert_eq!(r, Route::Parent);
        b.report_success(r);
        assert_eq!(b.state(), BreakerState::Open, "parent success is not evidence");
    }
}
