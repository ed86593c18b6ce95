//! A circuit-breaker layer over the virtual clock — the
//! closed / open / half-open state machine, deterministically.
//!
//! The breaker watches a rolling window of the last `window` inner
//! outcomes. While **closed** it passes requests through; once the
//! window holds `max_failures` failures it trips **open** and rejects
//! every request with [`ServeError::Broken`] — instantly, without
//! touching the backend — for `cooldown` virtual ticks. The first
//! request after the cooldown runs as a **half-open** probe: success
//! closes the breaker (window reset), failure re-opens it for another
//! cooldown. Failures are the transient backend class
//! ([`ServeError::Faulted`], [`ServeError::TimedOut`]) plus [`Broken`]
//! bubbling up from a nested breaker; pressure rejections
//! (buffer-full/at-capacity/rate-limited) are the *caller's* overload,
//! not evidence the backend is unhealthy, and don't count.
//!
//! Every request still ends exactly once: it either reaches the backend
//! (and resolves however the backend resolves) or is rejected `Broken` —
//! a first-class terminal outcome in the engine's conservation
//! accounting, counted by [`BreakerStats::broken`].
//!
//! [`Broken`]: ServeError::Broken

use std::collections::VecDeque;

use balloc_sim::VClock;

use crate::counters::{counter_events, Counters};
use crate::service::{Layer, ServeError, Service};

/// Configuration of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Rolling-window length (inner outcomes remembered while closed).
    pub window: usize,
    /// Failures within the window that trip the breaker open.
    pub max_failures: usize,
    /// Ticks an open breaker rejects before probing half-open.
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    /// Trip at 5 failures in the last 16 outcomes, cool down 64 ticks.
    fn default() -> Self {
        Self {
            window: 16,
            max_failures: 5,
            cooldown: 64,
        }
    }
}

impl BreakerConfig {
    /// Asserts the configuration is usable.
    ///
    /// # Panics
    ///
    /// Panics if the window or cooldown is zero, or if `max_failures` is
    /// zero or exceeds the window (the threshold would be unreachable).
    pub fn validate(&self) {
        assert!(self.window > 0, "breaker window must be positive");
        assert!(self.cooldown > 0, "breaker cooldown must be positive");
        assert!(
            self.max_failures > 0 && self.max_failures <= self.window,
            "breaker max_failures must lie in 1..=window (got {} over {})",
            self.max_failures,
            self.window
        );
    }
}

/// The observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Passing traffic, watching the failure window.
    Closed,
    /// Rejecting everything until the cooldown elapses.
    Open,
    /// Cooldown elapsed; the next request is the probe.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half-open",
        })
    }
}

counter_events! {
    /// Events counted by [`CircuitBreaker`].
    BreakerEvent {
        /// A request was rejected by an open breaker.
        Broken,
        /// A transition into the open state (a trip or a failed probe).
        Opened,
        /// A successful half-open probe (a transition back to closed).
        Reclosed,
    }
}

/// Shared breaker observability counters.
pub type BreakerStats = Counters<BreakerEvent>;

/// Internal state: `Open` remembers when the cooldown ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Open { until: u64 },
    HalfOpen,
}

/// A [`Service`] guarding `inner` with the breaker state machine.
#[derive(Debug, Clone)]
pub struct CircuitBreaker<S> {
    inner: S,
    clock: VClock,
    cfg: BreakerConfig,
    state: State,
    /// Rolling window of inner outcomes (`true` = failure), newest last.
    window: VecDeque<bool>,
    failures: usize,
    stats: BreakerStats,
}

impl<S> CircuitBreaker<S> {
    /// Wraps `inner`, starting closed with an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`BreakerConfig::validate`]).
    #[must_use]
    pub fn new(inner: S, clock: VClock, cfg: BreakerConfig, stats: BreakerStats) -> Self {
        cfg.validate();
        Self {
            inner,
            clock,
            cfg,
            state: State::Closed,
            window: VecDeque::with_capacity(cfg.window),
            failures: 0,
            stats,
        }
    }

    /// The breaker's current state, resolving an elapsed cooldown to
    /// [`BreakerState::HalfOpen`].
    #[must_use]
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed => BreakerState::Closed,
            State::Open { until } if self.clock.now() < until => BreakerState::Open,
            State::Open { .. } | State::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// Unwraps the middleware, returning the inner service.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn trip_open(&mut self) {
        self.state = State::Open {
            until: self.clock.now().saturating_add(self.cfg.cooldown),
        };
        self.window.clear();
        self.failures = 0;
        self.stats.bump(BreakerEvent::Opened);
    }

    fn record_closed_outcome(&mut self, failed: bool) {
        if self.window.len() == self.cfg.window && self.window.pop_front() == Some(true) {
            self.failures -= 1;
        }
        self.window.push_back(failed);
        if failed {
            self.failures += 1;
        }
        if self.failures >= self.cfg.max_failures {
            self.trip_open();
        }
    }
}

/// Whether an inner error is evidence of backend ill-health.
fn is_failure(error: ServeError) -> bool {
    matches!(
        error,
        ServeError::Faulted | ServeError::TimedOut | ServeError::Broken
    )
}

impl<Req, S: Service<Req>> Service<Req> for CircuitBreaker<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        if let State::Open { until } = self.state {
            if self.clock.now() < until {
                self.stats.bump(BreakerEvent::Broken);
                return Err(ServeError::Broken);
            }
            self.state = State::HalfOpen;
        }
        let result = self.inner.call(req);
        let failed = matches!(result, Err(e) if is_failure(e));
        match self.state {
            State::HalfOpen => {
                if failed {
                    self.trip_open();
                } else {
                    self.state = State::Closed;
                    self.window.clear();
                    self.failures = 0;
                    self.stats.bump(BreakerEvent::Reclosed);
                }
            }
            State::Closed => self.record_closed_outcome(failed),
            State::Open { .. } => unreachable!("open state handled before the call"),
        }
        result
    }
}

/// [`Layer`] producing [`CircuitBreaker`] services over a shared clock
/// and counters. Each service keeps its own window and state (a breaker
/// guards one worker's path to the backend).
#[derive(Debug, Clone)]
pub struct CircuitBreakerLayer {
    clock: VClock,
    cfg: BreakerConfig,
    stats: BreakerStats,
}

impl CircuitBreakerLayer {
    /// A layer whose services run the breaker state machine per `cfg` on
    /// `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    #[must_use]
    pub fn new(clock: VClock, cfg: BreakerConfig, stats: BreakerStats) -> Self {
        cfg.validate();
        Self { clock, cfg, stats }
    }
}

impl<S> Layer<S> for CircuitBreakerLayer {
    type Service = CircuitBreaker<S>;

    fn layer(&self, inner: S) -> Self::Service {
        CircuitBreaker::new(inner, self.clock.clone(), self.cfg, self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend whose outcomes follow a script (`true` = fail with the
    /// given error).
    struct ScriptedFaults {
        script: Vec<bool>,
        pos: usize,
        error: ServeError,
        calls: u64,
    }

    impl Service<u32> for ScriptedFaults {
        type Response = u32;
        fn call(&mut self, req: u32) -> Result<u32, ServeError> {
            let fail = self.script[self.pos % self.script.len()];
            self.pos += 1;
            self.calls += 1;
            if fail {
                Err(self.error)
            } else {
                Ok(req)
            }
        }
    }

    fn always_failing(error: ServeError) -> ScriptedFaults {
        ScriptedFaults {
            script: vec![true],
            pos: 0,
            error,
            calls: 0,
        }
    }

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            max_failures: 2,
            cooldown: 10,
        }
    }

    /// The exhaustive transition table. Every row drives a fresh breaker
    /// into the source state, applies the event, and asserts the target
    /// state plus the request's outcome:
    ///
    /// | # | from      | event                        | to        |
    /// |---|-----------|------------------------------|-----------|
    /// | 1 | closed    | failures below threshold     | closed    |
    /// | 2 | closed    | threshold failure in window  | open      |
    /// | 3 | closed    | old failures roll out        | closed    |
    /// | 4 | open      | request before cooldown      | open      |
    /// | 5 | open      | cooldown elapses             | half-open |
    /// | 6 | half-open | probe succeeds               | closed    |
    /// | 7 | half-open | probe fails                  | open      |
    #[test]
    fn transition_table_is_exhaustive() {
        let error = ServeError::Faulted;

        // 1: closed stays closed below the threshold.
        let clock = VClock::new();
        let mut b = CircuitBreaker::new(
            ScriptedFaults {
                script: vec![true, false, false, false],
                pos: 0,
                error,
                calls: 0,
            },
            clock.clone(),
            cfg(),
            BreakerStats::new(),
        );
        for i in 0..8 {
            let _ = b.call(i);
            assert_eq!(b.state(), BreakerState::Closed, "1 failure per 4 stays closed");
        }

        // 2: the threshold failure trips it open.
        let clock = VClock::new();
        let stats = BreakerStats::new();
        let mut b =
            CircuitBreaker::new(always_failing(error), clock.clone(), cfg(), stats.clone());
        assert_eq!(b.call(0), Err(error), "first failure surfaces as itself");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.call(1), Err(error), "second failure still reaches the backend");
        assert_eq!(b.state(), BreakerState::Open, "threshold of 2 trips the breaker");
        assert_eq!(stats.get(BreakerEvent::Opened), 1);

        // 3: failures older than the window roll out and don't trip.
        let clock = VClock::new();
        let mut b = CircuitBreaker::new(
            // One failure, then ≥ window successes, then one failure: the
            // two failures never share the 4-wide window.
            ScriptedFaults {
                script: vec![true, false, false, false, false],
                pos: 0,
                error,
                calls: 0,
            },
            clock.clone(),
            cfg(),
            BreakerStats::new(),
        );
        for i in 0..20 {
            let _ = b.call(i);
            assert_eq!(b.state(), BreakerState::Closed, "call {i}");
        }

        // 4: open rejects without calling the backend until the cooldown.
        let clock = VClock::new();
        let stats = BreakerStats::new();
        let mut b =
            CircuitBreaker::new(always_failing(error), clock.clone(), cfg(), stats.clone());
        let _ = b.call(0);
        let _ = b.call(1); // tripped at tick 0, cooldown ends at 10
        let backend_calls = b.inner.calls;
        clock.advance(9).unwrap();
        assert_eq!(b.call(2), Err(ServeError::Broken));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.inner.calls, backend_calls, "open never touches the backend");
        assert_eq!(stats.get(BreakerEvent::Broken), 1);

        // 5: the elapsed cooldown resolves to half-open.
        clock.advance(1).unwrap();
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // 7 (same breaker): the probe fails → open again, new cooldown.
        assert_eq!(b.call(3), Err(error), "the probe reaches the backend");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(stats.get(BreakerEvent::Opened), 2);
        assert_eq!(stats.get(BreakerEvent::Broken), 1, "the probe itself is not a Broken rejection");

        // 6: a successful probe closes the breaker and resets the window.
        let clock = VClock::new();
        let stats = BreakerStats::new();
        let mut b = CircuitBreaker::new(
            // Two failures trip it; after the cooldown everything succeeds.
            ScriptedFaults {
                script: vec![true, true, false],
                pos: 0,
                error,
                calls: 0,
            },
            clock.clone(),
            cfg(),
            stats.clone(),
        );
        let _ = b.call(0);
        let _ = b.call(1);
        assert_eq!(b.state(), BreakerState::Open);
        clock.advance(10).unwrap();
        assert_eq!(b.call(2), Ok(2), "successful probe");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(stats.get(BreakerEvent::Reclosed), 1);
        assert_eq!(b.window.len(), 0, "re-closing resets the window");
    }

    #[test]
    fn pressure_errors_are_not_failures() {
        for error in [
            ServeError::BufferFull,
            ServeError::AtCapacity,
            ServeError::RateLimited,
            ServeError::Shed,
            ServeError::Closed,
        ] {
            let clock = VClock::new();
            let mut b = CircuitBreaker::new(
                always_failing(error),
                clock.clone(),
                cfg(),
                BreakerStats::new(),
            );
            for i in 0..16 {
                assert_eq!(b.call(i), Err(error));
                assert_eq!(b.state(), BreakerState::Closed, "{error:?} must not trip");
            }
        }
    }

    #[test]
    fn timed_out_and_nested_broken_count_as_failures() {
        for error in [ServeError::TimedOut, ServeError::Broken] {
            let clock = VClock::new();
            let mut b = CircuitBreaker::new(
                always_failing(error),
                clock.clone(),
                cfg(),
                BreakerStats::new(),
            );
            let _ = b.call(0);
            let _ = b.call(1);
            assert_eq!(b.state(), BreakerState::Open, "{error:?} must trip the breaker");
        }
    }

    #[test]
    fn every_request_gets_exactly_one_outcome_across_transitions() {
        // Drive a breaker through trips, cooldowns, probes and recoveries
        // and check the ledger: requests == backend outcomes + Broken
        // rejections. (The conformance proptest does this for random
        // stacks; this pins the breaker alone.)
        let clock = VClock::new();
        let stats = BreakerStats::new();
        let mut b = CircuitBreaker::new(
            ScriptedFaults {
                script: vec![true, true, false, true, false, false, true],
                pos: 0,
                error: ServeError::Faulted,
                calls: 0,
            },
            clock.clone(),
            cfg(),
            stats.clone(),
        );
        let requests = 500u64;
        let mut outcomes = 0u64;
        for i in 0..requests {
            match b.call(i as u32) {
                Ok(_) | Err(ServeError::Faulted) | Err(ServeError::Broken) => outcomes += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
            clock.advance(1).unwrap();
        }
        assert_eq!(outcomes, requests, "every request resolved exactly once");
        assert_eq!(
            b.inner.calls + stats.get(BreakerEvent::Broken),
            requests,
            "each request either reached the backend or was rejected Broken"
        );
        assert!(stats.get(BreakerEvent::Opened) > 0, "the script must have tripped it");
        assert!(stats.get(BreakerEvent::Reclosed) > 0, "and recovered at least once");
    }

    #[test]
    fn into_inner_round_trips() {
        let b = CircuitBreakerLayer::new(VClock::new(), cfg(), BreakerStats::new())
            .layer(always_failing(ServeError::Faulted));
        let mut inner = b.into_inner();
        assert_eq!(inner.call(1), Err(ServeError::Faulted));
        assert_eq!(inner.calls, 1);
    }

    #[test]
    fn breaker_state_displays() {
        assert_eq!(BreakerState::Closed.to_string(), "closed");
        assert_eq!(BreakerState::Open.to_string(), "open");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }

    #[test]
    #[should_panic(expected = "max_failures must lie in 1..=window")]
    fn unreachable_threshold_rejected() {
        let bad = BreakerConfig {
            window: 4,
            max_failures: 5,
            cooldown: 1,
        };
        let _ = CircuitBreakerLayer::new(VClock::new(), bad, BreakerStats::new());
    }
}
