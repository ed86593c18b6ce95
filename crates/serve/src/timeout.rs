//! A deadline layer over the virtual clock — tower-timeout,
//! synchronously and deterministically.
//!
//! [`Timeout`] pushes `now + budget` onto the shared [`VClock`]'s
//! deadline register before calling the inner service and pops it after.
//! A backend that respects the clock (every fault-injected backend does)
//! cannot advance time past the deadline: its `advance` call fails
//! *before* any side effect, it surfaces [`ServeError::TimedOut`], and
//! the request ends with exactly zero balls placed — which is what lets
//! the engine count `timed_out` as a first-class terminal outcome
//! alongside `allocated` and `shed` without breaking conservation.
//!
//! Because deadlines nest (the register keeps a stack and honors the
//! minimum), `Timeout` composes with the hedge layer's soft deadline and
//! with outer timeouts: whichever cutoff is earliest wins, and each layer
//! can tell whether *its own* deadline was the one that fired by
//! comparing the clock against it.

use balloc_sim::VClock;

use crate::counters::{counter_events, Counters};
use crate::service::{Layer, ServeError, Service};

counter_events! {
    /// Events counted by [`Timeout`].
    TimeoutEvent {
        /// An attempt outlived its deadline at this layer.
        TimedOut,
    }
}

/// Shared counter of requests that timed out under a [`Timeout`] layer's
/// own deadline (cloned into every worker's stack).
pub type TimeoutStats = Counters<TimeoutEvent>;

/// A [`Service`] bounding each inner call to `budget` virtual ticks.
#[derive(Debug, Clone)]
pub struct Timeout<S> {
    inner: S,
    clock: VClock,
    budget: u64,
    stats: TimeoutStats,
}

impl<S> Timeout<S> {
    /// Wraps `inner`, bounding each call to `budget` ticks on `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` (every request would expire instantly).
    #[must_use]
    pub fn new(inner: S, clock: VClock, budget: u64, stats: TimeoutStats) -> Self {
        assert!(budget > 0, "timeout budget must be positive");
        Self {
            inner,
            clock,
            budget,
            stats,
        }
    }

    /// The per-request tick budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Unwraps the middleware, returning the inner service.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<Req, S: Service<Req>> Service<Req> for Timeout<S> {
    type Response = S::Response;

    fn call(&mut self, req: Req) -> Result<Self::Response, ServeError> {
        let deadline = self.clock.now().saturating_add(self.budget);
        self.clock.push_deadline(deadline);
        let result = self.inner.call(req);
        self.clock.pop_deadline();
        // Only count expiries *we* caused: an inner layer (a nested
        // timeout, a hedge soft deadline) may have fired first, in which
        // case the clock stopped short of our deadline.
        if matches!(result, Err(ServeError::TimedOut)) && self.clock.now() >= deadline {
            self.stats.bump(TimeoutEvent::TimedOut);
        }
        result
    }
}

/// [`Layer`] producing [`Timeout`] services over a shared clock and
/// counter.
#[derive(Debug, Clone)]
pub struct TimeoutLayer {
    clock: VClock,
    budget: u64,
    stats: TimeoutStats,
}

impl TimeoutLayer {
    /// A layer whose services bound calls to `budget` ticks on `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    #[must_use]
    pub fn new(clock: VClock, budget: u64, stats: TimeoutStats) -> Self {
        assert!(budget > 0, "timeout budget must be positive");
        Self {
            clock,
            budget,
            stats,
        }
    }
}

impl<S> Layer<S> for TimeoutLayer {
    type Service = Timeout<S>;

    fn layer(&self, inner: S) -> Self::Service {
        Timeout::new(inner, self.clock.clone(), self.budget, self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that takes a fixed number of ticks per request.
    struct SlowEcho {
        clock: VClock,
        latency: u64,
    }

    impl Service<u32> for SlowEcho {
        type Response = u32;
        fn call(&mut self, req: u32) -> Result<u32, ServeError> {
            match self.clock.advance(self.latency) {
                Ok(_) => Ok(req),
                Err(_) => Err(ServeError::TimedOut),
            }
        }
    }

    #[test]
    fn fast_backend_passes_within_budget() {
        let clock = VClock::new();
        let stats = TimeoutStats::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 3,
        };
        let mut svc = TimeoutLayer::new(clock.clone(), 5, stats.clone()).layer(backend);
        for i in 0..10 {
            assert_eq!(svc.call(i), Ok(i));
        }
        assert_eq!(stats.get(TimeoutEvent::TimedOut), 0);
        assert_eq!(clock.now(), 30);
        assert_eq!(clock.deadline(), None, "deadlines popped after each call");
    }

    #[test]
    fn slow_backend_times_out_and_is_counted() {
        let clock = VClock::new();
        let stats = TimeoutStats::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 9,
        };
        let mut svc = Timeout::new(backend, clock.clone(), 5, stats.clone());
        assert_eq!(svc.call(1), Err(ServeError::TimedOut));
        assert_eq!(stats.get(TimeoutEvent::TimedOut), 1);
        assert_eq!(clock.now(), 5, "the caller waited out its full budget");
        assert_eq!(svc.call(2), Err(ServeError::TimedOut));
        assert_eq!(clock.now(), 10, "each attempt restarts from the current tick");
        assert_eq!(stats.get(TimeoutEvent::TimedOut), 2);
    }

    #[test]
    fn inner_expiry_is_not_double_counted() {
        // An inner timeout with a tighter budget fires first; the outer
        // layer must pass the error through without claiming it.
        let clock = VClock::new();
        let inner_stats = TimeoutStats::new();
        let outer_stats = TimeoutStats::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 100,
        };
        let inner = Timeout::new(backend, clock.clone(), 4, inner_stats.clone());
        let mut outer = Timeout::new(inner, clock.clone(), 50, outer_stats.clone());
        assert_eq!(outer.call(1), Err(ServeError::TimedOut));
        assert_eq!(inner_stats.get(TimeoutEvent::TimedOut), 1);
        assert_eq!(outer_stats.get(TimeoutEvent::TimedOut), 0, "the inner deadline fired, not ours");
        assert_eq!(clock.now(), 4);
    }

    #[test]
    fn into_inner_round_trips() {
        let clock = VClock::new();
        let backend = SlowEcho {
            clock: clock.clone(),
            latency: 1,
        };
        let svc = Timeout::new(backend, clock.clone(), 7, TimeoutStats::new());
        assert_eq!(svc.budget(), 7);
        let mut backend = svc.into_inner();
        assert_eq!(backend.call(3), Ok(3));
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ = TimeoutLayer::new(VClock::new(), 0, TimeoutStats::new());
    }
}
