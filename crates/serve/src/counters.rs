//! One shared-counter shape for every layer's observability.
//!
//! Each middleware layer counts a handful of events (retries issued,
//! hedges rescued, breaker trips, sheds per cause, …). [`Counters<E>`]
//! holds one relaxed atomic per variant of the layer's event enum `E`;
//! cloning shares the slots, so one set of counters is cloned into every
//! worker's copy of a layer and read once at the end of a run. The
//! per-layer names (`RetryStats`, `ShedCounter`, …) are aliases of it.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-layer event enum: each variant names one counter slot.
pub trait CounterEvent: Copy {
    /// Number of variants (slots).
    const SLOTS: usize;

    /// This event's slot, in `0..SLOTS`.
    fn slot(self) -> usize;
}

/// Declares a fieldless per-layer event enum and its [`CounterEvent`]
/// slots, one per variant in declaration order.
macro_rules! counter_events {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $crate::counters::CounterEvent for $name {
            const SLOTS: usize = [$(stringify!($variant)),+].len();

            fn slot(self) -> usize {
                self as usize
            }
        }
    };
}
pub(crate) use counter_events;

/// Shared event counters of one layer, indexed by its event enum `E`.
/// Statistics only: the relaxed atomics publish no other data.
#[derive(Debug, Clone)]
pub struct Counters<E> {
    slots: Arc<[AtomicU64]>,
    event: PhantomData<E>,
}

impl<E: CounterEvent> Default for Counters<E> {
    fn default() -> Self {
        Self {
            slots: (0..E::SLOTS).map(|_| AtomicU64::new(0)).collect(),
            event: PhantomData,
        }
    }
}

impl<E: CounterEvent> Counters<E> {
    /// Fresh counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one `event`.
    pub fn bump(&self, event: E) {
        self.slots[event.slot()].fetch_add(1, Ordering::Relaxed);
    }

    /// How many `event`s were counted.
    #[must_use]
    pub fn get(&self, event: E) -> u64 {
        self.slots[event.slot()].load(Ordering::Relaxed)
    }

    /// The sum over every event.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BreakerEvent, FaultEvent, HedgeEvent, RateEvent, RetryEvent, ShedCause, TimeoutEvent,
    };

    /// Bumps the `i`-th listed event `i + 1` times through a clone, then
    /// reads every slot back through the original.
    fn check<E: CounterEvent + std::fmt::Debug>(events: &[E]) {
        assert_eq!(events.len(), E::SLOTS, "list every variant");
        let counters = Counters::<E>::new();
        let shared = counters.clone();
        for (i, &event) in events.iter().enumerate() {
            for _ in 0..=i {
                shared.bump(event);
            }
        }
        for (i, &event) in events.iter().enumerate() {
            assert_eq!(counters.get(event), i as u64 + 1, "{event:?}");
        }
        let n = events.len() as u64;
        assert_eq!(counters.total(), n * (n + 1) / 2);
    }

    #[test]
    fn every_layer_event_reads_back_its_own_slot() {
        check(&[RetryEvent::Retried, RetryEvent::Exhausted]);
        check(&[HedgeEvent::Hedged, HedgeEvent::Rescued, HedgeEvent::Regret]);
        check(&[TimeoutEvent::TimedOut]);
        check(&[RateEvent::Limited]);
        check(&[
            BreakerEvent::Broken,
            BreakerEvent::Opened,
            BreakerEvent::Reclosed,
        ]);
        check(&[
            FaultEvent::Slowed,
            FaultEvent::Stalled,
            FaultEvent::Errored,
            FaultEvent::Refreshed,
            FaultEvent::Retargeted,
        ]);
        check(&[
            ShedCause::BufferFull,
            ShedCause::AtCapacity,
            ShedCause::RateLimited,
            ShedCause::Faulted,
        ]);
    }
}
