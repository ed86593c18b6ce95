//! The conservation ledger every deterministic engine closes.
//!
//! Each offered request (or churn arrival) ends in exactly one bucket,
//! and the authoritative store holds exactly the `allocated` balls. The
//! engines fill the buckets they have and leave the rest at zero; this
//! module is the one place the identity is summed and checked.

use crate::shed::ShedCounter;

/// Terminal outcomes of the offered requests, one named bucket each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// A ball was placed and is still resident.
    pub allocated: u64,
    /// Shed by the load-shed layer (pressure or an unrecovered fault).
    pub shed: u64,
    /// The deadline expired.
    pub timed_out: u64,
    /// Rejected by an open circuit breaker.
    pub broken: u64,
    /// Placed, then debited by a membership change and not yet re-homed.
    pub in_migration: u64,
    /// Placed, then deleted by the departure schedule.
    pub departed: u64,
}

impl Ledger {
    /// Asserts the ledger closes: the buckets sum to `offered`, the store
    /// holds exactly `allocated` balls, and the shed layer's `counter`
    /// agrees with the `shed` bucket.
    ///
    /// # Panics
    ///
    /// Panics naming the identity that broke — a conservation bug in the
    /// engine, never a property of its input.
    pub fn check(&self, offered: u64, store_balls: u64, counter: &ShedCounter) {
        let sum = self.allocated
            + self.shed
            + self.timed_out
            + self.broken
            + self.in_migration
            + self.departed;
        assert_eq!(
            sum, offered,
            "ledger: the buckets must sum to the offered count ({self:?})"
        );
        assert_eq!(
            store_balls, self.allocated,
            "ledger: the store must hold exactly the allocated balls"
        );
        assert_eq!(
            counter.total(),
            self.shed,
            "ledger: the shed counter must agree with the shed bucket"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shed::ShedCause;

    /// A counter holding `sheds` sheds.
    fn counter(sheds: u64) -> ShedCounter {
        let counter = ShedCounter::new();
        for _ in 0..sheds {
            counter.bump(ShedCause::BufferFull);
        }
        counter
    }

    fn balanced() -> Ledger {
        Ledger {
            allocated: 10,
            shed: 2,
            timed_out: 3,
            broken: 4,
            in_migration: 5,
            departed: 6,
        }
    }

    #[test]
    fn balanced_buckets_pass() {
        balanced().check(30, 10, &counter(2));
        Ledger::default().check(0, 0, &ShedCounter::new());
    }

    #[test]
    #[should_panic(expected = "the buckets must sum to the offered count")]
    fn a_lost_request_is_named() {
        balanced().check(31, 10, &counter(2));
    }

    #[test]
    #[should_panic(expected = "the store must hold exactly the allocated balls")]
    fn a_store_mismatch_is_named() {
        balanced().check(30, 9, &counter(2));
    }

    #[test]
    #[should_panic(expected = "the shed counter must agree with the shed bucket")]
    fn a_shed_counter_mismatch_is_named() {
        balanced().check(30, 10, &counter(3));
    }
}
