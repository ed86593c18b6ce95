// balloc-lint: role(library)
//! Known-bad fixture for L009 `ledger-arithmetic`.
//!
//! Hand-summing conservation buckets outside `Ledger` writes one more
//! copy of the identity, free to drift from the engines' shared check.

pub struct Outcome {
    pub allocated: u64,
    pub shed: u64,
    pub timed_out: u64,
    pub broken: u64,
}

pub fn conserved(o: &Outcome, requests: u64) -> bool {
    o.allocated + o.shed + o.timed_out + o.broken == requests
}

pub fn settled(allocated: u64, in_migration: u64, departures: u64) -> u64 {
    allocated + in_migration + departures
}

pub fn legal(shed: u64, o: &Outcome) -> u64 {
    // A bucket plus a constant, or a method call's result, is not the
    // identity.
    shed + 1 + o.allocated.min(o.broken)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_sum_buckets() {
        // Out of scope: tests re-check the ledger on purpose.
        let (allocated, shed) = (3u64, 4u64);
        assert_eq!(allocated + shed, 7);
    }
}
