//! Trivial decision rules used as baselines and adversarial extremes.

use balloc_core::{Decider, DecisionProbability, LoadState, Rng};

/// Always keeps the first sample — turns `TwoChoice` into `One-Choice`
/// (the second sample is drawn but ignored).
///
/// Useful for seed-aligned comparisons where two processes must consume the
/// same random stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysFirst;

impl Decider for AlwaysFirst {
    #[inline]
    fn decide(&mut self, _state: &LoadState, i1: usize, _i2: usize, _rng: &mut Rng) -> usize {
        i1
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        true
    }
}

impl DecisionProbability for AlwaysFirst {
    #[inline]
    fn prob_first(&self, _state: &LoadState, _i1: usize, _i2: usize) -> f64 {
        1.0
    }
}

/// Always allocates to the lighter bin, breaking ties toward the first
/// sample. Identical to the classic perfect comparison; provided for
/// symmetry with [`AlwaysHeavier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysLighter;

impl Decider for AlwaysLighter {
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, _rng: &mut Rng) -> usize {
        if state.load(i2) < state.load(i1) {
            i2
        } else {
            i1
        }
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        true
    }
}

impl DecisionProbability for AlwaysLighter {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        if state.load(i2) < state.load(i1) {
            0.0
        } else {
            1.0
        }
    }
}

/// Always allocates to the **heavier** bin (ties toward the first sample):
/// the worst possible comparison rule, equivalent to `g-Bounded` with
/// `g = ∞`. Its gap grows without bound; used as an adversarial extreme in
/// tests and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysHeavier;

impl Decider for AlwaysHeavier {
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, _rng: &mut Rng) -> usize {
        if state.load(i2) > state.load(i1) {
            i2
        } else {
            i1
        }
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        true
    }
}

impl DecisionProbability for AlwaysHeavier {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        if state.load(i2) > state.load(i1) {
            0.0
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::{Process, TwoChoice};
    use crate::OneChoice;

    #[test]
    fn always_first_ignores_loads() {
        let state = LoadState::from_loads(vec![100, 0]);
        let mut rng = Rng::from_seed(0);
        assert_eq!(AlwaysFirst.decide(&state, 0, 1, &mut rng), 0);
        assert_eq!(AlwaysFirst.prob_first(&state, 0, 1), 1.0);
    }

    #[test]
    fn always_lighter_and_heavier_are_opposites() {
        let state = LoadState::from_loads(vec![3, 8]);
        let mut rng = Rng::from_seed(0);
        assert_eq!(AlwaysLighter.decide(&state, 0, 1, &mut rng), 0);
        assert_eq!(AlwaysHeavier.decide(&state, 0, 1, &mut rng), 1);
        assert_eq!(AlwaysLighter.prob_first(&state, 1, 0), 0.0);
        assert_eq!(AlwaysHeavier.prob_first(&state, 1, 0), 1.0);
    }

    #[test]
    fn ties_go_to_first_sample() {
        let state = LoadState::from_loads(vec![4, 4]);
        let mut rng = Rng::from_seed(0);
        assert_eq!(AlwaysLighter.decide(&state, 1, 0, &mut rng), 1);
        assert_eq!(AlwaysHeavier.decide(&state, 1, 0, &mut rng), 1);
    }

    #[test]
    fn always_heavier_creates_huge_gap() {
        let n = 500;
        let m = 20 * n as u64;
        let mut worst = LoadState::new(n);
        let mut rng = Rng::from_seed(42);
        TwoChoice::new(AlwaysHeavier).run(&mut worst, m, &mut rng);

        let mut one = LoadState::new(n);
        let mut rng = Rng::from_seed(42);
        OneChoice::new().run(&mut one, m, &mut rng);

        assert!(
            worst.gap() > 2.0 * one.gap(),
            "always-heavier gap {} should dwarf one-choice gap {}",
            worst.gap(),
            one.gap()
        );
    }
}
