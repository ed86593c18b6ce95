//! The `g-Adv-Load` setting: adversarially perturbed load *estimates*.

use balloc_core::{Decider, DecisionProbability, LoadState, Rng};

/// How the `g-Adv-Load` adversary perturbs the two reported loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PerturbStrategy {
    /// The strongest adversary: the lighter bin reports `x + g`, the heavier
    /// reports `x − g`, and estimate ties resolve toward the heavier bin.
    /// Reverses every comparison with true difference `⩽ 2g` — the witness
    /// for the paper's remark that `g-Adv-Load` is simulated by
    /// `(2g)-Adv-Comp`.
    #[default]
    Reverse,
    /// Independent uniform integer perturbations in `[−g, +g]` on each
    /// report (a non-adversarial smoothing baseline). Estimate ties resolve
    /// by a fair coin.
    Uniform,
}

/// The `g-Adv-Load` decision rule (Section 2): before the comparison, an
/// adversary replaces each sampled bin's load `x` by an estimate
/// `x̃ ∈ [x − g, x + g]`; the ball goes to the bin with the smaller
/// estimate.
///
/// # Examples
///
/// ```
/// use balloc_core::{Decider, LoadState, Rng};
/// use balloc_noise::{AdvLoad, PerturbStrategy};
///
/// let state = LoadState::from_loads(vec![5, 3, 0]);
/// let mut decider = AdvLoad::new(2, PerturbStrategy::Reverse);
/// let mut rng = Rng::from_seed(0);
/// // |5 − 3| = 2 < 2g = 4: reversible, ball to the heavier bin 0.
/// assert_eq!(decider.decide(&state, 1, 0, &mut rng), 0);
/// // |5 − 0| = 5 > 2g: forced correct.
/// assert_eq!(decider.decide(&state, 0, 2, &mut rng), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvLoad {
    g: u64,
    strategy: PerturbStrategy,
}

impl AdvLoad {
    /// Creates the `g-Adv-Load` decision rule.
    #[must_use]
    pub fn new(g: u64, strategy: PerturbStrategy) -> Self {
        Self { g, strategy }
    }

    /// The perturbation budget `g`.
    #[must_use]
    pub fn g(&self) -> u64 {
        self.g
    }

    /// The perturbation strategy.
    #[must_use]
    pub fn strategy(&self) -> PerturbStrategy {
        self.strategy
    }

    /// Resolves the comparison for the reversing adversary.
    #[inline]
    fn decide_reverse(&self, state: &LoadState, i1: usize, i2: usize) -> usize {
        let (x1, x2) = (state.load(i1), state.load(i2));
        // Lighter reports x + g, heavier reports x − g. The comparison
        // flips (or ties, resolved adversarially toward the heavier bin)
        // exactly when the true difference is ⩽ 2g.
        let delta = x1.abs_diff(x2);
        let (lighter, heavier) = if x2 < x1 || (x1 == x2 && i2 < i1) {
            (i2, i1)
        } else {
            (i1, i2)
        };
        if delta <= 2 * self.g {
            heavier
        } else {
            lighter
        }
    }
}

impl Decider for AdvLoad {
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        match self.strategy {
            PerturbStrategy::Reverse => self.decide_reverse(state, i1, i2),
            PerturbStrategy::Uniform => {
                let span = 2 * self.g + 1;
                let e1 = state.load(i1) as i64 - self.g as i64 + rng.below(span) as i64;
                let e2 = state.load(i2) as i64 - self.g as i64 + rng.below(span) as i64;
                if e1 < e2 {
                    i1
                } else if e2 < e1 {
                    i2
                } else if rng.coin() {
                    i1
                } else {
                    i2
                }
            }
        }
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        // Both strategies read only the two loads. The uniform
        // perturbation stays on the per-ball engine until a measurement
        // shows the deferred one pays for its draws.
        matches!(self.strategy, PerturbStrategy::Reverse)
    }
}

impl DecisionProbability for AdvLoad {
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        match self.strategy {
            PerturbStrategy::Reverse => {
                if self.decide_reverse(state, i1, i2) == i1 {
                    1.0
                } else {
                    0.0
                }
            }
            PerturbStrategy::Uniform => {
                // P[e1 < e2] + ½·P[e1 = e2] with e_k = x_k + U{−g..g}.
                let span = (2 * self.g + 1) as i64;
                let diff = state.load(i1) as i64 - state.load(i2) as i64;
                let mut wins = 0.0f64;
                for u in 0..span {
                    for v in 0..span {
                        let d = diff + u - v;
                        if d < 0 {
                            wins += 1.0;
                        } else if d == 0 {
                            wins += 0.5;
                        }
                    }
                }
                wins / (span * span) as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adv_comp::AdvComp;
    use crate::strategies::ReverseAll;
    use balloc_core::{Process, TwoChoice};

    #[test]
    fn reverse_strategy_flips_within_2g() {
        let state = LoadState::from_loads(vec![10, 7, 5, 0]);
        let mut d = AdvLoad::new(2, PerturbStrategy::Reverse);
        let mut rng = Rng::from_seed(0);
        // diff 3 ⩽ 4 → heavier (bin 0).
        assert_eq!(d.decide(&state, 0, 1, &mut rng), 0);
        // diff 5 > 4 between bins 0 and 2 → wait, 10−5 = 5 > 4 → correct.
        assert_eq!(d.decide(&state, 0, 2, &mut rng), 2);
        // diff exactly 2g = 4: estimate tie, resolved to heavier.
        let state2 = LoadState::from_loads(vec![4, 0]);
        assert_eq!(d.decide(&state2, 0, 1, &mut rng), 0);
    }

    #[test]
    fn reverse_equals_2g_adv_comp_when_not_exactly_2g() {
        // g-Adv-Load/Reverse decides like (2g)-Adv-Comp/ReverseAll for every
        // pair; tie conventions coincide except the irrelevant equal-load
        // case where both pick deterministically.
        let mut rng = Rng::from_seed(9);
        let state = LoadState::from_loads(vec![9, 8, 6, 5, 5, 1, 0]);
        let g = 2;
        let mut load_adv = AdvLoad::new(g, PerturbStrategy::Reverse);
        let mut comp_adv = AdvComp::new(2 * g, ReverseAll);
        for i1 in 0..state.n() {
            for i2 in 0..state.n() {
                if state.load(i1) == state.load(i2) {
                    continue; // tie conventions may differ; both valid
                }
                assert_eq!(
                    load_adv.decide(&state, i1, i2, &mut rng),
                    comp_adv.decide(&state, i1, i2, &mut rng),
                    "mismatch on pair ({i1},{i2})"
                );
            }
        }
    }

    #[test]
    fn uniform_perturbation_prob_matches_simulation() {
        let state = LoadState::from_loads(vec![3, 1]);
        let d = AdvLoad::new(2, PerturbStrategy::Uniform);
        let exact = d.prob_first(&state, 0, 1);
        let mut sim = AdvLoad::new(2, PerturbStrategy::Uniform);
        let mut rng = Rng::from_seed(21);
        let trials = 100_000;
        let firsts = (0..trials)
            .filter(|_| sim.decide(&state, 0, 1, &mut rng) == 0)
            .count();
        let emp = firsts as f64 / trials as f64;
        assert!((emp - exact).abs() < 0.01, "empirical {emp} vs exact {exact}");
        // The heavier bin must win less than half the time.
        assert!(exact < 0.5);
    }

    #[test]
    fn uniform_with_g_zero_is_perfect_comparison() {
        let state = LoadState::from_loads(vec![4, 2]);
        let d = AdvLoad::new(0, PerturbStrategy::Uniform);
        assert_eq!(d.prob_first(&state, 1, 0), 1.0);
        assert_eq!(d.prob_first(&state, 0, 1), 0.0);
    }

    #[test]
    fn reverse_adv_load_gap_between_g_and_2g_adv_comp() {
        // Sandwich check (the paper: g-Adv-Load ⊆ (2g)-Adv-Comp): its gap
        // should be comparable to g-Bounded gaps with windows in [g, 2g].
        let n = 1_000;
        let m = 50 * n as u64;
        let g = 6;
        let gap_of = |p: &mut dyn Process| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(31);
            p.run(&mut state, m, &mut rng);
            state.gap()
        };
        let adv_load = gap_of(&mut TwoChoice::new(AdvLoad::new(g, PerturbStrategy::Reverse)));
        let bounded_2g = gap_of(&mut TwoChoice::new(AdvComp::new(2 * g, ReverseAll)));
        let bounded_half = gap_of(&mut TwoChoice::new(AdvComp::new(g / 2, ReverseAll)));
        assert!(
            adv_load <= bounded_2g + 3.0,
            "adv-load {adv_load} should not exceed 2g-bounded {bounded_2g} by much"
        );
        assert!(
            adv_load >= bounded_half - 3.0,
            "adv-load {adv_load} should dominate (g/2)-bounded {bounded_half}"
        );
    }
}
