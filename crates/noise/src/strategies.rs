//! Adversary strategies for the `g-Adv-Comp` setting.
//!
//! In `g-Adv-Comp` (Section 2, "Adversarial Load and Comparison") an
//! **adaptive adversary** controls the outcome of any comparison between
//! bins whose loads differ by at most `g`. A [`CompStrategy`] is that
//! adversary's policy inside the window; outside the window the comparison
//! is forced to be correct by [`AdvComp`](crate::AdvComp).

use std::hint::select_unpredictable;

use balloc_core::{LoadState, Rng};

/// An adversary policy for comparisons inside the `g`-window.
///
/// `choose` is only consulted when `|x_{i1} − x_{i2}| ⩽ g`; it must return
/// `i1` or `i2`. The adversary is adaptive: it sees the full true state.
pub trait CompStrategy {
    /// Chooses the bin that receives the ball.
    fn choose(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize;

    /// [`choose`](Self::choose) when `active`; otherwise no effect at all
    /// (no draw, no change to `self`) and an unspecified sample as the
    /// result, which the caller discards.
    ///
    /// [`AdvComp`](crate::AdvComp) calls this on every comparison with
    /// `active` = "inside the window" and selects between its result and
    /// the correct answer, so the window test costs no branch. The default
    /// branches on `active`; strategies override it with a plain `choose`
    /// when choosing has no side effects, or with a conditional draw
    /// ([`Rng::next_u64_if`]).
    #[inline]
    fn choose_if(
        &mut self,
        active: bool,
        state: &LoadState,
        i1: usize,
        i2: usize,
        rng: &mut Rng,
    ) -> usize {
        if active {
            self.choose(state, i1, i2, rng)
        } else {
            i1
        }
    }

    /// Clears any per-run internal state.
    fn reset(&mut self) {}

    /// [`Decider::reads_exact`](balloc_core::Decider::reads_exact) for the
    /// strategy: `choose` reads only always-exact state quantities (loads,
    /// ball count, average), and may draw. Propagated by
    /// [`AdvComp`](crate::AdvComp) to pick the scalar deferred-aggregate
    /// engine. Defaults to `false` (always safe).
    fn reads_exact(&self) -> bool {
        false
    }

    /// [`Decider::totals_free`](balloc_core::Decider::totals_free) for the
    /// strategy: on top of [`reads_exact`](Self::reads_exact), `choose`
    /// never reads the ball count or the average. Defaults to `false`
    /// (always safe).
    fn totals_free(&self) -> bool {
        false
    }
}

/// A [`CompStrategy`] whose one-step decision distribution is known exactly
/// (enables exact probability-allocation-vector computation).
pub trait CompStrategyProbability: CompStrategy {
    /// Probability that [`CompStrategy::choose`] returns `i1`.
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64;
}

/// The *greedy* adversary: always reverses the comparison, allocating to the
/// **heavier** bin (ties to the first sample). `AdvComp` with this strategy
/// is exactly the paper's `g-Bounded` process (\[44\]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReverseAll;

impl CompStrategy for ReverseAll {
    #[inline]
    fn choose(&mut self, state: &LoadState, i1: usize, i2: usize, _rng: &mut Rng) -> usize {
        select_unpredictable(state.load(i2) > state.load(i1), i2, i1)
    }

    #[inline]
    fn choose_if(
        &mut self,
        _active: bool,
        state: &LoadState,
        i1: usize,
        i2: usize,
        rng: &mut Rng,
    ) -> usize {
        self.choose(state, i1, i2, rng)
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        true
    }

    #[inline]
    fn totals_free(&self) -> bool {
        true
    }
}

impl CompStrategyProbability for ReverseAll {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        if state.load(i2) > state.load(i1) {
            0.0
        } else {
            1.0
        }
    }
}

/// The *myopic* policy: a uniformly random bin among the two samples.
/// `AdvComp` with this strategy is exactly the paper's `g-Myopic-Comp`
/// process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformRandom;

impl CompStrategy for UniformRandom {
    #[inline]
    fn choose(&mut self, _state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        if rng.coin() {
            i1
        } else {
            i2
        }
    }

    #[inline]
    fn choose_if(
        &mut self,
        active: bool,
        _state: &LoadState,
        i1: usize,
        i2: usize,
        rng: &mut Rng,
    ) -> usize {
        // The coin of `Rng::coin`, drawn only inside the window.
        select_unpredictable(rng.next_u64_if(active) & 1 == 1, i1, i2)
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        // Reads no state at all; the coin is drawn in per-ball order.
        true
    }

    #[inline]
    fn totals_free(&self) -> bool {
        true
    }
}

impl CompStrategyProbability for UniformRandom {
    #[inline]
    fn prob_first(&self, _state: &LoadState, _i1: usize, _i2: usize) -> f64 {
        0.5
    }
}

/// The *benign* policy: always answers correctly (lighter bin, ties to the
/// first sample). `AdvComp` with this strategy is `Two-Choice` without
/// noise — useful as a control in ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorrectAll;

impl CompStrategy for CorrectAll {
    #[inline]
    fn choose(&mut self, state: &LoadState, i1: usize, i2: usize, _rng: &mut Rng) -> usize {
        select_unpredictable(state.load(i2) < state.load(i1), i2, i1)
    }

    #[inline]
    fn choose_if(
        &mut self,
        _active: bool,
        state: &LoadState,
        i1: usize,
        i2: usize,
        rng: &mut Rng,
    ) -> usize {
        self.choose(state, i1, i2, rng)
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        true
    }

    #[inline]
    fn totals_free(&self) -> bool {
        true
    }
}

impl CompStrategyProbability for CorrectAll {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        if state.load(i2) < state.load(i1) {
            0.0
        } else {
            1.0
        }
    }
}

/// Reverses the comparison with probability `p`, answers correctly
/// otherwise. Interpolates between [`CorrectAll`] (`p = 0`),
/// [`UniformRandom`] (`p = ½`, in distribution), and [`ReverseAll`]
/// (`p = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReverseWithProbability {
    p: f64,
}

impl ReverseWithProbability {
    /// Creates a strategy reversing with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ \[0, 1\]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
        Self { p }
    }

    /// The reversal probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl CompStrategy for ReverseWithProbability {
    #[inline]
    fn choose(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        let reverse = rng.chance(self.p);
        let (lighter, heavier) = if state.load(i2) < state.load(i1) {
            (i2, i1)
        } else {
            (i1, i2)
        };
        if reverse {
            heavier
        } else {
            lighter
        }
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        // Reads the two loads only, whatever it draws.
        true
    }

    #[inline]
    fn totals_free(&self) -> bool {
        true
    }
}

impl CompStrategyProbability for ReverseWithProbability {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        let first_is_lighter = state.load(i1) <= state.load(i2);
        if first_is_lighter {
            1.0 - self.p
        } else {
            self.p
        }
    }
}

/// A *de-stabilizing* adversary that spends its budget where it hurts most:
/// it reverses the comparison only when doing so pushes a ball onto a bin
/// that is already at least as loaded as the average (growing the gap), and
/// answers correctly otherwise.
///
/// Used in the adversary-strength ablation (A4 in DESIGN.md): within the
/// same `g` budget, different adaptive strategies produce measurably
/// different gaps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadSeeking;

impl CompStrategy for OverloadSeeking {
    #[inline]
    fn choose(&mut self, state: &LoadState, i1: usize, i2: usize, _rng: &mut Rng) -> usize {
        let (lighter, heavier) = if state.load(i2) < state.load(i1) {
            (i2, i1)
        } else {
            (i1, i2)
        };
        if state.load(heavier) as f64 >= state.average() {
            heavier
        } else {
            lighter
        }
    }

    #[inline]
    fn choose_if(
        &mut self,
        _active: bool,
        state: &LoadState,
        i1: usize,
        i2: usize,
        rng: &mut Rng,
    ) -> usize {
        self.choose(state, i1, i2, rng)
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        // Reads loads and the average (ball count), both always exact
        // inside a deferred-aggregate batch. It reads the average, so it
        // is not totals-free.
        true
    }
}

impl CompStrategyProbability for OverloadSeeking {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        let (lighter, heavier) = if state.load(i2) < state.load(i1) {
            (i2, i1)
        } else {
            (i1, i2)
        };
        let chosen = if state.load(heavier) as f64 >= state.average() {
            heavier
        } else {
            lighter
        };
        if chosen == i1 {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> LoadState {
        LoadState::from_loads(vec![6, 2, 2, 0])
    }

    #[test]
    fn reverse_all_picks_heavier() {
        let s = state();
        let mut rng = Rng::from_seed(0);
        assert_eq!(ReverseAll.choose(&s, 0, 1, &mut rng), 0);
        assert_eq!(ReverseAll.choose(&s, 1, 0, &mut rng), 0);
        // Tie keeps the first sample.
        assert_eq!(ReverseAll.choose(&s, 2, 1, &mut rng), 2);
        assert_eq!(ReverseAll.prob_first(&s, 1, 0), 0.0);
        assert_eq!(ReverseAll.prob_first(&s, 0, 1), 1.0);
        assert_eq!(ReverseAll.prob_first(&s, 2, 1), 1.0);
    }

    #[test]
    fn correct_all_picks_lighter() {
        let s = state();
        let mut rng = Rng::from_seed(0);
        assert_eq!(CorrectAll.choose(&s, 0, 3, &mut rng), 3);
        assert_eq!(CorrectAll.prob_first(&s, 3, 0), 1.0);
    }

    #[test]
    fn uniform_random_is_fair() {
        let s = state();
        let mut rng = Rng::from_seed(7);
        let firsts = (0..10_000)
            .filter(|_| UniformRandom.choose(&s, 0, 1, &mut rng) == 0)
            .count();
        assert!((firsts as f64 / 10_000.0 - 0.5).abs() < 0.02);
        assert_eq!(UniformRandom.prob_first(&s, 0, 1), 0.5);
    }

    #[test]
    fn reverse_with_probability_extremes_match() {
        let s = state();
        let mut rng = Rng::from_seed(1);
        let mut never = ReverseWithProbability::new(0.0);
        let mut always = ReverseWithProbability::new(1.0);
        for (a, b) in [(0usize, 1usize), (1, 0), (3, 2), (2, 3)] {
            assert_eq!(
                never.choose(&s, a, b, &mut rng),
                CorrectAll.choose(&s, a, b, &mut rng),
                "p=0 must match CorrectAll for ({a},{b})"
            );
            assert_eq!(
                always.choose(&s, a, b, &mut rng),
                ReverseAll.choose(&s, a, b, &mut rng),
                "p=1 must match ReverseAll for ({a},{b})"
            );
        }
    }

    #[test]
    fn reverse_with_probability_frequency() {
        let s = state();
        let mut rng = Rng::from_seed(3);
        let mut strat = ReverseWithProbability::new(0.25);
        // Bin 1 (load 2) vs bin 0 (load 6): reversal means picking bin 0.
        let heavy = (0..20_000)
            .filter(|_| strat.choose(&s, 1, 0, &mut rng) == 0)
            .count();
        assert!((heavy as f64 / 20_000.0 - 0.25).abs() < 0.02);
        assert!((strat.prob_first(&s, 1, 0) - 0.75).abs() < 1e-12);
        assert!((strat.prob_first(&s, 0, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn reverse_with_probability_validates() {
        let _ = ReverseWithProbability::new(-0.5);
    }

    #[test]
    fn choose_if_is_choose_when_active_and_inert_otherwise() {
        fn check(mut strategy: impl CompStrategy + Clone) {
            let s = state();
            let mut rng = Rng::from_seed(9);
            let mut reference = rng.clone();
            for (a, b) in [(0usize, 1usize), (1, 0), (1, 2), (3, 0), (2, 3)] {
                for _ in 0..50 {
                    let got = strategy.choose_if(true, &s, a, b, &mut rng);
                    let want = strategy.clone().choose(&s, a, b, &mut reference);
                    assert_eq!(got, want, "({a},{b})");
                    assert_eq!(rng, reference, "({a},{b}): draw count diverged");
                    let _ = strategy.choose_if(false, &s, a, b, &mut rng);
                    assert_eq!(rng, reference, "({a},{b}): inactive call drew");
                }
            }
        }
        check(ReverseAll);
        check(CorrectAll);
        check(UniformRandom);
        check(OverloadSeeking);
        check(ReverseWithProbability::new(0.3));
    }

    #[test]
    fn overload_seeking_only_reverses_above_average() {
        // Average load is 2.5.
        let s = state();
        let mut rng = Rng::from_seed(0);
        // Heavier bin (0, load 6) is above average → reverse.
        assert_eq!(OverloadSeeking.choose(&s, 3, 0, &mut rng), 0);
        // Heavier bin (1, load 2) is below average → stay correct.
        assert_eq!(OverloadSeeking.choose(&s, 3, 1, &mut rng), 3);
        assert_eq!(OverloadSeeking.prob_first(&s, 3, 0), 0.0);
        assert_eq!(OverloadSeeking.prob_first(&s, 3, 1), 1.0);
    }
}
