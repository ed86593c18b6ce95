//! The `g-Adv-Comp` setting and its named instances `g-Bounded` and
//! `g-Myopic-Comp`.

use std::hint::select_unpredictable;

use balloc_core::{Decider, DecisionProbability, LoadState, Process, Rng, TwoChoice};

use crate::strategies::{
    CompStrategy, CompStrategyProbability, ReverseAll, UniformRandom,
};

/// The `g-Adv-Comp` decision rule: when the two sampled bins' loads differ
/// by at most `g`, an adversary [`CompStrategy`] decides the outcome;
/// otherwise the comparison is correct and the ball goes to the lighter
/// bin.
///
/// For `g = 0` the adversary only controls exact ties, recovering
/// `Two-Choice` without noise (the paper's convention).
///
/// # Examples
///
/// ```
/// use balloc_core::{Decider, LoadState, Rng};
/// use balloc_noise::{AdvComp, ReverseAll};
///
/// let state = LoadState::from_loads(vec![5, 3, 0]);
/// let mut decider = AdvComp::new(2, ReverseAll);
/// let mut rng = Rng::from_seed(0);
/// // |5 − 3| = 2 ⩽ g: the adversary reverses, ball to the heavier bin 0.
/// assert_eq!(decider.decide(&state, 0, 1, &mut rng), 0);
/// // |5 − 0| = 5 > g: the comparison is forced correct.
/// assert_eq!(decider.decide(&state, 0, 2, &mut rng), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdvComp<S> {
    g: u64,
    strategy: S,
}

impl<S> AdvComp<S> {
    /// Creates the `g-Adv-Comp` decision rule with adversary `strategy`.
    #[must_use]
    pub fn new(g: u64, strategy: S) -> Self {
        Self { g, strategy }
    }

    /// The adversary's window `g`.
    #[must_use]
    pub fn g(&self) -> u64 {
        self.g
    }

    /// The adversary strategy.
    #[must_use]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }
}

impl<S: CompStrategy> Decider for AdvComp<S> {
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        let (x1, x2) = (state.load(i1), state.load(i2));
        // Both answers are computed and the window test selects between
        // them: the test depends on freshly loaded loads, and a branch on
        // it mispredicts whenever in- and out-of-window pairs mix.
        let in_window = x1.abs_diff(x2) <= self.g;
        let adversary = self.strategy.choose_if(in_window, state, i1, i2, rng);
        let correct = select_unpredictable(x1 < x2, i1, i2);
        select_unpredictable(in_window, adversary, correct)
    }

    fn reset(&mut self) {
        self.strategy.reset();
    }

    // The window test reads only the two loads; every promise is the
    // in-window strategy's.
    #[inline]
    fn reads_exact(&self) -> bool {
        self.strategy.reads_exact()
    }

    #[inline]
    fn totals_free(&self) -> bool {
        self.strategy.totals_free()
    }
}

impl<S: CompStrategyProbability> DecisionProbability for AdvComp<S> {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        let (x1, x2) = (state.load(i1), state.load(i2));
        let delta = x1.abs_diff(x2);
        if delta <= self.g {
            self.strategy.prob_first(state, i1, i2)
        } else if x1 < x2 {
            1.0
        } else {
            0.0
        }
    }
}

/// The `g-Bounded` process (\[44\], Section 2): Two-Choice where every
/// comparison between bins differing by at most `g` is **reversed** (the
/// ball goes to the heavier bin).
///
/// The paper proves `Gap(m) = O(g + log n)` for any `g` and
/// `O(g/log g · log log n)` for `g ⩽ log n` (Theorems 5.12 and 9.2),
/// improving the `O(g·log(ng))` bound of \[44\].
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_noise::GBounded;
///
/// let n = 1_000;
/// let mut state = LoadState::new(n);
/// let mut rng = Rng::from_seed(2);
/// GBounded::new(2).run(&mut state, 50 * n as u64, &mut rng);
/// // Gap is O(g + log n) — far below the noiseless-One-Choice regime.
/// assert!(state.gap() < 25.0);
/// ```
#[derive(Debug, Clone)]
pub struct GBounded {
    inner: TwoChoice<AdvComp<ReverseAll>>,
}

impl GBounded {
    /// Creates the `g-Bounded` process.
    #[must_use]
    pub fn new(g: u64) -> Self {
        Self {
            inner: TwoChoice::new(AdvComp::new(g, ReverseAll)),
        }
    }

    /// The reversal window `g`.
    #[must_use]
    pub fn g(&self) -> u64 {
        self.inner.decider().g()
    }

    /// The underlying decision rule (for exact-probability analysis).
    #[must_use]
    pub fn decider(&self) -> &AdvComp<ReverseAll> {
        self.inner.decider()
    }
}

impl Process for GBounded {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        self.inner.allocate(state, rng)
    }

    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        // ReverseAll is rng-free and totals-free, so this takes the
        // deferred-aggregate Two-Choice engine with deferred ball counting.
        self.inner.run_batch(state, steps, rng);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The `g-Myopic-Comp` process (Section 2): Two-Choice where comparisons
/// between bins differing by at most `g` are decided by a fair coin.
///
/// The paper proves the matching lower bounds
/// `Gap = Ω(g + g/log g · log log n)` for this process (Proposition 11.2,
/// Theorem 11.3), making it the witness that the `g-Adv-Comp` upper bounds
/// are tight.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_noise::GMyopic;
///
/// let n = 1_000;
/// let mut state = LoadState::new(n);
/// let mut rng = Rng::from_seed(3);
/// GMyopic::new(2).run(&mut state, 50 * n as u64, &mut rng);
/// assert!(state.gap() < 25.0);
/// ```
#[derive(Debug, Clone)]
pub struct GMyopic {
    inner: TwoChoice<AdvComp<UniformRandom>>,
}

impl GMyopic {
    /// Creates the `g-Myopic-Comp` process.
    #[must_use]
    pub fn new(g: u64) -> Self {
        Self {
            inner: TwoChoice::new(AdvComp::new(g, UniformRandom)),
        }
    }

    /// The myopia window `g`.
    #[must_use]
    pub fn g(&self) -> u64 {
        self.inner.decider().g()
    }

    /// The underlying decision rule (for exact-probability analysis).
    #[must_use]
    pub fn decider(&self) -> &AdvComp<UniformRandom> {
        self.inner.decider()
    }
}

impl Process for GMyopic {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        self.inner.allocate(state, rng)
    }

    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        // UniformRandom draws a coin inside the window, but reads no
        // aggregate, so this takes the same deferred-aggregate engine with
        // the coin drawn in per-ball order.
        self.inner.run_batch(state, steps, rng);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::probability::{bin_probabilities, is_probability_vector};
    use balloc_core::{PerfectDecider, TieBreak};

    #[test]
    fn window_boundary_is_inclusive() {
        let state = LoadState::from_loads(vec![7, 4, 0]);
        let mut d = AdvComp::new(3, ReverseAll);
        let mut rng = Rng::from_seed(0);
        // |7 − 4| = 3 = g → adversary acts (reverses to heavier bin 0).
        assert_eq!(d.decide(&state, 1, 0, &mut rng), 0);
        // |4 − 0| = 4 > g → forced correct.
        assert_eq!(d.decide(&state, 1, 2, &mut rng), 2);
    }

    #[test]
    fn g_zero_reverse_all_matches_classic_two_choice_stream() {
        // With g = 0, ReverseAll only controls exact ties and resolves them
        // to the first sample — exactly PerfectDecider's behavior. Neither
        // draws randomness, so the allocation streams coincide.
        let n = 64;
        let m = 5_000u64;
        let mut a = LoadState::new(n);
        let mut b = LoadState::new(n);
        let mut rng_a = Rng::from_seed(11);
        let mut rng_b = Rng::from_seed(11);
        GBounded::new(0).run(&mut a, m, &mut rng_a);
        TwoChoice::new(PerfectDecider::new(TieBreak::FirstSample)).run(&mut b, m, &mut rng_b);
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    fn gap_grows_with_g_for_bounded() {
        let n = 2_000;
        let m = 100 * n as u64;
        let gap_for = |g: u64| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(77);
            GBounded::new(g).run(&mut state, m, &mut rng);
            state.gap()
        };
        let g0 = gap_for(0);
        let g4 = gap_for(4);
        let g16 = gap_for(16);
        assert!(g4 > g0, "gap should grow with g: {g0} vs {g4}");
        assert!(g16 > g4 + 4.0, "gap should keep growing: {g4} vs {g16}");
    }

    #[test]
    fn bounded_dominates_myopic() {
        // The greedy adversary is stronger than the random one (Fig. 12.1).
        let n = 2_000;
        let m = 100 * n as u64;
        let g = 12;
        let mut bounded = LoadState::new(n);
        let mut rng = Rng::from_seed(13);
        GBounded::new(g).run(&mut bounded, m, &mut rng);
        let mut myopic = LoadState::new(n);
        let mut rng = Rng::from_seed(13);
        GMyopic::new(g).run(&mut myopic, m, &mut rng);
        assert!(
            bounded.gap() > myopic.gap(),
            "g-Bounded gap {} should exceed g-Myopic gap {}",
            bounded.gap(),
            myopic.gap()
        );
    }

    #[test]
    fn myopic_with_huge_g_is_one_choice_like() {
        // If g exceeds any reachable load difference, every comparison is a
        // coin flip: the process is One-Choice in distribution. Check the
        // gap is in the One-Choice ballpark rather than the Two-Choice one.
        let n = 1_000;
        let m = 50 * n as u64;
        let mut myopic = LoadState::new(n);
        let mut rng = Rng::from_seed(5);
        GMyopic::new(u64::MAX).run(&mut myopic, m, &mut rng);

        let mut two = LoadState::new(n);
        let mut rng = Rng::from_seed(5);
        TwoChoice::classic().run(&mut two, m, &mut rng);

        assert!(
            myopic.gap() > 2.0 * two.gap(),
            "huge-g myopic ({}) should be far worse than two-choice ({})",
            myopic.gap(),
            two.gap()
        );
    }

    #[test]
    fn exact_probabilities_form_distribution_and_shift_mass_up() {
        let state = LoadState::from_loads(vec![9, 7, 6, 2, 1]);
        let perfect = PerfectDecider::new(TieBreak::Random);
        let adv = AdvComp::new(3, ReverseAll);
        let p = bin_probabilities(&perfect, &state);
        let q = bin_probabilities(&adv, &state);
        assert!(is_probability_vector(&q));
        // The adversary moves probability toward heavier bins: the heaviest
        // bin (index 0) must gain, the lightest (index 4) must lose.
        assert!(q[0] > p[0], "heaviest bin should gain probability");
        assert!(q[4] < p[4], "lightest bin should lose probability");
    }

    #[test]
    fn myopic_probability_is_half_inside_window() {
        let state = LoadState::from_loads(vec![5, 4, 0]);
        let adv = AdvComp::new(2, UniformRandom);
        assert_eq!(adv.prob_first(&state, 0, 1), 0.5);
        assert_eq!(adv.prob_first(&state, 2, 0), 1.0);
        assert_eq!(adv.prob_first(&state, 0, 2), 0.0);
    }

    #[test]
    fn accessors_expose_configuration() {
        let p = GBounded::new(9);
        assert_eq!(p.g(), 9);
        assert_eq!(p.decider().g(), 9);
        let q = GMyopic::new(4);
        assert_eq!(q.g(), 4);
        assert_eq!(q.decider().g(), 4);
    }
}
