//! Probabilistic noise: `ρ-Noisy-Comp` and `σ-Noisy-Load`.

use std::hint::select_unpredictable;

use balloc_core::stats::normal_cdf;
use balloc_core::{Decider, DecisionProbability, LoadState, Process, Rng, TwoChoice};

use crate::rho::{GaussianRho, RhoFunction};

/// The `ρ-Noisy-Comp` decision rule (Section 2, "Probabilistic Noise"):
/// a comparison between bins whose loads differ by `δ > 0` is correct with
/// probability `ρ(δ)`, independently at every step; equal loads resolve by
/// a fair coin.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng, TwoChoice};
/// use balloc_noise::{NoisyComp, rho::MyopicRho};
///
/// // ρ-Noisy-Comp with the myopic step function is g-Myopic-Comp.
/// let mut process = TwoChoice::new(NoisyComp::new(MyopicRho::new(3)));
/// let mut state = LoadState::new(100);
/// let mut rng = Rng::from_seed(0);
/// process.run(&mut state, 1_000, &mut rng);
/// assert_eq!(state.balls(), 1_000);
/// ```
#[derive(Clone)]
pub struct NoisyComp<R> {
    rho: R,
    /// `table[δ] = rho.rho(δ)`, the exact `f64`s, from `δ = 0` up to the
    /// first `δ` where `ρ` reaches 1 or [`RHO_TABLE_CAP`] entries; larger
    /// differences call `rho` directly.
    table: Vec<f64>,
}

/// The most `ρ(δ)` values [`NoisyComp`] tabulates (8 KiB of `f64`s); only
/// a `ρ` that never reaches 1 (e.g. a constant below 1) fills it.
const RHO_TABLE_CAP: usize = 1024;

impl<R: RhoFunction> NoisyComp<R> {
    /// Creates the decision rule from a correct-comparison probability
    /// function, tabulating `ρ` once for the small differences that hot
    /// loops see.
    #[must_use]
    pub fn new(rho: R) -> Self {
        let mut table = Vec::new();
        for delta in 0..RHO_TABLE_CAP as u64 {
            let p = rho.rho(delta);
            table.push(p);
            if p >= 1.0 {
                break;
            }
        }
        Self { rho, table }
    }

    /// The correct-comparison probability function.
    #[must_use]
    pub fn rho(&self) -> &R {
        &self.rho
    }

    /// `ρ(δ)`: the tabulated value, or `rho` itself past the table.
    #[inline]
    fn rho_at(&self, delta: u64) -> f64 {
        match usize::try_from(delta).ok().and_then(|i| self.table.get(i)) {
            Some(&p) => p,
            None => self.rho.rho(delta),
        }
    }
}

impl<R: RhoFunction + Default> Default for NoisyComp<R> {
    fn default() -> Self {
        Self::new(R::default())
    }
}

impl<R: std::fmt::Debug> std::fmt::Debug for NoisyComp<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The table is a cache of `rho`; it adds nothing to the value.
        f.debug_struct("NoisyComp").field("rho", &self.rho).finish()
    }
}

impl<R: RhoFunction> Decider for NoisyComp<R> {
    /// The tie coin and the `ρ`-coin are one conditional draw
    /// ([`Rng::next_u64_if`]), taken exactly when the paper's rule draws —
    /// on a tie ([`Rng::coin`]) or when `0 < ρ < 1` ([`Rng::chance`]) —
    /// and both outcomes are read from it, so the stream is the same. The
    /// decision itself is selects only.
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        let (x1, x2) = (state.load(i1), state.load(i2));
        let delta = x1.abs_diff(x2);
        let tie = delta == 0;
        let rho = self.rho_at(delta);
        // `chance(ρ)` answers without drawing when ρ ⩽ 0 or ρ ⩾ 1.
        let certain = rho <= 0.0 || rho >= 1.0;
        let bits = rng.next_u64_if(tie || !certain);
        let correct = select_unpredictable(certain, rho >= 1.0, Rng::unit_f64(bits) < rho);
        let (lighter, heavier) = (
            select_unpredictable(x1 < x2, i1, i2),
            select_unpredictable(x1 < x2, i2, i1),
        );
        let unequal = select_unpredictable(correct, lighter, heavier);
        let coin = select_unpredictable(bits & 1 == 1, i1, i2);
        select_unpredictable(tie, coin, unequal)
    }

    #[inline]
    fn reads_exact(&self) -> bool {
        // Reads the two loads only; its coins are drawn in per-ball order.
        true
    }

    #[inline]
    fn totals_free(&self) -> bool {
        true
    }
}

impl<R: RhoFunction> DecisionProbability for NoisyComp<R> {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        let (x1, x2) = (state.load(i1), state.load(i2));
        if x1 == x2 {
            return 0.5;
        }
        let p_correct = self.rho.rho(x1.abs_diff(x2));
        if x1 < x2 {
            p_correct
        } else {
            1.0 - p_correct
        }
    }
}

/// The `σ-Noisy-Load` process as *defined* by the paper (Eq. 2.1):
/// `ρ-Noisy-Comp` with `ρ(δ) = 1 − ½·exp(−(δ/σ)²)`.
///
/// The paper proves `Gap(m) = O(σ·√log n · log(nσ))` for all `m ⩾ n`
/// (Proposition 10.1) and polynomial-in-σ lower bounds (Proposition 11.5).
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_noise::SigmaNoisyLoad;
///
/// let n = 1_000;
/// let mut state = LoadState::new(n);
/// let mut rng = Rng::from_seed(6);
/// SigmaNoisyLoad::new(4.0).run(&mut state, 50 * n as u64, &mut rng);
/// assert!(state.gap() < 30.0);
/// ```
#[derive(Debug, Clone)]
pub struct SigmaNoisyLoad {
    inner: TwoChoice<NoisyComp<GaussianRho>>,
}

impl SigmaNoisyLoad {
    /// Creates the `σ-Noisy-Load` process (Eq. 2.1 form).
    ///
    /// # Panics
    ///
    /// Panics if `σ` is not finite or not positive.
    #[must_use]
    pub fn new(sigma: f64) -> Self {
        Self {
            inner: TwoChoice::new(NoisyComp::new(GaussianRho::new(sigma))),
        }
    }

    /// The noise scale `σ`.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.inner.decider().rho().sigma()
    }

    /// The underlying decision rule (for exact-probability analysis).
    #[must_use]
    pub fn decider(&self) -> &NoisyComp<GaussianRho> {
        self.inner.decider()
    }
}

impl Process for SigmaNoisyLoad {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        self.inner.allocate(state, rng)
    }

    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        // ρ-Noisy-Comp draws per comparison but reads only the two
        // loads, so this takes the deferred-aggregate Two-Choice engine
        // with the draws in per-ball order.
        self.inner.run_batch(state, steps, rng);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The *literal* Gaussian-perturbation form of `σ-Noisy-Load`: each sampled
/// bin reports `x̃ = x + N(0, σ²)` (fresh, independent noise) and the ball
/// goes to the smaller report.
///
/// The paper derives Eq. 2.1 from this model by computing
/// `P[correct] = 1 − Φ(δ/(√2·σ))` and re-scaling σ; this type keeps the
/// un-rescaled physical model so the two can be compared empirically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianLoadDecider {
    sigma: f64,
}

impl GaussianLoadDecider {
    /// Creates the Gaussian-perturbation comparison with noise scale `σ`.
    ///
    /// # Panics
    ///
    /// Panics if `σ` is not finite or not positive.
    #[must_use]
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be finite and positive"
        );
        Self { sigma }
    }

    /// The noise scale `σ`.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Decider for GaussianLoadDecider {
    #[inline]
    fn decide(&mut self, state: &LoadState, i1: usize, i2: usize, rng: &mut Rng) -> usize {
        let e1 = state.load(i1) as f64 + rng.gaussian(0.0, self.sigma);
        let e2 = state.load(i2) as f64 + rng.gaussian(0.0, self.sigma);
        if e1 <= e2 {
            i1
        } else {
            i2
        }
    }
}

impl DecisionProbability for GaussianLoadDecider {
    #[inline]
    fn prob_first(&self, state: &LoadState, i1: usize, i2: usize) -> f64 {
        // P[x1 + Z1 ⩽ x2 + Z2] = P[N(0, 2σ²) ⩽ x2 − x1]
        //                      = Φ((x2 − x1)/(√2·σ)).
        let diff = state.load(i2) as f64 - state.load(i1) as f64;
        normal_cdf(diff / (std::f64::consts::SQRT_2 * self.sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rho::{BoundedRho, ConstantRho, MyopicRho};
    use crate::{AdvComp, GMyopic, ReverseAll};
    use balloc_core::rng::run_seed;
    use balloc_processes::OneChoice;

    /// The per-ball rule as the paper states it: a fair coin on a tie,
    /// otherwise correct with probability `ρ(δ)` via [`Rng::chance`].
    fn reference_decide(
        rho: &impl RhoFunction,
        state: &LoadState,
        i1: usize,
        i2: usize,
        rng: &mut Rng,
    ) -> usize {
        let (x1, x2) = (state.load(i1), state.load(i2));
        if x1 == x2 {
            return if rng.coin() { i1 } else { i2 };
        }
        let (lighter, heavier) = if x1 < x2 { (i1, i2) } else { (i2, i1) };
        if rng.chance(rho.rho(x1.abs_diff(x2))) {
            lighter
        } else {
            heavier
        }
    }

    /// Decides pairs at each difference in `deltas` (both orders, many
    /// times) and checks decisions and generator states against
    /// [`reference_decide`].
    fn assert_matches_reference<R: RhoFunction>(decider: &mut NoisyComp<R>, deltas: &[u64]) {
        let mut rng = Rng::from_seed(64);
        let mut reference_rng = Rng::from_seed(64);
        for &delta in deltas {
            let state = LoadState::from_loads(vec![5, 5 + delta]);
            for (i1, i2) in [(0, 1), (1, 0)] {
                for _ in 0..200 {
                    let got = decider.decide(&state, i1, i2, &mut rng);
                    let want = reference_decide(decider.rho(), &state, i1, i2, &mut reference_rng);
                    assert_eq!(got, want, "δ = {delta}, pair ({i1}, {i2})");
                    assert_eq!(rng, reference_rng, "δ = {delta}: draw count diverged");
                }
            }
        }
    }

    #[test]
    fn table_edges_decide_like_rho() {
        // Gaussian ρ saturates at 1 near δ ≈ 6σ: the table stops there.
        let mut gaussian = NoisyComp::new(GaussianRho::new(2.0));
        let last = gaussian.table.len() as u64 - 1;
        assert!(
            last < 20,
            "table should stop once ρ reaches 1, len {}",
            last + 1
        );
        assert_eq!(gaussian.table[last as usize], 1.0);
        assert!(gaussian.table[last as usize - 1] < 1.0);
        for delta in 0..=last + 3 {
            assert_eq!(
                gaussian.rho_at(delta).to_bits(),
                gaussian.rho().rho(delta).to_bits(),
                "δ = {delta}"
            );
        }
        assert_matches_reference(&mut gaussian, &[0, 1, last - 1, last, last + 1, 1_000]);

        // A constant below 1 never saturates: the table fills to the cap
        // and larger differences fall back to `rho`.
        let mut constant = NoisyComp::new(ConstantRho::new(0.7));
        assert_eq!(constant.table.len(), RHO_TABLE_CAP);
        let cap = RHO_TABLE_CAP as u64;
        assert_eq!(constant.rho_at(cap - 1), 0.7);
        assert_eq!(constant.rho_at(cap), 0.7);
        assert_matches_reference(&mut constant, &[0, 1, cap - 1, cap, cap + 1]);

        // The certain extremes draw nothing off a tie.
        assert_matches_reference(&mut NoisyComp::new(ConstantRho::new(1.0)), &[0, 1, 2]);
        assert_matches_reference(&mut NoisyComp::new(ConstantRho::new(0.0)), &[0, 1, 2]);
        assert_matches_reference(&mut NoisyComp::new(BoundedRho::new(2)), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn default_tabulates_the_default_rho() {
        #[derive(Debug, Default)]
        struct Steep;
        impl RhoFunction for Steep {
            fn rho(&self, delta: u64) -> f64 {
                if delta >= 3 {
                    1.0
                } else {
                    0.75
                }
            }
        }
        let mut decider = NoisyComp::<Steep>::default();
        assert_eq!(decider.table, vec![0.75, 0.75, 0.75, 1.0]);
        assert_eq!(format!("{decider:?}"), "NoisyComp { rho: Steep }");
        assert_matches_reference(&mut decider, &[0, 1, 2, 3, 4, 9]);
    }

    #[test]
    fn rho_one_is_always_correct() {
        let state = LoadState::from_loads(vec![8, 3]);
        let mut d = NoisyComp::new(ConstantRho::new(1.0));
        let mut rng = Rng::from_seed(0);
        for _ in 0..100 {
            assert_eq!(d.decide(&state, 0, 1, &mut rng), 1);
        }
        assert_eq!(d.prob_first(&state, 1, 0), 1.0);
    }

    #[test]
    fn rho_zero_is_always_wrong() {
        let state = LoadState::from_loads(vec![8, 3]);
        let mut d = NoisyComp::new(ConstantRho::new(0.0));
        let mut rng = Rng::from_seed(0);
        for _ in 0..100 {
            assert_eq!(d.decide(&state, 0, 1, &mut rng), 0);
        }
        assert_eq!(d.prob_first(&state, 1, 0), 0.0);
    }

    #[test]
    fn equal_loads_resolve_fairly() {
        let state = LoadState::from_loads(vec![4, 4]);
        let mut d = NoisyComp::new(ConstantRho::new(1.0));
        let mut rng = Rng::from_seed(12);
        let firsts = (0..10_000)
            .filter(|_| d.decide(&state, 0, 1, &mut rng) == 0)
            .count();
        assert!((firsts as f64 / 10_000.0 - 0.5).abs() < 0.02);
        assert_eq!(d.prob_first(&state, 0, 1), 0.5);
    }

    #[test]
    fn bounded_rho_reproduces_g_bounded_decisions() {
        // ρ-Noisy-Comp with the BoundedRho step function must make the same
        // (deterministic) decisions as g-Adv-Comp/ReverseAll on unequal
        // loads.
        let state = LoadState::from_loads(vec![9, 7, 4, 0]);
        let g = 3;
        let mut noisy = NoisyComp::new(BoundedRho::new(g));
        let mut bounded = AdvComp::new(g, ReverseAll);
        let mut rng = Rng::from_seed(1);
        for i1 in 0..4 {
            for i2 in 0..4 {
                if state.load(i1) == state.load(i2) {
                    continue;
                }
                assert_eq!(
                    noisy.decide(&state, i1, i2, &mut rng),
                    bounded.decide(&state, i1, i2, &mut rng),
                    "pair ({i1},{i2})"
                );
            }
        }
    }

    #[test]
    fn myopic_rho_matches_g_myopic_in_distribution() {
        // Same g, same n, m: the two formulations of g-Myopic-Comp must
        // produce statistically indistinguishable gaps.
        let n = 1_000;
        let m = 50 * n as u64;
        let g = 8;
        let mut gaps = [0.0f64; 2];
        for (k, seed) in [(0usize, 42u64), (1, 42)] {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(run_seed(seed, k as u64));
            if k == 0 {
                TwoChoice::new(NoisyComp::new(MyopicRho::new(g))).run(&mut state, m, &mut rng);
            } else {
                GMyopic::new(g).run(&mut state, m, &mut rng);
            }
            gaps[k] = state.gap();
        }
        assert!(
            (gaps[0] - gaps[1]).abs() < 6.0,
            "formulations disagree: {gaps:?}"
        );
    }

    #[test]
    fn constant_half_behaves_like_one_choice() {
        // ρ ≡ ½ makes every comparison a coin flip — One-Choice in
        // distribution. Its gap should be far above Two-Choice and near
        // One-Choice for the same m.
        let n = 1_000;
        let m = 100 * n as u64;
        let mut coin = LoadState::new(n);
        let mut rng = Rng::from_seed(9);
        TwoChoice::new(NoisyComp::new(ConstantRho::new(0.5))).run(&mut coin, m, &mut rng);

        let mut one = LoadState::new(n);
        let mut rng = Rng::from_seed(9);
        OneChoice::new().run(&mut one, m, &mut rng);

        let ratio = coin.gap() / one.gap();
        assert!(
            (0.5..2.0).contains(&ratio),
            "ρ≡½ gap {} should be close to one-choice {}",
            coin.gap(),
            one.gap()
        );
    }

    #[test]
    fn sigma_noisy_load_gap_grows_with_sigma() {
        let n = 1_000;
        let m = 100 * n as u64;
        let gap_for = |sigma: f64| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(4096);
            SigmaNoisyLoad::new(sigma).run(&mut state, m, &mut rng);
            state.gap()
        };
        let g1 = gap_for(1.0);
        let g16 = gap_for(16.0);
        assert!(
            g16 > g1 + 2.0,
            "σ=16 gap {g16} should clearly exceed σ=1 gap {g1}"
        );
    }

    #[test]
    fn gaussian_decider_probability_is_analytic() {
        let state = LoadState::from_loads(vec![3, 0]);
        let sigma = 2.0;
        let d = GaussianLoadDecider::new(sigma);
        // P[first] with first heavier by 3: Φ(−3/(√2·2)) ≈ Φ(−1.0607) ≈ 0.1444.
        let p = d.prob_first(&state, 0, 1);
        assert!((p - 0.1444).abs() < 0.01, "analytic probability off: {p}");

        // Monte-Carlo agreement.
        let mut sim = GaussianLoadDecider::new(sigma);
        let mut rng = Rng::from_seed(123);
        let trials = 200_000;
        let firsts = (0..trials)
            .filter(|_| sim.decide(&state, 0, 1, &mut rng) == 0)
            .count();
        let emp = firsts as f64 / trials as f64;
        assert!((emp - p).abs() < 0.005, "simulated {emp} vs analytic {p}");
    }

    #[test]
    fn gaussian_and_eq21_forms_are_close_after_rescaling() {
        // Eq. 2.1 approximates the physical model's correct-comparison
        // probability 1 − Φ(δ/(√2σ′)) with 1 − ½exp(−(δ/σ)²). Both are ½ at
        // δ=0 and → 1; check the physical model's implied ρ stays within a
        // modest band of the Eq 2.1 curve for σ′ = σ.
        let sigma = 4.0;
        let rho = GaussianRho::new(sigma);
        for delta in 1..=20u64 {
            let physical = normal_cdf(delta as f64 / (std::f64::consts::SQRT_2 * sigma));
            let eq21 = rho.rho(delta);
            assert!(
                (physical - eq21).abs() < 0.2,
                "δ={delta}: physical {physical} vs Eq2.1 {eq21}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn gaussian_decider_rejects_bad_sigma() {
        let _ = GaussianLoadDecider::new(f64::NAN);
    }

    #[test]
    fn sigma_accessor() {
        assert_eq!(SigmaNoisyLoad::new(3.5).sigma(), 3.5);
        assert_eq!(GaussianLoadDecider::new(1.5).sigma(), 1.5);
    }
}
