//! The `d-Choice` process, optionally with a noisy pairwise tournament.

use balloc_core::{Decider, LoadState, PerfectDecider, Process, Rng, TieBreak};

/// `d-Choice` (Azar, Broder, Karlin, Upfal): sample `d` bins uniformly with
/// replacement and place the ball according to a pairwise comparison
/// tournament.
///
/// With the default [`PerfectDecider`] the tournament returns a true
/// least-loaded sample and the process achieves gap `log_d log n + O(1)`.
/// With a noisy [`Decider`] (e.g. from `balloc-noise`) each pairwise
/// comparison of the tournament is subject to that noise — the natural
/// `d`-ary generalization of the paper's two-sample noise framework.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_processes::DChoice;
///
/// let mut state = LoadState::new(500);
/// let mut rng = Rng::from_seed(10);
/// DChoice::classic(3).run(&mut state, 5_000, &mut rng);
/// assert_eq!(state.balls(), 5_000);
/// assert!(state.gap() < 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct DChoice<D = PerfectDecider> {
    d: u32,
    decider: D,
}

impl DChoice<PerfectDecider> {
    /// Noise-free `d-Choice` with first-sample tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn classic(d: u32) -> Self {
        Self::with_decider(d, PerfectDecider::new(TieBreak::FirstSample))
    }
}

impl<D> DChoice<D> {
    /// `d-Choice` whose pairwise tournament comparisons are resolved by
    /// `decider`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn with_decider(d: u32, decider: D) -> Self {
        assert!(d > 0, "d must be positive");
        Self { d, decider }
    }

    /// The number of samples per ball.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The tournament comparison rule.
    #[must_use]
    pub fn decider(&self) -> &D {
        &self.decider
    }
}

impl<D: Decider> Process for DChoice<D> {
    #[inline]
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        let n = state.n();
        let mut winner = rng.below_usize(n);
        for _ in 1..self.d {
            let challenger = rng.below_usize(n);
            winner = self.decider.decide(state, winner, challenger, rng);
        }
        state.allocate(winner);
        winner
    }

    /// Batched engine: with a tournament decider that reads only exact
    /// state ([`Decider::reads_exact`]), long runs defer aggregate
    /// maintenance and thread the winner's load value through the
    /// tournament so the final store needs no dependent re-read. Draws
    /// stay in per-ball order, so deciders that draw qualify too.
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        let bound = state.n() as u64;
        if !self.decider.reads_exact() || steps < bound {
            for _ in 0..steps {
                self.allocate(state, rng);
            }
            return;
        }
        let d = self.d;
        let mut batch = state.batch();
        // Totals-free deciders let the engine defer the per-ball
        // `balls += 1` store-forward chain and settle once at the end;
        // the winner-load select is forced branchless (both ~50/50
        // unpredictable in the tournament hot loop — see the TwoChoice
        // engine and docs/PERFORMANCE.md).
        let deferred = self.decider.totals_free();
        for _ in 0..steps {
            let mut winner = rng.below(bound) as usize;
            let mut winner_load = batch.view().load(winner);
            for _ in 1..d {
                let challenger = rng.below(bound) as usize;
                let view = batch.view();
                let challenger_load = view.load(challenger);
                let next = self.decider.decide(view, winner, challenger, rng);
                winner_load =
                    std::hint::select_unpredictable(next == winner, winner_load, challenger_load);
                winner = next;
            }
            if deferred {
                batch.place_with_uncounted(winner, winner_load);
            } else {
                batch.place_with(winner, winner_load);
            }
        }
        if deferred {
            batch.credit_balls(steps);
        }
    }

    fn reset(&mut self) {
        self.decider.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OneChoice;

    #[test]
    #[should_panic(expected = "d must be positive")]
    fn zero_d_rejected() {
        let _ = DChoice::classic(0);
    }

    #[test]
    fn d_equal_one_matches_one_choice_stream() {
        // With d = 1 no comparison is made, so the allocation sequence is
        // identical to One-Choice with the same seed.
        let n = 50;
        let mut a = LoadState::new(n);
        let mut b = LoadState::new(n);
        let mut rng_a = Rng::from_seed(33);
        let mut rng_b = Rng::from_seed(33);
        DChoice::classic(1).run(&mut a, 1000, &mut rng_a);
        OneChoice::new().run(&mut b, 1000, &mut rng_b);
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    fn higher_d_never_hurts_much() {
        // Gap should (statistically) not increase with d. Fixed seeds and a
        // generous slack keep this deterministic and non-flaky.
        let n = 2000;
        let m = 20 * n as u64;
        let mut gaps = Vec::new();
        for d in [1u32, 2, 4, 8] {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(123);
            DChoice::classic(d).run(&mut state, m, &mut rng);
            gaps.push(state.gap());
        }
        assert!(gaps[1] < gaps[0], "d=2 should beat d=1: {gaps:?}");
        assert!(gaps[3] <= gaps[1] + 1.0, "d=8 should not lose to d=2: {gaps:?}");
    }

    #[test]
    fn tournament_picks_global_minimum_of_samples() {
        // With distinct loads the winner of the tournament must be the
        // least loaded of the d samples; emulate by exhaustive check on a
        // tiny instance using a recorded RNG stream.
        let state_loads = vec![9u64, 7, 5, 3, 1];
        for seed in 0..50u64 {
            let mut state = LoadState::from_loads(state_loads.clone());
            let mut rng = Rng::from_seed(seed);
            // Replay the sample stream to know which bins were drawn.
            let mut replay = Rng::from_seed(seed);
            let s: Vec<usize> = (0..3).map(|_| replay.below_usize(5)).collect();
            let expected = *s
                .iter()
                .min_by_key(|&&i| state.load(i))
                .expect("non-empty samples");
            let chosen = DChoice::classic(3).allocate(&mut state, &mut rng);
            assert_eq!(chosen, expected, "seed {seed}: samples {s:?}");
        }
    }
}
