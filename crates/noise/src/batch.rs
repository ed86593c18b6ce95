//! The `b-Batch` process: allocation in batches with frozen load reports.

use std::hint::select_unpredictable;

use balloc_core::{LoadState, Process, Rng, TieBreak};

/// The `b-Batch` process (\[14\], Section 2): balls are allocated in
/// consecutive batches of `b`; within a batch, every queried bin reports the
/// load it had at the **start** of the batch, and ties are broken randomly.
///
/// `b = 1` recovers `Two-Choice` (with random tie-breaking); the first batch
/// behaves exactly like `One-Choice` (Observation 11.6). The paper tightens
/// the `O(log n)` bound of \[14\] for `b = n` to the tight
/// `Θ(log n / log log n)` (Theorem 10.2, Observation 11.6).
///
/// The snapshot is maintained in O(1) amortized time per step: allocations
/// within the current batch are recorded and replayed onto the snapshot at
/// the batch boundary (at most `b` entries per batch).
///
/// The process tracks its own allocations; if the [`LoadState`] is
/// modified externally between calls (e.g. by the remove-phase of
/// repeated balls-into-bins), the staleness window resets — the next
/// allocation starts a fresh batch from the current loads. Balanced
/// external changes that keep the ball count intact are adopted at the
/// next batch boundary.
///
/// # Examples
///
/// ```
/// use balloc_core::{LoadState, Process, Rng};
/// use balloc_noise::Batched;
///
/// let n = 500;
/// let mut process = Batched::new(n as u64);
/// let mut state = LoadState::new(n);
/// let mut rng = Rng::from_seed(4);
/// process.run(&mut state, 10 * n as u64, &mut rng);
/// assert_eq!(state.balls(), 10 * n as u64);
/// ```
#[derive(Debug, Clone)]
pub struct Batched {
    b: u64,
    tie: TieBreak,
    snapshot: Vec<u64>,
    since_snapshot: Vec<usize>,
    /// Ball count of the state when the snapshot was taken; used to detect
    /// external modifications of the state (which force a resync).
    snapshot_balls: u64,
    initialized: bool,
}

impl Batched {
    /// Creates the `b-Batch` process with the paper's random tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[must_use]
    pub fn new(b: u64) -> Self {
        Self::with_tie_break(b, TieBreak::Random)
    }

    /// Creates the `b-Batch` process with an explicit tie-breaking rule.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[must_use]
    pub fn with_tie_break(b: u64, tie: TieBreak) -> Self {
        assert!(b >= 1, "batch size must be at least 1");
        Self {
            b,
            tie,
            snapshot: Vec::new(),
            since_snapshot: Vec::new(),
            snapshot_balls: 0,
            initialized: false,
        }
    }

    /// The batch size `b`.
    #[must_use]
    pub fn b(&self) -> u64 {
        self.b
    }

    /// The tie-breaking rule for equal snapshot loads.
    #[must_use]
    pub fn tie_break(&self) -> TieBreak {
        self.tie
    }

    /// The load bin `i` reports right now (its load at the start of the
    /// current batch). Exposed for tests and instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if called before the first allocation or with `i` out of
    /// range.
    #[must_use]
    pub fn reported_load(&self, i: usize) -> u64 {
        assert!(self.initialized, "no batch started yet");
        self.snapshot[i]
    }

    fn refresh_snapshot(&mut self) {
        for &bin in &self.since_snapshot {
            self.snapshot[bin] += 1;
        }
        self.since_snapshot.clear();
    }
}

impl Process for Batched {
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        let n = state.n();
        let externally_modified = self.initialized
            && state.balls() != self.snapshot_balls + self.since_snapshot.len() as u64;
        if !self.initialized || self.snapshot.len() != n || externally_modified {
            self.snapshot = state.loads().to_vec();
            self.since_snapshot.clear();
            self.snapshot_balls = state.balls();
            self.initialized = true;
        } else if self.since_snapshot.len() as u64 >= self.b {
            // Count balls *since the snapshot* rather than the absolute ball
            // count: after a (re)sync on a non-empty state whose ball count
            // is not a multiple of b (recovery experiments via
            // `run_on_state`), the first batch must still span a full b
            // balls instead of being truncated at the next absolute multiple.
            self.refresh_snapshot();
            self.snapshot_balls = state.balls();
            // Balanced external modifications (equal numbers of foreign
            // allocations and removals) are invisible to the ball-count
            // heuristic; adopt the true loads at the boundary.
            if self.snapshot != state.loads() {
                self.snapshot.copy_from_slice(state.loads());
            }
        }
        let i1 = rng.below_usize(n);
        let i2 = rng.below_usize(n);
        let (s1, s2) = (self.snapshot[i1], self.snapshot[i2]);
        let chosen = if s1 < s2 {
            i1
        } else if s2 < s1 {
            i2
        } else {
            self.tie.resolve(i1, i2, rng)
        };
        state.allocate(chosen);
        self.since_snapshot.push(chosen);
        chosen
    }

    /// Batched engine: within one batch of `b` balls the snapshot is frozen
    /// and no external modification can occur (this process is the only
    /// allocator inside the call), so the per-ball resync/boundary checks
    /// are hoisted to the batch boundaries and the inner loop compares
    /// snapshot loads directly. Comparisons never read the live aggregates,
    /// so long runs also defer aggregate maintenance.
    ///
    /// A balanced external modification can only have happened before the
    /// call, so the snapshot is compared against the live loads at the
    /// call's first boundary only; after that compare, or after a resync,
    /// replaying this call's own allocations keeps the snapshot exact.
    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        let n = state.n();
        let bound = n as u64;
        if steps < bound {
            for _ in 0..steps {
                self.allocate(state, rng);
            }
            return;
        }
        let mut batch = state.batch();
        let mut remaining = steps;
        let mut in_sync = false;
        while remaining > 0 {
            let externally_modified = self.initialized
                && batch.view().balls() != self.snapshot_balls + self.since_snapshot.len() as u64;
            if !self.initialized || self.snapshot.len() != n || externally_modified {
                self.snapshot = batch.view().loads().to_vec();
                self.since_snapshot.clear();
                self.snapshot_balls = batch.view().balls();
                self.initialized = true;
                in_sync = true;
            } else if self.since_snapshot.len() as u64 >= self.b {
                self.refresh_snapshot();
                self.snapshot_balls = batch.view().balls();
                if !in_sync && self.snapshot != batch.view().loads() {
                    self.snapshot.copy_from_slice(batch.view().loads());
                }
                in_sync = true;
            }
            let segment = remaining.min(self.b - self.since_snapshot.len() as u64);
            for _ in 0..segment {
                let i1 = rng.below(bound) as usize;
                let i2 = rng.below(bound) as usize;
                let (s1, s2) = (self.snapshot[i1], self.snapshot[i2]);
                let tie = s1 == s2;
                let lighter = select_unpredictable(s2 < s1, i2, i1);
                // `TieBreak::resolve`, with the random rule's coin drawn
                // only on a tie; the other rules never draw.
                let on_tie = match self.tie {
                    TieBreak::Random => select_unpredictable(rng.next_u64_if(tie) & 1 == 1, i1, i2),
                    rule => rule.resolve(i1, i2, rng),
                };
                let chosen = select_unpredictable(tie, on_tie, lighter);
                batch.place(chosen);
                self.since_snapshot.push(chosen);
            }
            remaining -= segment;
        }
    }

    fn reset(&mut self) {
        self.snapshot.clear();
        self.since_snapshot.clear();
        self.snapshot_balls = 0;
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::rng::run_seed;
    use balloc_core::TwoChoice;
    use balloc_processes::OneChoice;

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        let _ = Batched::new(0);
    }

    #[test]
    fn b_one_matches_two_choice_with_random_ties_stream() {
        // With b = 1 the snapshot is refreshed before every ball, so
        // comparisons use current loads with random tie-breaks — the exact
        // same RNG consumption pattern as TwoChoice::classic_random_ties.
        let n = 64;
        let m = 4_000;
        let mut a = LoadState::new(n);
        let mut b = LoadState::new(n);
        let mut rng_a = Rng::from_seed(17);
        let mut rng_b = Rng::from_seed(17);
        Batched::new(1).run(&mut a, m, &mut rng_a);
        TwoChoice::classic_random_ties().run(&mut b, m, &mut rng_b);
        assert_eq!(a.loads(), b.loads());
    }

    #[test]
    fn first_batch_behaves_like_one_choice() {
        // Observation 11.6: during the first batch all reports are zero, so
        // b-Batch is One-Choice (with the extra coin for ties). Compare the
        // average maximum load across seeds.
        let n = 500;
        let b = 5_000u64; // one batch covering all m balls
        let runs = 20;
        let mut batch_max = 0.0;
        let mut one_max = 0.0;
        for run in 0..runs {
            let mut s1 = LoadState::new(n);
            let mut rng = Rng::from_seed(run_seed(run, 0));
            Batched::new(b).run(&mut s1, b, &mut rng);
            batch_max += s1.max_load() as f64;

            let mut s2 = LoadState::new(n);
            let mut rng = Rng::from_seed(run_seed(run, 1));
            OneChoice::new().run(&mut s2, b, &mut rng);
            one_max += s2.max_load() as f64;
        }
        batch_max /= runs as f64;
        one_max /= runs as f64;
        assert!(
            (batch_max - one_max).abs() < 2.5,
            "first-batch max {batch_max} should match one-choice max {one_max}"
        );
    }

    #[test]
    fn snapshot_is_frozen_within_batch() {
        let n = 8;
        let b = 16u64;
        let mut process = Batched::new(b);
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(5);
        // First allocation initializes the snapshot at all-zero.
        process.allocate(&mut state, &mut rng);
        for i in 0..n {
            assert_eq!(process.reported_load(i), 0);
        }
        // Snapshot stays frozen for the rest of the batch.
        for _ in 1..b {
            process.allocate(&mut state, &mut rng);
            for i in 0..n {
                assert_eq!(process.reported_load(i), 0);
            }
        }
        // Next allocation starts batch 2: snapshot = loads after b balls.
        let loads_after_b = state.loads().to_vec();
        process.allocate(&mut state, &mut rng);
        for (i, &expected) in loads_after_b.iter().enumerate() {
            assert_eq!(process.reported_load(i), expected);
        }
    }

    #[test]
    fn first_batch_after_sync_on_nonempty_state_is_full_length() {
        // Regression: the boundary check used the *absolute* ball count, so
        // syncing on a state with B₀ mod b ≠ 0 balls truncated the first
        // batch to b − (B₀ mod b) balls. A tower of 29 balls with b = 10
        // must keep its first snapshot frozen for 10 allocations, not 1.
        let n = 8;
        let b = 10u64;
        let mut loads = vec![3u64; n];
        loads[0] = 8; // 29 balls in total, 29 mod 10 = 9
        let state_loads = loads.clone();
        let mut state = LoadState::from_loads(loads);
        let mut process = Batched::new(b);
        let mut rng = Rng::from_seed(11);
        for step in 0..b {
            process.allocate(&mut state, &mut rng);
            for (i, &expected) in state_loads.iter().enumerate() {
                assert_eq!(
                    process.reported_load(i),
                    expected,
                    "snapshot drifted at step {step}"
                );
            }
        }
        // Allocation b + 1 starts batch 2 from the true loads.
        let loads_after_batch = state.loads().to_vec();
        process.allocate(&mut state, &mut rng);
        for (i, &expected) in loads_after_batch.iter().enumerate() {
            assert_eq!(process.reported_load(i), expected);
        }
    }

    #[test]
    fn balanced_swap_between_batched_calls_is_adopted_at_the_first_boundary() {
        // A balanced external change (one ball moved between bins) keeps
        // the ball count, so only the boundary compare can see it. Made
        // between two `run_batch` calls, it must be adopted at the second
        // call's first boundary, exactly as the per-ball path adopts it.
        let (n, b) = (64usize, 16u64);
        let swap = |state: &mut LoadState| {
            let heaviest = (0..n).max_by_key(|&i| state.load(i)).expect("bins");
            let lightest = (0..n).min_by_key(|&i| state.load(i)).expect("bins");
            state.deallocate(heaviest);
            state.allocate(lightest);
        };
        // 100 balls end mid-batch (100 mod 16 = 4), so the second call's
        // first boundary comes after 12 balls; 96 end on a boundary.
        for (first, second) in [(100u64, 500u64), (96, 64), (100, 76)] {
            let mut per_ball = Batched::new(b);
            let mut per_ball_state = LoadState::new(n);
            let mut per_ball_rng = Rng::from_seed(21);
            let mut batched = Batched::new(b);
            let mut batched_state = LoadState::new(n);
            let mut batched_rng = Rng::from_seed(21);
            for _ in 0..first {
                per_ball.allocate(&mut per_ball_state, &mut per_ball_rng);
            }
            batched.run_batch(&mut batched_state, first, &mut batched_rng);
            swap(&mut per_ball_state);
            swap(&mut batched_state);
            for _ in 0..second {
                per_ball.allocate(&mut per_ball_state, &mut per_ball_rng);
            }
            batched.run_batch(&mut batched_state, second, &mut batched_rng);
            assert_eq!(batched_state, per_ball_state, "{first} + {second}");
            assert_eq!(batched_rng, per_ball_rng, "{first} + {second}");
            for i in 0..n {
                assert_eq!(
                    batched.reported_load(i),
                    per_ball.reported_load(i),
                    "snapshot of bin {i} after {first} + {second}"
                );
            }
        }
    }

    #[test]
    fn gap_grows_with_batch_size() {
        let n = 1_000;
        let m = 50 * n as u64;
        let gap_for = |b: u64| {
            let mut state = LoadState::new(n);
            let mut rng = Rng::from_seed(777);
            Batched::new(b).run(&mut state, m, &mut rng);
            state.gap()
        };
        let g1 = gap_for(1);
        let gn = gap_for(n as u64);
        let gbig = gap_for(10 * n as u64);
        assert!(gn > g1, "b=n gap {gn} should exceed b=1 gap {g1}");
        assert!(gbig > gn, "b=10n gap {gbig} should exceed b=n gap {gn}");
    }

    #[test]
    fn batch_b_equals_n_stays_in_theorem_band() {
        // Theorem 10.2 + Observation 11.6: Gap(m) = Θ(log n/log log n) for
        // b = n. For n = 4096 that's ≈ 3.9; accept a generous band.
        let n = 4096;
        let m = 50 * n as u64;
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(999);
        Batched::new(n as u64).run(&mut state, m, &mut rng);
        let gap = state.gap();
        assert!(
            (2.0..16.0).contains(&gap),
            "b=n gap {gap} outside expected band"
        );
    }

    #[test]
    fn reset_forces_reinitialization() {
        let mut process = Batched::new(4);
        let mut state = LoadState::new(4);
        let mut rng = Rng::from_seed(1);
        process.run(&mut state, 10, &mut rng);
        process.reset();
        assert!(!process.initialized);
        // Works again after reset on a fresh state.
        let mut fresh = LoadState::new(4);
        process.run(&mut fresh, 10, &mut rng);
        assert_eq!(fresh.balls(), 10);
    }

    #[test]
    fn accessors() {
        let p = Batched::new(7);
        assert_eq!(p.b(), 7);
        assert_eq!(p.tie_break(), TieBreak::Random);
        let q = Batched::with_tie_break(3, TieBreak::FirstSample);
        assert_eq!(q.tie_break(), TieBreak::FirstSample);
    }
}
