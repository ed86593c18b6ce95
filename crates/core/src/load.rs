//! Bin load bookkeeping.
//!
//! [`LoadState`] is the shared substrate of every allocation process: a
//! vector of bin loads together with incrementally-maintained aggregates
//! (maximum, minimum, number of balls) so that the quantities the paper
//! analyses — most importantly the **gap**
//! `Gap(t) = max_i x_i^t − t/n` — are available in O(1) at every step.
//!
//! The amortized cost of [`LoadState::allocate`] is O(1): the maximum can
//! only move up when the allocated bin passes it, and the minimum level is
//! tracked with a count of bins at the minimum, re-scanning only when that
//! level empties (which happens at most `m/n` times over `m` allocations).

use std::collections::BTreeMap;

/// The load vector of `n` bins after some number of allocations.
///
/// Loads are ball counts (`u64`). *Normalized* loads, written `y_i` in the
/// paper, subtract the average load `t/n` and are exposed as `f64`.
///
/// # Examples
///
/// ```
/// use balloc_core::LoadState;
///
/// let mut state = LoadState::new(4);
/// state.allocate(0);
/// state.allocate(0);
/// state.allocate(2);
/// assert_eq!(state.balls(), 3);
/// assert_eq!(state.load(0), 2);
/// assert_eq!(state.max_load(), 2);
/// assert_eq!(state.min_load(), 0);
/// // Gap(3) = 2 − 3/4 = 1.25
/// assert!((state.gap() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadState {
    loads: Vec<u64>,
    balls: u64,
    max_load: u64,
    min_load: u64,
    bins_at_min: usize,
    bins_at_max: usize,
}

impl LoadState {
    /// Creates an empty load state with `n` bins.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    /// let state = LoadState::new(8);
    /// assert_eq!(state.n(), 8);
    /// assert_eq!(state.balls(), 0);
    /// ```
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "number of bins must be positive");
        Self {
            loads: vec![0; n],
            balls: 0,
            max_load: 0,
            min_load: 0,
            bins_at_min: n,
            bins_at_max: n,
        }
    }

    /// Creates a load state from an explicit load vector.
    ///
    /// Useful for analysing a specific configuration (e.g. when verifying
    /// potential-function drop inequalities on hand-crafted load vectors).
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    /// let state = LoadState::from_loads(vec![3, 1, 2]);
    /// assert_eq!(state.balls(), 6);
    /// assert_eq!(state.max_load(), 3);
    /// assert_eq!(state.min_load(), 1);
    /// ```
    #[must_use]
    pub fn from_loads(loads: Vec<u64>) -> Self {
        assert!(!loads.is_empty(), "number of bins must be positive");
        let balls = loads.iter().sum();
        let max_load = *loads.iter().max().expect("non-empty");
        let min_load = *loads.iter().min().expect("non-empty");
        let bins_at_min = loads.iter().filter(|&&x| x == min_load).count();
        let bins_at_max = loads.iter().filter(|&&x| x == max_load).count();
        Self {
            loads,
            balls,
            max_load,
            min_load,
            bins_at_min,
            bins_at_max,
        }
    }

    /// The number of bins, `n`.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.loads.len()
    }

    /// The number of balls allocated so far, `t`.
    #[inline]
    #[must_use]
    pub fn balls(&self) -> u64 {
        self.balls
    }

    /// The load of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[inline]
    #[must_use]
    pub fn load(&self, i: usize) -> u64 {
        self.loads[i]
    }

    /// All bin loads, in bin order.
    #[inline]
    #[must_use]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The maximum load over all bins.
    #[inline]
    #[must_use]
    pub fn max_load(&self) -> u64 {
        self.max_load
    }

    /// The minimum load over all bins.
    #[inline]
    #[must_use]
    pub fn min_load(&self) -> u64 {
        self.min_load
    }

    /// The average load `t/n`.
    #[inline]
    #[must_use]
    pub fn average(&self) -> f64 {
        self.balls as f64 / self.loads.len() as f64
    }

    /// The normalized load `y_i = x_i − t/n` of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[inline]
    #[must_use]
    pub fn normalized(&self, i: usize) -> f64 {
        self.loads[i] as f64 - self.average()
    }

    /// The gap `Gap(t) = max_i x_i − t/n` (the paper's central quantity).
    #[inline]
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.max_load as f64 - self.average()
    }

    /// The underload gap `t/n − min_i x_i`.
    #[inline]
    #[must_use]
    pub fn min_side_gap(&self) -> f64 {
        self.average() - self.min_load as f64
    }

    /// The maximum absolute normalized load,
    /// `max_i |y_i| = max(gap, min-side gap)`.
    #[inline]
    #[must_use]
    pub fn max_abs_normalized(&self) -> f64 {
        self.gap().max(self.min_side_gap())
    }

    /// The spread `max_i x_i − min_i x_i` between the most and least loaded
    /// bins.
    #[inline]
    #[must_use]
    pub fn spread(&self) -> u64 {
        self.max_load - self.min_load
    }

    /// The integer gap `max_i x_i − t/n` when `t` is divisible by `n`.
    ///
    /// The paper's experiments (Section 12) report integer gaps because they
    /// measure at `m = 1000·n`. Returns `None` when `t` is not divisible by
    /// `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    /// let mut state = LoadState::new(2);
    /// state.allocate(0);
    /// assert_eq!(state.integer_gap(), None);
    /// state.allocate(0);
    /// assert_eq!(state.integer_gap(), Some(1)); // max 2 − avg 1
    /// ```
    #[must_use]
    pub fn integer_gap(&self) -> Option<i64> {
        let n = self.loads.len() as u64;
        if self.balls.is_multiple_of(n) {
            Some(self.max_load as i64 - (self.balls / n) as i64)
        } else {
            None
        }
    }

    /// Places one ball into bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    /// let mut state = LoadState::new(3);
    /// state.allocate(1);
    /// assert_eq!(state.load(1), 1);
    /// assert_eq!(state.balls(), 1);
    /// ```
    #[inline]
    pub fn allocate(&mut self, i: usize) {
        let old = self.loads[i];
        let new = old + 1;
        self.loads[i] = new;
        self.balls += 1;
        if new > self.max_load {
            self.max_load = new;
            self.bins_at_max = 1;
        } else if new == self.max_load {
            self.bins_at_max += 1;
        }
        if old == self.min_load {
            self.bins_at_min -= 1;
            if self.bins_at_min == 0 {
                // Every bin now exceeds the old minimum; since loads grow by
                // one at a time, the new minimum is exactly old minimum + 1.
                self.min_load += 1;
                let m = self.min_load;
                self.bins_at_min = self.loads.iter().filter(|&&x| x == m).count();
            }
        }
    }

    /// Copies the load vector into `dst` — snapshot support for serving
    /// front-ends that make allocation decisions against a periodically
    /// refreshed copy of the loads (the `b-Batch`/`τ-Delay` regimes) and
    /// for shard owners publishing their bin range into a global view.
    ///
    /// Reuses the caller's buffer so a refresh allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    /// let state = LoadState::from_loads(vec![2, 0, 1]);
    /// let mut snapshot = vec![0; 3];
    /// state.copy_loads_into(&mut snapshot);
    /// assert_eq!(snapshot, [2, 0, 1]);
    /// ```
    #[inline]
    pub fn copy_loads_into(&self, dst: &mut [u64]) {
        dst.copy_from_slice(&self.loads);
    }

    /// Begins a batched allocation scope with deferred aggregate
    /// maintenance.
    ///
    /// Inside the scope, [`LoadBatch::place`] updates only the load vector
    /// and the ball count — the max/min aggregates (and therefore
    /// [`max_load`](Self::max_load), [`min_load`](Self::min_load),
    /// [`gap`](Self::gap), [`spread`](Self::spread),
    /// [`integer_gap`](Self::integer_gap) and friends) may be **stale**
    /// until the guard is dropped, at which point they are repaired with a
    /// single fused scan. [`load`](Self::load), [`loads`](Self::loads),
    /// [`n`](Self::n), [`balls`](Self::balls) and
    /// [`average`](Self::average) stay exact at every step.
    ///
    /// This is the substrate of the monomorphized
    /// [`Process::run_batch`](crate::Process::run_batch) fast paths: an
    /// allocate-only chunk does not need per-ball min-level bookkeeping, and
    /// deciders eligible for those paths promise
    /// ([`Decider::reads_exact`](crate::Decider::reads_exact)) to read only
    /// the always-exact quantities. The O(n) repair amortizes to O(1) per ball
    /// whenever the chunk places at least ~n balls; fast paths fall back to
    /// [`allocate`](Self::allocate) below that.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    ///
    /// let mut state = LoadState::new(4);
    /// let mut batch = state.batch();
    /// batch.place(2);
    /// batch.place(2);
    /// assert_eq!(batch.view().load(2), 2); // loads are always exact
    /// drop(batch);
    /// assert_eq!(state.max_load(), 2); // aggregates repaired on drop
    /// assert_eq!(state.min_load(), 0);
    /// ```
    #[must_use]
    pub fn batch(&mut self) -> LoadBatch<'_> {
        LoadBatch { state: self }
    }

    /// Recomputes all load aggregates from the load vector in one pass.
    fn repair_aggregates(&mut self) {
        let mut max = 0u64;
        let mut min = u64::MAX;
        let mut at_max = 0usize;
        let mut at_min = 0usize;
        for &x in &self.loads {
            if x > max {
                max = x;
                at_max = 1;
            } else if x == max {
                at_max += 1;
            }
            if x < min {
                min = x;
                at_min = 1;
            } else if x == min {
                at_min += 1;
            }
        }
        self.max_load = max;
        self.min_load = min;
        self.bins_at_max = at_max;
        self.bins_at_min = at_min;
    }

    /// Removes one ball from bin `i` (used by dynamic settings where balls
    /// depart, e.g. repeated balls-into-bins and queueing — see the
    /// deletion-tolerant settings cited in the paper's introduction
    /// \[10, 16, 19\]).
    ///
    /// Amortized O(1) by the same counting argument as
    /// [`allocate`](Self::allocate).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or bin `i` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    /// let mut state = LoadState::from_loads(vec![2, 1]);
    /// state.deallocate(0);
    /// assert_eq!(state.load(0), 1);
    /// assert_eq!(state.balls(), 2);
    /// assert_eq!(state.max_load(), 1);
    /// ```
    #[inline]
    pub fn deallocate(&mut self, i: usize) {
        let old = self.loads[i];
        assert!(old > 0, "cannot remove a ball from an empty bin");
        let new = old - 1;
        self.loads[i] = new;
        self.balls -= 1;
        if new < self.min_load {
            self.min_load = new;
            self.bins_at_min = 1;
        } else if new == self.min_load {
            self.bins_at_min += 1;
        }
        if old == self.max_load {
            self.bins_at_max -= 1;
            if self.bins_at_max == 0 {
                // The old maximum level emptied; since loads shrink by one
                // at a time, the new maximum is exactly old maximum − 1.
                self.max_load -= 1;
                let m = self.max_load;
                self.bins_at_max = self.loads.iter().filter(|&&x| x == m).count();
            }
        }
    }

    /// Resets all loads to zero, keeping `n`.
    pub fn reset(&mut self) {
        self.loads.fill(0);
        self.balls = 0;
        self.max_load = 0;
        self.min_load = 0;
        self.bins_at_min = self.loads.len();
        self.bins_at_max = self.loads.len();
    }

    /// The normalized loads `y_i` in bin order.
    #[must_use]
    pub fn normalized_loads(&self) -> Vec<f64> {
        let avg = self.average();
        self.loads.iter().map(|&x| x as f64 - avg).collect()
    }

    /// The loads sorted in non-increasing order (the paper's convention
    /// `y_1 ⩾ y_2 ⩾ … ⩾ y_n`).
    #[must_use]
    pub fn sorted_loads_desc(&self) -> Vec<u64> {
        let mut v = self.loads.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// The normalized loads sorted in non-increasing order.
    #[must_use]
    pub fn normalized_sorted_desc(&self) -> Vec<f64> {
        let avg = self.average();
        let mut v: Vec<f64> = self.loads.iter().map(|&x| x as f64 - avg).collect();
        v.sort_unstable_by(|a, b| b.partial_cmp(a).expect("loads are finite"));
        v
    }

    /// Bin indices sorted by non-increasing load (ties by index).
    #[must_use]
    pub fn ranks_desc(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.loads.len()).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(self.loads[i]), i));
        idx
    }

    /// The number of *overloaded* bins (`y_i ⩾ 0`, the paper's `B_+^t`).
    #[must_use]
    pub fn overloaded_count(&self) -> usize {
        let avg = self.average();
        self.loads.iter().filter(|&&x| x as f64 >= avg).count()
    }

    /// The number of *underloaded* bins (`y_i < 0`, the paper's `B_−^t`).
    #[must_use]
    pub fn underloaded_count(&self) -> usize {
        self.loads.len() - self.overloaded_count()
    }

    /// Histogram of loads: map from load value to number of bins holding it.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_core::LoadState;
    /// let state = LoadState::from_loads(vec![2, 2, 0]);
    /// let hist = state.load_histogram();
    /// assert_eq!(hist[&2], 2);
    /// assert_eq!(hist[&0], 1);
    /// ```
    #[must_use]
    pub fn load_histogram(&self) -> BTreeMap<u64, usize> {
        let mut hist = BTreeMap::new();
        for &x in &self.loads {
            *hist.entry(x).or_insert(0) += 1;
        }
        hist
    }
}

/// An allocate-only batch scope over a [`LoadState`] with deferred
/// aggregate maintenance. Created by [`LoadState::batch`]; repairs the
/// aggregates when dropped (including on unwind).
#[derive(Debug)]
pub struct LoadBatch<'a> {
    state: &'a mut LoadState,
}

impl LoadBatch<'_> {
    /// A read view of the underlying state.
    ///
    /// Loads, `n`, ball count and average are exact; max/min-derived
    /// aggregates may be stale until the batch ends (see
    /// [`LoadState::batch`]).
    #[inline]
    #[must_use]
    pub fn view(&self) -> &LoadState {
        self.state
    }

    /// Places one ball into bin `i`, deferring aggregate maintenance.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[inline]
    pub fn place(&mut self, i: usize) {
        self.state.loads[i] += 1;
        self.state.balls += 1;
    }

    /// Places one ball into bin `i` whose current load the caller already
    /// holds in a register, storing `old_load + 1` without re-reading the
    /// load vector.
    ///
    /// The two-sample hot loops read both candidate loads for the
    /// comparison anyway; handing the chosen one back here removes a
    /// dependent memory access from the store path (the re-read in
    /// [`place`](Self::place) serializes a second random access behind the
    /// comparison's conditional move, which costs several ns/ball on a
    /// cold L2).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`. Debug builds additionally assert that
    /// `old_load` matches the stored load.
    #[inline]
    pub fn place_with(&mut self, i: usize, old_load: u64) {
        debug_assert_eq!(self.state.loads[i], old_load, "stale load handed to place_with");
        self.state.loads[i] = old_load + 1;
        self.state.balls += 1;
    }

    /// Places one ball into bin `i` like [`place_with`](Self::place_with)
    /// but **without** advancing the ball counter; the caller must settle
    /// the count with [`credit_balls`](Self::credit_balls) before anything
    /// reads `balls` or `average`.
    ///
    /// The per-ball `balls += 1` is a read-modify-write of one memory cell
    /// repeated every iteration — a loop-carried store-forward chain of
    /// ~5 cycles/ball that dominates the two-sample hot loops (measured in
    /// docs/PERFORMANCE.md). Kernels driving deciders that promise never
    /// to read the totals ([`Decider::totals_free`](crate::Decider::totals_free))
    /// place uncounted and credit once per run instead.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`. Debug builds additionally assert that
    /// `old_load` matches the stored load.
    #[inline]
    pub fn place_with_uncounted(&mut self, i: usize, old_load: u64) {
        debug_assert_eq!(self.state.loads[i], old_load, "stale load handed to place_with");
        self.state.loads[i] = old_load + 1;
    }

    /// Settles the ball counter for `count` prior
    /// [`place_with_uncounted`](Self::place_with_uncounted) calls.
    #[inline]
    pub fn credit_balls(&mut self, count: u64) {
        self.state.balls += count;
    }
}

impl Drop for LoadBatch<'_> {
    fn drop(&mut self) {
        self.state.repair_aggregates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bins_rejected() {
        let _ = LoadState::new(0);
    }

    #[test]
    fn copy_loads_into_matches_loads() {
        let mut rng = Rng::from_seed(5);
        let mut s = LoadState::new(9);
        for _ in 0..500 {
            s.allocate(rng.below_usize(9));
        }
        let mut snapshot = vec![0; 9];
        s.copy_loads_into(&mut snapshot);
        assert_eq!(snapshot, s.loads());
        // The snapshot is a copy: later allocations do not touch it.
        s.allocate(0);
        assert_ne!(snapshot[0], s.load(0));
    }

    #[test]
    #[should_panic]
    fn copy_loads_into_rejects_wrong_length() {
        let s = LoadState::new(3);
        let mut dst = vec![0; 2];
        s.copy_loads_into(&mut dst);
    }

    #[test]
    fn batch_matches_per_ball_allocation() {
        let mut rng = Rng::from_seed(17);
        let n = 23;
        let mut per_ball = LoadState::new(n);
        let mut batched = LoadState::new(n);
        let picks: Vec<usize> = (0..4_000).map(|_| rng.below_usize(n)).collect();
        for &i in &picks {
            per_ball.allocate(i);
        }
        {
            let mut batch = batched.batch();
            for &i in &picks {
                batch.place(i);
            }
        }
        assert_eq!(per_ball, batched);
    }

    #[test]
    fn batch_keeps_loads_and_balls_exact_mid_flight() {
        let mut state = LoadState::new(3);
        state.allocate(0);
        let mut batch = state.batch();
        batch.place(1);
        batch.place(1);
        assert_eq!(batch.view().load(1), 2);
        assert_eq!(batch.view().balls(), 3);
        assert!((batch.view().average() - 1.0).abs() < 1e-12);
        drop(batch);
        assert_eq!(state.max_load(), 2);
        assert_eq!(state.min_load(), 0);
        assert_eq!(state.spread(), 2);
    }

    #[test]
    fn batch_repair_matches_from_loads_reconstruction() {
        let mut rng = Rng::from_seed(91);
        let n = 11;
        let mut state = LoadState::new(n);
        for _ in 0..7 {
            let mut batch = state.batch();
            for _ in 0..123 {
                batch.place(rng.below_usize(n));
            }
        }
        let rebuilt = LoadState::from_loads(state.loads().to_vec());
        assert_eq!(state, rebuilt);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut state = LoadState::from_loads(vec![2, 0, 1]);
        let copy = state.clone();
        drop(state.batch());
        assert_eq!(state, copy);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_empty_loads_rejected() {
        let _ = LoadState::from_loads(vec![]);
    }

    #[test]
    fn fresh_state_invariants() {
        let s = LoadState::new(5);
        assert_eq!(s.balls(), 0);
        assert_eq!(s.max_load(), 0);
        assert_eq!(s.min_load(), 0);
        assert_eq!(s.gap(), 0.0);
        assert_eq!(s.spread(), 0);
        assert_eq!(s.integer_gap(), Some(0));
        assert_eq!(s.overloaded_count(), 5);
        assert_eq!(s.underloaded_count(), 0);
    }

    #[test]
    fn allocate_updates_aggregates() {
        let mut s = LoadState::new(3);
        s.allocate(0);
        assert_eq!((s.max_load(), s.min_load()), (1, 0));
        s.allocate(1);
        assert_eq!((s.max_load(), s.min_load()), (1, 0));
        s.allocate(2);
        // Minimum level 0 is now empty: min moves to 1.
        assert_eq!((s.max_load(), s.min_load()), (1, 1));
        assert_eq!(s.integer_gap(), Some(0));
        s.allocate(2);
        assert_eq!((s.max_load(), s.min_load()), (2, 1));
    }

    #[test]
    fn aggregates_match_recomputation_under_random_allocations() {
        let mut rng = Rng::from_seed(99);
        let mut s = LoadState::new(17);
        for t in 0..5_000u64 {
            let i = rng.below_usize(17);
            s.allocate(i);
            if t % 251 == 0 {
                let max = *s.loads().iter().max().unwrap();
                let min = *s.loads().iter().min().unwrap();
                let sum: u64 = s.loads().iter().sum();
                assert_eq!(s.max_load(), max);
                assert_eq!(s.min_load(), min);
                assert_eq!(s.balls(), sum);
            }
        }
    }

    #[test]
    fn normalized_loads_sum_to_zero() {
        let mut rng = Rng::from_seed(7);
        let mut s = LoadState::new(11);
        for _ in 0..1000 {
            s.allocate(rng.below_usize(11));
        }
        let sum: f64 = s.normalized_loads().iter().sum();
        assert!(sum.abs() < 1e-6, "normalized loads must sum to 0: {sum}");
    }

    #[test]
    fn gap_matches_definition() {
        let s = LoadState::from_loads(vec![5, 3, 1]);
        // avg = 3, max = 5, gap = 2
        assert!((s.gap() - 2.0).abs() < 1e-12);
        assert!((s.min_side_gap() - 2.0).abs() < 1e-12);
        assert_eq!(s.integer_gap(), Some(2));
        assert_eq!(s.spread(), 4);
    }

    #[test]
    fn integer_gap_requires_divisibility() {
        let s = LoadState::from_loads(vec![2, 1]);
        assert_eq!(s.integer_gap(), None);
    }

    #[test]
    fn sorted_views_are_sorted() {
        let s = LoadState::from_loads(vec![1, 9, 4, 4, 0]);
        assert_eq!(s.sorted_loads_desc(), vec![9, 4, 4, 1, 0]);
        let norm = s.normalized_sorted_desc();
        for w in norm.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let ranks = s.ranks_desc();
        assert_eq!(ranks[0], 1); // the bin with load 9
        // Ranks are consistent with the sorted loads.
        let by_rank: Vec<u64> = ranks.iter().map(|&i| s.load(i)).collect();
        assert_eq!(by_rank, s.sorted_loads_desc());
    }

    #[test]
    fn overloaded_plus_underloaded_is_n() {
        let s = LoadState::from_loads(vec![4, 2, 0, 0]);
        assert_eq!(s.overloaded_count() + s.underloaded_count(), 4);
        // avg = 1.5: bins with load 4 and 2 are overloaded.
        assert_eq!(s.overloaded_count(), 2);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut s = LoadState::new(4);
        s.allocate(0);
        s.allocate(3);
        s.reset();
        assert_eq!(s, LoadState::new(4));
    }

    #[test]
    fn histogram_counts_bins() {
        let s = LoadState::from_loads(vec![1, 1, 1, 5]);
        let h = s.load_histogram();
        assert_eq!(h.len(), 2);
        assert_eq!(h[&1], 3);
        assert_eq!(h[&5], 1);
    }

    #[test]
    fn max_abs_normalized_is_max_of_both_sides() {
        let s = LoadState::from_loads(vec![7, 1, 1]);
        // avg = 3: gap = 4, min side = 2.
        assert!((s.max_abs_normalized() - 4.0).abs() < 1e-12);
        let s = LoadState::from_loads(vec![4, 4, 1]);
        // avg = 3: gap = 1, min side = 2.
        assert!((s.max_abs_normalized() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_loads_matches_incremental_construction() {
        let mut s = LoadState::new(3);
        for i in [0usize, 0, 1, 2, 2, 2] {
            s.allocate(i);
        }
        let t = LoadState::from_loads(vec![2, 1, 3]);
        assert_eq!(s, t);
    }

    #[test]
    fn deallocate_reverses_allocate() {
        let mut s = LoadState::new(4);
        s.allocate(2);
        s.allocate(2);
        s.allocate(0);
        s.deallocate(2);
        s.deallocate(0);
        s.deallocate(2);
        assert_eq!(s, LoadState::new(4));
    }

    #[test]
    #[should_panic(expected = "empty bin")]
    fn deallocate_from_empty_bin_panics() {
        let mut s = LoadState::new(2);
        s.deallocate(0);
    }

    #[test]
    fn deallocate_updates_max_and_min() {
        let mut s = LoadState::from_loads(vec![3, 1, 1]);
        s.deallocate(0);
        assert_eq!((s.max_load(), s.min_load()), (2, 1));
        s.deallocate(0);
        assert_eq!((s.max_load(), s.min_load()), (1, 1));
        s.deallocate(1);
        assert_eq!((s.max_load(), s.min_load()), (1, 0));
    }

    #[test]
    fn mixed_allocate_deallocate_aggregates_stay_consistent() {
        let mut rng = Rng::from_seed(314);
        let n = 13;
        let mut s = LoadState::new(n);
        for t in 0..8_000u64 {
            let i = rng.below_usize(n);
            if rng.coin() || s.load(i) == 0 {
                s.allocate(i);
            } else {
                s.deallocate(i);
            }
            if t % 311 == 0 {
                assert_eq!(s.max_load(), *s.loads().iter().max().unwrap());
                assert_eq!(s.min_load(), *s.loads().iter().min().unwrap());
                assert_eq!(s.balls(), s.loads().iter().sum::<u64>());
            }
        }
    }
}
