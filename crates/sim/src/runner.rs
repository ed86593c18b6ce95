//! Running processes: single runs, repetitions, and parallel execution.
//!
//! Reproducibility contract: the result of every run is a pure function of
//! `(process configuration, RunConfig)`. Repetition `i` of an experiment
//! with master seed `s` uses the derived seed
//! [`run_seed(s, i)`](balloc_core::rng::run_seed), so sequential and
//! parallel execution produce **identical** results.
//!
//! The step loop is a monomorphized driver over
//! [`Process::run_batch`](balloc_core::Process::run_batch): instrumentation
//! lives behind the [`StepObserver`] hook, so an unobserved run
//! ([`NoObserver`]) compiles down to a single `run_batch` call on the
//! concrete process type — no per-ball virtual dispatch, no checkpoint
//! bookkeeping — while gap tracing ([`GapTrace`]) only pauses the batched
//! engine at its checkpoints.
//!
//! Execution is delegated to the vendored [`workpool`] work-stealing pool:
//! [`repeat`]/[`repeat_traced`] are thin wrappers over
//! [`workpool::par_map_indexed`], and [`repeat_grid`] schedules a whole
//! `configs × runs` grid as **one** flattened task set, so multi-point
//! experiments saturate every core even when single points have few
//! repetitions.

use balloc_core::rng::run_seed;
use balloc_core::{LoadState, Process, Rng};
use serde::{Deserialize, Serialize};

use crate::config::{Checkpoints, RunConfig};

/// A `(step, gap)` trace point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Number of balls allocated when the sample was taken.
    pub step: u64,
    /// `Gap(step)`.
    pub gap: f64,
}

/// The outcome of a single run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The configuration that produced this result.
    pub config: RunConfig,
    /// Final gap `Gap(m) = max_i x_i − m/n`.
    pub gap: f64,
    /// Final integer gap, when `m` is divisible by `n` (paper convention).
    pub integer_gap: Option<i64>,
    /// Final maximum load.
    pub max_load: u64,
    /// Final minimum load.
    pub min_load: u64,
    /// Gap trace at the requested checkpoints (empty when not requested).
    pub trace: Vec<TracePoint>,
}

impl RunResult {
    /// The integer gap if defined, otherwise the rounded real gap.
    ///
    /// Used for gap-distribution histograms (Tables 12.3/12.4 report
    /// integer gaps at `m = 1000·n`).
    #[must_use]
    pub fn gap_bucket(&self) -> i64 {
        self.integer_gap.unwrap_or_else(|| self.gap.round() as i64)
    }
}

/// A hook observing the state of a run at self-chosen step counts.
///
/// The driver behind [`run_observed`] runs the process's batched engine in
/// segments: before each segment it asks the observer for its next stop,
/// runs [`Process::run_batch`] up to it, and hands the observer the state.
/// An observer that never stops ([`NoObserver`]) therefore costs exactly
/// nothing: the driver monomorphizes to a single `run_batch` call, with no
/// per-ball (or even per-segment) instrumentation in the hot loop.
pub trait StepObserver {
    /// The next step count (balls allocated within this drive, exclusive of
    /// already-completed `done`) at which the driver must pause and call
    /// [`record`](Self::record), or `None` to run to the end uninterrupted.
    ///
    /// Returned targets are clamped to `(done, total]` by the driver, so an
    /// observer cannot stall progress.
    fn next_stop(&mut self, done: u64, total: u64) -> Option<u64>;

    /// Called with the live state at every stop returned by
    /// [`next_stop`](Self::next_stop) (after clamping). Not called at the
    /// end of a run unless the final step was itself a requested stop.
    fn record(&mut self, state: &LoadState);
}

/// The zero-cost observer: never stops, never records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoObserver;

impl StepObserver for NoObserver {
    #[inline]
    fn next_stop(&mut self, _done: u64, _total: u64) -> Option<u64> {
        None
    }

    #[inline]
    fn record(&mut self, _state: &LoadState) {}
}

/// An observer recording `(step, gap)` trace points at fixed checkpoints.
///
/// # Examples
///
/// ```
/// use balloc_core::TwoChoice;
/// use balloc_sim::{run_observed, Checkpoints, GapTrace, RunConfig};
///
/// let mut tracer = GapTrace::at(Checkpoints::Linear(4), 1_000);
/// let result = run_observed(
///     &mut TwoChoice::classic(),
///     RunConfig::new(32, 1_000, 3),
///     &mut tracer,
/// );
/// let trace = tracer.into_trace();
/// assert_eq!(trace.len(), 4);
/// assert_eq!(trace.last().unwrap().step, 1_000);
/// assert!((trace.last().unwrap().gap - result.gap).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GapTrace {
    stops: Vec<u64>,
    next: usize,
    trace: Vec<TracePoint>,
}

impl GapTrace {
    /// An observer stopping at `checkpoints.steps(total)`.
    #[must_use]
    pub fn at(checkpoints: Checkpoints, total: u64) -> Self {
        Self::with_stops(checkpoints.steps(total))
    }

    /// An observer stopping at the given (sorted, deduplicated) step
    /// counts.
    #[must_use]
    pub fn with_stops(stops: Vec<u64>) -> Self {
        let capacity = stops.len();
        Self {
            stops,
            next: 0,
            trace: Vec::with_capacity(capacity),
        }
    }

    /// The recorded trace, in stop order. Steps are the state's absolute
    /// ball count at each stop (which differs from the relative stop step
    /// when driving a pre-loaded state).
    #[must_use]
    pub fn into_trace(self) -> Vec<TracePoint> {
        self.trace
    }
}

impl StepObserver for GapTrace {
    fn next_stop(&mut self, _done: u64, _total: u64) -> Option<u64> {
        self.stops.get(self.next).copied()
    }

    fn record(&mut self, state: &LoadState) {
        self.next += 1;
        self.trace.push(TracePoint {
            step: state.balls(),
            gap: state.gap(),
        });
    }
}

/// The monomorphized step driver: runs `steps` allocations of `process` on
/// `state` through [`Process::run_batch`], pausing only where `observer`
/// asks to look.
fn drive<P: Process, O: StepObserver>(
    process: &mut P,
    state: &mut LoadState,
    steps: u64,
    rng: &mut Rng,
    observer: &mut O,
) {
    let mut done = 0u64;
    while done < steps {
        match observer.next_stop(done, steps) {
            Some(t) => {
                let target = t.clamp(done + 1, steps);
                process.run_batch(state, target - done, rng);
                done = target;
                observer.record(state);
            }
            None => {
                // No more stops requested: run the rest uninterrupted,
                // without a phantom record at the end.
                process.run_batch(state, steps - done, rng);
                done = steps;
            }
        }
    }
}

/// Runs `process` on a fresh [`LoadState`] for `config.m` allocations.
///
/// The process is [`reset`](Process::reset) before running, so the same
/// process value can be reused across runs.
///
/// # Examples
///
/// ```
/// use balloc_core::TwoChoice;
/// use balloc_sim::{run, RunConfig};
///
/// let result = run(&mut TwoChoice::classic(), RunConfig::new(100, 10_000, 1));
/// assert_eq!(result.config.m, 10_000);
/// assert!(result.gap >= 0.0);
/// ```
#[must_use]
pub fn run<P: Process>(process: &mut P, config: RunConfig) -> RunResult {
    run_observed(process, config, &mut NoObserver)
}

/// Runs `process` under an arbitrary [`StepObserver`].
///
/// This is the primitive beneath [`run`] and [`run_traced`]: the observer
/// decides where the batched engine pauses, and whatever it records stays
/// in the observer (the returned result carries an empty trace).
pub fn run_observed<P: Process, O: StepObserver>(
    process: &mut P,
    config: RunConfig,
    observer: &mut O,
) -> RunResult {
    process.reset();
    let mut state = LoadState::new(config.n);
    let mut rng = Rng::from_seed(config.seed);
    drive(process, &mut state, config.m, &mut rng, observer);
    RunResult {
        config,
        gap: state.gap(),
        integer_gap: state.integer_gap(),
        max_load: state.max_load(),
        min_load: state.min_load(),
        trace: Vec::new(),
    }
}

/// Runs `process`, recording the gap at the given checkpoints.
#[must_use]
pub fn run_traced<P: Process>(
    process: &mut P,
    config: RunConfig,
    checkpoints: Checkpoints,
) -> RunResult {
    if matches!(checkpoints, Checkpoints::None) {
        return run_observed(process, config, &mut NoObserver);
    }
    let mut tracer = GapTrace::at(checkpoints, config.m);
    let mut result = run_observed(process, config, &mut tracer);
    result.trace = tracer.into_trace();
    result
}

/// Runs `runs` independent repetitions of an experiment, optionally in
/// parallel.
///
/// `factory` builds a fresh process for each repetition; repetition `i`
/// runs with seed `run_seed(base.seed, i)`. With any `threads ⩾ 1` the
/// returned vector is identical to the sequential result, in repetition
/// order.
///
/// # Panics
///
/// Panics if `runs == 0` or `threads == 0`.
///
/// # Examples
///
/// ```
/// use balloc_core::TwoChoice;
/// use balloc_sim::{repeat, RunConfig};
///
/// let results = repeat(
///     || TwoChoice::classic(),
///     RunConfig::new(100, 1_000, 9),
///     8,
///     2,
/// );
/// assert_eq!(results.len(), 8);
/// ```
#[must_use]
pub fn repeat<P, F>(factory: F, base: RunConfig, runs: usize, threads: usize) -> Vec<RunResult>
where
    P: Process,
    F: Fn() -> P + Sync,
{
    repeat_traced(factory, base, runs, threads, Checkpoints::None)
}

/// [`repeat`] with gap traces at the given checkpoints.
///
/// # Panics
///
/// Panics if `runs == 0` or `threads == 0`.
#[must_use]
pub fn repeat_traced<P, F>(
    factory: F,
    base: RunConfig,
    runs: usize,
    threads: usize,
    checkpoints: Checkpoints,
) -> Vec<RunResult>
where
    P: Process,
    F: Fn() -> P + Sync,
{
    assert!(runs > 0, "need at least one run");
    let mut points =
        repeat_grid_traced(&[base], |_| factory(), runs, threads, checkpoints);
    points.pop().expect("one config yields one result block")
}

/// Runs `runs` repetitions of **every** configuration in `configs` as a
/// single flattened task set on the work-stealing pool, returning one
/// result block per configuration (in configuration order).
///
/// This is the scheduling primitive behind [`crate::sweep`]: a 10-point ×
/// 100-repetition figure becomes 1 000 independent tasks stolen across all
/// workers, instead of 10 sequential 100-task regions. `factory(k)` builds
/// a fresh process for configuration `k`; repetition `i` of configuration
/// `k` runs with seed `run_seed(configs[k].seed, i)`. Results are
/// **identical for every thread count**.
///
/// # Panics
///
/// Panics if `configs` is empty, `runs == 0`, or `threads == 0`.
///
/// # Examples
///
/// ```
/// use balloc_core::TwoChoice;
/// use balloc_sim::{repeat_grid, RunConfig};
///
/// let configs = [RunConfig::new(64, 640, 1), RunConfig::new(64, 1_280, 2)];
/// let blocks = repeat_grid(&configs, |_| TwoChoice::classic(), 3, 2);
/// assert_eq!(blocks.len(), 2);
/// assert_eq!(blocks[0].len(), 3);
/// assert_eq!(blocks[1][0].config.m, 1_280);
/// ```
#[must_use]
pub fn repeat_grid<P, F>(
    configs: &[RunConfig],
    factory: F,
    runs: usize,
    threads: usize,
) -> Vec<Vec<RunResult>>
where
    P: Process,
    F: Fn(usize) -> P + Sync,
{
    repeat_grid_traced(configs, factory, runs, threads, Checkpoints::None)
}

/// [`repeat_grid`] with gap traces at the given checkpoints.
///
/// # Panics
///
/// Panics if `configs` is empty, `runs == 0`, or `threads == 0`.
#[must_use]
pub fn repeat_grid_traced<P, F>(
    configs: &[RunConfig],
    factory: F,
    runs: usize,
    threads: usize,
    checkpoints: Checkpoints,
) -> Vec<Vec<RunResult>>
where
    P: Process,
    F: Fn(usize) -> P + Sync,
{
    assert!(!configs.is_empty(), "need at least one configuration");
    assert!(runs > 0, "need at least one run");
    assert!(threads > 0, "need at least one thread");
    let total = configs.len() * runs;
    let results = workpool::par_map_indexed(threads.min(total), total, |task| {
        let k = task / runs;
        let i = (task % runs) as u64;
        let config = configs[k];
        let mut process = factory(k);
        run_traced(
            &mut process,
            config.with_seed(run_seed(config.seed, i)),
            checkpoints,
        )
    });
    let mut results = results.into_iter();
    (0..configs.len())
        .map(|_| results.by_ref().take(runs).collect())
        .collect()
}

/// Extracts the final gaps from a batch of results.
#[must_use]
pub fn gaps(results: &[RunResult]) -> Vec<f64> {
    results.iter().map(|r| r.gap).collect()
}

/// Runs `process` for `steps` allocations **on an existing state**,
/// recording the gap at the given checkpoints (relative to the state's
/// current ball count).
///
/// This is the entry point for *recovery* experiments (paper Fig. 5.3):
/// start from a corrupted vector built by [`crate::initial`] and watch the
/// gap collapse. The process is *not* reset — callers manage process state
/// explicitly here.
///
/// # Examples
///
/// ```
/// use balloc_core::{Rng, TwoChoice};
/// use balloc_sim::{initial, run_on_state, Checkpoints};
///
/// let mut state = initial::tower(100, 10, 50);
/// let mut rng = Rng::from_seed(1);
/// let trace = run_on_state(
///     &mut TwoChoice::classic(),
///     &mut state,
///     10_000,
///     Checkpoints::Linear(4),
///     &mut rng,
/// );
/// assert_eq!(trace.len(), 4);
/// // Recovery: the gap at the end is far below the initial ~49.5.
/// assert!(trace.last().unwrap().gap < 10.0);
/// ```
pub fn run_on_state<P: Process>(
    process: &mut P,
    state: &mut LoadState,
    steps: u64,
    checkpoints: Checkpoints,
    rng: &mut Rng,
) -> Vec<TracePoint> {
    let mut tracer = GapTrace::at(checkpoints, steps);
    drive(process, state, steps, rng, &mut tracer);
    tracer.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use balloc_core::TwoChoice;

    #[test]
    fn run_allocates_m_balls() {
        let r = run(&mut TwoChoice::classic(), RunConfig::new(50, 5_000, 1));
        assert!(r.integer_gap.is_some()); // 5000 divisible by 50
        assert!(r.max_load >= 100); // avg is 100
        assert!(r.min_load <= 100);
    }

    #[test]
    fn identical_seeds_identical_results() {
        let a = run(&mut TwoChoice::classic(), RunConfig::new(64, 1_000, 7));
        let b = run(&mut TwoChoice::classic(), RunConfig::new(64, 1_000, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&mut TwoChoice::classic(), RunConfig::new(64, 10_000, 1));
        let b = run(&mut TwoChoice::classic(), RunConfig::new(64, 10_000, 2));
        // Max loads could coincide, but full equality is essentially
        // impossible — compare the final state summary triple.
        assert!(
            a.gap != b.gap || a.max_load != b.max_load || a.min_load != b.min_load,
            "independent runs should differ"
        );
    }

    #[test]
    fn traced_run_records_checkpoints() {
        let r = run_traced(
            &mut TwoChoice::classic(),
            RunConfig::new(32, 1_000, 3),
            Checkpoints::Linear(4),
        );
        assert_eq!(r.trace.len(), 4);
        assert_eq!(r.trace.last().unwrap().step, 1_000);
        assert!((r.trace.last().unwrap().gap - r.gap).abs() < 1e-12);
    }

    #[test]
    fn observed_run_with_no_observer_matches_plain_run() {
        let config = RunConfig::new(64, 2_000, 9);
        let plain = run(&mut TwoChoice::classic(), config);
        let observed = run_observed(&mut TwoChoice::classic(), config, &mut NoObserver);
        assert_eq!(plain, observed);
    }

    #[test]
    fn traced_run_is_bit_identical_to_untraced() {
        // Pausing the batched engine at checkpoints must not change the
        // result: the trace is pure observation.
        let config = RunConfig::new(50, 5_000, 31);
        let untraced = run(&mut TwoChoice::classic(), config);
        for checkpoints in [
            Checkpoints::Linear(7),
            Checkpoints::Linear(100),
            Checkpoints::Geometric(2),
        ] {
            let traced = run_traced(&mut TwoChoice::classic(), config, checkpoints);
            assert_eq!(untraced.gap, traced.gap, "{checkpoints:?}");
            assert_eq!(untraced.max_load, traced.max_load, "{checkpoints:?}");
            assert_eq!(untraced.min_load, traced.min_load, "{checkpoints:?}");
        }
    }

    #[test]
    fn custom_observer_sees_requested_stops() {
        #[derive(Default)]
        struct EveryK {
            k: u64,
            seen: Vec<u64>,
        }
        impl StepObserver for EveryK {
            fn next_stop(&mut self, done: u64, total: u64) -> Option<u64> {
                Some((done + self.k).min(total))
            }
            fn record(&mut self, state: &LoadState) {
                self.seen.push(state.balls());
            }
        }
        let mut obs = EveryK {
            k: 300,
            seen: Vec::new(),
        };
        let _ = run_observed(&mut TwoChoice::classic(), RunConfig::new(16, 1_000, 1), &mut obs);
        assert_eq!(obs.seen, vec![300, 600, 900, 1000]);
    }

    #[test]
    fn observer_with_early_last_stop_records_nothing_extra() {
        // Regression: the driver must not record a phantom point for the
        // final uninterrupted segment after next_stop returns None.
        let mut tracer = GapTrace::with_stops(vec![300]);
        let _ = run_observed(
            &mut TwoChoice::classic(),
            RunConfig::new(16, 1_000, 4),
            &mut tracer,
        );
        let trace = tracer.into_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].step, 300);
    }

    #[test]
    fn ill_behaved_observer_cannot_stall_the_driver() {
        // An observer returning a stop at-or-before `done` is clamped
        // forward, so the run still terminates and allocates every ball.
        struct Stuck;
        impl StepObserver for Stuck {
            fn next_stop(&mut self, _done: u64, _total: u64) -> Option<u64> {
                Some(0)
            }
            fn record(&mut self, _state: &LoadState) {}
        }
        let r = run_observed(&mut TwoChoice::classic(), RunConfig::new(8, 40, 2), &mut Stuck);
        assert_eq!(r.config.m, 40);
    }

    #[test]
    fn parallel_equals_sequential() {
        let base = RunConfig::new(64, 2_000, 123);
        let seq = repeat(TwoChoice::classic, base, 12, 1);
        let par = repeat(TwoChoice::classic, base, 12, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn repeat_uses_derived_seeds() {
        let base = RunConfig::new(32, 500, 55);
        let results = repeat(TwoChoice::classic, base, 3, 1);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.config.seed, run_seed(55, i as u64));
        }
    }

    #[test]
    fn grid_flattens_and_orders_results() {
        let configs = [RunConfig::new(32, 320, 1), RunConfig::new(32, 640, 2)];
        let blocks = repeat_grid(&configs, |_| TwoChoice::classic(), 3, 4);
        assert_eq!(blocks.len(), 2);
        for (k, block) in blocks.iter().enumerate() {
            assert_eq!(block.len(), 3);
            for (i, result) in block.iter().enumerate() {
                assert_eq!(result.config.m, configs[k].m);
                assert_eq!(result.config.seed, run_seed(configs[k].seed, i as u64));
            }
        }
    }

    #[test]
    fn grid_parallel_equals_sequential() {
        let configs: Vec<RunConfig> =
            (0..5).map(|k| RunConfig::new(48, 960, 100 + k)).collect();
        let reference = repeat_grid(&configs, |_| TwoChoice::classic(), 4, 1);
        for threads in [2usize, 3, 7] {
            let parallel = repeat_grid(&configs, |_| TwoChoice::classic(), 4, threads);
            assert_eq!(reference, parallel, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_grid_rejected() {
        let _ = repeat_grid(&[], |_: usize| TwoChoice::classic(), 1, 1);
    }

    #[test]
    fn gap_bucket_prefers_integer_gap() {
        let r = run(&mut TwoChoice::classic(), RunConfig::new(10, 100, 1));
        assert_eq!(r.gap_bucket(), r.integer_gap.unwrap());
        let r2 = run(&mut TwoChoice::classic(), RunConfig::new(10, 101, 1));
        assert!(r2.integer_gap.is_none());
        assert_eq!(r2.gap_bucket(), r2.gap.round() as i64);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = repeat(TwoChoice::classic, RunConfig::new(4, 4, 0), 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = repeat(TwoChoice::classic, RunConfig::new(4, 4, 0), 1, 0);
    }

    #[test]
    fn results_serialize_roundtrip() {
        let r = run(&mut TwoChoice::classic(), RunConfig::new(8, 64, 2));
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
