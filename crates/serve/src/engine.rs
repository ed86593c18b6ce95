//! The serve engine: closed-loop concurrent serving and deterministic
//! single-threaded replay.
//!
//! Both engines give worker `w` a [`SnapshotService`] whose decision
//! state is seeded with [`point_seed`]`(seed, w)`. They differ in the
//! store and the schedule:
//!
//! * [`run_concurrent`] drives `workers` OS threads through
//!   `workpool::par_map_indexed`, each serving through its
//!   [`worker_stack`] over a buffered [`ShardCluster`]. Snapshot
//!   refreshes race with applies, so decisions (and the achieved gap)
//!   vary run to run while totals are exact;
//! * [`run_replay`] is a loop over a [`Turnstile`]: the workers' services
//!   over one direct store, request `t` served by worker `t mod W` on the
//!   calling thread. The store never rejects and one request is in
//!   flight, so no shed or in-flight layer is needed, and the decision
//!   stream is a pure function of the seed — bit-identical across runs,
//!   digestible, and diffable. The TCP reactor's replay mode drives the
//!   same turnstile, one connection per worker.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use balloc_core::rng::{point_seed, Fnv1a};
use balloc_core::LoadState;

use crate::cluster::{DirectCluster, ShardCluster};
use crate::ledger::Ledger;
use crate::limit::{InFlightLimit, InFlightLimitLayer, Permits};
use crate::service::{Layer, Request, ServeError, Service};
use crate::shed::{LoadShed, LoadShedLayer, ShedCause, ShedCounter};
use crate::sink::{LoadSink, ServeClock, SnapshotService};
use crate::snapshot::{SnapshotAllocator, Staleness};

/// Which authoritative load store backs the service.
///
/// A single variant: the shards are the only store. The enum stays
/// because configurations, the `perfbench` benchmark's included, name
/// their store in [`ServeConfig`] literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `S` shards, each an owned [`LoadState`] behind a buffer worker
    /// (replay: called directly).
    Sharded,
}

/// How concurrent-mode snapshot refreshes read the sharded loads (replay
/// always reads shards directly).
///
/// A single variant: the gap depends on how stale a snapshot is, not on
/// how it is read, and a lock-free striped mirror measured at parity
/// with this path (`docs/PERFORMANCE.md`). The enum stays because
/// configurations, the `perfbench` benchmark's included, name their
/// snapshot path in [`ServeConfig`] literals and
/// [`ShardCluster::spawn`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPath {
    /// Round-trip a [`ShardRequest::ReadLoads`](crate::ShardRequest::ReadLoads)
    /// through every shard's request buffer. Reads serialize behind
    /// queued applies and each reply allocates — refresh cost grows as
    /// `workers × shards` blocking calls.
    #[default]
    Buffered,
}

/// Configuration of one serve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of bins.
    pub n: usize,
    /// Number of shards.
    pub shards: usize,
    /// Serving workers (threads in concurrent mode, virtual round-robin
    /// workers in replay mode).
    pub workers: usize,
    /// Total requests across all workers.
    pub requests: u64,
    /// The request template every client issues.
    pub request: Request,
    /// Snapshot refresh policy.
    pub staleness: Staleness,
    /// Capacity of each shard's request buffer.
    pub buffer_capacity: usize,
    /// Optional in-flight limit across all workers (`None` = unlimited).
    pub inflight: Option<usize>,
    /// The authoritative load store.
    pub backend: BackendKind,
    /// How concurrent-mode snapshot refreshes read the sharded loads.
    pub snapshot: SnapshotPath,
    /// Master seed; worker `w`'s RNG stream derives via
    /// [`point_seed`]`(seed, w)`.
    pub seed: u64,
}

impl ServeConfig {
    /// A small, fast configuration used by tests and doctests.
    #[must_use]
    pub fn demo(n: usize, shards: usize, seed: u64) -> Self {
        Self {
            n,
            shards,
            workers: 2,
            requests: (n as u64) * 8,
            request: Request::two_choice(),
            staleness: Staleness::Batch { b: n as u64 },
            buffer_capacity: 1024,
            inflight: None,
            backend: BackendKind::Sharded,
            snapshot: SnapshotPath::Buffered,
            seed,
        }
    }

    fn validate(&self) {
        validate_shape(self.n, self.shards, self.workers, self.staleness);
        assert!(self.buffer_capacity > 0, "buffer capacity must be positive");
        assert!(
            self.inflight != Some(0),
            "in-flight limit must be positive (use None for unlimited)"
        );
    }
}

/// Asserts the shape every replayable engine shares: bins, workers,
/// `shards ∈ 1..=n`, and a usable staleness. `ShardDirectory::uniform`
/// re-checks the shards, but this fails early with the full story.
pub(crate) fn validate_shape(n: usize, shards: usize, workers: usize, staleness: Staleness) {
    assert!(n > 0, "need at least one bin");
    assert!(workers > 0, "need at least one worker");
    assert!(
        shards > 0 && shards <= n,
        "shards must lie in 1..=n (got {shards} shards over {n} bins)"
    );
    staleness.validate();
}

/// Requests worker `w` serves under the engines' round-robin split of
/// `requests` over `workers` — the first `requests mod workers` workers
/// carry one extra. Public because the TCP load generator must issue
/// exactly this split per connection for its replay digest to line up
/// with [`run_replay`]'s.
#[must_use]
pub fn worker_share(requests: u64, workers: usize, w: usize) -> u64 {
    let per = requests / workers as u64;
    let extra = requests % workers as u64;
    per + u64::from((w as u64) < extra)
}

/// What a serve run did, measured on the authoritative end state.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Requests issued (= [`ServeConfig::requests`]).
    pub requests: u64,
    /// Requests that placed a ball.
    pub allocated: u64,
    /// Requests shed by the load-shed layer (buffer full / at capacity).
    pub shed: u64,
    /// Sheds attributed to a full shard buffer — the per-cause split of
    /// [`shed`](Self::shed) (the causes always sum to it).
    pub shed_buffer_full: u64,
    /// Sheds attributed to the in-flight limit.
    pub shed_at_capacity: u64,
    /// Snapshot refreshes summed over workers.
    pub refreshes: u64,
    /// Wall-clock time of the closed loop.
    pub elapsed: Duration,
    /// Requests per second over the closed loop (allocated + shed).
    pub throughput_rps: f64,
    /// Gap of the final authoritative load vector,
    /// `max_i x_i − allocated/n`.
    pub gap: f64,
    /// Maximum final bin load.
    pub max_load: u64,
}

/// A replayed run: the [`ServeOutcome`] plus the decision-stream digest.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The run's measurements (every field except
    /// [`elapsed`](ServeOutcome::elapsed) /
    /// [`throughput_rps`](ServeOutcome::throughput_rps) is deterministic).
    pub outcome: ServeOutcome,
    /// FNV-1a digest of the decision stream (chosen bin per request, in
    /// issue order) — two replays at the same config and seed produce the
    /// same digest, byte for byte.
    pub digest: u64,
}

/// A worker's per-request serving stack: `LoadShed(InFlightLimit(leaf))`.
pub type WorkerStack<K> = LoadShed<InFlightLimit<SnapshotService<K>>>;

/// Wraps `leaf` in the per-request stack, drawing from the shared
/// `permits` and recording sheds into `shed`.
#[must_use]
pub fn worker_stack<K: LoadSink>(
    leaf: SnapshotService<K>,
    permits: &Permits,
    shed: &ShedCounter,
) -> WorkerStack<K> {
    let limited = InFlightLimitLayer::new(permits.clone()).layer(leaf);
    LoadShedLayer::new(shed.clone()).layer(limited)
}

/// The deterministic replay step: `W` [`SnapshotService`]s over one
/// shared direct store and one [`ServeClock`], where request `t` is
/// served by worker `t mod W`.
#[derive(Debug)]
pub struct Turnstile {
    workers: Vec<SnapshotService<Rc<RefCell<DirectCluster>>>>,
    /// Requests served so far.
    t: u64,
}

impl Turnstile {
    /// `workers` services over `store`, worker `w` seeded with
    /// [`point_seed`]`(seed, w)`.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or the staleness parameter is zero.
    #[must_use]
    pub fn new(
        store: &Rc<RefCell<DirectCluster>>,
        workers: usize,
        staleness: Staleness,
        seed: u64,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        let n = store.borrow().directory().n();
        let clock = ServeClock::new();
        let service = |w: usize| {
            let alloc = SnapshotAllocator::new(n, staleness, point_seed(seed, w as u64));
            SnapshotService::new(alloc, Rc::clone(store), clock.clone())
        };
        Self {
            workers: (0..workers).map(service).collect(),
            t: 0,
        }
    }

    /// The worker that serves the next request.
    #[must_use]
    pub fn next_worker(&self) -> usize {
        (self.t % self.workers.len() as u64) as usize
    }

    /// Serves the next request on [`next_worker`](Self::next_worker) and
    /// returns the chosen bin.
    pub fn serve(&mut self, req: &Request) -> usize {
        let w = self.next_worker();
        self.t += 1;
        let resp = self.workers[w].call(*req);
        resp.expect("direct sinks cannot reject").bin
    }

    /// Snapshot refreshes summed over the workers.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.workers.iter().map(SnapshotService::refreshes).sum()
    }
}

/// Per-worker closed-loop counters.
#[derive(Default)]
struct WorkerStats {
    allocated: u64,
    shed: u64,
    refreshes: u64,
}

/// Runs one worker's closed loop over its share of the requests.
fn worker_loop<K: LoadSink>(
    cfg: &ServeConfig,
    w: usize,
    sink: K,
    clock: ServeClock,
    permits: &Permits,
    shed: &ShedCounter,
) -> WorkerStats {
    let alloc = SnapshotAllocator::new(cfg.n, cfg.staleness, point_seed(cfg.seed, w as u64));
    let mut stack = worker_stack(SnapshotService::new(alloc, sink, clock), permits, shed);
    let mut stats = WorkerStats::default();
    for _ in 0..worker_share(cfg.requests, cfg.workers, w) {
        match stack.call(cfg.request) {
            Ok(_) => stats.allocated += 1,
            Err(ServeError::Shed) => stats.shed += 1,
            Err(e) => panic!("serve worker {w} hit a non-shed failure: {e}"),
        }
    }
    stats.refreshes = stack.into_inner().into_inner().refreshes();
    stats
}

/// Runs the closed-loop **concurrent** engine: `workers` threads hammer
/// the layered service as fast as they can until the request budget is
/// spent, then the shard workers are drained and joined and the outcome
/// is measured on the reassembled authoritative state.
///
/// Totals are exact (`allocated + shed == requests`, and the final state
/// holds exactly `allocated` balls); the decision stream is *not*
/// deterministic — that is [`run_replay`]'s contract.
///
/// # Panics
///
/// Panics on an invalid configuration (zero bins/workers/capacity,
/// `shards ∉ 1..=n`) or if a worker hits a non-shed failure.
///
/// # Examples
///
/// ```
/// use balloc_serve::{run_concurrent, ServeConfig};
///
/// let outcome = run_concurrent(&ServeConfig::demo(64, 4, 7));
/// assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
/// ```
#[must_use]
pub fn run_concurrent(cfg: &ServeConfig) -> ServeOutcome {
    cfg.validate();
    let clock = ServeClock::new();
    // No explicit limit ⇒ one permit per worker, which can never bind
    // (each closed-loop worker has at most one request in flight).
    let permits = Permits::new(cfg.inflight.unwrap_or(cfg.workers));
    let shed = ShedCounter::new();
    let cluster = ShardCluster::spawn(cfg.n, cfg.shards, cfg.buffer_capacity, cfg.snapshot, None);
    let handle = cluster.handle();
    // balloc-lint: allow(L002): real-throughput measurement only — the
    // elapsed Duration is reported, never fed into allocation decisions.
    let start = Instant::now();
    let stats = workpool::par_map_indexed(cfg.workers, cfg.workers, |w| {
        worker_loop(cfg, w, handle.clone(), clock.clone(), &permits, &shed)
    });
    let elapsed = start.elapsed();
    drop(handle);
    let state = cluster.join();
    finish(cfg, stats, elapsed, &shed, &state)
}

/// Folds worker stats and the final state into a [`ServeOutcome`],
/// checking the conservation [`Ledger`].
fn finish(
    cfg: &ServeConfig,
    stats: Vec<WorkerStats>,
    elapsed: Duration,
    shed: &ShedCounter,
    state: &LoadState,
) -> ServeOutcome {
    let ledger = Ledger {
        allocated: stats.iter().map(|s| s.allocated).sum(),
        shed: stats.iter().map(|s| s.shed).sum(),
        ..Ledger::default()
    };
    ledger.check(cfg.requests, state.balls(), shed);
    let secs = elapsed.as_secs_f64();
    ServeOutcome {
        requests: cfg.requests,
        allocated: ledger.allocated,
        shed: ledger.shed,
        shed_buffer_full: shed.get(ShedCause::BufferFull),
        shed_at_capacity: shed.get(ShedCause::AtCapacity),
        refreshes: stats.iter().map(|s| s.refreshes).sum(),
        elapsed,
        throughput_rps: if secs > 0.0 { cfg.requests as f64 / secs } else { 0.0 },
        gap: state.gap(),
        max_load: state.max_load(),
    }
}

/// Runs the **deterministic replay** engine: a loop over a
/// [`Turnstile`] with the same per-worker seeds as [`run_concurrent`],
/// so the decision stream — and therefore the digest, the final loads,
/// the gap, and every count — is a pure function of the configuration
/// and seed.
///
/// This is the serving layer's extension of the workspace determinism
/// contract: run it twice at the same seed and compare
/// [`ReplayOutcome::digest`] bit for bit.
///
/// # Panics
///
/// Panics on an invalid configuration, like [`run_concurrent`].
///
/// # Examples
///
/// ```
/// use balloc_serve::{run_replay, ServeConfig};
///
/// let cfg = ServeConfig::demo(64, 4, 7);
/// let a = run_replay(&cfg);
/// let b = run_replay(&cfg);
/// assert_eq!(a.digest, b.digest);
/// assert_eq!(a.outcome.gap, b.outcome.gap);
/// ```
#[must_use]
pub fn run_replay(cfg: &ServeConfig) -> ReplayOutcome {
    cfg.validate();
    let store = Rc::new(RefCell::new(DirectCluster::new(cfg.n, cfg.shards)));
    let mut turnstile = Turnstile::new(&store, cfg.workers, cfg.staleness, cfg.seed);
    let mut digest = Fnv1a::new();
    // balloc-lint: allow(L002): wall-clock timing of the replay itself;
    // the decision digest above never reads it.
    let start = Instant::now();
    for _ in 0..cfg.requests {
        digest.write_u64(turnstile.serve(&cfg.request) as u64);
    }
    let elapsed = start.elapsed();
    let stats = vec![WorkerStats {
        allocated: cfg.requests,
        shed: 0,
        refreshes: turnstile.refreshes(),
    }];
    let state = store.borrow().state();
    ReplayOutcome {
        outcome: finish(cfg, stats, elapsed, &ShedCounter::new(), &state),
        digest: digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::NoiseMode;

    #[test]
    fn concurrent_conserves_every_request() {
        let mut cfg = ServeConfig::demo(64, 4, 3);
        cfg.workers = 4;
        let outcome = run_concurrent(&cfg);
        assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
        assert_eq!(outcome.requests, cfg.requests);
        assert!(outcome.refreshes >= cfg.workers as u64, "each worker primes once");
    }

    #[test]
    fn replay_is_bit_identical_across_runs() {
        let mut cfg = ServeConfig::demo(64, 4, 11);
        cfg.workers = 3;
        let a = run_replay(&cfg);
        let b = run_replay(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outcome.gap, b.outcome.gap);
        assert_eq!(a.outcome.max_load, b.outcome.max_load);
        assert_eq!(a.outcome.allocated, b.outcome.allocated);
    }

    #[test]
    fn turnstile_serves_workers_in_order_t_mod_w() {
        // Reference: the replay step written out by hand — worker
        // t mod W refreshes from the live loads when stale at global step
        // t, decides, and applies.
        let req = Request::two_choice();
        for staleness in [Staleness::Batch { b: 8 }, Staleness::Delay { tau: 10 }] {
            let store = Rc::new(RefCell::new(DirectCluster::new(64, 4)));
            let mut turnstile = Turnstile::new(&store, 3, staleness, 5);
            let mut reference: Vec<SnapshotAllocator> = (0..3)
                .map(|w| SnapshotAllocator::new(64, staleness, point_seed(5, w)))
                .collect();
            let mut loads = vec![0u64; 64];
            for t in 0..300u64 {
                let w = (t % 3) as usize;
                assert_eq!(turnstile.next_worker(), w, "t = {t}");
                let alloc = &mut reference[w];
                if alloc.needs_refresh(t) {
                    alloc.snapshot_mut().copy_from_slice(&loads);
                    alloc.note_refresh(t);
                }
                let expect = alloc.decide(&req);
                loads[expect] += 1;
                assert_eq!(turnstile.serve(&req), expect, "{staleness}, t = {t}");
            }
            let refreshes: u64 = reference.iter().map(SnapshotAllocator::refreshes).sum();
            assert_eq!(turnstile.refreshes(), refreshes, "{staleness}");
            assert_eq!(store.borrow().state().loads(), &loads[..], "{staleness}");
        }
    }

    #[test]
    fn replay_differs_across_seeds() {
        let a = run_replay(&ServeConfig::demo(64, 2, 1));
        let b = run_replay(&ServeConfig::demo(64, 2, 2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn replay_shards_do_not_change_decisions() {
        // Sharding is a storage layout, not a policy: at a fixed seed the
        // decision stream is identical whatever S is, because decisions
        // only ever read snapshots of the same global vector.
        let digests: Vec<u64> = [1usize, 2, 8]
            .into_iter()
            .map(|shards| run_replay(&ServeConfig::demo(64, shards, 9)).digest)
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn fresher_snapshots_give_smaller_gaps() {
        let n = 256;
        let gap_of = |b: u64| {
            let mut cfg = ServeConfig::demo(n, 4, 17);
            cfg.workers = 1;
            cfg.requests = (n as u64) * 64;
            cfg.staleness = Staleness::Batch { b };
            run_replay(&cfg).outcome.gap
        };
        let fresh = gap_of(1);
        let stale = gap_of((n as u64) * 16);
        assert!(
            fresh < stale,
            "b = 1 gap {fresh} should beat b = 16n gap {stale}"
        );
    }

    #[test]
    fn one_choice_requests_ignore_staleness() {
        // d = 1 never reads the snapshot, so extreme staleness changes
        // nothing about the gap's order of magnitude vs fresh One-Choice.
        let mut cfg = ServeConfig::demo(128, 2, 23);
        cfg.request = Request {
            d: 1,
            noise: NoiseMode::Snapshot,
        };
        cfg.staleness = Staleness::Batch { b: 1_000_000 };
        let outcome = run_replay(&cfg).outcome;
        assert_eq!(outcome.allocated, cfg.requests);
    }

    #[test]
    fn tiny_inflight_limit_sheds_under_contention() {
        // With 4 threads and a single permit, some calls must collide and
        // shed; totals still conserve.
        let mut cfg = ServeConfig::demo(64, 2, 29);
        cfg.workers = 4;
        cfg.inflight = Some(1);
        let outcome = run_concurrent(&cfg);
        assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
    }

    #[test]
    fn per_cause_shed_split_preserves_pr5_conservation() {
        // Regression for the ShedCounter per-cause split: the original
        // conservation assertions (allocated + shed == requests, the
        // layer counter agrees with the per-worker tallies, the drained
        // state holds every allocated ball — all re-asserted inside
        // `finish`) must hold unchanged, and the new cause counters must
        // sum to the old total.
        let mut cfg = ServeConfig::demo(64, 2, 29);
        cfg.workers = 4;
        cfg.inflight = Some(1);
        let outcome = run_concurrent(&cfg);
        assert_eq!(outcome.allocated + outcome.shed, outcome.requests);
        assert_eq!(
            outcome.shed_buffer_full + outcome.shed_at_capacity,
            outcome.shed,
            "per-cause counters must sum to the total shed count"
        );
    }

    #[test]
    fn delay_staleness_serves_end_to_end() {
        let mut cfg = ServeConfig::demo(64, 2, 31);
        cfg.staleness = Staleness::Delay { tau: 64 };
        let replay = run_replay(&cfg);
        assert_eq!(replay.outcome.allocated, cfg.requests);
        assert!(replay.outcome.refreshes > cfg.workers as u64);
        let live = run_concurrent(&cfg);
        assert_eq!(live.allocated + live.shed, cfg.requests);
    }

    #[test]
    #[should_panic(expected = "shards must lie in 1..=n")]
    fn invalid_shard_count_rejected() {
        let cfg = ServeConfig::demo(4, 8, 0);
        let _ = run_concurrent(&cfg);
    }

    #[test]
    #[should_panic(expected = "in-flight limit must be positive")]
    fn zero_inflight_limit_rejected() {
        // Regression: Some(0) used to be silently clamped to a limit of
        // 1, serving everything instead of surfacing the misconfiguration.
        let mut cfg = ServeConfig::demo(8, 2, 0);
        cfg.inflight = Some(0);
        let _ = run_concurrent(&cfg);
    }
}
