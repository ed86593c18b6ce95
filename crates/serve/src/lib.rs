//! Sharded allocation serving front-end — the paper's noise models as a
//! systems component.
//!
//! A real load balancer never sees live load: it sees counters scraped a
//! batch ago, gossip delayed by a network round-trip, a snapshot another
//! worker refreshed. *Balanced Allocations with the Choice of Noise* (and
//! the batched follow-ups it cites) is precisely the theory of how much
//! that staleness costs, so this crate turns the theory around and builds
//! the system: a service that places balls (requests) into `n` bins
//! (backends) with Two-Choice decisions made **against stale snapshots**,
//! while the authoritative loads live in `S` shards, each an owned
//! [`LoadState`](balloc_core::LoadState) behind a worker.
//!
//! # Architecture
//!
//! ```text
//!  client workers (workpool)          shard workers (Buffer threads)
//!  ┌───────────────────────────┐       ┌─────────────────────────┐
//!  │ LoadShed                  │ cast  │ bounded queue ─ drain ─▶│
//!  │  └ InFlightLimit          │──────▶│  ShardService           │
//!  │     └ SnapshotService     │       │   owns LoadState        │
//!  │        snapshot ◀─────────│◀──────│  (bins s·n/S..(s+1)n/S) │
//!  │        (refresh: b / τ)    │ call  └─────────────────────────┘
//!  └───────────────────────────┘            × S shards
//! ```
//!
//! * [`Service`]/[`Layer`] — tower-style synchronous service traits;
//! * [`Buffer`] — bounded request buffer in front of a worker-owned
//!   service (back-pressure via [`ServeError::BufferFull`]);
//! * [`InFlightLimit`]/[`Permits`] — a fleet-wide concurrency cap;
//! * [`LoadShed`]/[`ShedCounter`] — converts back-pressure into counted,
//!   typed drops;
//! * [`SnapshotAllocator`]/[`Staleness`] — the decision state: private
//!   snapshots refreshed every `b` own requests (`b-Batch`) or at age `τ`
//!   (`τ-Delay`);
//! * [`run_concurrent`]/[`run_replay`] — the closed-loop engine and its
//!   single-threaded replay twin, a loop over the [`Turnstile`] step;
//! * [`Ledger`]/[`Counters`] — the one conservation identity and the one
//!   counter shape every engine and layer shares.
//!
//! There is one store (the shards) and one snapshot path (a buffered
//! [`ShardRequest::ReadLoads`] round-trip per shard): the paper's
//! b-Batch/τ-Delay noise makes the gap depend on how stale a snapshot
//! is, not on how it is read. [`SnapshotPath`] and [`BackendKind`] say
//! why each keeps a single variant.
//!
//! # Resilience middleware
//!
//! On top of the pressure layers sits a resilience suite, every layer a
//! deterministic synchronous port of a classic (tower/Finagle) pattern
//! onto the [`VClock`](balloc_sim::VClock) virtual clock:
//!
//! * [`Retry`] — budgeted retries of transient faults (token-bucket
//!   budget, never retries pressure or an open breaker);
//! * [`Hedge`] — duplicate a request once its first attempt outlives a
//!   latency-percentile delay: the paper's "second choice", taken in
//!   *time* instead of space;
//! * [`Timeout`] — per-attempt deadlines with side-effect-free aborts;
//! * [`RateLimit`] — clock-driven token-bucket admission control;
//! * [`CircuitBreaker`] — closed/open/half-open over a rolling failure
//!   window;
//! * [`FaultPlan`]/[`FaultKind`] — the adversaries: slow, stalled, and
//!   erroring shards, plus `g`-Adv-Comp load corruption via
//!   [`LoadCorruptor`](balloc_noise::LoadCorruptor);
//! * [`run_resilient`] — drives fault plan against policy and checks
//!   the four-way [`Ledger`]: every request ends exactly once —
//!   allocated, shed, timed out, or broken.
//!
//! # Determinism contract
//!
//! [`run_replay`] decisions are a pure function of `(config, seed)`:
//! two runs at the same seed produce bit-identical decision streams
//! (asserted via [`ReplayOutcome::digest`]), final loads, gaps, and
//! counts. Worker `w`'s RNG stream derives via
//! [`point_seed`](balloc_core::rng::point_seed)`(seed, w)` — the same
//! mixer discipline as the sweep engine, so serving never shares streams
//! with the simulation experiments. [`run_concurrent`] keeps the exact
//! *conservation* guarantees (`allocated + shed == requests`, final state
//! holds exactly `allocated` balls) but lets the decision stream race —
//! measuring that race against the replayed baseline is the point of the
//! `balloc serve_bench` experiment.
//!
//! # Examples
//!
//! ```
//! use balloc_serve::{run_concurrent, run_replay, ServeConfig};
//!
//! let cfg = ServeConfig::demo(128, 4, 2022);
//! let live = run_concurrent(&cfg);
//! assert_eq!(live.allocated + live.shed, cfg.requests);
//!
//! let replay = run_replay(&cfg);
//! assert_eq!(replay.outcome.allocated, cfg.requests);
//! assert_eq!(replay.digest, run_replay(&cfg).digest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod autoscale;
mod breaker;
mod buffer;
mod churn;
mod cluster;
mod counters;
mod directory;
mod engine;
mod fault;
mod hedge;
mod ledger;
mod limit;
mod rate;
mod resilience;
mod retry;
mod service;
mod shard;
mod shed;
mod sink;
mod snapshot;
mod timeout;

pub use autoscale::{AutoscaleConfig, Autoscaler, ScaleAction};
pub use breaker::{
    BreakerConfig, BreakerEvent, BreakerState, BreakerStats, CircuitBreaker, CircuitBreakerLayer,
};
pub use buffer::{Buffer, BufferController};
pub use churn::{run_churn, ChurnConfig, ChurnOutcome, ChurnReport, PlannedChange};
pub use cluster::{DirectCluster, ShardCluster, ShardHandle, ShardWorkerHook};
pub use counters::{CounterEvent, Counters};
pub use directory::{
    BinMove, Change, MembershipEpoch, RebalanceKind, ShardDirectory, ShardId,
};
pub use engine::{
    run_concurrent, run_replay, worker_share, worker_stack, BackendKind, ReplayOutcome,
    ServeConfig, ServeOutcome, SnapshotPath, Turnstile, WorkerStack,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultStats, FaultyShard, ShardRole};
pub use hedge::{
    Hedge, HedgeConfig, HedgeEvent, HedgeLayer, HedgeStats, HedgeSteer, LatencyHistogram,
};
pub use ledger::Ledger;
pub use limit::{InFlightLimit, InFlightLimitLayer, Permits};
pub use rate::{RateEvent, RateLimit, RateLimitConfig, RateLimitLayer, RateStats};
pub use resilience::{
    run_resilient, Policy, ResilienceConfig, ResilienceOutcome, ResilienceReport,
};
pub use retry::{retryable, Retry, RetryBudget, RetryConfig, RetryEvent, RetryLayer, RetryStats};
pub use service::{decide, Layer, NoiseMode, Request, Response, ServeError, Service};
pub use shard::{merge_states, ShardRequest, ShardResponse, ShardService};
pub use shed::{LoadShed, LoadShedLayer, ShedCause, ShedCounter};
pub use sink::{LoadSink, ServeClock, SnapshotService};
pub use snapshot::{SnapshotAllocator, Staleness};
pub use timeout::{Timeout, TimeoutEvent, TimeoutLayer, TimeoutStats};
