//! Reproducible, parallel simulation harness for balanced-allocation
//! experiments.
//!
//! This crate turns the processes of `balloc-core`/`balloc-noise` into the
//! experiments of the paper's Section 12:
//!
//! * [`RunConfig`] / [`run`] / [`run_traced`] — a single seeded run with
//!   optional gap traces ([`Checkpoints`]), driven through each process's
//!   batched engine with instrumentation behind the zero-cost
//!   [`StepObserver`] hook ([`run_observed`]);
//! * [`repeat`] — parallel repetitions with derived per-run seeds
//!   (sequential ≡ parallel, always);
//! * [`repeat_grid`] — many configurations × many repetitions flattened
//!   into one task set on the vendored `workpool` work-stealing pool;
//! * [`sweep`] — one experiment per parameter value (the paper's figure
//!   series), scheduled through [`repeat_grid`];
//! * [`GapDistribution`] — the `gap : percent%` histograms of Tables
//!   12.3/12.4;
//! * [`TextTable`] / [`Report`] / [`OutputSink`] — the single output
//!   layer behind the `balloc` CLI: experiments emit tables and lines
//!   through a sink, and the same emissions render as human text,
//!   `--json`, or `--csv` without per-experiment code;
//! * [`VClock`] — a shared deterministic virtual clock with a deadline
//!   register, the time substrate of the serving layer's resilience
//!   middleware (timeouts, hedged requests, cooldowns).
//!
//! # Seeding contract
//!
//! Every random decision in an experiment is a pure function of a single
//! base seed, derived through two tagged SplitMix64 mixers from
//! `balloc_core::rng`:
//!
//! ```text
//! base seed s ──point_seed(s, j)──▶ point master (parameter index j)
//!            └──────────────────────run_seed(master, i)──▶ run seed
//! ```
//!
//! * [`repeat`] runs repetition `i` with `run_seed(base.seed, i)`.
//! * [`sweep`] gives parameter index `j` the master `point_seed(base.seed,
//!   j)`, then derives run seeds as above — so two sweeps with *nearby*
//!   base seeds (even `s` and `s + 1`) share **no** run seeds, and the two
//!   derivation layers can never alias each other (distinct domain tags).
//! * Scheduling is seed-free: thread count and work stealing only choose
//!   *where* a task runs. Results are byte-identical to `threads = 1` for
//!   every thread count.
//!
//! # Example: a miniature Fig. 12.1 point
//!
//! ```
//! use balloc_noise::GBounded;
//! use balloc_sim::{repeat, GapDistribution, RunConfig};
//!
//! let results = repeat(
//!     || GBounded::new(4),
//!     RunConfig::per_bin(500, 50, 42),
//!     10,
//!     2,
//! );
//! let dist = GapDistribution::from_results(&results);
//! println!("{dist}"); // e.g. "6 : 30%\n7 : 50%\n8 : 20%"
//! assert_eq!(dist.total(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod distribution;
pub mod initial;
mod report;
mod runner;
mod schedule;
mod sweep;
mod vclock;

pub use config::{Checkpoints, RunConfig};
pub use distribution::GapDistribution;
pub use report::{csv_escape, to_json, Block, OutputMode, OutputSink, Report, TextTable};
pub use schedule::ArrivalSchedule;
pub use runner::{
    gaps, repeat, repeat_grid, repeat_grid_traced, repeat_traced, run, run_observed, run_on_state,
    run_traced, GapTrace, NoObserver, RunResult, StepObserver, TracePoint,
};
pub use sweep::{series, sweep, sweep_traced, SweepPoint};
pub use vclock::{DeadlineExpired, VClock};
