//! Ablation **A9**: the sharded serving front-end under snapshot
//! staleness.
//!
//! `balloc-serve` serves `allocate(d)` decisions from per-worker
//! snapshots refreshed every `b` requests (`b-Batch`) or at age `τ`
//! (`τ-Delay`), while the authoritative loads live in `S` shards behind
//! buffer workers. This experiment drives the closed-loop engine over a
//! `shards × staleness` grid and reports, per cell:
//!
//! * **throughput** (requests/s through the layered stack, concurrent
//!   engine), and
//! * **achieved gap** of the final authoritative load vector, next to the
//!   `b-Batch` theory term `batch_gap(n, b_global)` — the paper's price
//!   list for the staleness knob.
//!
//! The replay table re-runs every cell on the deterministic
//! single-threaded engine: digests there are bit-identical across runs at
//! a fixed seed (checked in-process by running the first cell twice), so
//! `balloc serve_bench --replay --json` is byte-stable — the serving
//! layer's extension of the workspace determinism contract.

use balloc_analysis::bounds::batch_gap;
use balloc_serve::{
    run_concurrent, run_replay, BackendKind, NoiseMode, Request, ServeConfig, SnapshotPath,
    Staleness,
};
use balloc_sim::{OutputSink, Report, TextTable};
use serde::Serialize;

use crate::{emit_header, experiment_seed, fmt3, BenchError, CommonArgs, FlagKind, FlagSpec};

use super::Experiment;

#[derive(Serialize)]
struct ConcurrentCell {
    shards: usize,
    staleness: String,
    /// The global batch-size equivalent the theory term is evaluated at.
    b_global: u64,
    throughput_rps: f64,
    gap: f64,
    allocated: u64,
    shed: u64,
    refreshes: u64,
    theory_term: f64,
}

#[derive(Serialize)]
struct ReplayCell {
    shards: usize,
    staleness: String,
    digest: String,
    gap: f64,
    max_load: u64,
    allocated: u64,
    refreshes: u64,
}

#[derive(Serialize)]
struct ServeBenchArtifact {
    scale: String,
    workers: usize,
    d: usize,
    sigma: f64,
    backend: String,
    snapshot: String,
    buffer_capacity: usize,
    inflight: Option<usize>,
    requests_per_cell: u64,
    /// Hardware threads the host exposed to this run.
    cpus: usize,
    /// Present iff the host exposes a single hardware thread: the
    /// concurrent table then measures overhead, not parallel speedup.
    cpu_caveat: Option<String>,
    concurrent: Vec<ConcurrentCell>,
    replay: Vec<ReplayCell>,
}

/// The honesty note for single-CPU hosts. With one hardware thread the
/// concurrent engine's threads time-slice instead of running in parallel,
/// so throughput numbers quantify scheduling and synchronization overhead
/// only — any reader comparing shard counts on such a host must know that.
fn single_core_caveat(cpus: usize) -> Option<String> {
    (cpus == 1).then(|| {
        "overhead-only: this host exposes 1 hardware thread, so concurrent throughput \
         measures scheduling/synchronization overhead, not parallel speedup"
            .to_string()
    })
}

/// `balloc serve_bench` — see the module docs.
pub struct ServeBench;

/// The staleness axis of the grid for `n` bins: three `b-Batch` points
/// spanning fresh-ish to herding, plus the `τ-Delay` point at `τ = n`.
fn staleness_grid(n: usize) -> Vec<Staleness> {
    let n = n as u64;
    vec![
        Staleness::Batch { b: (n / 16).max(1) },
        Staleness::Batch { b: n },
        Staleness::Batch { b: 16 * n },
        Staleness::Delay { tau: n },
    ]
}

/// The `b`-equivalent a staleness knob exposes to the theory term: a
/// per-worker batch of `b` is a global batch of `≈ b · workers`; a delay
/// of `τ` corresponds to `b ≈ τ` (Theorem 10.2's reduction).
fn b_global(staleness: Staleness, workers: usize) -> u64 {
    match staleness {
        Staleness::Batch { b } => b.saturating_mul(workers as u64).max(1),
        Staleness::Delay { tau } => tau.max(1),
    }
}

impl Experiment for ServeBench {
    fn id(&self) -> &'static str {
        "serve_bench"
    }

    fn paper_ref(&self) -> &'static str {
        "Ablation A9 (serving from stale snapshots: Theorems 2.4, 2.5, Corollary 10.4)"
    }

    fn description(&self) -> &'static str {
        "throughput + achieved gap of the sharded serving front-end vs shards x staleness"
    }

    fn extra_flags(&self) -> &'static [FlagSpec] {
        &[
            FlagSpec {
                name: "--workers",
                kind: FlagKind::U64,
                positive: true,
                default: "4",
                help: "serving worker threads (replay: virtual workers)",
            },
            FlagSpec {
                name: "--buffer",
                kind: FlagKind::U64,
                positive: true,
                default: "4096",
                help: "per-shard request buffer capacity",
            },
            FlagSpec {
                name: "--inflight",
                kind: FlagKind::U64,
                positive: false,
                default: "0",
                help: "fleet-wide in-flight limit (0 = unlimited)",
            },
            FlagSpec {
                name: "--d",
                kind: FlagKind::U64,
                positive: true,
                default: "2",
                help: "candidate bins per request (1 = One-Choice)",
            },
            FlagSpec {
                name: "--sigma",
                kind: FlagKind::F64,
                positive: false,
                default: "0",
                help: "extra sigma-Noisy-Load Gaussian on every comparison (0 = off)",
            },
            FlagSpec {
                name: "--replay",
                kind: FlagKind::Switch,
                positive: false,
                default: "off",
                help: "deterministic replay only (byte-stable output; no throughput)",
            },
        ]
    }

    fn run(&self, args: &CommonArgs, sink: &mut OutputSink) -> Result<Report, BenchError> {
        emit_header(sink, "A9", "sharded serving front-end", args);

        let workers = args.extras.u64("--workers").unwrap_or(4) as usize;
        let buffer = args.extras.u64("--buffer").unwrap_or(4096) as usize;
        let inflight = match args.extras.u64("--inflight").unwrap_or(0) {
            0 => None,
            k => Some(k as usize),
        };
        let d = args.extras.u64("--d").unwrap_or(2) as usize;
        let sigma = args.extras.f64("--sigma").unwrap_or(0.0);
        if sigma < 0.0 {
            return Err(BenchError::Usage("--sigma must be non-negative".into()));
        }
        let replay_only = args.extras.switch("--replay");

        let request = Request {
            d,
            noise: if sigma > 0.0 {
                NoiseMode::Noisy { sigma }
            } else {
                NoiseMode::Snapshot
            },
        };
        let shard_counts: Vec<usize> =
            [1usize, 2, 4].into_iter().filter(|&s| s <= args.n).collect();
        let staleness_axis = staleness_grid(args.n);
        let cell_config = |shards: usize, staleness: Staleness| ServeConfig {
            n: args.n,
            shards,
            workers,
            requests: args.m(),
            request,
            staleness,
            buffer_capacity: buffer,
            inflight,
            backend: BackendKind::Sharded,
            snapshot: SnapshotPath::Buffered,
            // Deliberately *not* folding the shard count into the tag:
            // decisions only ever read snapshots of the global vector, so
            // at a fixed seed the replay digest must be identical for
            // every shard count — the invariance is visible in the replay
            // table instead of buried in a unit test.
            seed: experiment_seed(&format!("serve_bench/{staleness}"), args.seed),
        };

        // The replay grid is computed first so the determinism self-check
        // can reuse its first cell (emission order below stays
        // concurrent-then-replay).
        let mut replay_table = TextTable::new(vec![
            "shards".into(),
            "staleness".into(),
            "digest".into(),
            "gap".into(),
            "max load".into(),
        ]);
        let mut replay = Vec::new();
        for &shards in &shard_counts {
            for &staleness in &staleness_axis {
                let out = run_replay(&cell_config(shards, staleness));
                replay_table.push_row(vec![
                    shards.to_string(),
                    staleness.to_string(),
                    format!("{:016x}", out.digest),
                    fmt3(out.outcome.gap),
                    out.outcome.max_load.to_string(),
                ]);
                replay.push(ReplayCell {
                    shards,
                    staleness: staleness.to_string(),
                    digest: format!("{:016x}", out.digest),
                    gap: out.outcome.gap,
                    max_load: out.outcome.max_load,
                    allocated: out.outcome.allocated,
                    refreshes: out.outcome.refreshes,
                });
            }
        }

        // Determinism self-check: replay the first cell once more; its
        // digest must match the grid's bit for bit.
        let again = run_replay(&cell_config(shard_counts[0], staleness_axis[0]));
        let grid_digest = &replay[0].digest;
        if format!("{:016x}", again.digest) != *grid_digest {
            return Err(BenchError::Run(format!(
                "replay determinism violated: {:016x} != {grid_digest}",
                again.digest
            )));
        }

        let mut concurrent = Vec::new();
        if !replay_only {
            let mut table = TextTable::new(vec![
                "shards".into(),
                "staleness".into(),
                "throughput (req/s)".into(),
                "gap".into(),
                "shed".into(),
                "theory (b-Batch)".into(),
            ]);
            for &shards in &shard_counts {
                for &staleness in &staleness_axis {
                    let outcome = run_concurrent(&cell_config(shards, staleness));
                    let bg = b_global(staleness, workers);
                    let theory = batch_gap(args.n as u64, bg);
                    table.push_row(vec![
                        shards.to_string(),
                        staleness.to_string(),
                        format!("{:.0}", outcome.throughput_rps),
                        fmt3(outcome.gap),
                        outcome.shed.to_string(),
                        fmt3(theory),
                    ]);
                    concurrent.push(ConcurrentCell {
                        shards,
                        staleness: staleness.to_string(),
                        b_global: bg,
                        throughput_rps: outcome.throughput_rps,
                        gap: outcome.gap,
                        allocated: outcome.allocated,
                        shed: outcome.shed,
                        refreshes: outcome.refreshes,
                        theory_term: theory,
                    });
                }
            }
            sink.table("concurrent", table);
        }

        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cpu_caveat = single_core_caveat(cpus);
        if !replay_only {
            if let Some(caveat) = &cpu_caveat {
                sink.line(caveat);
            }
        }

        sink.table("replay", replay_table);
        sink.line(
            "expected: gap grows with staleness along the b-Batch law; replay digests \
             repeat across shard counts (sharding is storage layout, not policy) and \
             are bit-identical across runs at a fixed seed.",
        );

        let artifact = ServeBenchArtifact {
            scale: args.scale_line(),
            workers,
            d,
            sigma,
            backend: format!("{:?}", BackendKind::Sharded),
            snapshot: format!("{:?}", SnapshotPath::Buffered),
            buffer_capacity: buffer,
            inflight,
            requests_per_cell: args.m(),
            cpus,
            cpu_caveat,
            concurrent,
            replay,
        };
        sink.blank();
        sink.save_artifact(&artifact);
        Ok(sink.take_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_grid_is_well_formed() {
        for n in [2usize, 128, 10_000] {
            let grid = staleness_grid(n);
            assert_eq!(grid.len(), 4);
            for s in grid {
                match s {
                    Staleness::Batch { b } => assert!(b > 0, "n = {n}: zero batch"),
                    Staleness::Delay { tau } => assert!(tau > 0, "n = {n}: zero tau"),
                }
            }
        }
    }

    #[test]
    fn b_global_folds_workers_into_batches_only() {
        assert_eq!(b_global(Staleness::Batch { b: 8 }, 4), 32);
        assert_eq!(b_global(Staleness::Delay { tau: 8 }, 4), 8);
    }

    #[test]
    fn single_core_caveat_is_byte_pinned() {
        // Golden: the caveat is part of the JSON artifact surface, so its
        // exact wording is pinned — downstream tooling greps for it.
        assert_eq!(
            single_core_caveat(1).as_deref(),
            Some(
                "overhead-only: this host exposes 1 hardware thread, so concurrent \
                 throughput measures scheduling/synchronization overhead, not parallel \
                 speedup"
            )
        );
        for cpus in [2usize, 4, 64] {
            assert_eq!(single_core_caveat(cpus), None, "cpus = {cpus}");
        }
    }
}
