//! `replay-engines`: the single-threaded `VClock` engines, no sockets.
//!
//! For each of four seeds drawn from `--seed`, one job runs a
//! `run_resilient` replay — four faulty shards (slow, stalling, erroring,
//! and `CorruptedLoad`, the paper's g-Adv-Comp inside the service) under
//! the full Retry / RateLimit / Hedge / Timeout / Breaker policy — and a
//! `run_churn` replay with departures, a scripted membership plan and the
//! shed-aware autoscaler.
//!
//! Both are configured so that no request fails: the policy absorbs every
//! injected fault (hedges and retries rescue stalls and errors, the rate
//! limit refills faster than attempts arrive, the breaker trips only on a
//! window of nothing but failures), and churn admission refills one token
//! per member per tick, at least the one arrival a tick can bring. A run's
//! failed count is then 0 whatever its length, so runs of different
//! lengths agree on it.

// balloc-lint: allow-file(L002): the benchmark times each engine replay in
// wall-clock time; the replays themselves run on their own VClock.

use std::time::{Duration, Instant};

use balloc_core::rng::point_seed;
use balloc_noise::CorruptKind;
use balloc_serve::{
    run_churn, run_resilient, AutoscaleConfig, BreakerConfig, ChurnConfig, ChurnReport, FaultKind,
    FaultPlan, HedgeConfig, PlannedChange, Policy, RateLimitConfig, RebalanceKind, Request,
    ResilienceConfig, ResilienceReport, RetryConfig, Staleness,
};

use crate::hist::Histogram;
use crate::procfs::{current_tid, RoleSampler};
use crate::report::{gate, median, metric, per_kilo, ratio, Plan, Window, WorkloadRun};
use crate::trace::{SpanId, Tracer};

const N: usize = 1_000;
const SHARDS: usize = 4;
const REQUESTS: u64 = 5_000;
/// Seeds drawn from `--seed`; one job replays both engines for each, so
/// every job does the same work and a run averages over several fault
/// and churn draws instead of one.
const DRAWS: u64 = 4;
/// Length of a window slice (see `Window`).
const SLICE: Duration = Duration::from_millis(250);

fn resilient_config(requests: u64, seed: u64) -> ResilienceConfig {
    ResilienceConfig {
        n: N,
        shards: SHARDS,
        workers: 2,
        requests,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: 64 },
        faults: FaultPlan::clean(1)
            .with(0, FaultKind::Slow { extra: 6 })
            .with(1, FaultKind::Stalled { per_mille: 50 })
            .with(2, FaultKind::Erroring { per_mille: 100 })
            .with(
                3,
                FaultKind::CorruptedLoad {
                    g: 4,
                    kind: CorruptKind::Understate,
                },
            ),
        policy: Policy {
            // Every request may retry: a request fails only if seven
            // attempts in a row fail.
            retry: Some(RetryConfig {
                max_retries: 6,
                budget_cap: 100_000,
                budget_deposit: 100,
                budget_withdraw: 100,
            }),
            // Each attempt advances the clock by at least one tick, so a
            // permit per tick never runs dry.
            rate: Some(RateLimitConfig {
                permits: 1,
                period: 1,
                burst: 16,
            }),
            hedge: Some(HedgeConfig::default()),
            timeout: Some(24),
            // Trips only on a full window of failed attempts, so it is
            // consulted on every attempt but never rejects one.
            breaker: Some(BreakerConfig {
                window: 16,
                max_failures: 16,
                cooldown: 64,
            }),
        },
        seed: point_seed(seed, 0),
    }
}

fn churn_config(requests: u64, seed: u64) -> ChurnConfig {
    let q = requests / 8;
    ChurnConfig {
        n: N,
        shards: SHARDS,
        workers: 2,
        requests,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: 64 },
        rebalance: RebalanceKind::Proportional,
        depart_pm: 150,
        migration_rate: 4,
        // One token per member per tick covers the one arrival a tick
        // can bring, so admission never sheds.
        token_every: 1,
        burst: 8,
        plan: vec![
            (2 * q, PlannedChange::Insert),
            (3 * q, PlannedChange::RemoveOldest),
            (5 * q, PlannedChange::Insert),
            (6 * q, PlannedChange::RemoveNewest),
        ],
        // With no sheds the autoscaler scales in after every four quiet
        // windows, undoing the plan's inserts down to two members.
        autoscale: Some(AutoscaleConfig {
            shed_threshold: 8,
            window: 64,
            idle_windows: 4,
            min_shards: 2,
            max_shards: 8,
        }),
        seed: point_seed(seed, 1),
    }
}

/// Checks both engines' conservation ledgers.
fn check_ledgers(r: &ResilienceReport, c: &ChurnReport) -> Result<(), String> {
    let o = &r.outcome;
    gate(
        o.allocated + o.shed + o.timed_out + o.broken == o.requests,
        || {
            format!(
                "resilient ledger: {} allocated + {} shed + {} timed out + {} broken != {}",
                o.allocated, o.shed, o.timed_out, o.broken, o.requests
            )
        },
    )?;
    let o = &c.outcome;
    gate(
        o.arrivals + o.departures == o.requests
            && o.allocated + o.shed + o.departures == o.arrivals
            && o.in_migration == 0,
        || {
            format!(
                "churn ledger: {} arrivals, {} departures, {} allocated, {} shed, {} migrating, {} slots",
                o.arrivals, o.departures, o.allocated, o.shed, o.in_migration, o.requests
            )
        },
    )
}

fn failed(r: &ResilienceReport, c: &ChurnReport) -> u64 {
    r.outcome.shed + r.outcome.timed_out + r.outcome.broken + c.outcome.shed
}

/// One draw's inputs and the reports every repetition must reproduce.
struct Draw {
    rc: ResilienceConfig,
    cc: ChurnConfig,
    r: ResilienceReport,
    c: ChurnReport,
}

/// Builds the configurations of every draw and runs each once.
fn set_up(seed: u64) -> Result<Vec<Draw>, String> {
    (0..DRAWS)
        .map(|k| {
            let draw = point_seed(seed, k);
            let (rc, cc) = (
                resilient_config(REQUESTS, draw),
                churn_config(REQUESTS, draw),
            );
            let (r, c) = (run_resilient(&rc), run_churn(&cc));
            check_ledgers(&r, &c)?;
            Ok(Draw { rc, cc, r, c })
        })
        .collect()
}

pub fn run(seed: u64, plan: &Plan, tracer: &mut Tracer) -> Result<WorkloadRun, String> {
    let mut out = WorkloadRun::default();
    let mut draws = Vec::new();
    for _ in 0..plan.setups {
        let t = Instant::now();
        draws = set_up(seed)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let main = current_tid();
    let mut job = 0u64;
    for &(dur, traced) in &plan.windows {
        let mut off = Tracer::new(false);
        let tr = if traced { &mut *tracer } else { &mut off };
        let mut window = Window {
            traced,
            ..Window::default()
        };
        let sampler = RoleSampler::new(vec![("engine", vec![main])]);
        let (mut ns_r, mut ns_c) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        let (mut slice_start, mut slice_ops, mut hist) = (t0, 0u64, Histogram::default());
        loop {
            let span = tr.begin("engine.job", SpanId::NONE, job);
            let start = Instant::now();
            for d in &draws {
                let s0 = Instant::now();
                let r = run_resilient(&d.rc);
                let s1 = Instant::now();
                let c = run_churn(&d.cc);
                let s2 = Instant::now();
                tr.record("engine.resilient", s0, s1, span, job);
                tr.record("engine.churn", s1, s2, span, job);
                check_ledgers(&r, &c)?;
                gate(r == d.r && c == d.c, || {
                    format!(
                        "replay not deterministic at one seed: digests {:016x}/{:016x}, \
                         first {:016x}/{:016x}",
                        r.digest, c.digest, d.r.digest, d.c.digest
                    )
                })?;
                ns_r.push((s1 - s0).as_nanos() as f64 / REQUESTS as f64);
                ns_c.push((s2 - s1).as_nanos() as f64 / REQUESTS as f64);
                let attempted = d.rc.requests + d.cc.requests;
                slice_ops += attempted;
                window.attempted += attempted;
                window.failed += failed(&r, &c);
            }
            let end = Instant::now();
            tr.end(span);
            job += 1;
            hist.record((end - start).as_nanos() as u64);
            if end - slice_start >= SLICE || end - t0 >= dur {
                window.push_slice(slice_ops, (end - slice_start).as_secs_f64(), &hist);
                (slice_start, slice_ops, hist) = (end, 0, Histogram::default());
                if end - t0 >= dur {
                    break;
                }
            }
        }
        window.elapsed_s = t0.elapsed().as_secs_f64();
        window.completed = window.attempted - window.failed;
        let (roles, cpu) = sampler.finish();
        window.process_cpu_s = cpu.cpu_s();
        window.steal_share = sampler.steal_share();
        window.roles = roles;
        let sum = |f: &dyn Fn(&Draw) -> u64| draws.iter().map(f).sum::<u64>();
        let requests = sum(&|j| j.rc.requests);
        window.layer.extend([
            metric("engine.ns_per_req.resilient", median(&ns_r), "ns"),
            metric("engine.ns_per_req.churn", median(&ns_c), "ns"),
            metric(
                "engine.retries_per_kreq",
                per_kilo(sum(&|j| j.r.outcome.retries), requests),
                "count",
            ),
            metric(
                "engine.hedge_rescue_ratio",
                ratio(
                    sum(&|j| j.r.outcome.hedge_rescued) as f64,
                    sum(&|j| j.r.outcome.hedged) as f64,
                ),
                "share",
            ),
            metric(
                "engine.breaker_rejections_per_kreq",
                per_kilo(sum(&|j| j.r.outcome.breaker_rejections), requests),
                "count",
            ),
            metric(
                "engine.migrated_per_kreq",
                per_kilo(sum(&|j| j.c.outcome.migrated), sum(&|j| j.cc.requests)),
                "count",
            ),
            metric(
                "engine.refreshes_per_kreq",
                per_kilo(
                    sum(&|j| j.r.outcome.refreshes + j.c.outcome.refreshes),
                    requests + sum(&|j| j.cc.requests),
                ),
                "count",
            ),
        ]);
        out.windows.push(window);
    }
    out.info.push(format!(
        "replay-engines: run_resilient + run_churn, {REQUESTS} requests each, n = {N}, \
         {SHARDS} shards, for each of {DRAWS} seeds drawn from --seed; ops = engine requests \
         (event slots); latency = one job (both engines for every draw)"
    ));
    for (k, j) in draws.iter().enumerate() {
        let (ro, co) = (&j.r.outcome, &j.c.outcome);
        out.info.push(format!(
            "replay-engines: draw {k}: digests {:016x} / {:016x} identical in every job; \
             resilient: {} allocated, {} shed, {} timed out, {} broken, {} retries, {} hedged \
             ({} rescued), {} breaker rejections; churn: {} arrivals, {} departures, {} shed, \
             {} migrated, {} membership changes",
            j.r.digest,
            j.c.digest,
            ro.allocated,
            ro.shed,
            ro.timed_out,
            ro.broken,
            ro.retries,
            ro.hedged,
            ro.hedge_rescued,
            ro.breaker_rejections,
            co.arrivals,
            co.departures,
            co.shed,
            co.migrated,
            co.changes
        ));
    }
    Ok(out)
}
