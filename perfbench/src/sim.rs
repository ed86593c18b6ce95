//! `sim-sweep`: the paper's Fig. 12.1 + Fig. 12.2 grid through
//! `balloc_sim::sweep` on the work-stealing pool.
//!
//! One round is four sweeps at n = 10⁴, m = 100·n, two repetitions per
//! point: g-Bounded and g-Myopic-Comp over g ∈ {1, 2, 4, 8, 16},
//! σ-Noisy-Load over σ ∈ {1, 2, 4, 8, 16}, and b-Batch over
//! b ∈ {10², 10³, 10⁴, 10⁵}. Every process is wrapped so the benchmark
//! sees when each pool task starts and ends and how many balls it placed,
//! without touching the simulator.

// balloc-lint: allow-file(L002): the benchmark times sweep tasks in
// wall-clock time; the simulations stay pure functions of (config, seed).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use balloc_core::rng::{point_seed, Fnv1a};
use balloc_core::{LoadState, Process, Rng};
use balloc_noise::{Batched, GBounded, GMyopic, SigmaNoisyLoad};
use balloc_sim::{sweep, RunConfig, SweepPoint};

use crate::hist::Histogram;
use crate::procfs::{current_tid, RoleCpu, RoleSampler};
use crate::report::{gate, metric, ns_per_op, Metric, Plan, Window, WorkloadRun};
use crate::trace::{SpanId, Tracer};

const N: usize = 10_000;
const BALLS_PER_BIN: u64 = 100;
/// Set-up rounds use a tenth of the balls.
const SETUP_BALLS_PER_BIN: u64 = 10;
const RUNS: usize = 2;
const G: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
const B: [f64; 4] = [100.0, 1_000.0, 10_000.0, 100_000.0];
const FAMILIES: [&str; 4] = ["g_bounded", "g_myopic", "sigma_noisy_load", "b_batch"];

/// Task start/end times and ball counts reported by [`Timed`] wrappers.
#[derive(Debug, Default)]
struct TaskLog {
    tasks: Mutex<Vec<(Instant, Instant)>>,
    balls: AtomicU64,
    short_batches: AtomicU64,
}

impl TaskLog {
    fn take(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.tasks.lock().expect("no task panicked holding the log"))
    }
}

/// A process that forwards to `inner` and reports its pool task's
/// lifetime (factory call to drop) and the balls each batch placed.
struct Timed<'a, P> {
    inner: P,
    start: Instant,
    log: &'a TaskLog,
}

impl<'a, P> Timed<'a, P> {
    fn new(inner: P, log: &'a TaskLog) -> Self {
        Self {
            inner,
            start: Instant::now(),
            log,
        }
    }
}

impl<P: Process> Process for Timed<'_, P> {
    fn allocate(&mut self, state: &mut LoadState, rng: &mut Rng) -> usize {
        self.inner.allocate(state, rng)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn run_batch(&mut self, state: &mut LoadState, steps: u64, rng: &mut Rng) {
        let before = state.balls();
        self.inner.run_batch(state, steps, rng);
        if state.balls() != before + steps {
            self.log.short_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.log.balls.fetch_add(steps, Ordering::Relaxed);
    }
}

impl<P> Drop for Timed<'_, P> {
    fn drop(&mut self) {
        if let Ok(mut tasks) = self.log.tasks.lock() {
            tasks.push((self.start, Instant::now()));
        }
    }
}

/// One family's sweep, wrapped processes and all.
fn sweep_family(family: usize, base: RunConfig, threads: usize, log: &TaskLog) -> Vec<SweepPoint> {
    match family {
        0 => sweep(
            &G,
            |g| Timed::new(GBounded::new(g as u64), log),
            base,
            RUNS,
            threads,
        ),
        1 => sweep(
            &G,
            |g| Timed::new(GMyopic::new(g as u64), log),
            base,
            RUNS,
            threads,
        ),
        2 => sweep(
            &G,
            |s| Timed::new(SigmaNoisyLoad::new(s), log),
            base,
            RUNS,
            threads,
        ),
        _ => sweep(
            &B,
            |b| Timed::new(Batched::new(b as u64), log),
            base,
            RUNS,
            threads,
        ),
    }
}

fn points_in(family: usize) -> usize {
    if family == 3 {
        B.len()
    } else {
        G.len()
    }
}

/// What one round of the grid did.
struct Round {
    digest: u64,
    balls: u64,
    wall_s: f64,
    /// Σ sweep-call wall time (the pool's lifetime).
    pool_wall_s: f64,
    tasks: Vec<(Instant, Instant)>,
}

fn round(
    seed: u64,
    balls_per_bin: u64,
    threads: usize,
    log: &TaskLog,
    tracer: &mut Tracer,
    round_id: u64,
) -> Result<Round, String> {
    let m = balls_per_bin * N as u64;
    let t0 = Instant::now();
    let round_span = tracer.begin("sim.round", SpanId::NONE, round_id);
    let mut digest = Fnv1a::new();
    let mut tasks = Vec::new();
    let mut pool_wall_s = 0.0;
    let balls_before = log.balls.load(Ordering::Relaxed);
    for (family, name) in FAMILIES.iter().enumerate() {
        let base = RunConfig::new(N, m, point_seed(seed, family as u64));
        let start = Instant::now();
        let points = sweep_family(family, base, threads, log);
        let end = Instant::now();
        pool_wall_s += (end - start).as_secs_f64();
        let span = tracer.record("sim.sweep", start, end, round_span, family as u64);
        for (i, &(s, e)) in log.take().iter().enumerate() {
            tracer.record("sim.task", s, e, span, i as u64);
            tasks.push((s, e));
        }
        gate(points.len() == points_in(family), || {
            format!("{} sweep returned {} points", name, points.len())
        })?;
        for p in &points {
            digest.write_u64(p.param.to_bits());
            digest.write_u64(p.mean_gap.to_bits());
            gate(p.results.len() == RUNS, || {
                format!("{} runs at one point", p.results.len())
            })?;
            for r in &p.results {
                let avg = m as f64 / N as f64;
                gate(
                    r.config.m == m
                        && r.min_load as f64 <= avg
                        && avg <= r.max_load as f64
                        && (r.gap - (r.max_load as f64 - avg)).abs() < 1e-9,
                    || format!("a {} run does not hold m = {m} balls", name),
                )?;
                digest.write_u64(r.gap.to_bits());
                digest.write_u64(r.max_load);
                digest.write_u64(r.min_load);
            }
        }
    }
    tracer.end(round_span);
    let balls = log.balls.load(Ordering::Relaxed) - balls_before;
    let expected = (G.len() * 3 + B.len()) as u64 * RUNS as u64 * m;
    gate(balls == expected, || {
        format!("round placed {balls} balls, expected {expected}")
    })?;
    gate(log.short_batches.load(Ordering::Relaxed) == 0, || {
        "a run_batch call placed fewer balls than asked".into()
    })?;
    Ok(Round {
        digest: digest.finish(),
        balls,
        wall_s: t0.elapsed().as_secs_f64(),
        pool_wall_s,
        tasks,
    })
}

pub fn run(seed: u64, plan: &Plan, tracer: &mut Tracer) -> Result<WorkloadRun, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let log = TaskLog::default();
    let mut out = WorkloadRun::default();
    let mut off = Tracer::new(false);
    for i in 0..plan.setups {
        let t = Instant::now();
        round(seed, SETUP_BALLS_PER_BIN, threads, &log, &mut off, i as u64)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut reference: Option<u64> = None;
    let main = current_tid();
    let mut round_id = 0u64;
    for &(dur, traced) in &plan.windows {
        let mut window = Window {
            traced,
            ..Window::default()
        };
        let sampler = RoleSampler::new(vec![("main", vec![main])]);
        let t0 = Instant::now();
        let (mut busy_s, mut pool_s) = (0.0, 0.0);
        let mut off = Tracer::new(false);
        let tr = if traced { &mut *tracer } else { &mut off };
        while window.rates.is_empty() || t0.elapsed() < dur {
            let r = round(seed, BALLS_PER_BIN, threads, &log, tr, round_id)?;
            round_id += 1;
            let digest = *reference.get_or_insert(r.digest);
            gate(r.digest == digest, || {
                format!(
                    "sweep digest {:016x} differs from {digest:016x} at one seed",
                    r.digest
                )
            })?;
            let mut hist = Histogram::default();
            for (s, e) in r.tasks {
                let d = e - s;
                busy_s += d.as_secs_f64();
                hist.record(d.as_nanos() as u64);
            }
            window.push_slice(r.balls, r.wall_s, &hist);
            window.completed += r.balls;
            window.attempted += r.balls;
            pool_s += r.pool_wall_s;
        }
        window.elapsed_s = t0.elapsed().as_secs_f64();
        let (roles, cpu) = sampler.finish();
        window.process_cpu_s = cpu.cpu_s();
        window.steal_share = sampler.steal_share();
        // Pool workers exit with each sweep call: their CPU is the
        // process's minus the main thread's.
        let pool = RoleCpu {
            threads,
            cpu: cpu.minus(&roles[0].1.cpu),
        };
        window.roles = roles;
        window.roles.push(("pool", pool));
        window.layer.push(metric(
            "workpool.busy_share",
            busy_s / (threads as f64 * pool_s),
            "share",
        ));
        out.windows.push(window);
    }
    out.info.push(format!(
        "sim-sweep: n = {N}, m = {BALLS_PER_BIN}*n per run, {RUNS} runs x 19 points per round, \
         threads = {threads}; ops = balls placed, latency = one pool task (one run)"
    ));
    if let Some(d) = reference {
        out.info.push(format!(
            "sim-sweep: sweep digest {d:016x} identical in every round"
        ));
    }
    Ok(out)
}

/// `sim.run_ns_per_ball.*`: one `balloc_sim::run` call per family at a
/// representative parameter, on this thread, divided by m.
pub fn kernel_costs(seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    const M: u64 = 1_000_000;
    const TRIALS: usize = 5;
    let cfg = |k: u64| RunConfig::new(N, M, point_seed(seed, 100 + k));
    let mut timed = |family: usize, f: &mut dyn FnMut() -> u64| {
        let span = tracer.begin("sim.run", SpanId::NONE, family as u64);
        let ns = ns_per_op(TRIALS, f);
        tracer.end(span);
        metric(
            format!("sim.run_ns_per_ball.{}", FAMILIES[family]),
            ns,
            "ns",
        )
    };
    let mut out = Vec::new();
    out.push(timed(0, &mut || {
        balloc_sim::run(&mut GBounded::new(4), cfg(0)).config.m
    }));
    out.push(timed(1, &mut || {
        balloc_sim::run(&mut GMyopic::new(4), cfg(1)).config.m
    }));
    out.push(timed(2, &mut || {
        balloc_sim::run(&mut SigmaNoisyLoad::new(4.0), cfg(2))
            .config
            .m
    }));
    out.push(timed(3, &mut || {
        balloc_sim::run(&mut Batched::new(1_000), cfg(3)).config.m
    }));
    out
}
