//! Criterion throughput benchmarks: per-allocation cost of every process,
//! on **both** engines.
//!
//! Each benchmark allocates `m = 10·n` balls into `n = 10⁴` bins; Criterion
//! reports time per iteration (one full run), so divide by `m` for the
//! per-ball cost. Every process is measured twice:
//!
//! * `<name>` — the batched engine ([`Process::run`], which drives
//!   `run_batch`): monomorphized hot loops, pre-drawn samples, deferred
//!   aggregate maintenance where the decider permits;
//! * `<name>/per_ball` — the legacy path: one `allocate` call per ball.
//!
//! The two paths are bit-identical at a fixed seed (asserted by
//! `tests/batch_equivalence.rs`); the ratio `per_ball / batched` is the
//! speedup recorded in `BENCH_baseline.json`.

use balloc_core::{LoadState, Process, Rng, TwoChoice};
use balloc_noise::{
    Batched, DelayStrategy, Delayed, GBounded, GMyopic, GaussianLoadDecider, SigmaNoisyLoad,
};
use balloc_processes::{
    DChoice, GraphicalTwoChoice, MeanThinning, NonUniformTwoChoice, OneChoice, OnePlusBeta,
    Topology,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const N: usize = 10_000;
const BALLS_PER_BIN: u64 = 10;

fn bench_process<P: Process>(c: &mut Criterion, name: &str, mut factory: impl FnMut() -> P) {
    let m = BALLS_PER_BIN * N as u64;
    c.bench_function(name, |b| {
        b.iter(|| {
            let mut process = factory();
            let mut state = LoadState::new(N);
            let mut rng = Rng::from_seed(1);
            process.run(&mut state, m, &mut rng);
            black_box(state.gap())
        });
    });
    c.bench_function(&format!("{name}/per_ball"), |b| {
        b.iter(|| {
            let mut process = factory();
            let mut state = LoadState::new(N);
            let mut rng = Rng::from_seed(1);
            for _ in 0..m {
                process.allocate(&mut state, &mut rng);
            }
            black_box(state.gap())
        });
    });
}

fn throughput(c: &mut Criterion) {
    bench_process(c, "one_choice", OneChoice::new);
    bench_process(c, "two_choice", TwoChoice::classic);
    bench_process(c, "d_choice_4", || DChoice::classic(4));
    bench_process(c, "one_plus_beta_0.5", || OnePlusBeta::new(0.5));
    bench_process(c, "mean_thinning", MeanThinning::new);
    bench_process(c, "g_bounded_8", || GBounded::new(8));
    bench_process(c, "g_myopic_8", || GMyopic::new(8));
    bench_process(c, "sigma_noisy_load_4", || SigmaNoisyLoad::new(4.0));
    bench_process(c, "gaussian_load_4", || {
        TwoChoice::new(GaussianLoadDecider::new(4.0))
    });
    bench_process(c, "batched_n", || Batched::new(N as u64));
    bench_process(c, "batched_100", || Batched::new(100));
    bench_process(c, "delayed_n_stalest", || {
        Delayed::new(N as u64, DelayStrategy::Stalest)
    });
    bench_process(c, "delayed_n_flip", || {
        Delayed::new(N as u64, DelayStrategy::AdversarialFlip)
    });
    bench_process(c, "graphical_cycle", || {
        GraphicalTwoChoice::classic(Topology::Cycle)
    });
    bench_process(c, "graphical_complete", || {
        GraphicalTwoChoice::classic(Topology::Complete)
    });
    bench_process(c, "nonuniform_two_choice", || {
        let weights: Vec<f64> = (0..N).map(|i| 1.0 + (i % 3) as f64 * 0.2).collect();
        NonUniformTwoChoice::classic(&weights)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = throughput
}
criterion_main!(benches);
