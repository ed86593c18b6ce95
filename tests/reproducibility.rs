//! End-to-end reproducibility guarantees: results are pure functions of
//! `(configuration, seed)`, independent of thread count, and round-trip
//! through serialization.

use noisy_balance::core::rng::Fnv1a;
use noisy_balance::core::{LoadState, Process, Rng, TwoChoice};
use noisy_balance::noise::{
    AdvComp, Batched, DelayStrategy, Delayed, GBounded, GMyopic, NoisyComp, OverloadSeeking,
    ReverseWithProbability, SigmaNoisyLoad, UniformRandom,
};
use noisy_balance::processes::DChoice;
use noisy_balance::sim::{repeat, run, sweep, Checkpoints, GapDistribution, RunConfig};

#[test]
fn every_process_is_seed_deterministic() {
    let config = RunConfig::new(256, 20_000, 777);
    macro_rules! check {
        ($factory:expr) => {{
            let a = run(&mut $factory, config);
            let b = run(&mut $factory, config);
            assert_eq!(a, b);
        }};
    }
    check!(TwoChoice::classic());
    check!(GBounded::new(5));
    check!(GMyopic::new(5));
    check!(SigmaNoisyLoad::new(3.0));
    check!(Batched::new(100));
    check!(Delayed::new(64, DelayStrategy::AdversarialFlip));
}

#[test]
fn process_reuse_across_runs_is_clean() {
    // Running the same process value twice must give identical results —
    // reset() clears all internal state (delay windows, batch snapshots).
    let config = RunConfig::new(128, 10_000, 3);
    let mut batched = Batched::new(37);
    let first = run(&mut batched, config);
    let second = run(&mut batched, config);
    assert_eq!(first, second);

    let mut delayed = Delayed::new(50, DelayStrategy::RandomInWindow);
    let first = run(&mut delayed, config);
    let second = run(&mut delayed, config);
    assert_eq!(first, second);
}

#[test]
fn thread_count_never_changes_results() {
    let base = RunConfig::new(200, 10_000, 99);
    let reference = repeat(|| GBounded::new(4), base, 9, 1);
    for threads in [2usize, 3, 8, 16] {
        let parallel = repeat(|| GBounded::new(4), base, 9, threads);
        assert_eq!(reference, parallel, "threads = {threads}");
    }
}

#[test]
fn sweeps_are_reproducible() {
    let base = RunConfig::new(100, 5_000, 5);
    let a = sweep(&[1.0, 4.0], |g| GBounded::new(g as u64), base, 4, 2);
    let b = sweep(&[1.0, 4.0], |g| GBounded::new(g as u64), base, 4, 7);
    assert_eq!(a, b);
}

#[test]
fn traced_and_untraced_runs_agree_on_final_state() {
    let config = RunConfig::new(128, 12_800, 21);
    let plain = run(&mut GMyopic::new(3), config);
    let traced = noisy_balance::sim::run_traced(
        &mut GMyopic::new(3),
        config,
        Checkpoints::Geometric(4),
    );
    assert_eq!(plain.gap, traced.gap);
    assert_eq!(plain.max_load, traced.max_load);
    assert_eq!(plain.integer_gap, traced.integer_gap);
}

#[test]
fn artifacts_serialize_roundtrip() {
    let base = RunConfig::new(64, 6_400, 1);
    let results = repeat(|| SigmaNoisyLoad::new(2.0), base, 5, 2);
    let dist = GapDistribution::from_results(&results);
    let json = noisy_balance::sim::to_json(&dist).expect("serializable artifact");
    assert!(json.contains(":"));
    let point = noisy_balance::sim::SweepPoint::from_results(2.0, results);
    let json = noisy_balance::sim::to_json(&point).expect("serializable artifact");
    assert!(json.contains("mean_gap"));
}

#[test]
fn rng_streams_are_platform_stable() {
    // Pin the first outputs of the generator so cross-machine drift (or an
    // accidental algorithm change) is caught immediately.
    let mut rng = Rng::from_seed(0);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        first,
        vec![
            5987356902031041503,
            7051070477665621255,
            6633766593972829180,
            211316841551650330
        ]
    );
}

#[test]
fn golden_run_pins_end_to_end_behavior() {
    // A golden test: if any part of the pipeline (RNG, process, load
    // bookkeeping) changes behavior, this fails loudly.
    let result = run(&mut GBounded::new(2), RunConfig::new(100, 10_000, 4242));
    let expected = run(&mut GBounded::new(2), RunConfig::new(100, 10_000, 4242));
    assert_eq!(result, expected);
    assert_eq!(result.max_load as i64 - 100, result.integer_gap.unwrap());
    assert!(result.integer_gap.unwrap() >= 2 && result.integer_gap.unwrap() <= 12);

    // Pin the concrete values (update deliberately if the RNG or process
    // semantics ever change): an FNV-1a digest of the final load vector,
    // the ball count and the next four outputs of the generator, which
    // fixes the number of draws every run consumed.
    fn digest<P: Process>(mut process: P, seed: u64) -> u64 {
        let (n, m) = (1_000, 20_000);
        let mut state = LoadState::new(n);
        let mut rng = Rng::from_seed(seed);
        process.run(&mut state, m, &mut rng);
        let mut fnv = Fnv1a::new();
        for &load in state.loads() {
            fnv.write_u64(load);
        }
        fnv.write_u64(state.balls());
        for _ in 0..4 {
            fnv.write_u64(rng.next_u64());
        }
        fnv.finish()
    }
    let closure_rho = |delta: u64| {
        if delta == 0 {
            0.5
        } else {
            1.0 - 0.4 / delta as f64
        }
    };
    let pinned: [(&str, u64, u64); 8] = [
        (
            "g_bounded_2",
            digest(GBounded::new(2), 1),
            0x03a9_dba2_2c80_aec0,
        ),
        (
            "g_myopic_3",
            digest(GMyopic::new(3), 2),
            0x14b6_59b8_e07d_ead9,
        ),
        (
            "sigma_noisy_load_3",
            digest(SigmaNoisyLoad::new(3.0), 3),
            0x8f63_5cf6_f864_ca89,
        ),
        (
            "batched_100",
            digest(Batched::new(100), 4),
            0x4374_a836_faa2_f3c7,
        ),
        (
            "adv_comp_overload_seeking",
            digest(TwoChoice::new(AdvComp::new(3, OverloadSeeking)), 5),
            0x7e1b_994f_51c6_b8ca,
        ),
        (
            "adv_comp_reverse_p0.3",
            digest(
                TwoChoice::new(AdvComp::new(2, ReverseWithProbability::new(0.3))),
                6,
            ),
            0xce4c_f54e_5bd7_9696,
        ),
        (
            "noisy_comp_closure",
            digest(TwoChoice::new(NoisyComp::new(closure_rho)), 7),
            0x4ad0_65d5_62ce_f717,
        ),
        (
            "d_choice_3_myopic",
            digest(DChoice::with_decider(3, AdvComp::new(2, UniformRandom)), 8),
            0x8c77_3d21_6733_5134,
        ),
    ];
    for (name, got, want) in pinned {
        assert_eq!(got, want, "{name} drifted: {got:#018x}");
    }
}
