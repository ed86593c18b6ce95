//! Pinned replay streams of the deterministic serving engines.
//!
//! [`run_replay`]'s digest is the chosen bin of every request in issue
//! order, and [`run_churn`]'s digest is every arrival, shed, departure
//! and migration re-credit in event order, with the membership digest
//! pinning the final epoch, change log and ownership. All three are pure
//! functions of `(config, seed)`, so the constants below catch a refactor
//! that changes a stream even when two runs of the new code still agree
//! with each other.
//!
//! If a change *intentionally* alters a stream (a new RNG domain, a
//! reordered draw), re-pin the constants from the test failure output and
//! say so in the commit.

use balloc_serve::{
    run_churn, run_replay, AutoscaleConfig, ChurnConfig, NoiseMode, PlannedChange, RebalanceKind,
    Request, ServeConfig, Staleness,
};

/// 64 bins, 512 requests, seed 2022, over `shards` shards and `workers`
/// round-robin workers.
fn replay_cfg(shards: usize, workers: usize, staleness: Staleness) -> ServeConfig {
    let mut cfg = ServeConfig::demo(64, shards, 2022);
    cfg.workers = workers;
    cfg.requests = 512;
    cfg.staleness = staleness;
    cfg
}

const BATCH: Staleness = Staleness::Batch { b: 16 };
const DELAY: Staleness = Staleness::Delay { tau: 24 };

/// `(name, config, golden digest)` for the replay grid.
#[rustfmt::skip]
fn replay_goldens() -> Vec<(&'static str, ServeConfig, u64)> {
    let mut noisy = replay_cfg(4, 3, BATCH);
    noisy.request = Request {
        d: 2,
        noise: NoiseMode::Noisy { sigma: 1.5 },
    };
    // Sharding is a storage layout, not a policy: S = 1 and S = 4 pin the
    // same stream.
    vec![
        ("S1 W1 batch", replay_cfg(1, 1, BATCH), 0xd17a_01eb_bf2c_706f),
        ("S1 W1 delay", replay_cfg(1, 1, DELAY), 0xcf9a_1505_2862_0bda),
        ("S1 W3 batch", replay_cfg(1, 3, BATCH), 0x34ca_5a0e_8d5f_06f6),
        ("S1 W3 delay", replay_cfg(1, 3, DELAY), 0x82aa_460e_8ec1_8e75),
        ("S4 W1 batch", replay_cfg(4, 1, BATCH), 0xd17a_01eb_bf2c_706f),
        ("S4 W1 delay", replay_cfg(4, 1, DELAY), 0xcf9a_1505_2862_0bda),
        ("S4 W3 batch", replay_cfg(4, 3, BATCH), 0x34ca_5a0e_8d5f_06f6),
        ("S4 W3 delay", replay_cfg(4, 3, DELAY), 0x82aa_460e_8ec1_8e75),
        ("S4 W3 noisy", noisy, 0x6a2a_a675_3d06_dcd5),
    ]
}

/// 96 bins, 3 initial members, 2 workers, 1,200 event slots, seed 2022.
fn churn_base() -> ChurnConfig {
    let mut cfg = ChurnConfig::demo(96, 3, 2022);
    cfg.requests = 1_200;
    cfg.token_every = 2;
    cfg
}

fn scripted() -> ChurnConfig {
    let mut cfg = churn_base();
    cfg.plan = vec![
        (100, PlannedChange::Insert),
        (250, PlannedChange::RemoveSlot(1)),
        (400, PlannedChange::Insert),
        (420, PlannedChange::RemoveOldest),
        (700, PlannedChange::RemoveNewest),
    ];
    cfg
}

fn autoscaled() -> ChurnConfig {
    let mut cfg = churn_base();
    cfg.shards = 1;
    cfg.autoscale = Some(AutoscaleConfig {
        shed_threshold: 4,
        window: 64,
        idle_windows: 2,
        min_shards: 1,
        max_shards: 6,
    });
    cfg
}

fn hash_slot() -> ChurnConfig {
    let mut cfg = scripted();
    cfg.rebalance = RebalanceKind::HashSlot;
    cfg
}

/// `(name, config, golden digest, golden membership digest)`.
#[rustfmt::skip]
fn churn_goldens() -> Vec<(&'static str, ChurnConfig, u64, u64)> {
    vec![
        ("static", churn_base(), 0x5639_ec6f_c4b7_1624, 0x9956_e5ef_dc18_b4c5),
        ("scripted", scripted(), 0xc439_cdd6_0f0a_1cc5, 0xa031_14ed_0fd0_50d5),
        ("autoscaled", autoscaled(), 0xd4c6_5a16_1f65_69f8, 0x7198_59c1_87cf_844c),
        ("hash-slot", hash_slot(), 0xe2a7_2ab8_1b99_1005, 0x8507_92f4_62ea_dc5a),
    ]
}

#[test]
fn replay_digests_match_their_goldens() {
    for (name, cfg, golden) in replay_goldens() {
        let digest = run_replay(&cfg).digest;
        assert_eq!(
            digest, golden,
            "{name}: digest {digest:#018x} diverged from golden {golden:#018x} — the \
             replay decision stream changed"
        );
    }
}

#[test]
fn churn_digests_match_their_goldens() {
    for (name, cfg, golden, golden_membership) in churn_goldens() {
        let report = run_churn(&cfg);
        assert_eq!(
            report.digest, golden,
            "{name}: digest {:#018x} diverged from golden {golden:#018x} — the churn \
             event stream changed",
            report.digest
        );
        assert_eq!(
            report.membership_digest, golden_membership,
            "{name}: membership digest {:#018x} diverged from golden \
             {golden_membership:#018x} — the change log or ownership changed",
            report.membership_digest
        );
    }
}

#[test]
fn churn_golden_configs_exercise_their_regimes() {
    // A golden that silently stopped churning would pin nothing.
    let outcomes: Vec<_> = churn_goldens()
        .into_iter()
        .map(|(_, cfg, ..)| run_churn(&cfg).outcome)
        .collect();
    let [stat, script, auto, hash] = &outcomes[..] else {
        panic!("four configs");
    };
    assert_eq!(stat.changes, 0, "static: no membership change");
    assert!(stat.departures > 0, "static: departures still run");
    assert!(
        script.removes >= 2 && script.inserts >= 2,
        "scripted: {script:?}"
    );
    assert!(script.migrated > 0, "scripted: balls migrate");
    assert!(
        auto.autoscale_outs > 0,
        "autoscaled: shed pressure scales out"
    );
    assert!(
        hash.moved_bins > script.moved_bins,
        "hash-slot reshuffles more bins"
    );
}
