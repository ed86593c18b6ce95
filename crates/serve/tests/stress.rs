//! Multi-threaded stress suite for the sharded serving stack — the same
//! contract as `crates/multicounter/tests/stress.rs`, one API level up:
//! concurrent mixed traffic, then exactness (every request is allocated
//! or shed, and the authoritative state holds exactly the allocated
//! balls) and boundedness (the achieved gap tracks the staleness law
//! instead of drifting).

use balloc_serve::{
    run_concurrent, BackendKind, NoiseMode, Request, ServeConfig, SnapshotPath, Staleness,
};

fn stress_config(seed: u64) -> ServeConfig {
    ServeConfig {
        n: 64,
        shards: 4,
        workers: 4,
        requests: 80_000,
        request: Request::two_choice(),
        staleness: Staleness::Batch { b: 64 },
        buffer_capacity: 256,
        inflight: None,
        backend: BackendKind::Sharded,
        snapshot: SnapshotPath::Buffered,
        seed,
    }
}

#[test]
fn sharded_stack_conserves_under_concurrency() {
    let cfg = stress_config(41);
    let outcome = run_concurrent(&cfg);
    // finish() already asserts conservation internally; re-state the
    // contract at the public level.
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
    assert!(outcome.allocated > 0);
    // Quality: two-choice at b-Batch(64·4 workers) over 64 bins with
    // 1250 balls/bin average. One-Choice would drift to a gap of ~√(m·ln
    // n/n) ≈ 65; the stale two-choice must stay well under that.
    assert!(
        outcome.gap < 40.0,
        "stressed serving gap blew up: {}",
        outcome.gap
    );
}

#[test]
fn tiny_buffers_shed_instead_of_losing() {
    // Starve the shard queues (capacity 1) while four workers hammer
    // them: sheds must appear as counted drops, never as lost balls.
    let mut cfg = stress_config(43);
    cfg.buffer_capacity = 1;
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
}

#[test]
fn inflight_limit_stresses_the_permit_pool() {
    let mut cfg = stress_config(47);
    cfg.inflight = Some(2);
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
}

#[test]
fn noisy_comparisons_survive_concurrency() {
    let mut cfg = stress_config(59);
    cfg.request = Request {
        d: 2,
        noise: NoiseMode::Noisy { sigma: 1.0 },
    };
    cfg.requests = 20_000;
    let outcome = run_concurrent(&cfg);
    assert_eq!(outcome.allocated + outcome.shed, cfg.requests);
    assert!(outcome.gap.is_finite());
}
