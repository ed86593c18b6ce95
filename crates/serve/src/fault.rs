//! Fault plans: which shards misbehave, and how.
//!
//! A [`FaultPlan`] assigns [`FaultKind`]s to individual shards of a
//! sharded backend and is interpreted by the resilience engine's
//! fault-injecting leaf service (see [`crate::resilience`]). Faults are
//! the adversaries the middleware suite exists to absorb, and each maps
//! onto a noise model from the paper's taxonomy:
//!
//! * [`FaultKind::Slow`] — the shard answers, late: extra service ticks
//!   drawn per request. Hedging's bread and butter.
//! * [`FaultKind::Stalled`] — with some probability the shard never
//!   answers; only a [`Timeout`](crate::Timeout) deadline ends the
//!   request. The unbounded-delay regime.
//! * [`FaultKind::Erroring`] — with some probability the shard fails
//!   cleanly with [`ServeError::Faulted`](crate::ServeError::Faulted)
//!   *before* placing the ball. Retry territory.
//! * [`FaultKind::CorruptedLoad`] — applies land fine, but the loads the
//!   shard *reports* into snapshots are corrupted within an additive
//!   budget `g` — exactly the paper's `g`-Adv-Comp adversary, realised by
//!   [`LoadCorruptor`] from `balloc-noise`.
//!
//! All randomness in fault interpretation derives from the plan's seed
//! domain, separate from the decision RNG, so adding or removing a fault
//! never perturbs which bins a healthy run picks.

use balloc_noise::CorruptKind;

use crate::counters::{counter_events, Counters};

/// How one shard misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Each request to this shard takes `1 + U{0, …, 2·extra − 1}` extra
    /// ticks on top of the plan's base latency (mean ≈ `extra`).
    Slow {
        /// Mean extra latency in ticks; must be positive.
        extra: u64,
    },
    /// Each request to this shard stalls forever (never completes) with
    /// probability `per_mille / 1000`; only a timeout deadline ends it.
    Stalled {
        /// Stall probability in per-mille (0..=1000).
        per_mille: u32,
    },
    /// Each request to this shard fails cleanly (no ball placed) with
    /// probability `per_mille / 1000`.
    Erroring {
        /// Failure probability in per-mille (0..=1000).
        per_mille: u32,
    },
    /// The shard serves correctly but corrupts the loads it reports into
    /// snapshots, within additive budget `g` — the `g`-Adv-Comp
    /// adversary.
    CorruptedLoad {
        /// Corruption budget per bin; must be positive.
        g: u64,
        /// Corruption shape (understate or jitter).
        kind: CorruptKind,
    },
}

impl FaultKind {
    fn validate(&self) {
        match *self {
            FaultKind::Slow { extra } => {
                assert!(extra > 0, "slow fault needs a positive extra latency");
            }
            FaultKind::Stalled { per_mille } | FaultKind::Erroring { per_mille } => {
                assert!(
                    per_mille <= 1000,
                    "fault probability is per-mille (0..=1000), got {per_mille}"
                );
            }
            FaultKind::CorruptedLoad { g, .. } => {
                assert!(g > 0, "corruption budget g must be positive");
            }
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::Slow { extra } => write!(f, "slow(+~{extra})"),
            FaultKind::Stalled { per_mille } => write!(f, "stalled({per_mille}‰)"),
            FaultKind::Erroring { per_mille } => write!(f, "erroring({per_mille}‰)"),
            FaultKind::CorruptedLoad { g, kind } => write!(f, "corrupted(g={g}, {kind})"),
        }
    }
}

/// One faulty shard: which shard, and how it misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyShard {
    /// Index of the afflicted shard.
    pub shard: usize,
    /// The fault.
    pub kind: FaultKind,
}

/// The full fault configuration of a resilience run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base service latency in ticks for every request, healthy or not;
    /// must be positive (a zero-tick service would make timeouts and
    /// hedging vacuous).
    pub base_latency: u64,
    /// The misbehaving shards. A shard may carry several faults; they
    /// compose (extra latency, then stall/error draws, and corruption
    /// applies at snapshot refresh).
    pub faults: Vec<FaultyShard>,
}

impl FaultPlan {
    /// A fault-free plan: every request takes exactly `base_latency`
    /// ticks.
    #[must_use]
    pub fn clean(base_latency: u64) -> Self {
        Self {
            base_latency,
            faults: Vec::new(),
        }
    }

    /// Adds a fault to the plan (builder style).
    #[must_use]
    pub fn with(mut self, shard: usize, kind: FaultKind) -> Self {
        self.faults.push(FaultyShard { shard, kind });
        self
    }

    /// Asserts the plan is usable against `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if the base latency is zero, a fault names a shard out of
    /// range, or a fault's own parameters are invalid.
    pub fn validate(&self, shards: usize) {
        assert!(self.base_latency > 0, "base latency must be positive");
        for fault in &self.faults {
            assert!(
                fault.shard < shards,
                "fault on shard {} but only {} shards exist",
                fault.shard,
                shards
            );
            fault.kind.validate();
        }
    }

    /// The composed fault role of shard `s`.
    #[must_use]
    pub fn role_of(&self, s: usize) -> ShardRole {
        let mut role = ShardRole::default();
        for fault in self.faults.iter().filter(|f| f.shard == s) {
            match fault.kind {
                FaultKind::Slow { extra } => role.slow_extra = role.slow_extra.max(extra),
                FaultKind::Stalled { per_mille } => {
                    role.stall_per_mille = role.stall_per_mille.max(per_mille);
                }
                FaultKind::Erroring { per_mille } => {
                    role.error_per_mille = role.error_per_mille.max(per_mille);
                }
                FaultKind::CorruptedLoad { g, kind } => role.corrupt = Some((g, kind)),
            }
        }
        role
    }

    /// Whether any fault in the plan can stall a request indefinitely
    /// (in which case the policy must include a timeout to terminate).
    #[must_use]
    pub fn can_stall(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Stalled { per_mille } if per_mille > 0))
    }
}

/// A shard's composed fault behaviour, resolved from a [`FaultPlan`]
/// (multiple faults on one shard merge by taking the worst of each
/// dimension).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRole {
    /// Mean extra latency (0 = healthy speed).
    pub slow_extra: u64,
    /// Stall probability in per-mille.
    pub stall_per_mille: u32,
    /// Clean-failure probability in per-mille.
    pub error_per_mille: u32,
    /// Load-report corruption, if any.
    pub corrupt: Option<(u64, CorruptKind)>,
}

counter_events! {
    /// Events counted by the resilience engine's fault-injecting leaf.
    FaultEvent {
        /// A request drew extra latency from a slow shard.
        Slowed,
        /// A request stalled (terminated only by a deadline).
        Stalled,
        /// A request failed cleanly with `Faulted`.
        Errored,
        /// A snapshot refresh (each one an opportunity for load
        /// corruption).
        Refreshed,
        /// A hedge duplicate's decision was moved off the first
        /// attempt's shard (see [`HedgeSteer`](crate::HedgeSteer)).
        Retargeted,
    }
}

/// Shared counters of injected faults, for observability and the
/// conformance ledger (every stall must reappear as a timeout, every
/// clean error as a retry, shed, or surfaced failure).
pub type FaultStats = Counters<FaultEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_has_default_roles() {
        let plan = FaultPlan::clean(2);
        plan.validate(4);
        assert!(!plan.can_stall());
        for s in 0..4 {
            assert_eq!(plan.role_of(s), ShardRole::default());
        }
    }

    #[test]
    fn roles_compose_per_shard() {
        let plan = FaultPlan::clean(1)
            .with(0, FaultKind::Slow { extra: 8 })
            .with(0, FaultKind::Erroring { per_mille: 50 })
            .with(2, FaultKind::Stalled { per_mille: 10 })
            .with(
                3,
                FaultKind::CorruptedLoad {
                    g: 4,
                    kind: CorruptKind::Understate,
                },
            );
        plan.validate(4);
        assert!(plan.can_stall());
        let r0 = plan.role_of(0);
        assert_eq!(r0.slow_extra, 8);
        assert_eq!(r0.error_per_mille, 50);
        assert_eq!(r0.stall_per_mille, 0);
        assert_eq!(plan.role_of(1), ShardRole::default());
        assert_eq!(plan.role_of(2).stall_per_mille, 10);
        assert_eq!(
            plan.role_of(3).corrupt,
            Some((4, CorruptKind::Understate))
        );
    }

    #[test]
    fn duplicate_faults_take_the_worst() {
        let plan = FaultPlan::clean(1)
            .with(1, FaultKind::Slow { extra: 2 })
            .with(1, FaultKind::Slow { extra: 9 })
            .with(1, FaultKind::Stalled { per_mille: 3 })
            .with(1, FaultKind::Stalled { per_mille: 1 });
        let role = plan.role_of(1);
        assert_eq!(role.slow_extra, 9);
        assert_eq!(role.stall_per_mille, 3);
    }

    #[test]
    fn zero_probability_stall_does_not_require_timeout() {
        let plan = FaultPlan::clean(1).with(0, FaultKind::Stalled { per_mille: 0 });
        assert!(!plan.can_stall());
    }

    #[test]
    fn fault_kinds_display() {
        assert_eq!(FaultKind::Slow { extra: 4 }.to_string(), "slow(+~4)");
        assert_eq!(
            FaultKind::Stalled { per_mille: 25 }.to_string(),
            "stalled(25‰)"
        );
        assert_eq!(
            FaultKind::Erroring { per_mille: 100 }.to_string(),
            "erroring(100‰)"
        );
        assert_eq!(
            FaultKind::CorruptedLoad {
                g: 3,
                kind: CorruptKind::Jitter
            }
            .to_string(),
            "corrupted(g=3, jitter)"
        );
    }

    #[test]
    #[should_panic(expected = "only 2 shards exist")]
    fn out_of_range_shard_rejected() {
        FaultPlan::clean(1)
            .with(5, FaultKind::Slow { extra: 1 })
            .validate(2);
    }

    #[test]
    #[should_panic(expected = "per-mille")]
    fn overflowing_probability_rejected() {
        FaultPlan::clean(1)
            .with(0, FaultKind::Erroring { per_mille: 1001 })
            .validate(2);
    }

    #[test]
    #[should_panic(expected = "base latency must be positive")]
    fn zero_base_latency_rejected() {
        FaultPlan::clean(0).validate(2);
    }
}
