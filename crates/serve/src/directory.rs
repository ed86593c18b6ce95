//! The elastic shard membership map: [`ShardDirectory`].
//!
//! Every serving layer before this module assumed a fixed set of `S`
//! shards wired at spawn time. Production endpoint sets grow, shrink,
//! and fail at runtime — the abstraction `tower-discover` captures as an
//! ordered stream of `Change::{Insert, Remove}` events. This module is
//! that abstraction made concrete for a sharded bin space:
//!
//! * [`ShardId`] — a stable identity, never reused within a directory;
//! * [`MembershipEpoch`] — a version counter bumped by every applied
//!   change, carried across the wire (`HELLO`/`RESP_BIN`) so clients can
//!   detect membership drift without a full map exchange;
//! * [`Change`] — the ordered membership log entry, stamped with the
//!   [`VClock`](balloc_sim::VClock) tick it was applied at;
//! * [`RebalanceKind`] — how the `n` bins are assigned to members:
//!   contiguous proportional blocks (minimal movement, the static
//!   layout's generalization) or hash-slot placement (uniform spread,
//!   more movement per change);
//! * [`BinMove`] — the migration plan a change produces: exactly the
//!   bins whose owner changed, so a rebalancer can move their balls and
//!   debit the conservation ledger precisely.
//!
//! **This module is the only place shard-index arithmetic is allowed**
//! (`s·n/M` block bounds, hash-slot modulo). Everywhere else must go
//! through [`ShardDirectory::slot_of`] / [`ShardDirectory::ranges`] —
//! machine-enforced by lint L008 `raw-shard-index`.

use std::ops::Range;

use balloc_core::rng::Fnv1a;

/// Stable identity of one shard. Ids are assigned monotonically by the
/// directory and never reused, so a log entry's meaning cannot change
/// when members come and go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u64);

/// The membership version: the number of changes applied so far. Epoch
/// `0` is the empty directory; a client that presents epoch `0` is
/// saying "I do not know the membership yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord)]
pub struct MembershipEpoch(pub u64);

/// One membership change, in `tower-discover` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// A shard joined the membership.
    Insert(ShardId),
    /// A shard left the membership.
    Remove(ShardId),
}

/// How bins are assigned to members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceKind {
    /// Contiguous blocks proportional to the member count: member at
    /// slot `s` of `M` owns bins `s·n/M .. (s+1)·n/M`. Reproduces the
    /// fixed-`S` layout exactly when the members are the first `S`
    /// inserts, and moves `O(n/M)`-sized block edges per change.
    Proportional,
    /// Hash-slot placement: bin `i` is owned by
    /// `members[fnv1a(i) mod M]`. Spread is uniform regardless of
    /// membership history, at the cost of reshuffling roughly a
    /// `(M-1)/M` fraction of bins on every change — the churn
    /// experiment measures exactly that trade.
    HashSlot,
}

/// One entry of the migration plan a change produces: bin `bin` was
/// owned by `from` and is now owned by `to`. The balls resting in the
/// bin must be handed over — counted as `in_migration` by the rebalance
/// ledger until the new owner has absorbed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinMove {
    /// The global bin index whose ownership changed.
    pub bin: usize,
    /// The previous owner.
    pub from: ShardId,
    /// The new owner.
    pub to: ShardId,
}

/// The epoch-versioned membership map: which shard owns each of the `n`
/// bins, an ordered change log, and the migration plan of every change.
#[derive(Debug, Clone)]
pub struct ShardDirectory {
    n: usize,
    rebalance: RebalanceKind,
    epoch: MembershipEpoch,
    /// Members in insertion order; removal preserves the order of the
    /// survivors. The *slot* of a member is its index here.
    members: Vec<ShardId>,
    /// Bin → slot index into `members`. Empty until the first insert.
    owner_slot: Vec<u32>,
    /// The ordered change log: `(virtual tick, change)`.
    log: Vec<(u64, Change)>,
    next_id: u64,
}

impl ShardDirectory {
    /// An empty directory over `n` bins. No bin has an owner until the
    /// first [`Change::Insert`] is applied.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, rebalance: RebalanceKind) -> Self {
        assert!(n > 0, "need at least one bin");
        Self {
            n,
            rebalance,
            epoch: MembershipEpoch(0),
            members: Vec::new(),
            owner_slot: Vec::new(),
            log: Vec::new(),
            next_id: 0,
        }
    }

    /// The static layout every pre-directory caller wired by hand:
    /// `shards` members inserted at tick 0 under
    /// [`RebalanceKind::Proportional`], so member slot `s` owns the
    /// contiguous block `s·n/S .. (s+1)·n/S` (block sizes differ by at
    /// most one).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shards <= n`.
    #[must_use]
    pub fn uniform(n: usize, shards: usize) -> Self {
        assert!(
            (1..=n).contains(&shards),
            "shards must lie in 1..=n (got {shards} for n = {n})"
        );
        let mut dir = Self::new(n, RebalanceKind::Proportional);
        for _ in 0..shards {
            let _ = dir.insert(0);
        }
        dir
    }

    /// Number of bins.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current membership epoch.
    #[must_use]
    pub fn epoch(&self) -> MembershipEpoch {
        self.epoch
    }

    /// Current member count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the directory has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in slot order.
    #[must_use]
    pub fn members(&self) -> &[ShardId] {
        &self.members
    }

    /// The ordered change log: `(virtual tick applied at, change)`.
    #[must_use]
    pub fn log(&self) -> &[(u64, Change)] {
        &self.log
    }

    /// Inserts a fresh member at virtual tick `now`, returning its id
    /// and the migration plan (bins handed to the newcomer).
    pub fn insert(&mut self, now: u64) -> (ShardId, Vec<BinMove>) {
        let id = ShardId(self.next_id);
        let moves = self.apply(Change::Insert(id), now);
        (id, moves)
    }

    /// Removes member `id` at virtual tick `now`, returning the
    /// migration plan (the bins it owned, handed to survivors).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member or is the last member (a bin must
    /// always have an owner).
    pub fn remove(&mut self, id: ShardId, now: u64) -> Vec<BinMove> {
        self.apply(Change::Remove(id), now)
    }

    /// Applies one membership change, bumping the epoch, appending to
    /// the log, and returning the migration plan: exactly the bins whose
    /// owner changed, with old and new owner.
    ///
    /// # Panics
    ///
    /// Panics on inserting an id that is not the next fresh id or is
    /// already a member, on removing a non-member, on removing the last
    /// member, and on growing beyond `n` members.
    pub fn apply(&mut self, change: Change, now: u64) -> Vec<BinMove> {
        let old_members = self.members.clone();
        let old_slots = std::mem::take(&mut self.owner_slot);
        match change {
            Change::Insert(id) => {
                assert_eq!(
                    id.0, self.next_id,
                    "inserted ids must be fresh (next is {})",
                    self.next_id
                );
                assert!(
                    self.members.len() < self.n,
                    "cannot have more members than bins"
                );
                self.members.push(id);
                self.next_id += 1;
            }
            Change::Remove(id) => {
                assert!(
                    self.members.contains(&id),
                    "cannot remove non-member shard {id:?}"
                );
                assert!(
                    self.members.len() > 1,
                    "cannot remove the last member: every bin needs an owner"
                );
                self.members.retain(|&m| m != id);
            }
        }
        self.owner_slot = self.compute_owners();
        self.epoch.0 += 1;
        self.log.push((now, change));

        if old_slots.is_empty() {
            return Vec::new();
        }
        let mut moves = Vec::new();
        for bin in 0..self.n {
            let from = old_members[old_slots[bin] as usize];
            let to = self.members[self.owner_slot[bin] as usize];
            if from != to {
                moves.push(BinMove { bin, from, to });
            }
        }
        moves
    }

    /// Bin → member slot map under the current membership. The only
    /// place in the workspace where shard-index arithmetic happens.
    fn compute_owners(&self) -> Vec<u32> {
        let m = self.members.len();
        let mut slots = vec![0u32; self.n];
        match self.rebalance {
            RebalanceKind::Proportional => {
                #[allow(clippy::cast_possible_truncation)]
                for (s, range) in self.block_ranges().into_iter().enumerate() {
                    for bin in range {
                        slots[bin] = s as u32;
                    }
                }
            }
            RebalanceKind::HashSlot => {
                for (bin, slot) in slots.iter_mut().enumerate() {
                    let mut fnv = Fnv1a::new();
                    fnv.write_u64(bin as u64);
                    #[allow(clippy::cast_possible_truncation)]
                    {
                        *slot = (fnv.finish() % m as u64) as u32;
                    }
                }
            }
        }
        slots
    }

    /// The contiguous block partition for the current member count:
    /// slot `s` owns `s·n/M .. (s+1)·n/M`.
    fn block_ranges(&self) -> Vec<Range<usize>> {
        let m = self.members.len();
        (0..m).map(|s| s * self.n / m..(s + 1) * self.n / m).collect()
    }

    /// The member slot (index into [`members`](Self::members)) owning
    /// global bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if the directory is empty or `bin >= n`.
    #[must_use]
    pub fn slot_of(&self, bin: usize) -> usize {
        assert!(!self.members.is_empty(), "directory has no members");
        self.owner_slot[bin] as usize
    }

    /// The member owning global bin `bin`.
    ///
    /// # Panics
    ///
    /// Panics if the directory is empty or `bin >= n`.
    #[must_use]
    pub fn owner_of(&self, bin: usize) -> ShardId {
        self.members[self.slot_of(bin)]
    }

    /// Deterministically remaps `bin` onto a bin owned by a member slot
    /// *other than* `avoid` — the hedge layer's "second choice in space":
    /// a duplicate request re-lands on a different shard than the attempt
    /// it is backing up. The target slot is the cyclic successor of
    /// `avoid`, and the replacement bin is picked by the original bin's
    /// index within that slot's owned set, so the mapping is a pure
    /// function of the membership (no RNG draws — decision streams are
    /// untouched).
    ///
    /// Returns `bin` unchanged if it is not owned by `avoid`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two members (there is no other shard to
    /// retarget onto) or if `avoid` is not a live slot.
    #[must_use]
    pub fn retarget(&self, bin: usize, avoid: usize) -> usize {
        let m = self.members.len();
        assert!(m >= 2, "retargeting needs at least two members");
        assert!(avoid < m, "avoid slot {avoid} out of range (members: {m})");
        if self.owner_slot[bin] as usize != avoid {
            return bin;
        }
        let target = (avoid + 1) % m;
        let owned: Vec<usize> = (0..self.n)
            .filter(|&b| self.owner_slot[b] as usize == target)
            .collect();
        owned[bin % owned.len()]
    }

    /// The bin range of each member slot, in slot order — the shape the
    /// static cluster spawns workers from.
    ///
    /// # Panics
    ///
    /// Panics under [`RebalanceKind::HashSlot`] (ownership is not
    /// contiguous there) or on an empty directory.
    #[must_use]
    pub fn ranges(&self) -> Vec<Range<usize>> {
        assert!(!self.members.is_empty(), "directory has no members");
        assert!(
            self.rebalance == RebalanceKind::Proportional,
            "hash-slot ownership is not contiguous; iterate slot_of instead"
        );
        self.block_ranges()
    }

    /// FNV-1a digest of the entire membership history and current
    /// state: `n`, rebalance kind, epoch, members, the full bin→owner
    /// map, and the ordered change log with its virtual timestamps. A
    /// pure function of the applied change sequence, so two replays of
    /// the same `(config, seed)` agree bit for bit.
    #[must_use]
    pub fn membership_digest(&self) -> u64 {
        let mut fnv = Fnv1a::new();
        fnv.write_u64(self.n as u64);
        fnv.write_u64(match self.rebalance {
            RebalanceKind::Proportional => 1,
            RebalanceKind::HashSlot => 2,
        });
        fnv.write_u64(self.epoch.0);
        fnv.write_u64(self.members.len() as u64);
        for &m in &self.members {
            fnv.write_u64(m.0);
        }
        for &slot in &self.owner_slot {
            fnv.write_u64(u64::from(slot));
        }
        for &(at, change) in &self.log {
            fnv.write_u64(at);
            match change {
                Change::Insert(id) => {
                    fnv.write_u64(1);
                    fnv.write_u64(id.0);
                }
                Change::Remove(id) => {
                    fnv.write_u64(2);
                    fnv.write_u64(id.0);
                }
            }
        }
        fnv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_reproduces_the_block_partition() {
        assert_eq!(ShardDirectory::uniform(10, 3).ranges(), vec![0..3, 3..6, 6..10]);
        for (n, s) in [(10, 3), (64, 4), (7, 7), (128, 1), (128, 8), (1000, 13), (64, 1)] {
            let dir = ShardDirectory::uniform(n, s);
            assert_eq!(dir.len(), s);
            assert_eq!(dir.epoch(), MembershipEpoch(s as u64));
            let ranges = dir.ranges();
            assert_eq!(ranges.len(), s);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[s - 1].end, n);
            for (slot, range) in ranges.iter().enumerate() {
                for bin in range.clone() {
                    assert_eq!(dir.slot_of(bin), slot);
                }
            }
        }
    }

    #[test]
    fn retarget_lands_off_the_avoided_slot_and_is_pure() {
        for rebalance in [RebalanceKind::Proportional, RebalanceKind::HashSlot] {
            let mut dir = ShardDirectory::new(16, rebalance);
            for t in 0..3 {
                let _ = dir.insert(t);
            }
            for bin in 0..16 {
                let avoid = dir.slot_of(bin);
                let moved = dir.retarget(bin, avoid);
                assert_ne!(dir.slot_of(moved), avoid, "must land on another slot");
                assert_eq!(moved, dir.retarget(bin, avoid), "pure function");
                let other = (avoid + 1) % 3;
                assert_eq!(dir.retarget(bin, other), bin, "non-owned bins pass through");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn retarget_needs_a_second_member() {
        let dir = ShardDirectory::uniform(8, 1);
        let _ = dir.retarget(3, 0);
    }

    #[test]
    fn insert_hands_a_block_to_the_newcomer() {
        let mut dir = ShardDirectory::uniform(12, 2);
        let (id, moves) = dir.insert(5);
        assert_eq!(id, ShardId(2));
        assert_eq!(dir.epoch(), MembershipEpoch(3));
        assert!(!moves.is_empty());
        // Every move's destination is the newcomer or a rebalanced
        // survivor; every moved bin's new owner matches the map.
        for mv in &moves {
            assert_eq!(dir.owner_of(mv.bin), mv.to);
            assert_ne!(mv.from, mv.to);
        }
        assert_eq!(dir.log().last(), Some(&(5, Change::Insert(ShardId(2)))));
    }

    #[test]
    fn remove_debits_every_bin_of_the_departed() {
        let mut dir = ShardDirectory::uniform(12, 3);
        let victim = dir.members()[1];
        let owned: Vec<usize> = (0..12).filter(|&b| dir.owner_of(b) == victim).collect();
        let moves = dir.remove(victim, 9);
        assert!(!dir.members().contains(&victim));
        // All previously-owned bins appear in the plan, sourced from the
        // victim; no move targets the victim.
        for &bin in &owned {
            assert!(moves.iter().any(|m| m.bin == bin && m.from == victim));
        }
        for mv in &moves {
            assert_ne!(mv.to, victim);
        }
    }

    #[test]
    #[should_panic(expected = "last member")]
    fn removing_the_last_member_panics() {
        let mut dir = ShardDirectory::uniform(4, 1);
        let id = dir.members()[0];
        let _ = dir.remove(id, 0);
    }

    #[test]
    #[should_panic(expected = "non-member")]
    fn removing_a_stranger_panics() {
        let mut dir = ShardDirectory::uniform(4, 2);
        let _ = dir.remove(ShardId(99), 0);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut dir = ShardDirectory::uniform(16, 2);
        let victim = dir.members()[0];
        let _ = dir.remove(victim, 1);
        let (id, _) = dir.insert(2);
        assert_eq!(id, ShardId(2), "ids are monotone, not recycled");
    }

    #[test]
    fn hash_slot_spreads_and_moves_more() {
        let mut prop = ShardDirectory::new(256, RebalanceKind::Proportional);
        let mut hash = ShardDirectory::new(256, RebalanceKind::HashSlot);
        for dir in [&mut prop, &mut hash] {
            for _ in 0..4 {
                let _ = dir.insert(0);
            }
        }
        // Hash-slot ownership is non-contiguous but complete.
        let mut per_slot = [0usize; 4];
        for bin in 0..256 {
            per_slot[hash.slot_of(bin)] += 1;
        }
        assert!(per_slot.iter().all(|&c| c > 0), "{per_slot:?}");
        // A fifth insert moves (far) more bins under hash-slot than the
        // single block edge proportional hands over.
        let (_, prop_moves) = prop.insert(1);
        let (_, hash_moves) = hash.insert(1);
        assert!(
            hash_moves.len() > prop_moves.len(),
            "hash-slot should reshuffle more: {} vs {}",
            hash_moves.len(),
            prop_moves.len()
        );
    }

    #[test]
    fn digest_is_a_pure_function_of_the_change_sequence() {
        let build = || {
            let mut dir = ShardDirectory::uniform(64, 4);
            let victim = dir.members()[2];
            let _ = dir.remove(victim, 7);
            let _ = dir.insert(11);
            dir
        };
        let a = build();
        let b = build();
        assert_eq!(a.membership_digest(), b.membership_digest());
        // Any further change moves the digest.
        let mut c = build();
        let _ = c.insert(12);
        assert_ne!(a.membership_digest(), c.membership_digest());
    }

    #[test]
    fn epoch_counts_every_change() {
        let mut dir = ShardDirectory::uniform(8, 2);
        assert_eq!(dir.epoch(), MembershipEpoch(2));
        let (_, _) = dir.insert(1);
        assert_eq!(dir.epoch(), MembershipEpoch(3));
        let victim = dir.members()[0];
        let _ = dir.remove(victim, 2);
        assert_eq!(dir.epoch(), MembershipEpoch(4));
        assert_eq!(dir.log().len(), 4);
    }

    #[test]
    fn mid_history_ownership_is_always_total() {
        let mut dir = ShardDirectory::new(32, RebalanceKind::Proportional);
        let (a, _) = dir.insert(0);
        let _ = dir.insert(0);
        let _ = dir.insert(1);
        let _ = dir.remove(a, 2);
        for bin in 0..32 {
            let owner = dir.owner_of(bin);
            assert!(dir.members().contains(&owner));
        }
    }
}
