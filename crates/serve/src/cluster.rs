//! Shard-store lifecycles behind the [`LoadSink`] seam: the concurrent
//! buffer-backed [`ShardCluster`] and the single-threaded
//! [`DirectCluster`], shared between a thread's services as
//! `Rc<RefCell<DirectCluster>>`.
//!
//! Both in-process engines and the TCP front-end need the same thing from
//! the authoritative store: spawn it, hand out apply/refresh handles,
//! drain it, and get the merged [`LoadState`] back for conservation
//! accounting. PR 5 buried that lifecycle inside `run_concurrent`; this
//! module is the extraction, so a reactor thread can own a cluster the
//! same way the closed-loop engine does.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use balloc_core::LoadState;

use crate::buffer::{Buffer, BufferController};
use crate::directory::ShardDirectory;
use crate::service::{ServeError, Service};
use crate::shard::{merge_states, ShardRequest, ShardResponse, ShardService};
use crate::sink::LoadSink;
use crate::SnapshotPath;

/// A per-shard worker start hook: called once on each shard worker's own
/// OS thread, with the shard index, before the worker serves its first
/// request. The seam for CPU pinning / NUMA placement — the workspace has
/// no affinity syscalls of its own (no `unsafe`, no libc), so the caller
/// supplies whatever binding its platform offers.
pub type ShardWorkerHook = Arc<dyn Fn(usize) + Send + Sync>;

/// `S` shard workers, each an owned [`ShardService`] behind a bounded
/// [`Buffer`]. Handles fan applies out by bin range;
/// [`join`](Self::join) drains the workers and reassembles the
/// authoritative state.
#[derive(Debug)]
pub struct ShardCluster {
    template: ShardHandle,
    controllers: Vec<BufferController<ShardService>>,
}

impl ShardCluster {
    /// Spawns the shard workers for `n` bins over `shards` shards, each
    /// with a request buffer of `capacity`. Refreshes read through
    /// `snapshot`, whose one variant round-trips every shard's buffer.
    /// `on_worker` (if given) runs once on each worker's own thread
    /// before it serves — the CPU-pinning seam.
    ///
    /// # Panics
    ///
    /// Panics if `shards ∉ 1..=n` or `capacity == 0`.
    #[must_use]
    pub fn spawn(
        n: usize,
        shards: usize,
        capacity: usize,
        snapshot: SnapshotPath,
        on_worker: Option<ShardWorkerHook>,
    ) -> Self {
        // Irrefutable: a new snapshot path must be wired in here.
        let SnapshotPath::Buffered = snapshot;
        let directory = ShardDirectory::uniform(n, shards);
        let mut handles = Vec::new();
        let mut controllers = Vec::new();
        for (s, range) in directory.ranges().into_iter().enumerate() {
            let shard = ShardService::new(range.clone());
            let hook = on_worker.clone();
            let (handle, controller) = Buffer::spawn_with(shard, capacity, move || {
                if let Some(hook) = hook {
                    hook(s);
                }
            });
            handles.push((range, handle));
            controllers.push(controller);
        }
        Self {
            template: ShardHandle {
                shards: handles,
                directory,
            },
            controllers,
        }
    }

    /// A cloneable apply/refresh handle into the cluster.
    #[must_use]
    pub fn handle(&self) -> ShardHandle {
        self.template.clone()
    }

    /// Drains and joins every shard worker and merges their states into
    /// the global authoritative [`LoadState`].
    ///
    /// All [`ShardHandle`]s must have been dropped first (the workers
    /// exit when their last buffer handle closes); joining with live
    /// handles blocks until they drop.
    #[must_use]
    pub fn join(self) -> LoadState {
        drop(self.template);
        let shards: Vec<ShardService> = self.controllers.into_iter().map(|c| c.join()).collect();
        merge_states(&shards)
    }
}

/// Cloneable [`LoadSink`] into a [`ShardCluster`]: applies are
/// fire-and-forget casts into the owning shard's buffer (a full buffer is
/// back-pressure), refreshes round-trip every shard.
#[derive(Debug, Clone)]
pub struct ShardHandle {
    shards: Vec<(std::ops::Range<usize>, Buffer<ShardRequest, ShardResponse>)>,
    directory: ShardDirectory,
}

impl LoadSink for ShardHandle {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        let s = self.directory.slot_of(bin);
        debug_assert!(self.shards[s].0.contains(&bin), "directory out of sync");
        // Fire-and-forget: the decision is already made, the shard just
        // has to absorb the increment. A full buffer is back-pressure.
        self.shards[s].1.cast(ShardRequest::Apply { bin })
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        for (range, shard) in &mut self.shards {
            match shard.call(ShardRequest::ReadLoads)? {
                ShardResponse::Loads(loads) => {
                    snapshot[range.clone()].copy_from_slice(&loads);
                }
                ShardResponse::Applied => unreachable!("ReadLoads replies with Loads"),
            }
        }
        Ok(())
    }
}

/// Single-threaded direct shard access: the replay engines' and the
/// deterministic reactor's store — applies and refreshes touch the owned
/// [`ShardService`]s with no buffering, so they can never reject.
#[derive(Debug)]
pub struct DirectCluster {
    shards: Vec<ShardService>,
    directory: ShardDirectory,
}

impl DirectCluster {
    /// Builds the direct store for `n` bins over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards ∉ 1..=n`.
    #[must_use]
    pub fn new(n: usize, shards: usize) -> Self {
        let directory = ShardDirectory::uniform(n, shards);
        Self {
            shards: directory.ranges().into_iter().map(ShardService::new).collect(),
            directory,
        }
    }

    /// The merged authoritative state (conservation accounting).
    #[must_use]
    pub fn state(&self) -> LoadState {
        merge_states(&self.shards)
    }

    /// The membership map routing bins to shards.
    #[must_use]
    pub fn directory(&self) -> &ShardDirectory {
        &self.directory
    }
}

impl LoadSink for DirectCluster {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        let s = self.directory.slot_of(bin);
        self.shards[s].call(ShardRequest::Apply { bin }).map(|_| ())
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        for shard in &self.shards {
            shard.publish_into(snapshot);
        }
        Ok(())
    }
}

/// One direct store shared by every service on a thread (the replay
/// engines' workers, the reactor's connections): each call borrows it
/// for exactly one apply or refresh.
impl LoadSink for Rc<RefCell<DirectCluster>> {
    fn apply(&mut self, bin: usize) -> Result<(), ServeError> {
        self.borrow_mut().apply(bin)
    }

    fn refresh(&mut self, snapshot: &mut [u64]) -> Result<(), ServeError> {
        self.borrow_mut().refresh(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_slots_agree_with_shard_ranges() {
        for (n, shards) in [(10usize, 3usize), (128, 8), (7, 7), (1000, 13), (64, 1)] {
            let directory = ShardDirectory::uniform(n, shards);
            let ranges = directory.ranges();
            for bin in 0..n {
                let s = directory.slot_of(bin);
                assert!(
                    ranges[s].contains(&bin),
                    "bin {bin} mapped to shard {s} ({:?}) for n = {n}, S = {shards}",
                    ranges[s]
                );
            }
        }
    }

    #[test]
    fn direct_cluster_counts_exactly() {
        let mut cluster = DirectCluster::new(10, 3);
        for bin in [0usize, 3, 3, 9, 5] {
            cluster.apply(bin).unwrap();
        }
        let state = cluster.state();
        assert_eq!(state.balls(), 5);
        assert_eq!(state.loads()[3], 2);
        let mut snap = vec![0; 10];
        cluster.refresh(&mut snap).unwrap();
        assert_eq!(snap[3], 2);
        assert_eq!(snap.iter().sum::<u64>(), 5);
    }

    #[test]
    fn shard_cluster_round_trips_and_drains() {
        let cluster = ShardCluster::spawn(16, 4, 64, SnapshotPath::Buffered, None);
        let mut handle = cluster.handle();
        for bin in 0..16usize {
            handle.apply(bin).unwrap();
        }
        let mut snap = vec![0; 16];
        handle.refresh(&mut snap).unwrap();
        // The refresh round-trips behind the queued applies, so every
        // apply is visible.
        assert_eq!(snap, vec![1u64; 16]);
        drop(handle);
        let state = cluster.join();
        assert_eq!(state.balls(), 16);
    }

    #[test]
    fn shard_worker_hook_fires_once_per_shard_on_the_worker_thread() {
        use std::sync::Mutex;

        let seen: Arc<Mutex<Vec<(usize, std::thread::ThreadId)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let hook: ShardWorkerHook = {
            let seen = Arc::clone(&seen);
            Arc::new(move |shard| {
                seen.lock().unwrap().push((shard, std::thread::current().id()));
            })
        };
        let cluster = ShardCluster::spawn(64, 4, 64, SnapshotPath::Buffered, Some(hook));
        let mut handle = cluster.handle();
        for bin in 0..64usize {
            handle.apply(bin).unwrap();
        }
        drop(handle);
        assert_eq!(cluster.join().balls(), 64);

        let mut seen = seen.lock().unwrap().clone();
        seen.sort_by_key(|&(shard, _)| shard);
        let shards: Vec<usize> = seen.iter().map(|&(s, _)| s).collect();
        assert_eq!(shards, vec![0, 1, 2, 3], "one start hook per shard, each exactly once");
        // Each hook ran on its own worker's thread — and none on ours.
        let me = std::thread::current().id();
        for &(shard, tid) in &seen {
            assert_ne!(tid, me, "hook for shard {shard} ran on the caller thread");
        }
        for a in 0..seen.len() {
            for b in a + 1..seen.len() {
                assert_ne!(seen[a].1, seen[b].1, "shards {a} and {b} shared a worker thread");
            }
        }
    }
}
