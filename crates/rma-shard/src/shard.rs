//! One shard: an independent [`Rma`] guarded by the pin-then-check
//! protocol of [`crate::optimistic`], plus cheap per-shard
//! load counters and the decaying access histogram that drives
//! shard splits and merges.
//!
//! # Synchronisation layout
//!
//! The inner RMA lives in an [`UnsafeCell`]; three cooperating
//! mechanisms decide who may touch it:
//!
//! * `lock: RwLock<()>` — mutual exclusion between *lock holders*:
//!   writers (point mutations, batch application, maintenance drains)
//!   take it exclusively, fallback readers take it shared. The lock
//!   guards no data directly (hence `()`): it orders lock-based
//!   accessors among themselves.
//! * `writing: AtomicBool` — up while a mutation is in progress:
//!   raised *before* and lowered *after* every `&mut Rma` section.
//! * `opt_pins: AtomicU64` — count of optimistic readers currently
//!   inside the shard. A writer that has raised the flag **waits for
//!   this count to drain to zero** before creating `&mut Rma`. New
//!   optimistic readers see the flag and step aside at once, so the
//!   drain is bounded by the reads already in flight.
//!
//! The wait-for-pins step is what makes the optimistic path *sound*:
//! an optimistic reader never overlaps a mutation, so it runs the
//! ordinary safe `&Rma` accessors, once — no torn reads to tolerate,
//! no use-after-`munmap` when a resize unwires pages (`rewiring`
//! remaps shrunk tails `PROT_NONE`; a truly racing reader could fault
//! on them, which no check after the fact can undo). See
//! [`crate::optimistic`] for the reader side.
//!
//! `retired` marks shards that maintenance has replaced in a newer
//! topology: writers that reach a retired shard re-route through the
//! fresh topology; readers may still serve from it (its content is
//! frozen at retirement, which is linearizable because the reader
//! obtained its topology pointer before the swap).

use crate::access::AccessStats;
use crate::splitter::Splitters;
use crate::ShardConfig;
use rma_core::{Key, Rma};
use std::cell::UnsafeCell;
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Arc, RwLock, RwLockWriteGuard};

/// Counts `RwLock` acquisitions across an index — the test hook that
/// verifies the happy-path `get` takes zero locks.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Shared (read) shard-lock acquisitions.
    pub read_locks: AtomicU64,
    /// Exclusive (write) shard-lock acquisitions.
    pub write_locks: AtomicU64,
    /// Reader pins that met a writer (each is followed by another pin
    /// or by the lock fallback) — the contention signal complementing
    /// the two lock counters.
    pub opt_retries: AtomicU64,
}

/// A single key-range shard. Rebalances and resizes inside the inner
/// RMA happen under this shard's write lock *and* the writer half of
/// the pin protocol, and therefore never block operations on sibling
/// shards.
pub(crate) struct Shard {
    /// Up while a mutation is in progress.
    pub(crate) writing: AtomicBool,
    /// Optimistic readers currently inside the shard.
    pub(crate) opt_pins: AtomicU64,
    /// Set (under the write lock) when maintenance replaces this
    /// shard in a newer topology; writers must re-route.
    retired: AtomicBool,
    /// Orders lock-based accessors; guards no data directly.
    lock: RwLock<()>,
    cell: UnsafeCell<Rma>,
    /// Point/scan reads routed to this shard since construction.
    pub(crate) reads: AtomicU64,
    /// Inserts/removes/batch elements routed to this shard.
    pub(crate) writes: AtomicU64,
    /// Decaying histogram of where accesses land inside the shard's
    /// key range — the signal [`crate::ShardedRma::plan_maintenance`]
    /// splits and merges by.
    pub(crate) stats: AccessStats,
    lock_stats: Arc<LockStats>,
}

// SAFETY: `Rma` is `Send + Sync` (asserted below); the `UnsafeCell`
// is only ever accessed under the protocol above — `&Rma` by lock
// readers (excluded from writers by the RwLock) and by optimistic
// readers (excluded from writers by the pin drain), `&mut Rma` only
// inside `ShardWriteGuard::mutate` while holding the write lock with
// the `writing` flag up and the pin count at zero.
unsafe impl Send for Shard {}
// SAFETY: sharing `&Shard` across threads hands out only the accesses
// argued above — `&Rma` to pinned or read-locked readers, `&mut Rma`
// to the one write-lock holder once the pins have drained. Every
// other field (the atomic flags and counters, the `RwLock`, the
// `AccessStats` histogram, the `Arc<LockStats>`) is `Sync` on its own.
unsafe impl Sync for Shard {}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Rma>();
};

/// Buckets per shard in the [`AccessStats`] histogram.
const HIST_BUCKETS: usize = 32;

impl Shard {
    /// A shard over `rma` whose histogram models the key range
    /// `[lo, hi)` in [`HIST_BUCKETS`] buckets.
    pub(crate) fn new(
        rma: Rma,
        lo: Option<Key>,
        hi: Option<Key>,
        lock_stats: Arc<LockStats>,
    ) -> Self {
        Shard {
            writing: AtomicBool::new(false),
            opt_pins: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            lock: RwLock::new(()),
            cell: UnsafeCell::new(rma),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            stats: AccessStats::new(lo, hi, HIST_BUCKETS),
            lock_stats,
        }
    }

    /// Raw pointer to the inner RMA; dereferencing requires the
    /// protocol documented on [`Shard`].
    pub(crate) fn rma_ptr(&self) -> *mut Rma {
        self.cell.get()
    }

    /// The index-wide lock/contention counters this shard feeds.
    pub(crate) fn lock_stats(&self) -> &LockStats {
        &self.lock_stats
    }

    /// Runs `f` over the inner RMA under the shard's read lock: the
    /// fallback of [`peek`](Self::peek), and the whole-shard walks of
    /// the test helpers and the split-point search.
    pub(crate) fn locked<R>(&self, f: impl FnOnce(&Rma) -> R) -> R {
        self.lock_stats.read_locks.fetch_add(1, Relaxed);
        let _guard = self.lock.read().expect("shard lock poisoned");
        // SAFETY: mutation happens only under the write lock, which
        // the read guard excludes; concurrent optimistic readers only
        // create further `&Rma`.
        f(unsafe { &*self.cell.get() })
    }

    /// Exclusive lock-based access. Reading through the guard is
    /// immediate ([`ShardWriteGuard::rma`]); mutating goes through
    /// [`ShardWriteGuard::mutate`], which runs the writer half of the
    /// pin protocol.
    pub(crate) fn write(&self) -> ShardWriteGuard<'_> {
        self.lock_stats.write_locks.fetch_add(1, Relaxed);
        let guard = self.lock.write().expect("shard lock poisoned");
        ShardWriteGuard {
            shard: self,
            _guard: guard,
        }
    }
}

/// Exclusive access to a shard under its write lock.
pub(crate) struct ShardWriteGuard<'a> {
    shard: &'a Shard,
    _guard: RwLockWriteGuard<'a, ()>,
}

impl ShardWriteGuard<'_> {
    /// Reads the inner RMA. The flag stays down: concurrent optimistic
    /// readers may share the view (maintenance drains use this). The
    /// borrow is tied to the *guard* (not the shard) so it cannot
    /// outlive the lock or overlap a [`mutate`](Self::mutate) call.
    pub(crate) fn rma(&self) -> &Rma {
        // SAFETY: the write lock excludes every other lock holder;
        // optimistic readers only create further `&Rma`.
        unsafe { &*self.shard.rma_ptr() }
    }

    /// True once maintenance has replaced this shard in a newer
    /// topology (the flag is set under the write lock); the caller
    /// must re-route instead of operating here.
    pub(crate) fn is_retired(&self) -> bool {
        self.shard.retired.load(Relaxed)
    }

    /// Marks the shard replaced. Callers publish the successor
    /// topology before releasing this guard, so every re-routed
    /// writer finds the new shard.
    pub(crate) fn retire(&self) {
        self.shard.retired.store(true, Relaxed);
    }

    /// Runs `f` with exclusive `&mut` access to the inner RMA under
    /// the writer half of the pin protocol: raise the flag, wait for
    /// in-flight optimistic readers to drain, mutate, lower the flag.
    ///
    /// The drain terminates because the raised flag sends every new
    /// optimistic reader, within a few pins, to the lock-based
    /// fallback (which blocks on the `RwLock` this guard holds), so
    /// `opt_pins` returns to zero.
    pub(crate) fn mutate<R>(&mut self, f: impl FnOnce(&mut Rma) -> R) -> R {
        // SeqCst on the flag store and the pin load gives the
        // store→load ordering of the Dekker pattern: either a reader's
        // pin increment is visible to the loop below (we wait for it),
        // or our raised flag is visible to the reader's check (it
        // unpins without touching the cell).
        self.shard.writing.store(true, SeqCst);
        let mut spins = 0u32;
        while self.shard.opt_pins.load(SeqCst) != 0 {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: write lock held (no lock-based aliases), flag up
        // and pins drained (no optimistic aliases): access is unique.
        let out = f(unsafe { &mut *self.shard.rma_ptr() });
        self.shard.writing.store(false, SeqCst);
        out
    }
}

/// Write guards over the contiguous run of shards that one
/// maintenance step restructures. A step locks only the shards inside
/// its key range (in ascending order, so it cannot deadlock against
/// point writers, which hold at most one shard lock), drains them,
/// retires them, and releases — writers elsewhere in the key space
/// never queue behind it.
pub(crate) struct StepGuards<'a> {
    guards: Vec<ShardWriteGuard<'a>>,
    locked_at: std::time::Instant,
}

impl<'a> StepGuards<'a> {
    /// Locks `shards[range]` in ascending index order.
    pub(crate) fn lock(shards: &'a [Arc<Shard>], range: std::ops::RangeInclusive<usize>) -> Self {
        StepGuards {
            guards: shards[range].iter().map(|s| s.write()).collect(),
            locked_at: std::time::Instant::now(),
        }
    }

    /// How long these locks have been held — the writer-visible cost
    /// of the step, measured just before release.
    pub(crate) fn held(&self) -> std::time::Duration {
        self.locked_at.elapsed()
    }

    /// Concatenated elements of every locked shard, in key order
    /// (shards cover contiguous disjoint ranges).
    pub(crate) fn collect_elems(&self) -> Vec<(Key, rma_core::Value)> {
        let mut out = Vec::new();
        for g in &self.guards {
            g.rma().collect_into(&mut out);
        }
        out
    }

    /// The locked shards' arrays, in key order.
    pub(crate) fn rmas(&self) -> impl Iterator<Item = &Rma> {
        self.guards.iter().map(|g| g.rma())
    }

    /// Marks every locked shard replaced; callers publish the
    /// successor topology before dropping the guards.
    pub(crate) fn retire_all(&self) {
        for g in &self.guards {
            g.retire();
        }
    }
}

/// The sharding topology: splitters plus one shard per range. Shards
/// are `Arc`-shared so successive topologies (published through
/// [`crate::optimistic::TopoHandle`]) can reuse the untouched ones.
pub(crate) struct Topology {
    pub(crate) splitters: Splitters,
    pub(crate) shards: Vec<Arc<Shard>>,
}

impl Topology {
    /// Empty shards for the given splitters.
    pub(crate) fn empty(
        splitters: Splitters,
        cfg: &ShardConfig,
        lock_stats: &Arc<LockStats>,
    ) -> Self {
        let shards = (0..splitters.num_shards())
            .map(|i| {
                let (lo, hi) = splitters.range_of(i);
                Arc::new(Shard::new(
                    Rma::new(cfg.rma),
                    lo,
                    hi,
                    Arc::clone(lock_stats),
                ))
            })
            .collect();
        Topology { splitters, shards }
    }

    /// Stored elements per shard, in shard order.
    pub(crate) fn lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().map(|s| s.peek(Rma::len))
    }
}
