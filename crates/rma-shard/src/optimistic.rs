//! The lock-free read path: seqlock readers over shards and the
//! epoch-published topology handle.
//!
//! # Optimistic shard reads
//!
//! [`Shard::try_optimistic`] is the reader half of the seqlock
//! protocol described on [`Shard`]:
//!
//! 1. **pin** — increment the shard's `opt_pins` (SeqCst RMW);
//! 2. **check** — load the seqlock version; if odd, a writer is
//!    inside: unpin and retry (bounded), since reading now could
//!    observe a mutation mid-flight;
//! 3. **read** — run the closure over `&Rma`. Because every writer
//!    publishes an odd version *before* waiting for the pin count to
//!    drain, a reader pinned under an even version is guaranteed the
//!    writer has not yet touched the structure — the read is of
//!    stable memory, not a racy snapshot;
//! 4. **validate** — reload the version; a change means a writer
//!    arrived mid-read. The data read was still stable (the writer
//!    was parked on our pin), but retrying keeps the protocol's
//!    invariant trivially auditable: returned results always carry
//!    an unchanged version bracket.
//!
//! After [`OPTIMISTIC_RETRIES`] failed attempts the caller falls back
//! to the shard's `RwLock` read path, which waits its turn behind the
//! writer ([`Shard::peek`] is the two together). Retry termination is therefore structural: each attempt is
//! bounded, and the fallback always exists.
//!
//! Why readers must be *waited for* rather than merely validated: the
//! rewiring backend unmaps pages on shrink (`PROT_NONE`), so a reader
//! racing an actual mutation could fault, and Rust-level data races
//! are undefined behaviour regardless of validation. The pin drain
//! removes the race instead of detecting it; the cost is that writers
//! briefly wait for in-flight readers (bounded: new readers bail on
//! the odd version).
//!
//! # Epoch-published topology
//!
//! [`TopoHandle`] is a hand-rolled `ArcSwap`-style cell: the current
//! [`Topology`] lives behind an `AtomicPtr`, readers acquire it with
//! [`TopoHandle::pin`] (no locks), and maintenance publishes a
//! replacement with [`TopoHandle::publish`] + [`TopoHandle::reclaim`].
//! Reclamation is generation-counted: readers register in one of two
//! pin counters selected by the generation's parity; a publisher bumps
//! the generation and waits for the *previous* parity's counter to
//! drain before freeing the displaced topology. A reader that raced
//! the bump either revalidates onto the new parity or is drained like
//! any other old-parity reader — no hazard pointers, no deferred
//! garbage lists, and readers never block.

use crate::shard::{Shard, Topology};
use rma_core::Rma;
use std::sync::atomic::{
    AtomicPtr, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};

/// Optimistic attempts per operation before falling back to the
/// shard `RwLock`.
pub(crate) const OPTIMISTIC_RETRIES: usize = 8;

/// Unpins a shard on drop (keeps the pin balanced across early
/// returns and closure panics).
struct ShardPin<'a>(&'a AtomicU64);

impl<'a> ShardPin<'a> {
    fn new(pins: &'a AtomicU64) -> Self {
        pins.fetch_add(1, SeqCst);
        ShardPin(pins)
    }
}

impl Drop for ShardPin<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

impl Shard {
    /// Runs `f` over the shard's RMA without taking the `RwLock`,
    /// retrying on writer interference; `None` after
    /// [`OPTIMISTIC_RETRIES`] failed attempts (caller falls back to
    /// the lock). See the module docs for the protocol.
    pub(crate) fn try_optimistic<R>(&self, mut f: impl FnMut(&Rma) -> R) -> Option<R> {
        let mut failed = 0u64;
        for _ in 0..OPTIMISTIC_RETRIES {
            let pin = ShardPin::new(&self.opt_pins);
            let v1 = self.seq.load(SeqCst);
            if v1 & 1 == 0 {
                // SAFETY: pinned under an even version — every writer
                // publishes odd before waiting for pins to drain, so
                // no `&mut Rma` exists while this reference lives.
                let out = f(unsafe { &*self.rma_ptr() });
                let v2 = self.seq.load(SeqCst);
                drop(pin);
                if v1 == v2 {
                    if failed > 0 {
                        self.lock_stats().opt_retries.fetch_add(failed, Relaxed);
                    }
                    return Some(out);
                }
            } else {
                drop(pin);
            }
            failed += 1;
            std::hint::spin_loop();
        }
        self.lock_stats().opt_retries.fetch_add(failed, Relaxed);
        None
    }

    /// The one way to look at a shard: runs `f` over its RMA
    /// [optimistically](Self::try_optimistic), and under the shard's
    /// read lock only after repeated writer interference. `f` may run
    /// more than once and must leave nothing of a failed pass behind.
    /// A quiescent shard is read without any lock, so an observer —
    /// a stats sampler, a planner sizing its steps — does not move the
    /// lock counters it may be watching.
    pub(crate) fn peek<R>(&self, mut f: impl FnMut(&Rma) -> R) -> R {
        match self.try_optimistic(&mut f) {
            Some(out) => out,
            None => self.locked(f),
        }
    }
}

/// The epoch-published topology cell. One per [`crate::ShardedRma`];
/// swapped only by maintenance (serialized by the maintenance mutex),
/// read by everything else.
pub(crate) struct TopoHandle {
    current: AtomicPtr<Topology>,
    /// Publication generation; its parity selects the active pin slot.
    generation: AtomicU64,
    /// Reader registration counters, indexed by generation parity.
    pins: [AtomicU64; 2],
    /// Total successful publications — the
    /// [`MaintenanceStats::topologies_published`](crate::MaintenanceStats)
    /// feed (each incremental step publishes exactly one).
    publications: AtomicU64,
}

/// A displaced topology awaiting its grace period. Returned by
/// [`TopoHandle::publish`]; must be passed to [`TopoHandle::reclaim`]
/// after the publisher releases every shard lock (reclaiming while
/// holding them could deadlock against a pinned writer queued on the
/// same lock).
pub(crate) struct RetiredTopology {
    ptr: *mut Topology,
    /// Generation the displaced topology was current in.
    generation: u64,
}

// SAFETY: the pointer is exclusively owned by the publisher between
// `publish` and `reclaim`; `Topology` itself is Send + Sync.
unsafe impl Send for RetiredTopology {}

impl TopoHandle {
    pub(crate) fn new(topo: Topology) -> Self {
        TopoHandle {
            current: AtomicPtr::new(Box::into_raw(Box::new(topo))),
            generation: AtomicU64::new(0),
            pins: [AtomicU64::new(0), AtomicU64::new(0)],
            publications: AtomicU64::new(0),
        }
    }

    /// Topologies published since construction.
    pub(crate) fn publications(&self) -> u64 {
        self.publications.load(SeqCst)
    }

    /// Acquires the current topology without locking. The guard keeps
    /// the topology (and, transitively, its `Arc`ed shards) alive.
    pub(crate) fn pin(&self) -> TopoGuard<'_> {
        loop {
            let gen = self.generation.load(SeqCst);
            let slot = (gen & 1) as usize;
            self.pins[slot].fetch_add(1, SeqCst);
            if self.generation.load(SeqCst) == gen {
                // The registered slot is (or was a moment ago) the
                // active one: a publisher bumping past `gen` waits on
                // it before freeing what we are about to load, and the
                // pointer load below is ordered after the successful
                // revalidation, so it observes either the topology of
                // `gen` or a newer one — never a freed one.
                let topo = unsafe { &*self.current.load(SeqCst) };
                return TopoGuard {
                    handle: self,
                    slot,
                    topo,
                };
            }
            // Raced a publication: move to the fresh parity.
            self.pins[slot].fetch_sub(1, SeqCst);
            std::hint::spin_loop();
        }
    }

    /// The current topology, for code paths that already exclude
    /// publication (the maintenance mutex holder). The reference is
    /// valid until the caller itself publishes a successor and
    /// reclaims.
    pub(crate) fn load_exclusive(&self) -> &Topology {
        // SAFETY: only the maintenance-mutex holder publishes or
        // frees; the caller is that holder.
        unsafe { &*self.current.load(SeqCst) }
    }

    /// Swaps in `next` as the current topology. Callers must hold the
    /// maintenance mutex and have marked every replaced shard retired
    /// (under its write lock) beforehand, so re-routed writers find
    /// the successor. Does **not** free the old topology — release
    /// all shard locks first, then call [`TopoHandle::reclaim`].
    pub(crate) fn publish(&self, next: Topology) -> RetiredTopology {
        let generation = self.generation.load(SeqCst);
        let ptr = self.current.swap(Box::into_raw(Box::new(next)), SeqCst);
        self.generation.store(generation.wrapping_add(1), SeqCst);
        self.publications.fetch_add(1, SeqCst);
        RetiredTopology { ptr, generation }
    }

    /// Waits for every reader registered under the displaced
    /// topology's generation parity to unpin, then frees it. Readers
    /// never block here — only the (rare) publisher does.
    pub(crate) fn reclaim(&self, retired: RetiredTopology) {
        let slot = (retired.generation & 1) as usize;
        let mut spins = 0u32;
        while self.pins[slot].load(SeqCst) != 0 {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: the pointer came from `Box::into_raw` in `publish`,
        // is no longer reachable through `current`, and every reader
        // that could have loaded it has unpinned.
        drop(unsafe { Box::from_raw(retired.ptr) });
    }
}

impl Drop for TopoHandle {
    fn drop(&mut self) {
        // SAFETY: &mut self — no readers or publishers remain.
        drop(unsafe { Box::from_raw(*self.current.get_mut()) });
    }
}

/// A pinned view of the current topology; unpins on drop.
pub(crate) struct TopoGuard<'a> {
    handle: &'a TopoHandle,
    slot: usize,
    topo: &'a Topology,
}

impl std::ops::Deref for TopoGuard<'_> {
    type Target = Topology;
    fn deref(&self) -> &Topology {
        self.topo
    }
}

impl Drop for TopoGuard<'_> {
    fn drop(&mut self) {
        self.handle.pins[self.slot].fetch_sub(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::Splitters;
    use crate::ShardConfig;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

    fn topo(n: usize) -> Topology {
        let cfg = ShardConfig::default();
        Topology::empty(Splitters::uniform(n), &cfg, &Arc::new(Default::default()))
    }

    #[test]
    fn pin_sees_published_topology() {
        let h = TopoHandle::new(topo(2));
        assert_eq!(h.pin().shards.len(), 2);
        let retired = h.publish(topo(4));
        h.reclaim(retired);
        assert_eq!(h.pin().shards.len(), 4);
    }

    #[test]
    fn reclaim_waits_for_old_parity_readers() {
        let h = TopoHandle::new(topo(2));
        let guard = h.pin();
        let retired = h.publish(topo(3));
        // The old topology must stay readable while `guard` lives.
        assert_eq!(guard.shards.len(), 2);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|sc| {
            sc.spawn(|| {
                h.reclaim(retired);
                tx.send(()).unwrap();
            });
            // Reclaim cannot finish while the pin is held.
            assert!(rx
                .recv_timeout(std::time::Duration::from_millis(50))
                .is_err());
            drop(guard);
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("reclaim must finish once the reader unpins");
        });
        assert_eq!(h.pin().shards.len(), 3);
    }

    #[test]
    fn pins_balance_out() {
        let h = TopoHandle::new(topo(1));
        {
            let _a = h.pin();
            let _b = h.pin();
        }
        assert_eq!(h.pins[0].load(Relaxed), 0);
        assert_eq!(h.pins[1].load(Relaxed), 0);
    }

    #[test]
    fn optimistic_read_on_quiescent_shard_succeeds() {
        let cfg = ShardConfig::default();
        let t = topo(1);
        let shard = &t.shards[0];
        let _ = cfg;
        assert_eq!(shard.try_optimistic(|r| r.len()), Some(0));
        assert_eq!(shard.opt_pins.load(Relaxed), 0);
    }

    #[test]
    fn odd_version_makes_readers_bail_and_terminate() {
        let t = topo(1);
        let shard = &t.shards[0];
        // Simulate a writer parked mid-mutation: version odd.
        shard.seq.fetch_add(1, SeqCst);
        assert_eq!(shard.try_optimistic(|r| r.len()), None);
        assert_eq!(shard.opt_pins.load(Relaxed), 0, "pins must balance");
        shard.seq.fetch_add(1, SeqCst);
        assert_eq!(shard.try_optimistic(|r| r.len()), Some(0));
    }
}
