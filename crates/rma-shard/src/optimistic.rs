//! The lock-free read path: pinned looks at a shard and the
//! epoch-published topology handle.
//!
//! # Optimistic shard reads
//!
//! [`Shard::peek`] is the reader half of the protocol described on
//! [`Shard`]:
//!
//! 1. **pin** — increment the shard's `opt_pins` (SeqCst RMW);
//! 2. **check** — load the shard's `writing` flag; if it is up, a
//!    writer is inside or about to be: unpin and pin again (bounded);
//! 3. **read** — run the closure over `&Rma`, once, and return what it
//!    returned. Every writer raises the flag *before* waiting for the
//!    pin count to drain, so a reader that pinned and then found the
//!    flag down is counted by that wait: no `&mut Rma` exists until
//!    the closure has returned and the pin is dropped.
//!
//! Only the pin and the check repeat. After [`OPTIMISTIC_RETRIES`]
//! pins that each met a writer the closure runs — still once — under
//! the shard's `RwLock` read path, which waits its turn behind the
//! writer. A writer's `mutate` is about a microsecond, so the short
//! spin is what keeps readers off the lock (one pin only: traced
//! `mixed-hotspot` read locks 3 → 908).
//!
//! Why readers must be *waited for* rather than validated afterwards:
//! the rewiring backend unmaps pages on shrink (`PROT_NONE`), so a
//! reader racing an actual mutation could fault, and Rust-level data
//! races are undefined behaviour whatever a later check says. The pin
//! drain removes the race instead of detecting it; the cost is that
//! writers briefly wait for in-flight readers (bounded: new readers
//! meet the raised flag and step aside).
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

/// Pins per look that may meet a writer before the look takes the
/// shard `RwLock`.
const OPTIMISTIC_RETRIES: u64 = 8;

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
    /// Pins the shard for a look: `Some` as soon as a pin finds no
    /// writer inside, `None` after [`OPTIMISTIC_RETRIES`] pins that
    /// each met one. While the pin lives no writer touches the RMA.
    fn pin_quiet(&self) -> Option<ShardPin<'_>> {
        let mut met_writer = 0;
        let pin = loop {
            if met_writer == OPTIMISTIC_RETRIES {
                break None;
            }
            let pin = ShardPin::new(&self.opt_pins);
            if !self.writing.load(SeqCst) {
                break Some(pin);
            }
            drop(pin);
            met_writer += 1;
            std::hint::spin_loop();
        };
        if met_writer > 0 {
            self.lock_stats().opt_retries.fetch_add(met_writer, Relaxed);
        }
        pin
    }

    /// The one way to look at a shard: runs `f` over its RMA exactly
    /// once — pinned, without the `RwLock`, when a pin finds the shard
    /// quiet; under the read lock when none did. See the module docs
    /// for the protocol. A quiescent shard is read without any lock,
    /// so an observer — a stats sampler, a planner sizing its steps —
    /// does not move the lock counters it may be watching.
    pub(crate) fn peek<R>(&self, f: impl FnOnce(&Rma) -> R) -> R {
        match self.pin_quiet() {
            // SAFETY: pinned with the `writing` flag down — every
            // writer raises the flag before waiting for pins to drain,
            // so no `&mut Rma` exists while `_pin` lives.
            Some(_pin) => f(unsafe { &*self.rma_ptr() }),
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
        let t = topo(1);
        let shard = &t.shards[0];
        assert!(shard.pin_quiet().is_some());
        assert_eq!(shard.peek(|r| r.len()), 0);
        assert_eq!(shard.opt_pins.load(Relaxed), 0);
        assert_eq!(shard.lock_stats().read_locks.load(Relaxed), 0);
    }

    #[test]
    fn odd_version_makes_readers_bail_and_terminate() {
        let t = topo(1);
        let shard = &t.shards[0];
        // Simulate a writer parked mid-mutation: flag up.
        shard.writing.store(true, SeqCst);
        assert!(shard.pin_quiet().is_none());
        assert_eq!(shard.opt_pins.load(Relaxed), 0, "pins must balance");
        shard.writing.store(false, SeqCst);
        assert!(shard.pin_quiet().is_some());
    }

    /// A writer that arrives while a look is inside waits for it: the
    /// look runs once, returns what the shard held when it pinned, and
    /// the write lands after it.
    #[test]
    fn a_look_that_a_writer_arrives_during_runs_once() {
        let t = topo(1);
        let shard = &t.shards[0];
        let mut runs = 0;
        let seen = std::thread::scope(|sc| {
            shard.peek(|rma| {
                runs += 1;
                sc.spawn(|| shard.write().mutate(|r| r.insert(1, 1)));
                // Flag up: the writer holds the lock and is parked on
                // this look's pin.
                while !shard.writing.load(SeqCst) {
                    std::thread::yield_now();
                }
                rma.len()
            })
        });
        assert_eq!((seen, runs), (0, 1));
        assert_eq!(shard.peek(|rma| rma.len()), 1);
        assert_eq!(shard.lock_stats().read_locks.load(Relaxed), 0);
    }
}
