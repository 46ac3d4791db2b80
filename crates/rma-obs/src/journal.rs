//! The maintenance event journal: a bounded, lock-free MPSC ring
//! buffer of structural events (splits, merges, plans, topology
//! publications, worker panics, maintainer ticks).
//!
//! Writers claim a slot with one `fetch_add` on the head counter and
//! store the event as four relaxed `AtomicU64` words guarded by a
//! per-slot sequence number — no locks, no allocation, and entirely
//! safe Rust (a reader racing a writer sees a sequence mismatch and
//! skips the slot rather than reading torn data). When the ring is
//! full the oldest events are overwritten: the journal answers "what
//! did maintenance do *recently*", not "ever".

use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

/// What happened. The numeric discriminants are the wire encoding
/// used inside the ring and in the text exposition; 2–4, 11 and 12
/// belonged to retired kinds and are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A shard was split in two at a chosen key.
    Split = 0,
    /// Two adjacent shards were merged.
    Merge = 1,
    /// A new topology generation was published to readers.
    TopologyPublish = 5,
    /// The engine panicked in a server batch; its connections closed.
    WorkerPanic = 6,
    /// One background maintainer wake (plan and drain) planned
    /// work.
    MaintTick = 7,
    /// One shard's unit of a checkpoint that committed (segments +
    /// manifest durable on disk; `dur_ns` how long the shard was
    /// locked to copy it out, `keys` its elements).
    Checkpoint = 8,
    /// Crash recovery completed (checkpoint load + log-tail replay).
    Recovery = 9,
    /// The write-ahead log hit a device error and the database
    /// degraded to read-only.
    DegradedMode = 10,
    /// The network front-end accepted a client connection (`shard`
    /// carries the connection slot, `keys` the live connection count).
    ConnOpen = 13,
    /// A network connection closed (`dur_ns` its lifetime, `keys` the
    /// frames it was served).
    ConnClose = 14,
    /// A client sent a malformed wire frame (truncated, oversized,
    /// bad opcode or bad checksum); the offending connection was
    /// closed (`keys` carries the wire error code).
    ProtoError = 15,
    /// The maintenance planner planned a round (`dur_ns` the time it
    /// took, `keys` the steps planned).
    Rebalance = 16,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Split,
            1 => EventKind::Merge,
            5 => EventKind::TopologyPublish,
            6 => EventKind::WorkerPanic,
            7 => EventKind::MaintTick,
            8 => EventKind::Checkpoint,
            9 => EventKind::Recovery,
            10 => EventKind::DegradedMode,
            13 => EventKind::ConnOpen,
            14 => EventKind::ConnClose,
            15 => EventKind::ProtoError,
            16 => EventKind::Rebalance,
            _ => return None,
        })
    }

    /// Stable lower-case name used in the text exposition.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Split => "split",
            EventKind::Merge => "merge",
            EventKind::TopologyPublish => "topology_publish",
            EventKind::WorkerPanic => "worker_panic",
            EventKind::MaintTick => "maint_tick",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Recovery => "recovery",
            EventKind::DegradedMode => "degraded_mode",
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnClose => "conn_close",
            EventKind::ProtoError => "proto_error",
            EventKind::Rebalance => "rebalance",
        }
    }
}

/// One journal entry. `shard` is the index the event acted on (the
/// left shard for splits/merges, `u32::MAX` when not applicable),
/// `dur_ns` the step's wall duration, and `keys` a kind-specific
/// magnitude: elements migrated for a split or a merge, steps
/// planned for a rebalance, shards in
/// the new topology for a topology publish, steps executed for a
/// maintainer tick, in-flight tickets poisoned for a worker panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp from [`crate::now_ns`] (monotonic, arbitrary zero).
    pub ts_ns: u64,
    /// Event discriminator.
    pub kind: EventKind,
    /// Acting shard index, `u32::MAX` when not shard-scoped.
    pub shard: u32,
    /// Wall-clock duration of the step, 0 when instantaneous.
    pub dur_ns: u64,
    /// Kind-specific magnitude (see struct docs).
    pub keys: u64,
}

impl Event {
    /// `u32::MAX` sentinel for events not tied to one shard.
    pub const NO_SHARD: u32 = u32::MAX;
}

/// One ring slot: a sequence word plus the event packed into four
/// u64 words (`ts`, `kind | shard << 8`, `dur`, `keys`).
///
/// Sequence protocol: a writer that claimed ticket `t` stores the odd
/// value `2t + 1`, writes the words, then stores `2(t + 1)`. A reader
/// accepts a slot only if the sequence reads as the even "complete"
/// value for the ticket it expects both before and after copying the
/// words.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// Bounded multi-producer event ring. Cloneable handles are obtained
/// by wrapping it in an `Arc`; all methods take `&self`.
pub struct EventJournal {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.capacity())
            .field("recorded", &self.total_recorded())
            .finish()
    }
}

impl EventJournal {
    /// A journal holding the last `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        EventJournal {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity (events retained).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Relaxed)
    }

    /// Appends an event, overwriting the oldest when full.
    pub fn record(&self, ev: Event) {
        let ticket = self.head.fetch_add(1, Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        slot.seq.store(2 * ticket + 1, Relaxed);
        slot.words[0].store(ev.ts_ns, Relaxed);
        slot.words[1].store(ev.kind as u64 | (ev.shard as u64) << 8, Relaxed);
        slot.words[2].store(ev.dur_ns, Relaxed);
        slot.words[3].store(ev.keys, Relaxed);
        slot.seq.store(2 * (ticket + 1), Release);
    }

    /// Convenience: stamp `ts_ns` with [`crate::now_ns`] and record.
    pub fn log(&self, kind: EventKind, shard: u32, dur_ns: u64, keys: u64) {
        self.record(Event {
            ts_ns: crate::now_ns(),
            kind,
            shard,
            dur_ns,
            keys,
        });
    }

    /// The retained events, oldest first. Slots being concurrently
    /// overwritten are skipped, so a snapshot taken under write load
    /// may be slightly shorter than `capacity`, never torn.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
            let want = 2 * (ticket + 1);
            if slot.seq.load(Acquire) != want {
                continue; // overwritten or mid-write
            }
            let words = [
                slot.words[0].load(Relaxed),
                slot.words[1].load(Relaxed),
                slot.words[2].load(Relaxed),
                slot.words[3].load(Relaxed),
            ];
            if slot.seq.load(Acquire) != want {
                continue; // overwritten while copying
            }
            let Some(kind) = EventKind::from_u8(words[1] as u8) else {
                continue;
            };
            out.push(Event {
                ts_ns: words[0],
                kind,
                shard: (words[1] >> 8) as u32,
                dur_ns: words[2],
                keys: words[3],
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> Event {
        Event {
            ts_ns: n,
            kind: EventKind::Split,
            shard: n as u32,
            dur_ns: n * 10,
            keys: n * 100,
        }
    }

    #[test]
    fn roundtrips_all_fields() {
        let j = EventJournal::new(8);
        let e = Event {
            ts_ns: 123,
            kind: EventKind::TopologyPublish,
            shard: Event::NO_SHARD,
            dur_ns: 456,
            keys: 789,
        };
        j.record(e);
        assert_eq!(j.snapshot(), vec![e]);
    }

    #[test]
    fn retired_discriminants_decode_to_none() {
        for v in [2, 3, 4, 11, 12, 17] {
            assert_eq!(EventKind::from_u8(v), None, "{v}");
        }
        assert_eq!(EventKind::from_u8(10), Some(EventKind::DegradedMode));
        assert_eq!(EventKind::from_u8(13), Some(EventKind::ConnOpen));
    }

    #[test]
    fn bounded_capacity_evicts_oldest_first() {
        let j = EventJournal::new(8);
        assert_eq!(j.capacity(), 8);
        for n in 0..20u64 {
            j.record(ev(n));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 8);
        // Only the 8 newest survive, in recording order.
        let ts: Vec<u64> = snap.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (12..20).collect::<Vec<u64>>());
        assert_eq!(j.total_recorded(), 20);
    }

    #[test]
    fn snapshot_of_partial_ring_is_in_order() {
        let j = EventJournal::new(16);
        for n in 0..5u64 {
            j.record(ev(n));
        }
        let ts: Vec<u64> = j.snapshot().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let j = EventJournal::new(64);
        const THREADS: u64 = 4;
        const PER: u64 = 10_000;
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let j = &j;
                sc.spawn(move || {
                    for i in 0..PER {
                        let n = t * PER + i;
                        j.record(ev(n));
                    }
                });
            }
            // Reader hammers snapshots while writers run.
            let j = &j;
            sc.spawn(move || {
                for _ in 0..200 {
                    for e in j.snapshot() {
                        // Field relationship from `ev` must survive.
                        assert_eq!(e.dur_ns, e.ts_ns * 10);
                        assert_eq!(e.keys, e.ts_ns * 100);
                    }
                }
            });
        });
        assert_eq!(j.total_recorded(), THREADS * PER);
        assert_eq!(j.snapshot().len(), 64);
    }
}
