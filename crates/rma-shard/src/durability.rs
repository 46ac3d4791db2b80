//! The engine-side durability contract.
//!
//! `rma-shard` does not know how a write-ahead log is encoded or where
//! checkpoints live — that is `rma-wal`'s business. What the engine
//! *does* own is the ordering guarantee: a log record is meaningful
//! only if records for the same key land in the log in the same order
//! their effects landed in the index. The engine therefore calls
//! [`DurabilitySink::append`] **while still holding the shard write
//! lock** of the mutations it describes (once per lock hold, from the
//! one shard write section, with the mutations in apply order), and calls
//! [`DurabilitySink::checkpoint_cut`] while holding every shard lock
//! overlapping the partition being checkpointed — so the cut LSN
//! cleanly separates "state of the partition's keys captured by the
//! checkpoint" from "state only in the log tail".
//!
//! The sink logs every key in one LSN sequence. It cuts the key space
//! into fixed durability partitions on its own splitter set (decoupled
//! from the engine's dynamic topology, which splits and merges shards
//! underneath it) only as checkpoint units: each partition is sealed
//! on its own, at its own cut. [`ShardedRma::checkpoint`] asks for
//! [`partition_range`](DurabilitySink::partition_range) to know which
//! engine shards to lock.

use crate::shard::StepGuards;
use crate::ShardedRma;
use rma_core::{Key, Value};
use rma_obs::EventKind;

/// One logical mutation, as the log sees it. Replay applies these one
/// by one through the ordinary entry points, where a key's members
/// are a stack ([`PointOp`](crate::PointOp)), so the log holds them
/// in replay order: a batch's inserts reversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityOp {
    /// An element `(key, value)` was pushed onto the front of the
    /// key's stack (duplicates kept).
    Insert(Key, Value),
    /// The front member of the key's stack was popped.
    Remove(Key),
}

impl DurabilityOp {
    /// The key the operation acted on — what the sink routes by.
    pub fn key(&self) -> Key {
        match *self {
            DurabilityOp::Insert(k, _) => k,
            DurabilityOp::Remove(k) => k,
        }
    }
}

/// What the engine requires of a write-ahead log. Implemented by
/// `rma_wal::Wal`; the engine only ever talks to the trait so the
/// crates stay decoupled (`rma-wal` depends on `rma-shard`, not the
/// other way around).
pub trait DurabilitySink: Send + Sync {
    /// Records applied mutations, in replay order: a shard group's for
    /// [`ShardedRma::apply_ops`] (a single-key write is a one-op
    /// group), a shard's sub-batch for [`ShardedRma::apply_batch`]
    /// (its deletes, then its inserts reversed), the removed element for
    /// [`ShardedRma::remove_successor`]. The engine's one call site is
    /// the end of its shard write section, under the shard write lock
    /// of the mutations, so same-key records are logged in apply order
    /// and a checkpoint cut drawn under that lock sees all of them or
    /// none. Must be cheap: implementations
    /// stage into a buffer and defer fsync to their commit barrier. A
    /// sink that has degraded (log device error) silently drops the
    /// records — the commit barrier is what refuses the
    /// acknowledgement.
    fn append(&self, ops: &[DurabilityOp]);

    /// Number of fixed durability partitions (checkpoint units).
    fn partitions(&self) -> usize;

    /// Inclusive lower / exclusive upper key bound of partition `p`
    /// (`None` = unbounded), mirroring
    /// [`Splitters::range_of`](crate::Splitters::range_of).
    fn partition_range(&self, p: usize) -> (Option<Key>, Option<Key>);

    /// Draws a partition's checkpoint cut, the highest LSN handed out
    /// so far: every record of the partition's keys with LSN `<= cut`
    /// is covered by the state the caller is about to capture; records
    /// above it stay live in the log tail. Called while the caller
    /// holds write locks on every engine shard overlapping the
    /// partition, so no append of the partition's keys can race the
    /// cut.
    fn checkpoint_cut(&self) -> u64;

    /// Durably seals a checkpoint of partition `p`: `elems` is the
    /// partition's full content at `cut`, sorted by key. Runs
    /// *outside* the shard locks (sealing does file I/O). Returns
    /// `false` when the seal failed (fault injection, disk error) —
    /// the old checkpoint stays authoritative.
    fn seal_checkpoint(&self, p: usize, cut: u64, elems: &[(Key, Value)]) -> bool;
}

/// The mutations one shard write section applied, staged in apply
/// order for its one [`DurabilitySink::append`]; `None` without a sink.
pub(crate) struct Staged(pub(crate) Option<Vec<DurabilityOp>>);

impl Extend<DurabilityOp> for Staged {
    fn extend<I: IntoIterator<Item = DurabilityOp>>(&mut self, ops: I) {
        if let Some(staged) = &mut self.0 {
            staged.extend(ops);
        }
    }
}

impl ShardedRma {
    /// Seals a checkpoint of every durability partition and returns
    /// how many sealed (0 without a sink). Per partition: write-lock
    /// every shard overlapping its key range, draw the cut LSN and
    /// copy the residents out, then release the shard locks and seal.
    /// Each seal holds the maintenance mutex throughout: two racing
    /// seals of one partition could let the older cut replace the
    /// newer manifest entry after the newer seal's log rotation
    /// deleted the records between them. A checkpoint restructures
    /// nothing, so it is not a maintenance step: it moves no
    /// [`MaintenanceStats`](crate::MaintenanceStats) counter and no
    /// step-duration sample, and journals one [`EventKind::Checkpoint`]
    /// per seal (partition, wall time, elements sealed).
    pub fn checkpoint(&self) -> usize {
        let Some(sink) = self.durability() else {
            return 0;
        };
        let seal = |p: usize| {
            let t0 = rma_obs::now_ns();
            let _maint = self.maintenance_guard();
            let (lo, hi) = sink.partition_range(p);
            let topo = self.handle.load_exclusive();
            let (j0, j1) = topo.splitters.overlapping(lo, hi);
            let guards = StepGuards::lock(&topo.shards, j0..=j1);
            let cut = sink.checkpoint_cut();
            let mut elems = guards.collect_elems();
            drop(guards);
            // Edge shards may straddle the partition boundary; the
            // checkpoint owns exactly `[lo, hi)`.
            elems.retain(|&(k, _)| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h));
            let sealed = sink.seal_checkpoint(p, cut, &elems);
            if sealed {
                let dur = rma_obs::now_ns().saturating_sub(t0);
                (self.obs()).log(EventKind::Checkpoint, p as u32, dur, elems.len() as u64);
            }
            sealed
        };
        (0..sink.partitions()).filter(|&p| seal(p)).count()
    }
}
