//! The engine-side durability contract.
//!
//! `rma-shard` does not know how a write-ahead log is encoded or where
//! checkpoints live — that is `rma-wal`'s business. What the engine
//! *does* own is the ordering guarantee: a log record is meaningful
//! only if records for the same key land in the log in the same order
//! their effects landed in the index. The engine therefore calls
//! [`DurabilitySink::append`] **while still holding the shard write
//! lock** of the mutations it describes (once per lock hold, from the
//! one shard write section, an `apply_ops` group's, with the
//! [`PointOp`]s it applied in apply order), and calls
//! [`DurabilitySink::checkpoint_cut`] while holding the write lock of
//! the shard being checkpointed — so the cut LSN cleanly separates
//! "state of the shard's keys captured by the checkpoint" from "state
//! only in the log tail".
//!
//! The sink logs every key in one LSN sequence. A checkpoint's units
//! are the shards of the live topology: [`ShardedRma::checkpoint`]
//! holds the topology still, hands the sink its splitters and then
//! each shard's cut and content in turn, and the sink commits them as
//! one checkpoint.

use crate::shard::StepGuards;
use crate::{PointOp, ShardedRma};
use rma_core::{Key, Value};
use rma_obs::EventKind;

/// What the engine requires of a write-ahead log. Implemented by
/// `rma_wal::Wal`; the engine only ever talks to the trait so the
/// crates stay decoupled (`rma-wal` depends on `rma-shard`, not the
/// other way around).
pub trait DurabilitySink: Send + Sync {
    /// Records the ops one [`ShardedRma::apply_ops`] group applied, in
    /// apply order: every `Insert` and every `Remove` that found its
    /// key, never a `Get`. A single-key write is a one-op group, and
    /// [`ShardedRma::apply_batch`] is a run of them (its deletes, then
    /// its inserts reversed). Replay runs the ops through `apply_ops`
    /// again, so apply order is replay order. The engine's one call
    /// site is the end of its shard write section, under the shard
    /// write lock of the mutations, so same-key records are logged in
    /// apply order and a checkpoint cut drawn under that lock sees all
    /// of them or none. Must be cheap: implementations stage into a
    /// buffer and defer fsync to their commit barrier. A sink that has
    /// degraded (log device error) silently drops the records — the
    /// commit barrier is what refuses the acknowledgement.
    fn append(&self, ops: &[PointOp]);

    /// Draws a unit's checkpoint cut, the highest LSN handed out so
    /// far: every record of the unit's keys with LSN `<= cut` is
    /// covered by the state the caller is about to capture; records
    /// above it stay live in the log tail. Called while the caller
    /// holds the write lock of the unit's shard, so no append of the
    /// unit's keys can race the cut.
    fn checkpoint_cut(&self) -> u64;

    /// Durably seals one checkpoint whose units are the key ranges
    /// `splitters` cut. `units` yields each unit's `(cut, elements)`,
    /// in key order, the elements sorted by key; the engine locks a
    /// unit's shard only while the iterator produces it, and the sink
    /// writes each unit out before it pulls the next, so one unit's
    /// elements are in memory at a time. Runs outside every shard lock
    /// but inside the engine's maintenance mutex (one seal at a time,
    /// on a topology that holds still). Returns `false` when the seal
    /// failed (fault injection, disk error) — the previous checkpoint
    /// stays authoritative, whole.
    fn seal_checkpoint(
        &self,
        splitters: &[Key],
        units: &mut dyn Iterator<Item = (u64, Vec<(Key, Value)>)>,
    ) -> bool;
}

impl ShardedRma {
    /// Seals a checkpoint whose units are the live shards and returns
    /// how many it sealed: every shard, or 0 without a sink or when
    /// the seal failed. The maintenance mutex is held throughout, so
    /// the topology holds still and two seals never race; per shard,
    /// only that shard is write-locked while its cut is drawn and its
    /// residents are copied out, and the copy is handed to the sink
    /// after the lock drops. A checkpoint restructures nothing, so it
    /// is not a maintenance step: it moves no
    /// [`MaintenanceStats`](crate::MaintenanceStats) counter and no
    /// step-duration sample. Once the seal commits it journals one
    /// [`EventKind::Checkpoint`] per shard, in shard order (shard,
    /// time the shard was locked, elements sealed).
    pub fn checkpoint(&self) -> usize {
        let Some(sink) = self.durability() else {
            return 0;
        };
        let _maint = self.maintenance_guard();
        let topo = self.handle.load_exclusive();
        // Per unit handed over: its lock time and its elements.
        let mut handed: Vec<(u64, u64)> = Vec::with_capacity(topo.shards.len());
        let mut units = (0..topo.shards.len()).map(|j| {
            let t0 = rma_obs::now_ns();
            let guards = StepGuards::lock(&topo.shards, j..=j);
            let unit = (sink.checkpoint_cut(), guards.collect_elems());
            drop(guards);
            handed.push((rma_obs::now_ns() - t0, unit.1.len() as u64));
            unit
        });
        if !sink.seal_checkpoint(topo.splitters.keys(), &mut units) {
            return 0;
        }
        for (j, &(dur, n)) in handed.iter().enumerate() {
            (self.obs()).log(EventKind::Checkpoint, j as u32, dur, n);
        }
        handed.len()
    }
}
