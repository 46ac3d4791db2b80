//! Batch ingest: the bulk build, the mixed batch, and the one pool
//! of scoped workers.
//!
//! [`ShardedRma::load_bulk`] partitions a sorted batch with the
//! splitters (zero-copy sub-slices) and runs the paper's bottom-up
//! bulk load of each shard on [`on_workers`]. A mixed batch after the
//! build is no separate writer: [`ShardedRma::apply_batch`] is one
//! [`ShardedRma::apply_ops`] run, in the order the log and replay
//! already give a batch — its deletes, then its inserts reversed.

use crate::shard::{LockStats, Shard, Topology};
use crate::splitter::Splitters;
use crate::{PointOp, ShardConfig, ShardedRma, GET_MANY_BLOCK};
use rma_core::{Key, Rma, Value};
use std::sync::Arc;

/// Runs `job` on every item on at most `available_parallelism`
/// scoped workers, each taking a contiguous run of items, and returns
/// the results in item order: the engine's and recovery's one pool of
/// threads.
pub fn on_workers<I: Sync, T: Send>(items: &[I], job: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let job = &job;
    std::thread::scope(|s| {
        let workers: Vec<_> = (items.chunks(items.len().div_ceil(hw).max(1)))
            .map(|run| s.spawn(move || run.iter().map(job).collect::<Vec<_>>()))
            .collect();
        (workers.into_iter())
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    })
}

impl ShardedRma {
    /// Builds a sharded index from a batch sorted by key: splitters
    /// are learned from the batch quantiles (so shards start balanced)
    /// and the per-shard bulk loads run [`on_workers`].
    pub fn load_bulk(cfg: ShardConfig, batch: &[(Key, Value)]) -> Self {
        cfg.validate();
        assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk batch must be sorted"
        );
        let splitters = Splitters::from_sorted_pairs(batch, cfg.num_shards);
        let rmas = on_workers(&splitters.partition_sorted(batch), |part| {
            let mut rma = Rma::new(cfg.rma);
            rma.load_bulk(&batch[part.clone()]);
            rma
        });
        let lock_stats = Arc::new(LockStats::default());
        let shards: Vec<Arc<Shard>> = (rmas.into_iter().enumerate())
            .map(|(i, rma)| {
                let (lo, hi) = splitters.range_of(i);
                Arc::new(Shard::new(rma, lo, hi, Arc::clone(&lock_stats)))
            })
            .collect();
        Self::from_parts(cfg, Topology { splitters, shards }, lock_stats)
    }

    /// Applies a mixed batch: `inserts` (sorted by key, duplicates
    /// kept) and `deletes` (exact keys, missing keys ignored), as
    /// [`Rma::apply_batch`] means them — each delete pops its key's
    /// front, then the inserts land at the fronts of their stacks in
    /// batch order. Returns the number of elements actually deleted.
    ///
    /// One [`apply_ops`](Self::apply_ops) run, fed a 64-op block at a
    /// time: a `Remove` per delete, then an `Insert` per insert in
    /// reverse, the order one-by-one pushes reach that state in. It is
    /// atomic as any run is, one shard's 64-op group at a time, so a
    /// concurrent reader can see part of a shard's share applied.
    pub fn apply_batch(&self, inserts: &[(Key, Value)], deletes: &[Key]) -> usize {
        assert!(
            inserts.windows(2).all(|w| w[0].0 <= w[1].0),
            "insert batch must be sorted"
        );
        let mut ops = (deletes.iter().map(|&k| PointOp::Remove(k)))
            .chain(inserts.iter().rev().map(|&(k, v)| PointOp::Insert(k, v)));
        // One block at a time on the stack, as `get_many` does.
        let mut block = [PointOp::Get(0); GET_MANY_BLOCK];
        let mut out = [None; GET_MANY_BLOCK];
        let mut deleted = 0;
        loop {
            let n = (block.iter_mut().zip(&mut ops))
                .map(|(slot, op)| *slot = op)
                .count();
            if n == 0 {
                return deleted;
            }
            self.apply_ops(&block[..n], &mut out[..n]);
            deleted += (block[..n].iter().zip(&out))
                .filter(|(op, v)| matches!(op, PointOp::Remove(_)) && v.is_some())
                .count();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::small_cfg;
    use crate::{ShardedRma, Splitters};

    #[test]
    fn load_bulk_learns_balanced_splitters() {
        let batch: Vec<(i64, i64)> = (0..10_000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(8), &batch);
        s.check_invariants();
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.num_shards(), 8);
        let stats = s.stats_snapshot().shards;
        let (min, max) = stats.iter().fold((usize::MAX, 0), |(lo, hi), st| {
            (lo.min(st.len), hi.max(st.len))
        });
        assert!(
            max <= 2 * min.max(1),
            "quantile shards unbalanced: {min}..{max}"
        );
        assert_eq!(s.collect_all(), batch);
    }

    #[test]
    fn load_bulk_empty_batch() {
        let s = ShardedRma::load_bulk(small_cfg(4), &[]);
        assert!(s.is_empty());
        assert_eq!(s.num_shards(), 4); // uniform splitters fallback
        s.insert(5, 5);
        assert_eq!(s.get(5), Some(5));
    }

    #[test]
    fn apply_batch_matches_sequential_ops() {
        let base: Vec<(i64, i64)> = (0..5000).map(|i| (i * 2, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(6), &base);
        let inserts: Vec<(i64, i64)> = (0..1000).map(|i| (i * 2 + 1, -i)).collect();
        let deletes: Vec<i64> = (0..500).map(|i| i * 4).collect();
        let deleted = s.apply_batch(&inserts, &deletes);
        assert_eq!(deleted, 500);
        s.check_invariants();
        assert_eq!(s.len(), 5000 + 1000 - 500);
        assert_eq!(s.get(1), Some(0));
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(4), None);
        assert_eq!(s.get(2), Some(1));
    }

    #[test]
    fn apply_batch_on_empty_work_is_noop() {
        let s = ShardedRma::with_splitters(small_cfg(2), Splitters::new(vec![100]));
        assert_eq!(s.apply_batch(&[], &[]), 0);
        assert_eq!(s.apply_batch(&[], &[42]), 0); // delete of absent key
        assert!(s.is_empty());
    }

    #[test]
    fn deletes_of_missing_keys_are_ignored() {
        let base: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(3), &base);
        let deleted = s.apply_batch(&[], &(200..300).collect::<Vec<i64>>());
        assert_eq!(deleted, 0);
        assert_eq!(s.len(), 100);
    }
}
