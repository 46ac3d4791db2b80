//! Batch ingest: bulk construction and the parallel mixed-batch path.
//!
//! Both paths partition a sorted batch with the splitters (zero-copy
//! sub-slices) and run the per-shard work on scoped threads. Shards
//! are distributed round-robin over `min(available_parallelism,
//! shards-with-work)` workers; each worker takes its shards' write
//! locks one at a time, so workers never contend with each other and
//! the paper's bottom-up bulk-load machinery runs unchanged inside
//! each shard. Sub-batches that land on a shard retired by concurrent
//! maintenance are collected and re-applied against the fresh
//! topology (a bounded retry: maintenance publications are rare and
//! serialized).

use crate::shard::{LockStats, Shard, Topology};
use crate::splitter::Splitters;
use crate::{DurabilityOp, ShardConfig, ShardedRma};
use rma_core::{Key, Rma, Value};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Sub-batches bounced off retired shards, awaiting a re-route
/// against the successor topology.
type Leftover = (Vec<(Key, Value)>, Vec<Key>);

/// Worker count for `n_jobs` independent shard jobs.
fn workers_for(n_jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    hw.min(n_jobs).max(1)
}

impl ShardedRma {
    /// Builds a sharded index from a batch sorted by key: splitters
    /// are learned from the batch quantiles (so shards start balanced)
    /// and the per-shard bulk loads run on parallel threads.
    pub fn load_bulk(cfg: ShardConfig, batch: &[(Key, Value)]) -> Self {
        cfg.validate();
        assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk batch must be sorted"
        );
        let splitters = Splitters::from_sorted_pairs(batch, cfg.num_shards);
        let parts = splitters.partition_sorted(batch);
        let n = splitters.num_shards();

        let mut rmas: Vec<Option<Rma>> = (0..n).map(|_| None).collect();
        let t = workers_for(n);
        let chunk = n.div_ceil(t);
        std::thread::scope(|sc| {
            for (ci, slots) in rmas.chunks_mut(chunk).enumerate() {
                let parts = &parts;
                sc.spawn(move || {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        let mut rma = Rma::new(cfg.rma);
                        rma.load_bulk(&batch[parts[ci * chunk + j].clone()]);
                        *slot = Some(rma);
                    }
                });
            }
        });

        let lock_stats = Arc::new(LockStats::default());
        let shards: Vec<Arc<Shard>> = rmas
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let (lo, hi) = splitters.range_of(i);
                Arc::new(Shard::new(
                    r.expect("worker filled every slot"),
                    lo,
                    hi,
                    Arc::clone(&lock_stats),
                ))
            })
            .collect();
        Self::from_parts(cfg, Topology { splitters, shards }, lock_stats)
    }

    /// Applies a mixed batch: `inserts` (sorted by key, duplicates
    /// kept) and `deletes` (exact keys, missing keys ignored). The
    /// batch is partitioned by shard and the per-shard sub-batches are
    /// applied in parallel. Returns the number of elements actually
    /// deleted.
    ///
    /// Atomicity is per shard: a concurrent reader can observe one
    /// shard's sub-batch applied while another's is still pending.
    pub fn apply_batch(&self, inserts: &[(Key, Value)], deletes: &[Key]) -> usize {
        assert!(
            inserts.windows(2).all(|w| w[0].0 <= w[1].0),
            "insert batch must be sorted"
        );
        let (mut deleted, mut ins_left, mut del_left) = self.apply_batch_round(inserts, deletes);
        while !ins_left.is_empty() || !del_left.is_empty() {
            // A concurrent maintenance publication retired some target
            // shards mid-round; re-route the leftovers. The plan
            // engine publishes one topology *per step*, so under an
            // active drain this round trips far more often than under
            // the old monolithic passes — each round re-partitions
            // only the bounced remainder, and `batch_reroutes` counts
            // how often it happens. Per-shard chunks were appended
            // whole, so a stable sort restores global key order
            // without reordering duplicates (equal keys never span
            // shards).
            self.maint_counters().batch_reroutes.fetch_add(1, Relaxed);
            std::thread::yield_now();
            ins_left.sort_by_key(|p| p.0);
            let (d, ins_next, del_next) = self.apply_batch_round(&ins_left, &del_left);
            deleted += d;
            ins_left = ins_next;
            del_left = del_next;
        }
        deleted
    }

    /// One routing round: partitions against the current topology and
    /// applies in parallel; sub-batches whose shard was retired come
    /// back as leftovers for the caller to re-route.
    fn apply_batch_round(
        &self,
        inserts: &[(Key, Value)],
        deletes: &[Key],
    ) -> (usize, Vec<(Key, Value)>, Vec<Key>) {
        let topo = self.topo();
        let n = topo.shards.len();
        let parts = topo.splitters.partition_sorted(inserts);
        let mut dels: Vec<Vec<Key>> = vec![Vec::new(); n];
        for &k in deletes {
            dels[topo.splitters.route(k)].push(k);
        }

        let work: Vec<usize> = (0..n)
            .filter(|&i| !parts[i].is_empty() || !dels[i].is_empty())
            .collect();
        if work.is_empty() {
            return (0, Vec::new(), Vec::new());
        }
        let deleted = AtomicUsize::new(0);
        let leftover: Mutex<Leftover> = Mutex::new(Default::default());
        let t = workers_for(work.len());
        std::thread::scope(|sc| {
            for tid in 0..t {
                let (topo, work, parts, dels, deleted, leftover) =
                    (&topo, &work, &parts, &dels, &deleted, &leftover);
                sc.spawn(move || {
                    for &i in work.iter().skip(tid).step_by(t) {
                        let shard = &topo.shards[i];
                        let mut guard = shard.write();
                        if guard.is_retired() {
                            let mut lo = leftover.lock().expect("leftover lock poisoned");
                            lo.0.extend_from_slice(&inserts[parts[i].clone()]);
                            lo.1.extend_from_slice(&dels[i]);
                            continue;
                        }
                        let batch_ops = (parts[i].len() + dels[i].len()) as u64;
                        shard.writes.fetch_add(batch_ops, Relaxed);
                        for &(k, _) in &inserts[parts[i].clone()] {
                            shard.stats.record(k);
                        }
                        for &k in &dels[i] {
                            shard.stats.record(k);
                        }
                        self.tick_decay(topo, batch_ops);
                        let d = guard
                            .mutate(|rma| rma.apply_batch(&inserts[parts[i].clone()], &dels[i]));
                        deleted.fetch_add(d, Relaxed);
                        // Log under the shard lock, in apply order:
                        // `apply_batch` runs its delete pass before
                        // its insert pass, and replaying a delete of
                        // an absent key is a no-op either way.
                        if let Some(wal) = self.durability() {
                            for &k in &dels[i] {
                                wal.append(DurabilityOp::Remove(k));
                            }
                            for &(k, v) in &inserts[parts[i].clone()] {
                                wal.append(DurabilityOp::Insert(k, v));
                            }
                        }
                    }
                });
            }
        });
        let (ins_left, del_left) = leftover.into_inner().expect("leftover lock poisoned");
        (deleted.load(Relaxed), ins_left, del_left)
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
        let stats = s.shard_stats();
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
