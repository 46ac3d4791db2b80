//! Shard maintenance: the **incremental maintenance plan engine**,
//! the paper's incremental-rebalance philosophy (restructuring must
//! not stall the data path, §V) one level up.
//!
//! * The **planner** (`plan.rs`) is the calibrator tree of §III with
//!   the shards as leaves: a shard whose access mass leaves its leaf
//!   bounds takes the smallest enclosing window inside its level's
//!   bounds, and the window is re-cut at the quantiles of its mass.
//!   Splits, merges and walking an accreted topology back down are
//!   this one rule. Like the paper's calibrator it reads counts —
//!   masses, and residents per histogram bucket as ranks — never the
//!   residents themselves. It emits a [`MaintenancePlan`] of
//!   [`Recut`](MaintenanceStep::Recut) steps in the order they run.
//! * The **executor** ([`ShardedRma::execute_step`] /
//!   [`ShardedRma::drain_plan`], in `executor.rs`) applies one step at
//!   a time: it locks only the shards inside the step's range, drains
//!   and rebuilds them, seeds the successors' histograms with the mass
//!   of the residents each takes, publishes a copy-on-write topology
//!   and waits out the read grace period — so **a writer only ever
//!   waits out the one step restructuring its shard**, and readers
//!   never wait at all.
//!
//! [`ShardedRma::maintain`] plans and drains at once, round after
//! round; the background maintainer ([`crate::maintainer`]) drains
//! each plan with a pause between steps. Every popped step is filed once — a
//! split when it built more shards than it took, a merge otherwise —
//! in [`ShardedRma::maintenance_stats`]. A durability checkpoint
//! ([`ShardedRma::checkpoint`]) restructures nothing and is not a
//! step.

pub(crate) mod executor;
pub(crate) mod plan;

pub use executor::{DrainReport, StepReport};
pub use plan::{MaintenancePlan, MaintenanceStep};

use crate::access::ResidentMass;
use crate::shard::Shard;
use crate::{ShardedRma, Splitters};
use rma_core::{Key, Rma, Value};
use std::sync::Arc;

/// Max/mean of a mass vector; `1.0` for empty or all-zero input.
pub(crate) fn imbalance_of(masses: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut total, mut max) = (0usize, 0f64, 0f64);
    for m in masses {
        n += 1;
        total += m;
        max = max.max(m);
    }
    if total <= 0.0 {
        return 1.0;
    }
    max / (total / n as f64)
}

impl ShardedRma {
    /// Bulk-loads `elems` into a pre-created shell and wraps it as
    /// the shard covering range `i` of `splitters`, its histogram
    /// seeded with the access mass `mass` puts on the drained
    /// residents from rank `from` on, which `elems` are.
    fn finish_shard(
        &self,
        mut shell: Rma,
        splitters: &Splitters,
        i: usize,
        elems: &[(Key, Value)],
        (mass, from): (&ResidentMass, usize),
    ) -> Arc<Shard> {
        shell.load_bulk(elems);
        let (lo, hi) = splitters.range_of(i);
        let shard = Shard::new(shell, lo, hi, Arc::clone(&self.lock_stats));
        let counts =
            (shard.stats).bucket_counts(|k| elems.partition_point(|e| e.0 < k), elems.len());
        shard.stats.seed(mass, from, counts);
        Arc::new(shard)
    }

    /// Synchronous maintenance: plans the calibrator rule
    /// ([`plan_maintenance`](Self::plan_maintenance)) and drains the
    /// plan at once, again against the topology each drain left,
    /// until a round executes nothing (an empty plan, or every step
    /// stale) or 16 rounds have run — so a pathological distribution
    /// cannot spin here forever. Cuts come from the windows'
    /// equal-access quantiles, and restructured shards inherit the
    /// access mass of the residents they take. Each step publishes a
    /// copy-on-write topology: concurrent readers keep serving
    /// throughout, writers re-route past the replaced shards.
    /// Restructured shards restart their read/write counters. The
    /// background maintainer runs this once as it starts, then drains
    /// the same plans, paced.
    pub fn maintain(&self) -> DrainReport {
        let mut total = DrainReport::default();
        for _ in 0..16 {
            let before = total.executed();
            self.drain_into(&mut self.plan_maintenance(), &mut total);
            if total.executed() == before {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::small_cfg;
    use crate::{DrainReport, ShardedRma, Splitters};

    #[test]
    fn stats_report_bounds_and_counters() {
        let s = ShardedRma::with_splitters(small_cfg(3), Splitters::new(vec![100, 200]));
        for k in 0..300i64 {
            s.insert(k, k);
        }
        let _ = s.get(150);
        let stats = s.stats_snapshot().shards;
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].lower_bound, None);
        assert_eq!(stats[1].lower_bound, Some(100));
        assert_eq!(stats[1].upper_bound, Some(200));
        assert_eq!(stats.iter().map(|st| st.len).sum::<usize>(), 300);
        assert_eq!(stats[1].reads, 1);
        assert_eq!(stats[1].access_mass, 101, "100 inserts + 1 get");
        assert!(stats.iter().all(|st| st.writes == 100));
    }

    #[test]
    fn hot_shard_splits() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![1000, 2000, 3000]));
        // Hammer shard 0 only.
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        let before = s.collect_all();
        // The cold shards' window is the root: the one step re-cuts
        // the index into four pieces of equal mass.
        let report = s.maintain();
        assert!(
            report.executed() >= 1,
            "skewed load must re-cut: {report:?}"
        );
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "maintenance must not lose data");
        let stats = s.stats_snapshot().shards;
        let max = stats.iter().map(|st| st.len).max().unwrap();
        assert!(max < 1000, "hot shard still intact: {stats:?}");
    }

    #[test]
    fn access_cut_splits_at_the_hot_point_not_the_median() {
        // Shard 0 holds keys 0..1000 but only the top decile is ever
        // touched after loading: the access CDF cut must land inside
        // [900, 1000), not at the median 500. The cold shards' window
        // is the root, so the one step re-cuts all three.
        let s = ShardedRma::with_splitters(small_cfg(3), Splitters::new(vec![5000, 10_000]));
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..50 {
            for k in 900..1000i64 {
                let _ = s.get(k);
            }
        }
        // Something must make shard 0 hot relative to shard 1.
        let _ = s.get(6000);
        s.maintain();
        let new_keys = s.splitters();
        let inner: Vec<i64> = new_keys
            .keys()
            .iter()
            .copied()
            .filter(|&k| (0..1000).contains(&k))
            .collect();
        assert!(
            inner.iter().any(|&k| (850..=1000).contains(&k)),
            "cut missed the hot decile: {inner:?}"
        );
        s.check_invariants();
    }

    #[test]
    fn cold_neighbours_merge() {
        let splitters: Vec<i64> = (1..16).map(|i| i * 100).collect();
        let s = ShardedRma::with_splitters(small_cfg(16), Splitters::new(splitters));
        // Only two shards get data; the rest are cold and merge away.
        for k in 0..100i64 {
            s.insert(k, k);
            s.insert(1500 + k, k);
        }
        let before = s.collect_all();
        let report = s.maintain();
        assert!(report.merges >= 1, "{report:?}");
        s.check_invariants();
        assert!(s.num_shards() < 16);
        assert_eq!(s.collect_all(), before);
    }

    #[test]
    fn balanced_load_is_left_alone() {
        let batch: Vec<(i64, i64)> = (0..8000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(8), &batch);
        assert_eq!(s.maintain(), DrainReport::default());
        assert_eq!(s.num_shards(), 8);
    }

    #[test]
    fn duplicate_only_shard_does_not_split() {
        let s = ShardedRma::with_splitters(small_cfg(2), Splitters::new(vec![1000]));
        for _ in 0..500 {
            s.insert(7, 7);
        }
        let report = s.maintain();
        assert_eq!(report.splits, 0);
        s.check_invariants();
        assert_eq!(s.len(), 500);
    }

    #[test]
    fn empty_index_keeps_its_splitters() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![10, 20, 30]));
        assert_eq!(s.maintain(), DrainReport::default());
        assert_eq!(s.num_shards(), 4);
    }

    #[test]
    fn maintain_splits_an_index_loaded_into_one_shard() {
        let s = ShardedRma::new(small_cfg(4));
        for k in 0..500i64 {
            s.insert(k, k);
        }
        let report = s.maintain();
        s.check_invariants();
        assert_eq!(s.len(), 500);
        // All mass in shard 0 of a 62-bit uniform topology: the cold
        // shards' smallest admissible window is the root, and the one
        // step re-cuts the loaded range into four and merges the
        // empty tail into the last of them.
        assert_eq!(report.executed(), 1, "{report:?}");
        assert_eq!(s.num_shards(), 4);
        assert!(s.splitters().keys().iter().all(|&k| k < 500));
        assert!(s.plan_maintenance().is_empty());
    }

    #[test]
    fn concurrent_reads_survive_recut_publication() {
        // A reader that pinned a pre-step topology must keep serving
        // correct values while the split/merge drain publishes one
        // topology per step.
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..20 {
            for k in 2100..2200i64 {
                let _ = s.get(k);
            }
        }
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        let stop = AtomicBool::new(false);
        let sweeps = AtomicU64::new(0);
        std::thread::scope(|sc| {
            let (s, stop, sweeps) = (&s, &stop, &sweeps);
            let reader = sc.spawn(move || {
                while !stop.load(Relaxed) {
                    // Mostly the hot band, so that however many sweeps
                    // an optimised build fits in before the planner
                    // reads the histograms, the reads feed the
                    // imbalance it is to act on and never dilute it.
                    for k in (2100..2200i64).chain([500, 1500, 3500]) {
                        assert_eq!(s.get(k), Some(k));
                    }
                    sweeps.fetch_add(1, Relaxed);
                }
            });
            // The reader must be mid-flight when the drain starts, not
            // still being spawned.
            while sweeps.load(Relaxed) == 0 {
                std::thread::yield_now();
            }
            let report = s.maintain();
            // Stop the reader before asserting: a failed assertion
            // must fail the test, not leave the scope waiting forever.
            stop.store(true, Relaxed);
            reader.join().unwrap();
            // The hot shard held no inner boundary: now it is cut.
            let keys = s.splitters().keys().to_vec();
            assert!(
                keys.iter().any(|&k| (2001..3000).contains(&k)),
                "the hot shard was not cut: {report:?} {keys:?}"
            );
        });
        s.check_invariants();
    }
}
