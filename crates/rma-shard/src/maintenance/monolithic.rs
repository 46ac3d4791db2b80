//! The monolithic re-learn baseline: the PR-3 single-swap rebuild,
//! kept verbatim so the incremental engine has an in-tree reference —
//! the differential tests call it directly, and the
//! `fig18_write_stall` driver measures the writer stall it causes
//! (every shard's write lock held for the whole rebuild) against the
//! plan engine's bounded steps. No configuration selects it.

use super::{
    imbalance_of, predicted_masses, weighted_buckets_of, RelearnReport, RELEARN_MIN_GAIN,
    RELEARN_TRIGGER,
};
use crate::shard::{Shard, StepGuards, Topology};
use crate::{ShardedRma, Splitters};
use std::sync::Arc;

impl ShardedRma {
    /// Re-learns the splitter set multi-way from the global access
    /// histogram in **one pass**: the rebuild drains every shard
    /// under its write lock (writers queue behind the whole rebuild;
    /// readers keep serving optimistically from the pre-rebuild
    /// topology) and publishes the successor in a single swap. Same
    /// two-stage stability guard as the incremental planner; rebuilt
    /// shards keep their learned histograms (re-binned to the new
    /// ranges).
    ///
    /// This is the reference
    /// [`relearn_splitters`](Self::relearn_splitters) is compared
    /// against — call it only to measure or test the difference.
    pub fn relearn_splitters_monolithic(&self) -> RelearnReport {
        let _maint = self.maintenance_guard();
        let topo = self.handle.load_exclusive();
        let n = topo.shards.len();
        let mut report = RelearnReport::at(n);
        let masses: Vec<u64> = topo.shards.iter().map(|s| s.stats.total()).collect();
        let total: u64 = masses.iter().sum();
        if total == 0 {
            return report; // no signal to learn from
        }
        let mean = total as f64 / n as f64;
        let imbalance = *masses.iter().max().expect("at least one shard") as f64 / mean;
        report.imbalance_before = imbalance;
        if imbalance < RELEARN_TRIGGER {
            return report; // already balanced: no churn
        }
        let wb = weighted_buckets_of(&topo.shards);
        let candidate = Splitters::from_weighted_histogram(&wb, self.cfg.num_shards);
        if candidate == topo.splitters {
            return report;
        }
        let predicted = imbalance_of(predicted_masses(&wb, &candidate));
        report.imbalance_predicted = predicted;
        if predicted >= (1.0 - RELEARN_MIN_GAIN) * imbalance {
            return report; // gain too small to justify the churn
        }

        // Rebuild: drain every shard under its write lock (ascending
        // order). Shards are contiguous and sorted, so concatenating
        // them yields the full sorted content.
        let guards = StepGuards::lock(&topo.shards, 0..=n - 1);
        let elems = guards.collect_elems();
        let parts = candidate.partition_sorted(&elems).into_iter().enumerate();
        let shards: Vec<Arc<Shard>> = parts
            .map(|(i, r)| {
                let shell = self.shard_shell(r.len());
                self.finish_shard(shell, &candidate, i, &elems[r], &wb)
            })
            .collect();
        report.shards_after = shards.len();
        report.relearned = true;
        guards.retire_all();
        let retired = self.handle.publish(Topology {
            splitters: candidate,
            shards,
        });
        drop(guards); // release before the grace wait (see publish_step)
        self.handle.reclaim(retired);
        report
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::small_cfg;
    use crate::{ShardedRma, Splitters};

    /// The monolithic baseline and the incremental default must land
    /// on the same splitters when every target range fits the step
    /// cap — the deterministic core of the plan-equivalence
    /// guarantee (the proptest in `tests/sharded_differential.rs`
    /// broadens it).
    #[test]
    fn monolithic_and_incremental_agree_on_small_topologies() {
        let run = |monolithic: bool| {
            let s =
                ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![1000, 2000, 3000]));
            for k in 0..4000i64 {
                s.insert(k, k);
            }
            s.reset_access_stats();
            for _ in 0..20 {
                for k in 2100..2200i64 {
                    let _ = s.get(k);
                }
            }
            let report = if monolithic {
                s.relearn_splitters_monolithic()
            } else {
                s.relearn_splitters()
            };
            assert!(report.relearned, "monolithic {monolithic}: {report:?}");
            // A band a tenth of one shard wide: moving either of that
            // shard's boundaries leaves the band whole on one side, so
            // no single nudge comes near the four-way rebuild and the
            // full-rebuild path is taken.
            assert_eq!(s.maintenance_stats().nudges, 0, "monolithic {monolithic}");
            s.check_invariants();
            (s.splitters(), s.collect_all())
        };
        let (mono_splitters, mono_content) = run(true);
        let (inc_splitters, inc_content) = run(false);
        assert_eq!(mono_content, inc_content);
        assert_eq!(
            mono_splitters, inc_splitters,
            "uncapped incremental drain must reproduce the monolithic splitters"
        );
    }

    #[test]
    fn monolithic_strategy_is_selected_by_config() {
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
        let before = s.maintenance_stats();
        let report = s.relearn_splitters_monolithic();
        assert!(report.relearned);
        let after = s.maintenance_stats();
        // The monolithic path bypasses the plan engine entirely: one
        // publication, zero steps.
        assert_eq!(after.steps_executed, before.steps_executed);
        assert_eq!(after.topologies_published, before.topologies_published + 1);
    }
}
