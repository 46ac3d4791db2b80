//! Shard maintenance: per-shard load statistics and the **incremental
//! maintenance plan engine**. Following the paper's
//! incremental-rebalance philosophy (restructuring must not stall the
//! data path, §V) one level up, maintenance is decomposed:
//!
//! * **planners** (`plan.rs`) read the access histograms and emit a
//!   [`MaintenancePlan`]: bounded steps, each the key-identified name
//!   of a range to re-cut, in the order they are to run — there is no
//!   scheduler between planner and executor;
//! * the **executor** ([`ShardedRma::execute_step`] /
//!   [`ShardedRma::drain_plan`], in `executor.rs`) applies one step at
//!   a time through one procedure for every kind: it locks only the
//!   shards inside the step's range, publishes a successor topology
//!   that reuses every untouched shard's `Arc`, and waits out the read
//!   grace period — so **a writer only ever waits out the one step
//!   currently restructuring its shard, never the whole topology**;
//! * the **monolithic baseline**
//!   ([`ShardedRma::relearn_splitters_monolithic`], in
//!   `monolithic.rs`) keeps the single-swap rebuild as the reference
//!   the tests and the `fig18_write_stall` benchmark compare against;
//!   no configuration selects it.
//!
//! The synchronous entry points [`ShardedRma::rebalance_shards`],
//! [`ShardedRma::relearn_splitters`], [`ShardedRma::maintain`] and
//! [`ShardedRma::compact`] plan and immediately drain, round after
//! round, through one loop. The background maintainer
//! ([`crate::maintainer`]) instead drains plans a few steps per tick
//! with inter-step sleeps.
//!
//! # Maintenance vs. the lock-free read path
//!
//! Every structural change remains copy-on-write: a step (serialized
//! by the maintenance mutex) drains the affected shards under their
//! write locks, builds a successor `Topology` that reuses the
//! untouched shards' `Arc`s, marks the replaced shards retired, swaps
//! the topology pointer, releases the locks, and only then waits out
//! the readers still pinned to the displaced topology. Readers never
//! block behind maintenance; writers that reach a retired shard
//! re-route (`ShardedRma::with_topo_retry`). Restructured shards are
//! rebuilt through the paper's bulk-load machinery and their
//! histograms are **re-seeded** from the learned signal, so
//! maintenance never resets what the workload taught the structure.

pub(crate) mod executor;
pub(crate) mod monolithic;
pub(crate) mod plan;

pub use executor::{DrainReport, StepReport};
pub use plan::{MaintenancePlan, MaintenanceStep};

use crate::shard::Shard;
use crate::{BalancePolicy, RelearnStrategy, ShardedRma, Splitters};
use rma_core::{Key, Rma, Value};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// A snapshot of one shard's load.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index in splitter order.
    pub shard: usize,
    /// Stored elements.
    pub len: usize,
    /// Segments of the inner RMA.
    pub segments: usize,
    /// Reads routed to this shard since construction (or since the
    /// shard was last restructured).
    pub reads: u64,
    /// Write operations routed likewise.
    pub writes: u64,
    /// Decayed access mass of the shard's histogram (survives
    /// restructuring via re-seeding, unlike `reads`/`writes`).
    pub access_mass: u64,
    /// Inclusive lower key bound (`None` = unbounded).
    pub lower_bound: Option<Key>,
    /// Exclusive upper key bound (`None` = unbounded).
    pub upper_bound: Option<Key>,
}

/// What one [`ShardedRma::relearn_splitters`] call decided.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RelearnReport {
    /// Whether the splitter set was actually changed (any re-learn
    /// step — nudge, split, rebuild or merge — executed).
    pub relearned: bool,
    /// Max/mean access imbalance observed before the call (0 when no
    /// access mass had been recorded).
    pub imbalance_before: f64,
    /// Predicted max/mean imbalance under the chosen plan (only set
    /// when a candidate was evaluated).
    pub imbalance_predicted: f64,
    /// Shard count before the call.
    pub shards_before: usize,
    /// Shard count after the call.
    pub shards_after: usize,
}

/// Re-learning only engages when the access imbalance (max/mean
/// shard mass) is at least this factor — below it the topology is
/// considered balanced and left alone.
pub(crate) const RELEARN_TRIGGER: f64 = 1.25;

/// Re-learning is skipped unless the predicted post-re-learn
/// imbalance improves on the current one by at least this fraction
/// (the stability guard against churn for marginal gains).
pub(crate) const RELEARN_MIN_GAIN: f64 = 0.1;

impl RelearnReport {
    /// The report of a plan made against `n` shards, before any
    /// decision is filled in.
    pub(super) fn at(n: usize) -> Self {
        RelearnReport {
            shards_before: n,
            shards_after: n,
            ..Default::default()
        }
    }
}

/// Clips weighted buckets to `[lo, hi)`, scaling each straddling
/// bucket's mass by its overlap fraction (piecewise-uniform model).
pub(super) fn clip_weights(
    wb: &[(Key, Key, u64)],
    lo: Option<Key>,
    hi: Option<Key>,
) -> Vec<(Key, Key, u64)> {
    wb.iter()
        .filter_map(|&(blo, bhi, w)| {
            let clo = lo.map_or(blo, |l| blo.max(l));
            let chi = hi.map_or(bhi, |h| bhi.min(h));
            if chi <= clo {
                return None;
            }
            let span = (bhi as i128 - blo as i128).max(1);
            let part = chi as i128 - clo as i128;
            let share = ((w as i128 * part) / span) as u64;
            (share > 0).then_some((clo, chi, share))
        })
        .collect()
}

/// Access mass each shard of `splitters` would receive from the
/// weighted buckets (piecewise-uniform distribution of straddlers).
pub(super) fn predicted_masses(wb: &[(Key, Key, u64)], splitters: &Splitters) -> Vec<f64> {
    let mut masses = vec![0f64; splitters.num_shards()];
    for &(blo, bhi, w) in wb {
        let span = (bhi as i128 - blo as i128).max(1) as f64;
        let first = splitters.route(blo);
        let last = splitters.route(bhi.saturating_sub(1).max(blo));
        for (i, m) in masses.iter_mut().enumerate().take(last + 1).skip(first) {
            let (slo, shi) = splitters.range_of(i);
            let clo = slo.map_or(blo, |l| blo.max(l));
            let chi = shi.map_or(bhi, |h| bhi.min(h));
            if chi > clo {
                *m += w as f64 * (chi as i128 - clo as i128) as f64 / span;
            }
        }
    }
    masses
}

/// Concatenated weighted histograms of a contiguous run of shards —
/// the signal planners predict from and the executor seeds successor
/// shards from.
pub(super) fn weighted_buckets_of(shards: &[Arc<Shard>]) -> Vec<(Key, Key, u64)> {
    (shards.iter())
        .flat_map(|s| s.stats.weighted_buckets())
        .collect()
}

/// Max/mean of a mass vector, observed or predicted; `1.0` for empty
/// or all-zero input.
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
    /// Per-shard load snapshot, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let topo = self.topo();
        topo.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (len, segments) = s.peek(|rma| (rma.len(), rma.num_segments()));
                let (lower_bound, upper_bound) = topo.splitters.range_of(i);
                ShardStats {
                    shard: i,
                    len,
                    segments,
                    reads: s.reads.load(Relaxed),
                    writes: s.writes.load(Relaxed),
                    access_mass: s.stats.total(),
                    lower_bound,
                    upper_bound,
                }
            })
            .collect()
    }

    /// Per-shard weights the configured [`BalancePolicy`] balances on.
    /// Under `ByAccess` this is the decayed histogram mass, falling
    /// back to element counts while no access has been recorded (a
    /// freshly bulk-loaded index still balances by residency).
    pub(super) fn balance_weights(
        lens: &[usize],
        masses: &[u64],
        policy: BalancePolicy,
    ) -> Vec<u64> {
        match policy {
            BalancePolicy::ByLen => lens.iter().map(|&l| l as u64).collect(),
            BalancePolicy::ByAccess => {
                if masses.iter().all(|&m| m == 0) {
                    lens.iter().map(|&l| l as u64).collect()
                } else {
                    masses.to_vec()
                }
            }
        }
    }

    /// An empty RMA ready to become a successor shard. Creating one
    /// costs a memfd + reservation mapping (milliseconds under the
    /// rewired backend), so the step executor pre-creates its shells
    /// *before* taking any shard lock — the locked window pays only
    /// for draining and loading the actual elements.
    pub(super) fn shard_shell(&self) -> Rma {
        Rma::new(self.cfg.rma)
    }

    /// Bulk-loads `elems` into a pre-created shell and wraps it as
    /// the shard covering range `i` of `splitters`, histogram seeded
    /// from `wb`.
    pub(super) fn finish_shard(
        &self,
        mut shell: Rma,
        splitters: &Splitters,
        i: usize,
        elems: &[(Key, Value)],
        wb: &[(Key, Key, u64)],
    ) -> Arc<Shard> {
        shell.load_bulk(elems);
        let (lo, hi) = splitters.range_of(i);
        let shard = Shard::new(shell, lo, hi, Arc::clone(self.lock_stats_arc()));
        shard.stats.seed(&clip_weights(wb, lo, hi));
        Arc::new(shard)
    }

    /// Plans with `plan` and drains, again against the topology each
    /// drain left, until a round executes nothing (an empty plan, or
    /// every step stale) or `rounds` have run — so a pathological
    /// distribution cannot spin here forever. The one loop under
    /// every synchronous entry point.
    fn drain_rounds(
        &self,
        rounds: usize,
        mut plan: impl FnMut() -> MaintenancePlan,
    ) -> DrainReport {
        let mut total = DrainReport::default();
        for _ in 0..rounds {
            let before = total.executed();
            self.drain_into(&mut plan(), &mut total);
            if total.executed() == before {
                break;
            }
        }
        total
    }

    /// Splits shards whose balance weight exceeds twice the mean and
    /// merges adjacent pairs whose combined weight falls below half
    /// the mean, by planning ([`plan_rebalance`](Self::plan_rebalance))
    /// and immediately draining up to 16 rounds of [`MaintenanceStep`]s.
    /// Under the default [`BalancePolicy::ByAccess`], split points
    /// come from the shard histogram's equal-access CDF point and
    /// restructured shards inherit their parents' (clipped)
    /// histograms. Each step publishes a copy-on-write topology:
    /// concurrent readers keep serving throughout, writers re-route
    /// past the replaced shards. Restructured shards restart their
    /// read/write counters.
    pub fn rebalance_shards(&self) -> DrainReport {
        self.drain_rounds(16, || self.plan_rebalance())
    }

    /// Re-learns the splitter set from the global access histogram —
    /// multi-way equal-access quantiles, guarded twice (observed
    /// imbalance must reach 1.25 **and** the predicted imbalance must
    /// improve by a tenth), so uniform workloads cause zero churn.
    ///
    /// Under the default [`RelearnStrategy::Incremental`] this plans
    /// ([`plan_relearn`](Self::plan_relearn)) and immediately drains.
    /// [`RelearnStrategy::NudgeOnly`] never rebuilds, it only chases
    /// boundaries, up to eight sweeps a call.
    pub fn relearn_splitters(&self) -> RelearnReport {
        // A nudge sweep is one round of *local* moves; convergence to
        // the equal-access topology comes from cascading them (each
        // round re-plans against the moved boundaries), like a Lloyd
        // iteration. Every other plan is the whole jump: one round.
        let rounds = match self.cfg.relearn_strategy {
            RelearnStrategy::NudgeOnly => 8,
            RelearnStrategy::Incremental => 1,
        };
        // The decision reported is the first round's.
        let mut first = None;
        let drained = self.drain_rounds(rounds, || {
            let plan = self.plan_relearn();
            first.get_or_insert(plan.relearn_report());
            plan
        });
        let mut report = first.expect("at least one round planned");
        report.relearned = drained.executed() > 0;
        report.shards_after = self.num_shards();
        report
    }

    /// Periodic maintenance entry point: splitter re-learning (when
    /// `ShardConfig::relearn` is on) followed by the incremental
    /// split/merge pass. Plans and drains synchronously; the
    /// background maintainer uses the plan/step API directly instead
    /// so it can pace the steps.
    pub fn maintain(&self) -> (RelearnReport, DrainReport) {
        let relearn = if self.cfg.relearn {
            self.relearn_splitters()
        } else {
            RelearnReport::default()
        };
        (relearn, self.rebalance_shards())
    }

    /// Synchronous shard-count consolidation: plans and drains
    /// [`plan_consolidation`](Self::plan_consolidation) rounds until
    /// the live shard count reaches the configured `num_shards`
    /// target or no further cap-bounded merge applies, returning the
    /// merges executed. The background maintainer runs the same chain
    /// one idle tick at a time; this is the on-demand form (quiesce a
    /// workload, then `compact()` before the next burst).
    pub fn compact(&self) -> usize {
        self.drain_rounds(64, || self.plan_consolidation()).merges
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::small_cfg;
    use crate::{BalancePolicy, DrainReport, ShardedRma, Splitters};

    #[test]
    fn stats_report_bounds_and_counters() {
        let s = ShardedRma::with_splitters(small_cfg(3), Splitters::new(vec![100, 200]));
        for k in 0..300i64 {
            s.insert(k, k);
        }
        let _ = s.get(150);
        let stats = s.shard_stats();
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
        let report = s.rebalance_shards();
        assert!(report.splits >= 1, "skewed load must split: {report:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "maintenance must not lose data");
        let stats = s.shard_stats();
        let max = stats.iter().map(|st| st.len).max().unwrap();
        assert!(max < 1000, "hot shard still intact: {stats:?}");
    }

    #[test]
    fn access_cut_splits_at_the_hot_point_not_the_median() {
        // Shard 0 holds keys 0..1000 but only the top decile is ever
        // touched after loading: the access CDF cut must land inside
        // [900, 1000), not at the median 500. Three shards, so that
        // one of them can weigh more than twice the mean.
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
        let report = s.rebalance_shards();
        assert!(report.splits >= 1, "{report:?}");
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
        let report = s.rebalance_shards();
        assert!(report.merges >= 1, "{report:?}");
        s.check_invariants();
        assert!(s.num_shards() < 16);
        assert_eq!(s.collect_all(), before);
    }

    #[test]
    fn balanced_load_is_left_alone() {
        let batch: Vec<(i64, i64)> = (0..8000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(8), &batch);
        assert_eq!(s.rebalance_shards(), DrainReport::default());
        assert_eq!(s.num_shards(), 8);
    }

    #[test]
    fn duplicate_only_shard_does_not_split() {
        let s = ShardedRma::with_splitters(small_cfg(2), Splitters::new(vec![1000]));
        for _ in 0..500 {
            s.insert(7, 7);
        }
        let report = s.rebalance_shards();
        assert_eq!(report.splits, 0);
        s.check_invariants();
        assert_eq!(s.len(), 500);
    }

    #[test]
    fn empty_index_keeps_its_splitters() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![10, 20, 30]));
        assert_eq!(s.rebalance_shards(), DrainReport::default());
        assert_eq!(s.num_shards(), 4);
    }

    #[test]
    fn bylen_policy_reproduces_median_splits() {
        let mut cfg = small_cfg(4);
        cfg.balance = BalancePolicy::ByLen;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        let report = s.rebalance_shards();
        assert!(report.splits >= 1);
        // The first split of 0..1000 under ByLen lands at the median.
        assert!(
            s.splitters().keys().contains(&500),
            "median cut expected: {:?}",
            s.splitters().keys()
        );
        s.check_invariants();
    }

    #[test]
    fn relearn_rebuilds_topology_around_the_hotspot() {
        let mut cfg = small_cfg(4);
        cfg.num_shards = 4;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        // Hammer a narrow band inside shard 2.
        for _ in 0..20 {
            for k in 2100..2200i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let report = s.relearn_splitters();
        assert!(report.relearned, "{report:?}");
        assert!(report.imbalance_before > 3.0, "{report:?}");
        assert!(report.imbalance_predicted < report.imbalance_before);
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "re-learning must not lose data");
        // Most splitters should now sit inside the hammered band.
        let inside = s
            .splitters()
            .keys()
            .iter()
            .filter(|&&k| (2100..2200).contains(&k))
            .count();
        assert!(inside >= 2, "splitters: {:?}", s.splitters().keys());
    }

    #[test]
    fn relearn_skips_balanced_access() {
        let batch: Vec<(i64, i64)> = (0..4000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(4), &batch);
        // Uniform touches: every key once.
        for k in 0..4000i64 {
            let _ = s.get(k);
        }
        let splitters_before = s.splitters();
        let report = s.relearn_splitters();
        assert!(!report.relearned, "uniform access must not churn");
        assert_eq!(s.splitters(), splitters_before);
    }

    #[test]
    fn relearn_without_any_access_is_a_noop() {
        let batch: Vec<(i64, i64)> = (0..1000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(4), &batch);
        let report = s.relearn_splitters();
        assert!(!report.relearned);
        assert_eq!(report.imbalance_before, 0.0);
    }

    #[test]
    fn maintain_combines_relearn_and_rebalance() {
        let s = ShardedRma::new(small_cfg(4));
        for k in 0..500i64 {
            s.insert(k, k);
        }
        let (relearn, rebalance) = s.maintain();
        s.check_invariants();
        assert_eq!(s.len(), 500);
        // All mass in shard 0 of a 62-bit uniform topology: either
        // path may fire, but the combination must leave a consistent,
        // more balanced topology.
        assert!(relearn.relearned || rebalance.splits > 0 || rebalance.merges > 0);
    }

    #[test]
    fn concurrent_reads_survive_relearn_publication() {
        // A reader that pinned a pre-step topology must keep serving
        // correct values while the incremental drain publishes one
        // topology per step.
        let mut cfg = small_cfg(4);
        cfg.min_split_len = 64;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
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
            let report = s.relearn_splitters();
            // Stop the reader before asserting: a failed assertion
            // must fail the test, not leave the scope waiting forever.
            stop.store(true, Relaxed);
            reader.join().unwrap();
            assert!(report.relearned, "{report:?}");
        });
        s.check_invariants();
    }
}
