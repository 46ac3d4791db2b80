//! The step executor: applies one [`MaintenanceStep`] at a time, each
//! publishing its own copy-on-write topology through the epoch
//! handle.
//!
//! There is one step — *re-cut a contiguous run of whole shards at a
//! list of cuts* — and one procedure for it: `resolve` finds the
//! shards the step names on the live topology, `recut` does the work.
//! Per step (under the maintenance mutex, which serializes
//! publications but is held only for the *one* step):
//!
//! 1. resolve the step's keys against the live topology — the plan
//!    may be stale (a concurrent planner, or earlier steps of this
//!    very plan, moved the boundaries); a step whose keys no longer
//!    name what it was planned for is **skipped**, never mis-applied;
//! 2. write-lock only the shards inside the step's key range
//!    ([`StepGuards`], ascending order), drain them, and build the
//!    replacement shards through the paper's bulk-load machinery,
//!    histograms re-seeded from the parents;
//! 3. retire the drained shards, publish the successor topology
//!    (untouched shards shared by `Arc`), release the locks, and wait
//!    out the reader grace period.
//!
//! Writers therefore only ever queue behind the shards of the step in
//! flight; a writer blocked when a step begins is released when that
//! step publishes — the `fig18_write_stall` benchmark and the
//! writer-progress stress test pin this down.

use super::plan::{MaintenancePlan, MaintenanceStep};
use crate::shard::{Shard, StepGuards, Topology};
use crate::{MaintCounters, ShardedRma, Splitters};
use rma_core::{Key, Rma};
use rma_obs::EventKind;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// The most elements a merge may build while
/// `ShardConfig::max_shard_len` is unset.
const MERGE_CAP: usize = 1 << 17;

/// What one [`ShardedRma::execute_step`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The step that was popped from the plan.
    pub step: MaintenanceStep,
    /// False when the step was skipped as stale (or would have
    /// exceeded the merge bound).
    pub executed: bool,
    /// Elements rebuilt under the step's locks: every resident of
    /// every shard the step drained, whichever side of a boundary it
    /// ends up on — the measure a merge's bound caps, and what
    /// [`MaintenanceStats::keys_migrated`](crate::MaintenanceStats)
    /// sums.
    pub migrated: u64,
    /// Shards the step drained (0 when skipped).
    pub taken: usize,
    /// Shards the step built in their place (0 when skipped).
    pub built: usize,
}

/// Aggregate of one [`ShardedRma::drain_plan`] call. An executed step
/// that built more shards than it took is a split, any other a merge.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Executed steps that built more shards than they took.
    pub splits: usize,
    /// Every other executed step.
    pub merges: usize,
    /// Steps skipped as stale.
    pub skipped: usize,
    /// Shards the merges took away: taken minus built.
    pub retired: usize,
}

impl DrainReport {
    /// Total steps that executed.
    pub fn executed(&self) -> usize {
        self.splits + self.merges
    }

    /// Counts one step as a split, a merge or skipped, and returns its
    /// journal event: the one classification of a step, which the
    /// engine's ledger files through as well (`MaintCounters::file`).
    pub(crate) fn count(&mut self, sr: &StepReport) -> EventKind {
        let split = sr.built > sr.taken;
        if !sr.executed {
            self.skipped += 1;
        } else if split {
            self.splits += 1;
        } else {
            self.merges += 1;
            self.retired += sr.taken - sr.built;
        }
        if split {
            EventKind::Split
        } else {
            EventKind::Merge
        }
    }
}

impl MaintCounters {
    /// Files one popped step in the ledger — as a split, a merge or
    /// skipped, its migrated elements, and a consolidation plan's
    /// merges — and returns its journal event.
    fn file(&self, sr: &StepReport, consolidation: bool) -> EventKind {
        let mut one = DrainReport::default();
        let event = one.count(sr);
        let consolidations = if consolidation { one.merges } else { 0 };
        for (counter, n) in [
            (&self.splits, one.splits),
            (&self.merges, one.merges),
            (&self.steps_skipped, one.skipped),
            (&self.consolidations, consolidations),
        ] {
            counter.fetch_add(n as u64, Relaxed);
        }
        self.keys_migrated.fetch_add(sr.migrated, Relaxed);
        event
    }
}

impl ShardedRma {
    /// Executes the plan's next step (one copy-on-write publication),
    /// returning what happened — or `None` when the plan is drained.
    /// Safe to interleave with any concurrent operation; the step
    /// re-validates against the live topology and is skipped if
    /// stale. This is the background maintainer's pacing primitive:
    /// called until it returns `None`, it runs every step the planner
    /// emitted, each executed or skipped.
    pub fn execute_step(&self, plan: &mut MaintenancePlan) -> Option<StepReport> {
        let step = plan.pop()?;
        let obs_on = self.obs().enabled();
        let t0 = if obs_on { rma_obs::now_ns() } else { 0 };
        let mut report = StepReport {
            step,
            executed: false,
            migrated: 0,
            taken: 0,
            built: 0,
        };
        // `first` is the shard index the journal entry names, on the
        // topology current *before* execution (which replaces it): the
        // first shard of the re-cut run.
        let first = {
            let _maint = self.maintenance_guard();
            let topo = self.handle.load_exclusive();
            let resolved = self.resolve(&report.step, topo);
            if let Some((first, last, cuts)) = resolved {
                let (taken, built) = (last + 1 - first, cuts.len() + 1);
                let bound = match (built > taken, plan.consolidation_planned()) {
                    // A split is how an oversized shard shrinks.
                    (true, _) => usize::MAX,
                    // Consolidation plans run behind the idle gate, so
                    // their merges are allowed the wider idle bound.
                    (false, true) => self.consolidation_bound(),
                    (false, false) => self.merge_bound(),
                };
                if let Some(migrated) = self.recut(first, last, cuts, bound) {
                    (report.executed, report.migrated) = (true, migrated);
                    (report.taken, report.built) = (taken, built);
                }
            }
            resolved.map_or(0, |r| r.0)
        };
        let event = (self.maint_counters).file(&report, plan.consolidation_planned());
        if report.executed && obs_on {
            let dur = rma_obs::now_ns().saturating_sub(t0);
            self.obs().record_step(dur);
            self.obs().log(event, first as u32, dur, report.migrated);
        }
        Some(report)
    }

    /// Executes every remaining step back-to-back (the synchronous
    /// mode behind [`maintain`](Self::maintain) and the tests).
    pub fn drain_plan(&self, plan: &mut MaintenancePlan) -> DrainReport {
        let mut report = DrainReport::default();
        self.drain_into(plan, &mut report);
        report
    }

    /// [`drain_plan`](Self::drain_plan), counting into `report`.
    pub(super) fn drain_into(&self, plan: &mut MaintenancePlan, report: &mut DrainReport) {
        while let Some(sr) = self.execute_step(plan) {
            report.count(&sr);
        }
    }

    /// Retires the drained shards, publishes the successor topology,
    /// releases the step's locks, and waits out the reader grace
    /// period — the shared tail of every step.
    fn publish_step(&self, guards: StepGuards<'_>, next: Topology) {
        guards.retire_all();
        let next_shards = next.shards.len() as u64;
        let retired = self.handle.publish(next);
        // The locked window ends here: record it just before release.
        // Shell pre-creation and the grace wait below run outside the
        // locks, so they are deliberately *not* part of this stat —
        // it bounds what a queued writer could have waited.
        let held_ns = guards.held().as_nanos() as u64;
        self.maint_counters.max_step_ns.fetch_max(held_ns, Relaxed);
        self.obs().log(
            EventKind::TopologyPublish,
            rma_obs::Event::NO_SHARD,
            held_ns,
            next_shards,
        );
        // Release the shard locks before the grace wait: queued
        // writers must be able to wake and re-route.
        drop(guards);
        self.handle.reclaim(retired);
    }

    /// The largest shard a merge may build — one merge *is* the
    /// step, so this directly bounds its locked window: the
    /// `max_shard_len` backstop when one is configured (merging past
    /// it would just make the next round split the result again, a
    /// permanent merge/split oscillation), [`MERGE_CAP`] otherwise.
    pub(crate) fn merge_bound(&self) -> usize {
        self.cfg.max_shard_len.unwrap_or(MERGE_CAP)
    }

    /// The wider merge bound the idle-time consolidation chain plans
    /// and executes against. [`merge_bound`](Self::merge_bound)
    /// protects *foreground* writers — a merge is one locked window,
    /// so under load it must stay inside the bound — but
    /// consolidation only runs once the op-rate gate says the index
    /// is idle, and with the strict bound a topology whose natural
    /// shard size exceeds half of it could never merge at all,
    /// leaving the configured target unreachable at scale. The idle
    /// bound therefore also admits any merge no bigger than two
    /// average target-count shards, still clamped to the
    /// `max_shard_len` backstop.
    pub(crate) fn consolidation_bound(&self) -> usize {
        let natural = (self.len() / self.cfg.num_shards.max(1)).saturating_mul(2);
        let widened = self.merge_bound().max(natural);
        self.cfg.max_shard_len.map_or(widened, |m| widened.min(m))
    }

    /// Names what a step re-cuts on the live topology — shards
    /// `first..=last` and the cuts — or `None` when the step is
    /// stale: its edges are no longer shard boundaries, its cuts are
    /// not strictly ascending inside them, or they are the run's
    /// inner boundaries already. The shards are found by key, so a
    /// step re-cuts exactly the range it was planned for whatever the
    /// rest of the topology has become — which indices fixed at plan
    /// time could not promise.
    fn resolve<'s>(
        &self,
        step: &'s MaintenanceStep,
        topo: &Topology,
    ) -> Option<(usize, usize, &'s [Key])> {
        let MaintenanceStep::Recut { lo, hi, cuts } = step;
        let sp = &topo.splitters;
        let inside = |k: &Key| lo.is_none_or(|l| l < *k) && hi.is_none_or(|h| *k < h);
        let ascending = cuts.windows(2).all(|w| w[0] < w[1]);
        if lo.zip(*hi).is_some_and(|(l, h)| l >= h) || !ascending || !cuts.iter().all(inside) {
            return None;
        }
        let (first, last) = sp.overlapping(*lo, *hi);
        let whole = sp.range_of(first).0 == *lo && sp.range_of(last).1 == *hi;
        (whole && sp.keys()[first..last] != cuts[..]).then_some((first, last, &cuts[..]))
    }

    /// The one restructuring step: shards `first..=last` become one
    /// shard per range between `cuts`. Locks the shards, drains them,
    /// cuts the sorted run, builds the successors with histograms
    /// seeded from the drained shards', and publishes. Refused
    /// (`None`) when the shards hold more than `bound` elements;
    /// otherwise returns how many elements were rebuilt under the
    /// locks.
    fn recut(&self, first: usize, last: usize, cuts: &[Key], bound: usize) -> Option<u64> {
        let topo = self.handle.load_exclusive();
        // Cheap pre-check before paying for shells or the write locks:
        // if the shards already exceed the bound, re-planning is
        // cheaper than draining.
        let rough: usize = (topo.shards[first..=last].iter())
            .map(|s| s.peek(Rma::len))
            .sum();
        if rough > bound {
            return None;
        }
        // Shells first: their page setup runs while writers still own
        // the shards. No successor holds more than the union, so at
        // most `j` of them can fill a page when `rough / j` does:
        // that many are wired ahead (`Rma::prewire` — the
        // milliseconds of a build are the first page of each column),
        // the rest stay bare and build heap arrays.
        let pieces = cuts.len() + 1;
        let fresh = || Rma::new(self.cfg.rma);
        let probe = fresh();
        let paged = (1..=pieces)
            .take_while(|&j| probe.builds_on_pages(rough / j))
            .count();
        let mut wired: Vec<Rma> = (0..paged).map(|_| fresh()).collect();
        wired.iter_mut().for_each(Rma::prewire);
        let mut bare: Vec<Rma> = (paged + 1..pieces).map(|_| fresh()).collect();
        let guards = StepGuards::lock(&topo.shards, first..=last);
        let elems = guards.collect_elems();
        // Re-check under the locks (the lengths moved). Anything past
        // the bound is a monolithic stall in the making and is
        // refused; the planner re-plans the range on its next pass.
        if elems.len() > bound {
            return None;
        }
        // Successor `k` holds `elems[at[k]..at[k + 1]]`.
        let mut at = vec![0];
        at.extend(cuts.iter().map(|&c| elems.partition_point(|e| e.0 < c)));
        at.push(elems.len());
        // The drained shards' histograms, concatenated: what the
        // successors are seeded from.
        let union_wb: Vec<_> = (topo.shards[first..=last].iter())
            .flat_map(|s| s.stats.weighted_buckets())
            .collect();
        // Successor splitters: the run's inner boundaries go, the
        // cuts come.
        let mut keys = topo.splitters.keys().to_vec();
        keys.splice(first..last, cuts.iter().copied());
        let splitters = Splitters::new(keys);
        // A successor that fills a page takes a wired shell, any
        // other a bare one. A wired shell left over gives way: handing
        // the page back costs about a third of wiring it, so the
        // leftovers are dropped once the locks are released.
        let on_pages: Vec<bool> = (0..pieces)
            .map(|k| probe.builds_on_pages(at[k + 1] - at[k]))
            .collect();
        bare.push(probe);
        let built: Vec<Arc<Shard>> = (0..pieces)
            .map(|k| {
                let part = &elems[at[k]..at[k + 1]];
                let shell = match on_pages[k] {
                    true => wired.pop().or_else(|| bare.pop()),
                    false => bare.pop(),
                };
                let shell = shell.unwrap_or_else(fresh);
                self.finish_shard(shell, &splitters, first + k, part, &union_wb)
            })
            .collect();
        let mut shards = topo.shards.clone();
        shards.splice(first..=last, built);
        self.publish_step(guards, Topology { splitters, shards });
        drop(wired);
        Some(elems.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use crate::maintenance::plan::MaintenanceStep;
    use crate::shard::Shard;
    use crate::tests::small_cfg;
    use crate::{ShardedRma, Splitters};
    use std::sync::Arc;

    /// Drains a planner's output one step at a time: no step may
    /// publish more than one topology, and every intermediate
    /// topology is consistent.
    #[test]
    fn each_executed_step_publishes_one_topology() {
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
        let mut plan = s.plan_maintenance();
        assert!(!plan.is_empty(), "hot band must produce a plan");
        let planned = plan.len();
        let before = s.maintenance_stats();
        let mut published = 0u64;
        while let Some(report) = s.execute_step(&mut plan) {
            let now = s.maintenance_stats().topologies_published;
            if report.executed && report.migrated > 0 {
                assert!(now > published, "executed step must publish");
            }
            assert!(
                now - published <= 1,
                "a step may publish at most one topology"
            );
            published = now;
            s.check_invariants(); // every intermediate topology is consistent
        }
        let after = s.maintenance_stats();
        assert_eq!(
            after.steps_executed + after.steps_skipped
                - before.steps_executed
                - before.steps_skipped,
            planned as u64
        );
        assert_eq!(s.len(), 4000);
    }

    #[test]
    fn rebalance_plan_pops_splits_before_merges() {
        // Hot shard 0 plus cold pairs on the right: the plan must
        // contain both kinds, and every split must come before any
        // merge (the planner emits the splits first).
        let s = ShardedRma::with_splitters(
            small_cfg(16),
            Splitters::new((1..16).map(|i| i * 100).collect()),
        );
        for k in 0..100i64 {
            s.insert(k, k);
            s.insert(1500 + k, k);
        }
        for _ in 0..50 {
            for k in 0..100i64 {
                let _ = s.get(k);
            }
        }
        // A planned split cuts one shard; a planned merge has no cuts.
        let plan = s.plan_maintenance();
        let kinds: Vec<bool> = plan
            .steps()
            .map(|MaintenanceStep::Recut { cuts, .. }| !cuts.is_empty())
            .collect();
        assert!(kinds.iter().any(|&k| k), "hot shard must plan a split");
        assert!(kinds.iter().any(|&k| !k), "cold pairs must plan merges");
        let first_merge = kinds.iter().position(|&k| !k).expect("has a merge");
        assert!(
            kinds[first_merge..].iter().all(|&k| !k),
            "all splits must pop before any merge: {kinds:?}"
        );
    }

    #[test]
    fn consolidation_targets_the_coldest_pairs_first() {
        let mut cfg = small_cfg(8);
        cfg.num_shards = 4;
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 1000).collect()));
        for k in 0..8000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        // Shards 0..4 hot, 4..8 cold: the first merges must come from
        // the cold right half.
        for _ in 0..20 {
            for k in 0..4000i64 {
                let _ = s.get(k);
            }
        }
        let mut plan = s.plan_consolidation();
        assert!(plan.consolidation_planned());
        assert!(
            plan.len() <= 4,
            "must not merge past the target: {}",
            plan.len()
        );
        let first = plan.steps().next().expect("plans at least one merge");
        let MaintenanceStep::Recut { lo, hi, cuts } = first;
        assert!(
            cuts.is_empty(),
            "consolidation plans only merges: {first:?}"
        );
        assert!(
            lo.is_some_and(|l| l <= 4000) && hi.is_none(),
            "the run over the cold half must pop first, got {first:?}"
        );
        let before = s.collect_all();
        let drained = s.drain_plan(&mut plan);
        assert!(drained.merges >= 1, "{drained:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "merges must not lose data");
        assert!(s.num_shards() >= 4, "never below the configured target");
        // Synchronous chain walks all the way down to the target.
        s.compact();
        assert_eq!(s.num_shards(), 4);
        assert!(s.plan_consolidation().is_empty(), "at target: no churn");
    }

    #[test]
    fn consolidation_outruns_the_write_stall_merge_bound() {
        // Shards so large that no pair fits the foreground merge
        // bound: load-driven merges are rightly impossible, but the
        // idle chain must still be able to reach the target via the
        // wider consolidation bound.
        let (shard, n) = (66_000, 8 * 66_000);
        let splitters = Splitters::new((1..8).map(|i| i * shard).collect());
        let s = ShardedRma::with_splitters(small_cfg(2), splitters);
        let batch: Vec<(i64, i64)> = (0..n).map(|k| (k, k)).collect();
        s.apply_batch(&batch, &[]);
        assert!(
            s.merge_bound() < 2 * shard as usize,
            "pairs must exceed the bound"
        );
        assert!(
            s.consolidation_bound() >= n as usize,
            "idle bound must admit two natural target shards: {}",
            s.consolidation_bound()
        );
        let before = s.collect_all();
        let merges = s.compact();
        assert_eq!(merges, 6, "8 shards must consolidate to the target of 2");
        assert_eq!(s.num_shards(), 2);
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "compaction must not lose data");
    }

    /// A plan runs to its end across a decay halving. The global
    /// decay clock halves every histogram each `DECAY_EVERY` ops, so
    /// under load the total mass swings by half or more between two
    /// steps of a plan without anything having changed; every step
    /// must still run.
    #[test]
    fn plan_survives_a_decay_halving() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        // 2 000 gets on a band of shard 0: the shard is cut, and the
        // three cold shards right of it merge.
        let band = |sweeps: usize| {
            for _ in 0..sweeps {
                for k in 100..200i64 {
                    let _ = s.get(k);
                }
            }
        };
        s.reset_access_stats();
        band(20);
        let mut plan = s.plan_maintenance();
        assert_eq!(plan.len(), 2, "one cut, one merge: {plan:?}");
        assert!(s.execute_step(&mut plan).expect("a step").executed);
        // 8 200 more gets on the same band: the clock crosses
        // `DECAY_EVERY` and every histogram halves before the next pop.
        let halvings = |s: &ShardedRma| s.op_count() / crate::DECAY_EVERY;
        let before = halvings(&s);
        band(82);
        assert_eq!(halvings(&s), before + 1, "no halving between the pops");
        s.drain_plan(&mut plan);
        let ledger = s.maintenance_stats();
        assert_eq!(
            ledger.steps_executed + ledger.steps_skipped,
            ledger.steps_planned,
            "every planned step ran or was skipped: {ledger:?}"
        );
        assert_eq!((ledger.splits, ledger.merges), (1, 1), "{ledger:?}");
        // The hot shard was cut inside its band; the cold run is one
        // shard.
        let keys = s.splitters().keys().to_vec();
        assert!(
            keys.iter().any(|k| (100..=200).contains(k)),
            "the band was not cut: {keys:?}"
        );
        assert_eq!(keys.last(), Some(&1000), "{keys:?}");
        s.check_invariants();
        assert_eq!(s.len(), 4000);
    }

    #[test]
    fn uniform_load_plans_zero_steps() {
        let batch: Vec<(i64, i64)> = (0..8000).map(|i| (i, i)).collect();
        let s = ShardedRma::load_bulk(small_cfg(8), &batch);
        for k in 0..8000i64 {
            let _ = s.get(k);
        }
        assert!(
            s.plan_maintenance().is_empty(),
            "uniform load must not churn"
        );
        assert_eq!(s.maintenance_stats().plans, 0);
        assert_eq!(s.maintenance_stats().steps_planned, 0);
    }

    #[test]
    fn oversized_cold_range_stays_subdivided_under_the_step_cap() {
        // A backstop of 1 024 elements: the hot band still gets its
        // splitters, but a merge of two cold shards would build 2 000
        // elements, past the merge bound, so none is planned and no
        // executed merge moves more than the bound.
        let mut cfg = small_cfg(4);
        cfg.max_shard_len = Some(1024);
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..30 {
            for k in 3900..4000i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let report = s.maintain();
        s.check_invariants();
        assert_eq!(s.collect_all(), before);
        assert!(report.splits >= 1, "{report:?}");
        // Cold shards of 1000 residents over a 1 024-element bound:
        // no merge of them is planned, so the topology keeps the cold
        // boundaries instead of stalling on a huge step.
        assert_eq!(report.skipped, 0, "{report:?}");
        assert_eq!(s.splitters().keys()[..2], [1000, 2000]);
        assert!(s.num_shards() > s.config().num_shards);
    }

    /// A step's successors hold what a fresh build of their elements
    /// holds: pages from a page of slots up, an exactly sized heap
    /// array below, and never the first page their shell wired ahead
    /// of the step. (4 KiB pages of segments of 8: 512 slots a page;
    /// 100 pairs build 256 slots, 900 build pages.)
    #[test]
    fn successors_hold_what_a_fresh_build_holds() {
        let mut cfg = small_cfg(2);
        cfg.rma.rewiring = rma_core::RewiringMode::Enabled { page_bytes: 4096 };
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![5000]));
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        let fresh = |keys: std::ops::Range<i64>| {
            let mut r = rma_core::Rma::new(cfg.rma);
            r.load_bulk(&keys.map(|k| (k, k)).collect::<Vec<_>>());
            r.memory_footprint()
        };
        let footprints = |s: &ShardedRma| -> Vec<usize> {
            let shards = s.stats_snapshot().shards;
            shards.iter().map(|shard| shard.wired_bytes).collect()
        };
        let recut = |lo, hi, cuts: &[i64]| {
            let cuts = cuts.to_vec();
            s.drain_plan(&mut s.plan_of(vec![MaintenanceStep::Recut { lo, hi, cuts }]))
        };
        recut(None, Some(5000), &[100]);
        assert_eq!(s.splitters().keys(), &[100, 5000]);
        assert_eq!(
            footprints(&s),
            [fresh(0..100), fresh(100..1000), fresh(0..0)]
        );
        recut(None, Some(5000), &[]);
        assert_eq!(footprints(&s), [fresh(0..1000), fresh(0..0)]);
        // Three successors from one shard: only the one that fills a
        // page takes a wired shell.
        recut(None, Some(5000), &[100, 200]);
        assert_eq!(
            footprints(&s),
            [
                fresh(0..100),
                fresh(100..200),
                fresh(200..1000),
                fresh(0..0)
            ]
        );
        s.check_invariants();
    }

    /// The four-shard fixture of the resolver table: keys `0..4000`
    /// over splitters 1000 / 2000 / 3000, with some access mass in
    /// every shard so histogram re-seeding has something to carry.
    fn four_shards(max_shard_len: Option<usize>) -> ShardedRma {
        let mut cfg = small_cfg(4);
        cfg.max_shard_len = max_shard_len;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000, 3000]));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for k in (0..4000i64).step_by(7) {
            let _ = s.get(k);
        }
        s
    }

    #[test]
    fn every_step_kind_is_one_recut_and_stale_steps_publish_nothing() {
        let step = |lo: Option<i64>, hi: Option<i64>, cuts: &[i64]| MaintenanceStep::Recut {
            lo,
            hi,
            cuts: cuts.to_vec(),
        };
        // (step, successor splitters, shards drained, shards built)
        let live: [(MaintenanceStep, &[i64], usize, usize); 6] = [
            (
                step(Some(1000), Some(2000), &[1500]),
                &[1000, 1500, 2000, 3000],
                1,
                2,
            ),
            (
                step(Some(3000), None, &[3300, 3600]),
                &[1000, 2000, 3000, 3300, 3600],
                1,
                3,
            ),
            (step(Some(1000), Some(3000), &[]), &[1000, 3000], 2, 1),
            (step(None, Some(3000), &[]), &[3000], 3, 1),
            (
                step(Some(1000), Some(3000), &[2500]),
                &[1000, 2500, 3000],
                2,
                2,
            ),
            (
                step(None, Some(2000), &[500, 1500]),
                &[500, 1500, 2000, 3000],
                2,
                3,
            ),
        ];
        for (step, splitters, drained, built) in live {
            let s = four_shards(None);
            let content = s.collect_all();
            let mass: u64 = s.access_masses().iter().sum();
            let old = s.topo().shards.clone();
            let published = s.maintenance_stats().topologies_published;
            let report = s
                .execute_step(&mut s.plan_of(vec![step.clone()]))
                .expect("one step planned");
            assert!(report.executed, "{step:?}");
            assert_eq!((report.taken, report.built), (drained, built), "{step:?}");
            assert_eq!(s.splitters().keys(), splitters, "{step:?}");
            let new = s.topo().shards.clone();
            let kept = |a: &[Arc<Shard>], b: &[Arc<Shard>]| {
                a.iter()
                    .filter(|x| !b.iter().any(|y| Arc::ptr_eq(x, y)))
                    .count()
            };
            assert_eq!(kept(&old, &new), drained, "shards drained by {step:?}");
            assert_eq!(kept(&new, &old), built, "shards built by {step:?}");
            assert_eq!(
                report.migrated,
                1000 * drained as u64,
                "migrated counts every resident of the drained shards: {step:?}"
            );
            assert_eq!(
                s.maintenance_stats().topologies_published,
                published + 1,
                "{step:?}"
            );
            s.check_invariants();
            assert_eq!(s.collect_all(), content, "{step:?} must not lose data");
            // Clipping a bucket at a cut rounds each side down: at
            // most one unit of mass lost per built shard.
            let after: u64 = s.access_masses().iter().sum();
            assert!(
                after <= mass && mass - after <= built as u64,
                "{step:?} must carry the histogram mass: {mass} -> {after}"
            );
        }

        // (step, backstop)
        let stale = [
            (step(Some(1000), Some(1500), &[1200]), None), // 1500 is no boundary
            (step(Some(1500), Some(3000), &[]), None),     // nor is 1500 here
            (step(Some(1000), Some(3000), &[2000]), None), // the cut already is one
            (step(Some(1000), Some(2000), &[2000]), None), // a cut on the edge
            (step(Some(1000), Some(2000), &[1600, 1400]), None), // cuts descend
            (step(Some(2000), Some(1000), &[]), None),     // an empty range
            // Over the bound: 2000 residents against 1 024.
            (step(Some(1000), Some(3000), &[]), Some(1024)),
        ];
        for (step, backstop) in stale {
            let s = four_shards(backstop);
            let content = s.collect_all();
            let before = s.maintenance_stats();
            let report = s
                .execute_step(&mut s.plan_of(vec![step.clone()]))
                .expect("one step planned");
            assert!(!report.executed, "{step:?} is stale and must be skipped");
            assert_eq!((report.migrated, report.taken, report.built), (0, 0, 0));
            let after = s.maintenance_stats();
            assert_eq!(
                after.topologies_published, before.topologies_published,
                "{step:?} must publish nothing"
            );
            assert_eq!(after.steps_skipped, before.steps_skipped + 1);
            assert_eq!(s.splitters().keys(), [1000, 2000, 3000], "{step:?}");
            assert_eq!(s.collect_all(), content);
        }
    }
}
