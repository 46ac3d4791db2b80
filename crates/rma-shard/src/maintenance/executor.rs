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
//!    each histogram seeded with the parents' mass from partition
//!    points at the bucket edges of the sorted drain;
//! 3. retire the drained shards, publish the successor topology
//!    (untouched shards shared by `Arc`), release the locks, and wait
//!    out the reader grace period — a writer blocked when the step
//!    began is released here.

use super::plan::{MaintenancePlan, MaintenanceStep};
use crate::access::ResidentMass;
use crate::shard::{Shard, StepGuards, Topology};
use crate::{MaintCounters, ShardedRma, Splitters};
use rma_core::{Key, Rma};
use rma_obs::EventKind;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// The least the merge bound is while `ShardConfig::max_shard_len` is
/// unset: a small index's merges are held to this many elements.
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
    /// skipped, and its migrated elements — and returns its journal
    /// event.
    fn file(&self, sr: &StepReport) -> EventKind {
        let mut one = DrainReport::default();
        let event = one.count(sr);
        for (counter, n) in [
            (&self.splits, one.splits),
            (&self.merges, one.merges),
            (&self.steps_skipped, one.skipped),
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
                // A split is how an oversized shard shrinks.
                let bound = match built > taken {
                    true => usize::MAX,
                    false => self.merge_bound(topo.lens().sum()),
                };
                if let Some(migrated) = self.recut(first, last, cuts, bound) {
                    (report.executed, report.migrated) = (true, migrated);
                    (report.taken, report.built) = (taken, built);
                }
            }
            resolved.map_or(0, |r| r.0)
        };
        let event = self.maint_counters.file(&report);
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

    /// The largest shard a merge may build in an index of `len`
    /// elements — one merge *is* the step, so this directly bounds its
    /// locked window: the `max_shard_len` backstop when one is
    /// configured (merging past it would just make the next round
    /// split the result again, a permanent merge/split oscillation),
    /// otherwise one target shard's length, `len / num_shards`, and
    /// never less than [`MERGE_CAP`]. Below a target shard's length
    /// the configured shard count could not be reached at all.
    pub(crate) fn merge_bound(&self, len: usize) -> usize {
        (self.cfg.max_shard_len).unwrap_or_else(|| MERGE_CAP.max(len / self.cfg.num_shards.max(1)))
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
        // The access mass the drained residents carry, as the planner
        // weighed it, by their counts per bucket: what the successors
        // are seeded from.
        let mut mass = ResidentMass::new();
        for (s, rma) in topo.shards[first..=last].iter().zip(guards.rmas()) {
            mass.push(&s.stats, rma.ascending_ranks(), rma.len(), false);
        }
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
                self.finish_shard(shell, &splitters, first + k, part, (&mass, at[k]))
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

    /// Eight shards of 1 000 keys against a target of four, every
    /// other key read once (500 reads a shard), except that shard
    /// `cold` takes none, its calibrator partner 500 more and shard
    /// `hot` 2 500 more on a band of a hundred keys — 6 500 reads,
    /// under one `DECAY_EVERY` period. The leaf capacity is then
    /// 2 167: the hot shard is over it, its pair is inside the
    /// level-2 bound and is cut into three, and the cold shard's pair
    /// merges.
    fn hot_and_cold(hot: i64, cold: i64) -> ShardedRma {
        let mut cfg = small_cfg(8);
        cfg.num_shards = 4;
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 1000).collect()));
        for k in 0..8000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for k in (0..8000i64).step_by(2).filter(|k| k / 1000 != cold) {
            let _ = s.get(k);
        }
        for (shard, sweeps) in [(hot, 25), (cold ^ 1, 5)] {
            for _ in 0..sweeps {
                for k in shard * 1000 + 100..shard * 1000 + 200 {
                    let _ = s.get(k);
                }
            }
        }
        s
    }

    #[test]
    fn rebalance_plan_pops_splits_before_merges() {
        // The hot pair is right of the cold one: key order would put
        // the merge first, and the plan must not.
        let s = hot_and_cold(6, 1);
        // A planned split builds more shards than it takes.
        let plan = s.plan_maintenance();
        let want = [(Some(6000), None, 2), (None, Some(2000), 0)];
        let got: Vec<_> = plan
            .steps()
            .map(|MaintenanceStep::Recut { lo, hi, cuts }| (*lo, *hi, cuts.len()))
            .collect();
        assert_eq!(got, want, "the split must pop before the merge: {plan:?}");
    }

    #[test]
    fn a_cold_shard_takes_its_smallest_admissible_window() {
        // Eight shards of 1 000 keys against a target of four: each
        // read shard carries 1 000 of 7 000 units against a capacity
        // of 1 750, inside its leaf bounds. Shard 5 is never read, so
        // it is under ρ₁; its calibrator pair (shards 4 and 5) holds
        // 1 000 of 3 500, inside the level-2 bound, and one piece
        // carries it under τ_h: the pair merges, and nothing else
        // moves.
        let mut cfg = small_cfg(8);
        cfg.num_shards = 4;
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 1000).collect()));
        for k in 0..8000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for k in (0..8000i64).filter(|k| !(5000..6000).contains(k)) {
            let _ = s.get(k);
        }
        let plan = s.plan_maintenance();
        let steps: Vec<_> = plan.steps().cloned().collect();
        let merge = MaintenanceStep::Recut {
            lo: Some(4000),
            hi: Some(6000),
            cuts: Vec::new(),
        };
        assert_eq!(steps, [merge], "{plan:?}");
        let before = s.collect_all();
        assert_eq!(s.maintain().merges, 1);
        assert_eq!(s.splitters().keys(), [1000, 2000, 3000, 4000, 6000, 7000]);
        assert!(
            s.plan_maintenance().is_empty(),
            "one step reaches the fixed point"
        );
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "merges must not lose data");
    }

    /// A plan runs to its end across a decay halving. The global
    /// decay clock halves every histogram each `DECAY_EVERY` ops, so
    /// under load the total mass swings by half or more between two
    /// steps of a plan without anything having changed; every step
    /// must still run.
    #[test]
    fn plan_survives_a_decay_halving() {
        // The band is in shard 0: its pair is cut into three, and the
        // cold shard 5 merges with shard 4.
        let s = hot_and_cold(0, 5);
        let mut plan = s.plan_maintenance();
        assert_eq!(plan.len(), 2, "one cut, one merge: {plan:?}");
        assert!(s.execute_step(&mut plan).expect("a step").executed);
        // 8 200 more gets on the same band: the clock crosses
        // `DECAY_EVERY` and every histogram halves before the next pop.
        let halvings = |s: &ShardedRma| s.op_count() / crate::DECAY_EVERY;
        let before = halvings(&s);
        for _ in 0..82 {
            for k in 100..200i64 {
                let _ = s.get(k);
            }
        }
        assert_eq!(halvings(&s), before + 1, "no halving between the pops");
        s.drain_plan(&mut plan);
        let ledger = s.maintenance_stats();
        assert_eq!(
            ledger.steps_executed + ledger.steps_skipped,
            ledger.steps_planned,
            "every planned step ran or was skipped: {ledger:?}"
        );
        assert_eq!((ledger.splits, ledger.merges), (1, 1), "{ledger:?}");
        // The hot pair was cut inside its band; the cold pair is one
        // shard.
        let keys = s.splitters().keys().to_vec();
        assert!(
            keys.iter().any(|k| (100..=200).contains(k)),
            "the band was not cut: {keys:?}"
        );
        assert!(keys.contains(&4000) && !keys.contains(&5000), "{keys:?}");
        s.check_invariants();
        assert_eq!(s.len(), 8000);
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
