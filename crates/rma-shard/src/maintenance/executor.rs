//! The step executor: applies one [`MaintenanceStep`] at a time, each
//! publishing its own copy-on-write topology through the epoch
//! handle.
//!
//! Every restructuring step is the same operation — *re-cut a
//! contiguous run of shards at new boundaries* — so there is one
//! executor: `resolve` turns the step into the key range it names on
//! the live topology, `recut` does the work. Per step (under the
//! maintenance mutex, which serializes publications but is held only
//! for the *one* step):
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
//! [`CheckpointShard`](MaintenanceStep::CheckpointShard) stays apart:
//! it reads its shards and publishes nothing.
//!
//! Writers therefore only ever queue behind the shards of the step in
//! flight; a writer blocked when a step begins is released when that
//! step publishes — the `fig18_write_stall` benchmark and the
//! writer-progress stress test pin this down.

use super::plan::{MaintenancePlan, MaintenanceStep};
use crate::shard::{Shard, StepGuards, Topology};
use crate::{ShardedRma, Splitters};
use rma_core::Key;
use rma_obs::EventKind;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Default relative drift bound for the scheduler's staleness check:
/// a plan whose live shard count or total decayed access mass has
/// moved more than this fraction from its anchor since the last
/// progress point has its remaining steps dropped, not executed.
const DEFAULT_STALE_DRIFT: f64 = 0.5;

/// The journal kind for a step.
fn step_kind(step: &MaintenanceStep) -> EventKind {
    match step {
        MaintenanceStep::SplitShard { .. } => EventKind::Split,
        MaintenanceStep::MergePair { .. } => EventKind::Merge,
        MaintenanceStep::NudgeBoundary { .. } => EventKind::Nudge,
        MaintenanceStep::RebuildShard { .. } => EventKind::Rebuild,
        MaintenanceStep::CheckpointShard { .. } => EventKind::Checkpoint,
    }
}

/// What one [`ShardedRma::execute_step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// The step that was popped from the plan.
    pub step: MaintenanceStep,
    /// False when the step was skipped as stale (or would have
    /// exceeded the per-step element cap).
    pub executed: bool,
    /// Elements rebuilt under the step's locks: every resident of
    /// every shard the step drained, whichever side of a boundary it
    /// ends up on — the measure the planner caps (a rebuild's resident
    /// union) and the executor admits on, and what
    /// [`MaintenanceStats::keys_migrated`](crate::MaintenanceStats)
    /// sums. For a checkpoint, which rebuilds nothing, the elements
    /// it sealed.
    pub migrated: u64,
}

/// Aggregate of one [`ShardedRma::drain_plan`] call, by step kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Executed [`MaintenanceStep::SplitShard`] steps.
    pub splits: usize,
    /// Executed [`MaintenanceStep::MergePair`] steps.
    pub merges: usize,
    /// Executed [`MaintenanceStep::NudgeBoundary`] steps.
    pub nudges: usize,
    /// Executed [`MaintenanceStep::RebuildShard`] steps.
    pub rebuilds: usize,
    /// Executed [`MaintenanceStep::CheckpointShard`] steps (sealed
    /// checkpoints; failed seals count as skipped).
    pub checkpoints: usize,
    /// Steps skipped as stale.
    pub skipped: usize,
}

impl DrainReport {
    /// Total steps that executed (checkpoints included — they publish
    /// no topology but did their work).
    pub fn executed(&self) -> usize {
        self.splits + self.merges + self.nudges + self.rebuilds + self.checkpoints
    }

    /// Counts one step under its kind, or as skipped.
    pub(crate) fn count(&mut self, sr: &StepReport) {
        *match sr.step {
            _ if !sr.executed => &mut self.skipped,
            MaintenanceStep::SplitShard { .. } => &mut self.splits,
            MaintenanceStep::MergePair { .. } => &mut self.merges,
            MaintenanceStep::NudgeBoundary { .. } => &mut self.nudges,
            MaintenanceStep::RebuildShard { .. } => &mut self.rebuilds,
            MaintenanceStep::CheckpointShard { .. } => &mut self.checkpoints,
        } += 1;
    }
}

impl ShardedRma {
    /// Executes the plan's next step (one copy-on-write publication),
    /// returning what happened — or `None` when the plan is drained.
    /// Safe to interleave with any concurrent operation; the step
    /// re-validates against the live topology and is skipped if
    /// stale. This is the background maintainer's pacing primitive.
    pub fn execute_step(&self, plan: &mut MaintenancePlan) -> Option<StepReport> {
        self.execute_step_with(plan, DEFAULT_STALE_DRIFT)
    }

    /// As [`execute_step`](Self::execute_step), with an explicit
    /// staleness bound: before popping, the live shard count and
    /// total decayed access mass are compared against the plan's
    /// anchor (refreshed after every step), and if either drifted
    /// more than `stale_drift` (a relative fraction) the remaining
    /// steps are **dropped** — counted in
    /// [`MaintenanceStats::steps_dropped`](crate::MaintenanceStats),
    /// journaled as [`EventKind::StepDropped`], never executed — and
    /// `None` is returned so the caller re-plans from fresh signals.
    /// A non-finite or non-positive bound disables the check.
    pub fn execute_step_with(
        &self,
        plan: &mut MaintenancePlan,
        stale_drift: f64,
    ) -> Option<StepReport> {
        if plan.is_empty() {
            return None;
        }
        let live_shards = self.num_shards();
        let live_mass: u64 = self.access_masses().iter().sum();
        if plan.is_stale(live_shards, live_mass, stale_drift) {
            let n = plan.drop_remaining();
            self.maint_counters().steps_dropped.fetch_add(n, Relaxed);
            self.obs()
                .log(EventKind::StepDropped, rma_obs::Event::NO_SHARD, 0, n);
            return None;
        }
        let step = plan.pop()?;
        let obs_on = self.obs().enabled();
        let t0 = if obs_on { rma_obs::now_ns() } else { 0 };
        // `anchor` is the shard index the journal entry names, on the
        // topology current *before* execution (which replaces it): the
        // first shard of the re-cut range, or the partition index for
        // a checkpoint, which is partition-scoped.
        let (migrated, anchor) = {
            let _maint = self.maintenance_guard();
            if let MaintenanceStep::CheckpointShard { partition } = step {
                (self.exec_checkpoint(partition), partition)
            } else {
                let topo = self.topo_handle().load_exclusive();
                let range = self.resolve(step, topo, plan.consolidation_planned());
                // Read off `topo` first: `recut` publishes and frees it.
                let lo = range.and_then(|r| r.0);
                let anchor = lo.map_or(0, |lo| topo.splitters.route(lo));
                let migrated = range.and_then(|(lo, hi, bound)| self.recut(lo, hi, bound));
                (migrated, anchor)
            }
        };
        let counters = self.maint_counters();
        if let Some(moved) = migrated {
            counters.steps_executed.fetch_add(1, Relaxed);
            counters.keys_migrated.fetch_add(moved, Relaxed);
            if matches!(step, MaintenanceStep::NudgeBoundary { .. }) {
                counters.nudges.fetch_add(1, Relaxed);
            }
            if obs_on {
                let dur = rma_obs::now_ns().saturating_sub(t0);
                self.obs().record_step(dur);
                self.obs().log(step_kind(&step), anchor as u32, dur, moved);
            }
        } else {
            counters.steps_skipped.fetch_add(1, Relaxed);
        }
        // Re-anchor at the post-step state: the step itself may have
        // changed the shard count, and the plan's own progress must
        // never read as drift.
        plan.reanchor(self.num_shards(), self.access_masses().iter().sum());
        Some(StepReport {
            step,
            executed: migrated.is_some(),
            migrated: migrated.unwrap_or(0),
        })
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
        let retired = self.topo_handle().publish(next);
        // The locked window ends here: record it just before release.
        // Shell pre-creation and the grace wait below run outside the
        // locks, so they are deliberately *not* part of this stat —
        // it bounds what a queued writer could have waited.
        let held_ns = guards.held().as_nanos() as u64;
        self.maint_counters()
            .max_step_ns
            .fetch_max(held_ns, Relaxed);
        self.obs().log(
            EventKind::TopologyPublish,
            rma_obs::Event::NO_SHARD,
            held_ns,
            next_shards,
        );
        // Release the shard locks before the grace wait: queued
        // writers must be able to wake and re-route.
        drop(guards);
        self.topo_handle().reclaim(retired);
    }

    /// The largest shard a merge may produce: twice the per-step work
    /// cap (one merge *is* the step, so this directly bounds its
    /// locked window), further clamped to the `max_shard_len`
    /// backstop when one is configured — merging past the backstop
    /// would just make the next round split the result again
    /// (a permanent merge/split oscillation).
    pub(crate) fn merge_bound(&self) -> usize {
        let cap = self.cfg.max_step_elems.saturating_mul(2);
        self.cfg.max_shard_len.map_or(cap, |m| cap.min(m))
    }

    /// The wider merge bound the idle-time consolidation chain plans
    /// and executes against. [`merge_bound`](Self::merge_bound)
    /// protects *foreground* writers — a merge is one locked window,
    /// so under load it must stay inside the per-step work cap — but
    /// consolidation only runs once the op-rate gate says the index
    /// is idle, and with the strict cap a topology whose natural
    /// shard size exceeds `2 x max_step_elems` could never merge at
    /// all, leaving the configured target unreachable at scale. The
    /// idle bound therefore also admits any merge no bigger than two
    /// average target-count shards, still clamped to the
    /// `max_shard_len` backstop.
    pub(crate) fn consolidation_bound(&self) -> usize {
        let natural = (self.len() / self.cfg.num_shards.max(1)).saturating_mul(2);
        let widened = self.merge_bound().max(natural);
        self.cfg.max_shard_len.map_or(widened, |m| widened.min(m))
    }

    /// Names the key range a restructuring step re-cuts on the live
    /// topology: `(lo, hi, bound)` such that
    /// [`recut`](Self::recut)`(lo, hi, bound)` *is* the step, or
    /// `None` when the step is stale. A split of `[a, b)` at `at` is
    /// `[a, at)`; a merge across `s` of `[a, s) [s, b)` is `[a, b)`; a
    /// nudge of `s` to `t` is `[t, b)` when `t < s` and `[a, t)` when
    /// `t > s`. Every variant finds its shards by key, so a merge
    /// removes its own boundary whatever its neighbours have become
    /// since the plan was made — which a range fixed at plan time
    /// could not promise.
    ///
    /// Splits and nudges pass no bound: a split is how an oversized
    /// shard shrinks, and a nudge rebuilds the pair it finds. On
    /// shards far above `max_step_elems` the locked window of those
    /// two steps is therefore set by shard size, not by the cap
    /// (`max_shard_len` is what keeps a shard inside one step's
    /// budget).
    fn resolve(
        &self,
        step: MaintenanceStep,
        topo: &Topology,
        consolidation: bool,
    ) -> Option<(Option<Key>, Option<Key>, usize)> {
        let sp = &topo.splitters;
        // Outer bounds of the two shards either side of splitter `key`.
        let pair = |key: Key| {
            let l = sp.keys().binary_search(&key).ok()?;
            Some((sp.range_of(l).0, sp.range_of(l + 1).1))
        };
        match step {
            MaintenanceStep::SplitShard { at } => {
                let (lower, _) = sp.range_of(sp.route(at));
                // Already a boundary: stale.
                (lower != Some(at)).then_some((lower, Some(at), usize::MAX))
            }
            MaintenanceStep::MergePair { splitter } => {
                let (lo, hi) = pair(splitter)?;
                // Consolidation plans run behind the idle gate, so
                // their merges are allowed the wider idle bound.
                let bound = if consolidation {
                    self.consolidation_bound()
                } else {
                    self.merge_bound()
                };
                Some((lo, hi, bound))
            }
            MaintenanceStep::NudgeBoundary {
                target_key: t,
                boundary,
            } => {
                let (lo, hi) = pair(boundary)?;
                if t == boundary || lo.is_some_and(|lo| t <= lo) || hi.is_some_and(|hi| t >= hi) {
                    return None;
                }
                Some(if t < boundary {
                    (Some(t), hi, usize::MAX)
                } else {
                    (lo, Some(t), usize::MAX)
                })
            }
            MaintenanceStep::RebuildShard { lo, hi } => {
                // The planner capped the union's residency at
                // `max_step_elems` from slightly stale lengths;
                // refusing on a small drift would just re-plan the
                // same range forever, hence the slack. In SLO
                // deployments the admission additionally clamps to
                // the `max_shard_len` backstop — their whole point is
                // that no locked window outgrows the step budget.
                let cap = self.cfg.max_step_elems;
                let admit = cap + cap / 2;
                let admit = self
                    .cfg
                    .max_shard_len
                    .map_or(admit, |m| admit.min(m.max(cap)));
                Some((lo, hi, admit))
            }
            // Publishes nothing: not a re-cut.
            MaintenanceStep::CheckpointShard { .. } => None,
        }
    }

    /// The one restructuring step: make the key range `[lo, hi)`
    /// (`None` = unbounded) exactly one shard, carving partial
    /// overlaps out of the edge shards, which are rebuilt as the
    /// prefix/suffix remainders. Locks the overlapped shards, drains
    /// them, cuts the sorted run at `lo`/`hi`, builds the one to three
    /// successors with histograms seeded from the drained shards', and
    /// publishes. Refused (`None`) when the overlapped shards hold
    /// more than `bound` elements; otherwise returns how many elements
    /// were rebuilt under the locks.
    fn recut(&self, lo: Option<Key>, hi: Option<Key>, bound: usize) -> Option<u64> {
        if let (Some(l), Some(h)) = (lo, hi) {
            if h <= l {
                return None; // degenerate range: malformed step
            }
        }
        let topo = self.topo_handle().load_exclusive();
        let (j0, j1) = topo.splitters.overlapping(lo, hi);
        let (union_lo, _) = topo.splitters.range_of(j0);
        let (_, union_hi) = topo.splitters.range_of(j1);
        // Where `lo`/`hi` cut an edge shard in two: the successor
        // boundaries inside the union.
        let cuts: Vec<Key> = (lo.filter(|_| lo != union_lo).into_iter())
            .chain(hi.filter(|_| hi != union_hi))
            .collect();
        if j0 == j1 && cuts.is_empty() {
            return Some(0); // the range already is exactly one shard
        }
        // Cheap pre-check before paying for shells or the write locks:
        // if the overlapped shards already exceed the bound,
        // re-planning is cheaper than draining.
        let rough: usize = (topo.shards[j0..=j1].iter())
            .map(|s| s.peek(rma_core::Rma::len))
            .sum();
        if rough > bound {
            return None;
        }
        // Shells first: the memfd + reservation setup runs while
        // writers still own the shards.
        let shells: Vec<_> = (0..=cuts.len()).map(|_| self.shard_shell()).collect();
        let guards = StepGuards::lock(&topo.shards, j0..=j1);
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
        let union_wb = super::weighted_buckets_of(&topo.shards[j0..=j1]);
        // Successor splitters: the union's internal boundaries go,
        // the cuts come.
        let mut keys = topo.splitters.keys().to_vec();
        keys.splice(j0..j1, cuts);
        let splitters = Splitters::new(keys);
        let built: Vec<Arc<Shard>> = (shells.into_iter().enumerate())
            .map(|(k, shell)| {
                let part = &elems[at[k]..at[k + 1]];
                self.finish_shard(shell, &splitters, j0 + k, part, &union_wb)
            })
            .collect();
        let mut shards = topo.shards.clone();
        shards.splice(j0..=j1, built);
        self.publish_step(guards, Topology { splitters, shards });
        Some(elems.len() as u64)
    }

    /// Seal a checkpoint of durability partition `p`: under write
    /// locks on every shard overlapping the partition's key range,
    /// draw the cut LSN (no same-partition append can race it — the
    /// sink logs under these very locks) and copy the residents out;
    /// then release the locks and do the file I/O. Unlike every other
    /// step this restructures nothing: no shard is retired, no
    /// topology published, so the locked window is one read sweep of
    /// the partition.
    fn exec_checkpoint(&self, p: usize) -> Option<u64> {
        let sink = Arc::clone(self.durability()?);
        if p >= sink.partitions() {
            return None;
        }
        let (lo, hi) = sink.partition_range(p);
        let topo = self.topo_handle().load_exclusive();
        let (j0, j1) = topo.splitters.overlapping(lo, hi);
        let (cut, elems) = {
            let guards = StepGuards::lock(&topo.shards, j0..=j1);
            let cut = sink.checkpoint_cut(p);
            let mut elems = guards.collect_elems();
            // Edge shards may straddle the partition boundary; the
            // checkpoint owns exactly `[lo, hi)`.
            elems.retain(|&(k, _)| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h));
            (cut, elems)
        };
        sink.seal_checkpoint(p, cut, &elems)
            .then_some(elems.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use crate::maintenance::plan::MaintenanceStep;
    use crate::shard::Shard;
    use crate::tests::small_cfg;
    use crate::{RelearnStrategy, ShardedRma, Splitters};
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
        let mut plan = s.plan_relearn();
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
    fn stale_merge_step_is_skipped_not_misapplied() {
        let s = ShardedRma::with_splitters(
            small_cfg(16),
            Splitters::new((1..16).map(|i| i * 100).collect()),
        );
        for k in 0..100i64 {
            s.insert(k, k);
            s.insert(1500 + k, k);
        }
        let mut plan = s.plan_rebalance();
        assert!(!plan.is_empty());
        // Drain once: the cold pairs merge and their splitters vanish.
        let first = s.drain_plan(&mut plan);
        assert!(first.merges >= 1);
        // Re-plan against the *old* state by rebuilding the same plan
        // is impossible from outside; instead re-execute a plan built
        // before a second drain mutates the topology underneath it.
        let mut stale = s.plan_rebalance();
        let content = s.collect_all();
        s.rebalance_shards(); // mutates the topology under `stale`
        let drained = s.drain_plan(&mut stale);
        let _ = drained; // some steps may still apply; none may corrupt
        s.check_invariants();
        assert_eq!(s.collect_all(), content, "stale steps must not lose data");
    }

    #[test]
    fn nudge_step_migrates_the_boundary_range() {
        let mut cfg = small_cfg(2);
        cfg.relearn_strategy = RelearnStrategy::NudgeOnly;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        for k in 0..2000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        // Hammer a band straddling nothing: all mass in shard 0's top
        // quarter, so the boundary should nudge left toward it.
        for _ in 0..50 {
            for k in 800..1000i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let mut plan = s.plan_relearn();
        assert!(
            plan.steps()
                .all(|st| matches!(st, MaintenanceStep::NudgeBoundary { .. })),
            "NudgeOnly must plan only nudges: {plan:?}"
        );
        assert!(!plan.is_empty(), "lopsided pair must plan a nudge");
        let drained = s.drain_plan(&mut plan);
        assert_eq!(drained.nudges, 1, "{drained:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "nudge must not lose data");
        let moved = s.splitters().keys()[0];
        assert!(
            (790..1000).contains(&moved),
            "boundary should chase the hot band: {moved}"
        );
        assert_eq!(s.num_shards(), 2, "nudges never change the shard count");
        assert!(s.maintenance_stats().nudges >= 1);
        assert!(s.maintenance_stats().keys_migrated > 0);
    }

    #[test]
    fn nudge_step_migrates_the_boundary_range_rightwards() {
        // The mirror image needs a bounded shard to the right of the
        // boundary (an open-ended one models the whole key domain and
        // cannot say where inside it the mass sits), hence three.
        let mut cfg = small_cfg(3);
        cfg.relearn_strategy = RelearnStrategy::NudgeOnly;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000, 2000]));
        for k in 0..3000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        // All mass in shard 1's bottom quarter: the boundary below it
        // should nudge right, into the band.
        for _ in 0..50 {
            for k in 1000..1200i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let mut plan = s.plan_relearn();
        assert!(
            plan.steps().any(|st| matches!(
                *st,
                MaintenanceStep::NudgeBoundary { target_key, boundary: 1000 } if target_key > 1000
            )),
            "the lower boundary must be planned rightwards: {plan:?}"
        );
        while let Some(report) = s.execute_step(&mut plan) {
            let MaintenanceStep::NudgeBoundary { target_key, .. } = report.step else {
                panic!("NudgeOnly must plan only nudges: {report:?}");
            };
            assert!(report.executed, "{report:?}");
            let l = (s.splitters().keys().binary_search(&target_key))
                .expect("the boundary now sits at its target");
            // Whichever way the boundary went, both shards of the
            // pair were rebuilt: that is what `migrated` counts.
            let stats = s.shard_stats();
            assert_eq!(
                report.migrated as usize,
                stats[l].len + stats[l + 1].len,
                "{report:?}"
            );
        }
        s.check_invariants();
        assert_eq!(s.collect_all(), before, "nudge must not lose data");
        let moved = s.splitters().keys()[0];
        assert!(
            (1001..=1210).contains(&moved),
            "boundary should chase the hot band: {moved}"
        );
        assert_eq!(s.num_shards(), 3, "nudges never change the shard count");
    }

    #[test]
    fn rebuild_step_consolidates_a_range_spanning_shards() {
        // Exercise range rebuilds through a relearn whose
        // target ranges span multiple current shards: hammer one band
        // across a fragmented topology.
        let mut cfg = small_cfg(8);
        cfg.num_shards = 2;
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 500).collect()));
        for k in 0..4000i64 {
            s.insert(k, k);
        }
        s.reset_access_stats();
        for _ in 0..50 {
            for k in 3800..4000i64 {
                let _ = s.get(k);
            }
        }
        let before = s.collect_all();
        let report = s.relearn_splitters();
        assert!(report.relearned, "{report:?}");
        s.check_invariants();
        assert_eq!(s.collect_all(), before);
        // The re-learn steers toward cfg.num_shards = 2: the cold
        // left shards must have been consolidated by range rebuilds.
        assert!(
            s.num_shards() < 8,
            "cold ranges must consolidate: {} shards",
            s.num_shards()
        );
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
        let plan = s.plan_rebalance();
        let kinds: Vec<bool> = plan
            .steps()
            .map(|st| matches!(st, MaintenanceStep::SplitShard { .. }))
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
        let first = *plan.steps().next().expect("plans at least one merge");
        let MaintenanceStep::MergePair { splitter } = first else {
            panic!("consolidation plans only merges: {first:?}");
        };
        assert!(
            splitter >= 4000,
            "coldest pair must pop first, got splitter {splitter}"
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
        // Shards so large that no pair fits the foreground per-step
        // work cap: load-driven merges are rightly impossible, but
        // the idle chain must still be able to reach the target via
        // the wider consolidation bound.
        let mut cfg = small_cfg(8);
        cfg.num_shards = 2;
        cfg.max_step_elems = 128; // merge_bound = 256 < any 400+400 pair
        let s = ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 400).collect()));
        for k in 0..3200i64 {
            s.insert(k, k);
        }
        assert!(s.merge_bound() < 800, "pairs must exceed the strict cap");
        assert!(
            s.consolidation_bound() >= 3200,
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

    #[test]
    fn stale_plan_tail_is_dropped_and_counted() {
        let s = ShardedRma::with_splitters(
            small_cfg(16),
            Splitters::new((1..16).map(|i| i * 100).collect()),
        );
        for k in 0..1600i64 {
            s.insert(k, k);
        }
        assert!(
            s.plan_consolidation().is_empty(),
            "at target: nothing to consolidate"
        );
        // Build a real plan against a fragmented configuration.
        let mut cfg2 = small_cfg(16);
        cfg2.num_shards = 2;
        let frag =
            ShardedRma::with_splitters(cfg2, Splitters::new((1..16).map(|i| i * 100).collect()));
        for k in 0..1600i64 {
            frag.insert(k, k);
        }
        let mut plan = frag.plan_consolidation();
        let planned = plan.len();
        assert!(planned > 1, "fragmented index must plan merges");
        // Mutate the world out from under the plan.
        let merged = frag.compact();
        assert!(merged > 0);
        let content = frag.collect_all();
        // A tiny drift bound must drop the whole remaining plan.
        let before = frag.maintenance_stats().steps_dropped;
        assert!(frag.execute_step_with(&mut plan, 1e-6).is_none());
        let stats = frag.maintenance_stats();
        assert_eq!(
            stats.steps_dropped - before,
            planned as u64,
            "every un-executed step must be counted as dropped"
        );
        assert_eq!(plan.dropped(), planned as u64);
        assert!(plan.is_empty());
        frag.check_invariants();
        assert_eq!(frag.collect_all(), content, "drops must not touch data");
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
        // A tiny max_step_elems forces the planner down the
        // split+capped-merge path: the hot band still gets its
        // splitters, merges that would exceed the cap are refused,
        // and no executed step ever moves more than the cap.
        let mut cfg = small_cfg(4);
        cfg.max_step_elems = 256;
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
        let report = s.relearn_splitters();
        s.check_invariants();
        assert_eq!(s.collect_all(), before);
        let stats = s.maintenance_stats();
        assert!(report.relearned, "{report:?} {stats:?}");
        // 4000 cold residents over a 256-element cap: consolidation
        // into one cold shard is impossible, so the topology keeps
        // intermediate boundaries instead of stalling on a huge step.
        assert!(
            s.num_shards() > s.config().num_shards,
            "cap must leave extra shards: {}",
            s.num_shards()
        );
    }

    /// The four-shard fixture of the resolver table: keys `0..4000`
    /// over splitters 1000 / 2000 / 3000, with some access mass in
    /// every shard so histogram re-seeding has something to carry.
    fn four_shards(max_step_elems: usize) -> ShardedRma {
        let mut cfg = small_cfg(4);
        cfg.max_step_elems = max_step_elems;
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
        use MaintenanceStep::*;
        let some = Some::<i64>;
        // (step, successor splitters, shards drained, shards built)
        let live: [(MaintenanceStep, &[i64], usize, usize); 8] = [
            (SplitShard { at: 1500 }, &[1000, 1500, 2000, 3000], 1, 2),
            (MergePair { splitter: 2000 }, &[1000, 3000], 2, 1),
            (
                NudgeBoundary {
                    target_key: 1700,
                    boundary: 2000,
                },
                &[1000, 1700, 3000],
                2,
                2,
            ),
            (
                NudgeBoundary {
                    target_key: 2300,
                    boundary: 2000,
                },
                &[1000, 2300, 3000],
                2,
                2,
            ),
            (
                RebuildShard {
                    lo: some(1000),
                    hi: some(3000),
                },
                &[1000, 3000],
                2,
                1,
            ),
            (
                RebuildShard {
                    lo: None,
                    hi: some(1500),
                },
                &[1500, 2000, 3000],
                2,
                2,
            ),
            (
                RebuildShard {
                    lo: some(500),
                    hi: some(2500),
                },
                &[500, 2500, 3000],
                3,
                3,
            ),
            (
                RebuildShard {
                    lo: some(2500),
                    hi: None,
                },
                &[1000, 2000, 2500],
                2,
                2,
            ),
        ];
        for (step, splitters, drained, built) in live {
            let s = four_shards(1 << 16);
            let content = s.collect_all();
            let mass: u64 = s.access_masses().iter().sum();
            let old = s.topo().shards.clone();
            let published = s.maintenance_stats().topologies_published;
            let report = s
                .execute_step(&mut s.plan_of(&[step], false))
                .expect("one step planned");
            assert!(report.executed, "{step:?}");
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

        let nudge = |target_key, boundary| NudgeBoundary {
            target_key,
            boundary,
        };
        // (step, per-step cap)
        let stale = [
            (SplitShard { at: 2000 }, 1 << 16),      // already a boundary
            (MergePair { splitter: 1500 }, 1 << 16), // splitter gone
            (nudge(1600, 1500), 1 << 16),            // boundary gone
            (nudge(2000, 2000), 1 << 16),            // no move
            (nudge(1000, 2000), 1 << 16),            // on the pair's lower edge
            (nudge(3000, 2000), 1 << 16),            // on its upper edge
            (nudge(3500, 2000), 1 << 16),            // beyond it
            (
                RebuildShard {
                    lo: some(2000),
                    hi: some(2000),
                },
                1 << 16,
            ), // empty range
            // Over the bound: 2000 residents against 2 x 256, and
            // against a rebuild's 1.5 x 256 admission.
            (MergePair { splitter: 2000 }, 256),
            (
                RebuildShard {
                    lo: some(1000),
                    hi: some(3000),
                },
                256,
            ),
        ];
        for (step, cap) in stale {
            let s = four_shards(cap);
            let content = s.collect_all();
            let before = s.maintenance_stats();
            let report = s
                .execute_step(&mut s.plan_of(&[step], false))
                .expect("one step planned");
            assert!(!report.executed, "{step:?} is stale and must be skipped");
            assert_eq!(report.migrated, 0);
            let after = s.maintenance_stats();
            assert_eq!(
                after.topologies_published, before.topologies_published,
                "{step:?} must publish nothing"
            );
            assert_eq!(after.steps_skipped, before.steps_skipped + 1);
            assert_eq!(s.splitters().keys(), [1000, 2000, 3000], "{step:?}");
            assert_eq!(s.collect_all(), content);
        }

        // The same over-bound merge is admitted when the idle-time
        // consolidation chain planned it: two natural target shards.
        let s = four_shards(256);
        let report = s
            .execute_step(&mut s.plan_of(&[MergePair { splitter: 2000 }], true))
            .expect("one step planned");
        assert!(report.executed, "consolidation merges get the idle bound");
        assert_eq!(s.splitters().keys(), [1000, 3000]);
        s.check_invariants();
    }
}
