//! Maintenance planning: turning the access-histogram signal into a
//! [`MaintenancePlan`] of bounded, key-identified steps.
//!
//! Every step is identified by **keys**, never by shard indices: the
//! topology can shift between planning and execution, a plan is
//! advisory, and the executor resolves each step's keys against the
//! live topology (stale steps are skipped, never mis-applied). Each
//! variant is the drift-proof *name* of a key range to re-cut — the
//! executor has one procedure for all of them.
//!
//! Three planners, and [`ShardedRma::plan_maintenance`] to pick
//! between the first two:
//!
//! * [`ShardedRma::plan_rebalance`] — one round of the split/merge
//!   pass: a [`SplitShard`] per hot shard, a [`MergePair`] per cold
//!   pair;
//! * [`ShardedRma::plan_relearn`] — the multi-way re-learn behind the
//!   PR-2 two-stage stability guard. When the histogram CDF says a
//!   single boundary move recovers at least [`NUDGE_GAIN_FRACTION`] of
//!   the full rebuild's predicted gain, the plan is one
//!   [`NudgeBoundary`] (the drifting-hotspot fast path); otherwise it
//!   is a shard-by-shard run of [`RebuildShard`] range steps,
//!   each capped at `max_step_elems` residents — target ranges whose
//!   residents exceed the cap are aligned with edge [`SplitShard`]s
//!   plus cap-bounded [`MergePair`]s instead, trading a few extra
//!   splitters inside element-heavy cold ranges for a hard bound on
//!   how long any step can hold its shard locks;
//! * [`ShardedRma::plan_consolidation`] — the idle-time chain of
//!   merges back toward the configured `num_shards`.
//!
//! A plan is a list: each planner emits its steps in the order they
//! are to run, and the plan pops them front to back. Where one class
//! of step must precede another (a re-learn's edge splits before its
//! rebuilds before its merges; a rebalance's splits before its merges)
//! the planner emits the classes in that order; within a class it
//! sorts by predicted gain per migrated key where it has one and
//! keeps key order otherwise.
//!
//! [`SplitShard`]: MaintenanceStep::SplitShard
//! [`MergePair`]: MaintenanceStep::MergePair
//! [`NudgeBoundary`]: MaintenanceStep::NudgeBoundary
//! [`RebuildShard`]: MaintenanceStep::RebuildShard

use super::{
    imbalance_of, predicted_masses, weighted_buckets_of, RelearnReport, RELEARN_MIN_GAIN,
    RELEARN_TRIGGER,
};
use crate::shard::{Shard, Topology};
use crate::{BalancePolicy, RelearnStrategy, ShardedRma, Splitters};
use rma_core::Key;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering::Relaxed;

/// One bounded unit of topology restructuring. Every step publishes
/// its own copy-on-write topology when executed, so concurrent
/// writers only ever queue behind the shards named by a single step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStep {
    /// Make `at` a splitter: the shard containing `at` is drained and
    /// rebuilt as two shards `[.., at)` / `[at, ..)`. Skipped if `at`
    /// already is a boundary. Touches one shard; its work is bounded
    /// by that shard's size (a split cannot be capped — it is how an
    /// oversized shard shrinks — so latency-SLO deployments pair the
    /// engine with `ShardConfig::max_shard_len` to keep every shard
    /// within one step's budget).
    SplitShard {
        /// The new splitter key.
        at: Key,
    },
    /// Remove the splitter `splitter`, merging the two shards
    /// adjacent to it. Skipped if the splitter no longer exists or
    /// the merged shard would exceed twice `max_step_elems` (clamped
    /// to `max_shard_len` when set). Touches two shards.
    MergePair {
        /// The splitter key to remove.
        splitter: Key,
    },
    /// Move the splitter `boundary` to `target_key`: the two shards
    /// either side of it are rebuilt with the key range between the
    /// old and new boundary changing sides. The cheap path for
    /// drifting hotspots. Touches two shards.
    NudgeBoundary {
        /// Where the boundary moves to. Skipped unless it lies
        /// strictly inside the pair's key range.
        target_key: Key,
        /// The splitter to move — the step's identity. Skipped if it
        /// no longer exists, so a concurrent topology change can
        /// never make a stale nudge move the wrong boundary.
        boundary: Key,
    },
    /// Rebuild the key range `[lo, hi)` (`None` = unbounded) into a
    /// single shard, carving partial overlaps out of the edge shards.
    /// The building block of the shard-by-shard incremental re-learn.
    RebuildShard {
        /// Inclusive lower bound of the target range.
        lo: Option<Key>,
        /// Exclusive upper bound of the target range.
        hi: Option<Key>,
    },
}

/// Which planner produced a plan — drives the plan-creation journal
/// event and the ledger's `relearns` and `consolidations`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanKind {
    /// The split/merge rebalance pass.
    Rebalance,
    /// The multi-way splitter re-learn (or nudge sweep).
    Relearn,
    /// The idle-time shard-count consolidation chain.
    Consolidation,
}

/// The scheduler's staleness bound: a plan whose live shard count or
/// total decayed access mass has moved more than this fraction from
/// its anchor since the last progress point has its remaining steps
/// dropped, not executed.
const STALE_DRIFT: f64 = 0.5;

/// A shard splits when its weight (access mass under
/// [`BalancePolicy::ByAccess`], length under [`BalancePolicy::ByLen`])
/// exceeds this many times the mean shard weight (and the shard is at
/// least `min_split_len` long). Above 1, or a shard at the mean would
/// split.
const SPLIT_FACTOR: f64 = 2.0;

/// Two adjacent shards merge when their combined weight falls below
/// this fraction of the mean shard weight. It has to stay below
/// [`SPLIT_FACTOR`], or a freshly split pair would immediately
/// re-merge and maintenance would oscillate.
const MERGE_FACTOR: f64 = 0.5;

/// Under [`RelearnStrategy::Incremental`], a single boundary nudge is
/// preferred over a full shard-by-shard rebuild when it recovers at
/// least this fraction of the rebuild's predicted imbalance gain — the
/// cheap path for drifting hotspots, where one splitter chasing the
/// band fixes most of the skew.
const NUDGE_GAIN_FRACTION: f64 = 0.75;

/// The steps of `keyed`, largest key first; equal keys stay in the
/// order they were pushed.
fn descending(mut keyed: Vec<(f64, MaintenanceStep)>) -> impl Iterator<Item = MaintenanceStep> {
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    keyed.into_iter().map(|(_, step)| step)
}

/// The [`MaintenanceStep`]s one planner call produced, in the order
/// they are to run, plus the planning decision snapshot. When the
/// maintainer's tick budget runs out before the plan does, what has
/// run is what the planner put first. Drained step-by-step by
/// [`ShardedRma::execute_step`] (the background maintainer's paced
/// mode) or all at once by [`ShardedRma::drain_plan`].
///
/// The plan also remembers the live topology it was planned against
/// (shard count + total decayed access mass, re-anchored after every
/// pop); when the world drifts too far from it between pops,
/// [`ShardedRma::execute_step`] drops the un-executed tail.
#[derive(Debug)]
pub struct MaintenancePlan {
    steps: VecDeque<MaintenanceStep>,
    kind: PlanKind,
    report: RelearnReport,
    /// Staleness anchor: live shard count at the last progress point
    /// (plan creation or the most recent pop).
    anchor_shards: usize,
    /// Staleness anchor: total decayed access mass likewise.
    anchor_mass: u64,
}

impl MaintenancePlan {
    /// Steps remaining to execute.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when every step has been executed (or none was planned).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The remaining steps, in execution order.
    pub fn steps(&self) -> impl Iterator<Item = &MaintenanceStep> {
        self.steps.iter()
    }

    /// Whether this plan came out of the idle-time consolidation
    /// planner ([`ShardedRma::plan_consolidation`]).
    pub fn consolidation_planned(&self) -> bool {
        self.kind == PlanKind::Consolidation
    }

    /// The planning decision snapshot: observed and predicted
    /// imbalance, shard counts at plan time. `relearned` and
    /// `shards_after` are only meaningful after the drain.
    pub fn relearn_report(&self) -> RelearnReport {
        self.report
    }

    pub(crate) fn pop(&mut self) -> Option<MaintenanceStep> {
        self.steps.pop_front()
    }

    /// True when the live topology has drifted past [`STALE_DRIFT`]
    /// from this plan's anchor — the signal that the remaining steps
    /// were computed from a world that no longer exists. A zero-mass
    /// anchor skips the mass test (relative drift from zero is
    /// undefined; the shard-count test still applies).
    pub(crate) fn is_stale(&self, live_shards: usize, live_mass: u64) -> bool {
        let shard_drift = (live_shards as f64 - self.anchor_shards as f64).abs()
            / self.anchor_shards.max(1) as f64;
        let mass_drift = if self.anchor_mass == 0 {
            0.0
        } else {
            (live_mass as f64 - self.anchor_mass as f64).abs() / self.anchor_mass as f64
        };
        shard_drift > STALE_DRIFT || mass_drift > STALE_DRIFT
    }

    /// Re-anchors the staleness snapshot at the current live state —
    /// called after every pop, so a plan's own executed steps (which
    /// legitimately change the shard count) never read as drift.
    pub(crate) fn reanchor(&mut self, live_shards: usize, live_mass: u64) {
        self.anchor_shards = live_shards;
        self.anchor_mass = live_mass;
    }

    /// Drops every remaining step, returning how many were discarded.
    pub(crate) fn drop_remaining(&mut self) -> u64 {
        let n = self.steps.len() as u64;
        self.steps.clear();
        n
    }
}

impl ShardedRma {
    /// The plan the background maintainer drains on its tick budget:
    /// the re-learn plan when the stability guards admit one, the
    /// split/merge rebalance plan otherwise.
    pub fn plan_maintenance(&self) -> MaintenancePlan {
        if self.cfg.relearn {
            let plan = self.plan_relearn();
            if !plan.is_empty() {
                return plan;
            }
        }
        self.plan_rebalance()
    }

    /// One round of the split/merge pass as a plan: a [`SplitShard`]
    /// for every shard whose balance weight exceeds twice the mean
    /// (cut at the histogram CDF midpoint under `ByAccess`, the key
    /// median under `ByLen`), a [`MergePair`] for every leftmost
    /// non-overlapping adjacent pair under the floor of half the
    /// mean. Balanced topologies plan zero steps.
    ///
    /// [`SplitShard`]: MaintenanceStep::SplitShard
    /// [`MergePair`]: MaintenanceStep::MergePair
    pub fn plan_rebalance(&self) -> MaintenancePlan {
        let topo = self.topo();
        let policy = self.cfg.balance;
        let lens: Vec<usize> = topo.lens().collect();
        let masses: Vec<u64> = topo.shards.iter().map(|s| s.stats.total()).collect();
        let weights = Self::balance_weights(&lens, &masses, policy);
        let total: u64 = weights.iter().sum();
        let n = weights.len();
        let report = RelearnReport::at(n);
        if total == 0 {
            return self.finish_plan(Vec::new(), PlanKind::Rebalance, report);
        }
        let mean = (total / n as u64).max(1);
        let (mut splits, mut merges) = (Vec::new(), Vec::new());
        for i in 0..n {
            let hot = (weights[i] as f64) > SPLIT_FACTOR * mean as f64;
            // Optional length backstop (`ShardConfig::max_shard_len`):
            // a shard larger than one step may rebuild would make
            // *every* future restructuring of it — including the
            // split that shrinks it — exceed the per-step stall
            // bound, so SLO deployments split it as soon as it
            // crosses the line, regardless of access balance.
            let oversized = self.cfg.max_shard_len.is_some_and(|m| lens[i] > m);
            if (hot || oversized) && lens[i] >= self.cfg.min_split_len {
                if let Some(at) = self.split_point(&topo.shards[i]) {
                    let excess = (weights[i] as f64 / mean as f64).max(0.0);
                    splits.push((
                        excess / (lens[i] + 1) as f64,
                        MaintenanceStep::SplitShard { at },
                    ));
                }
            }
        }
        let total_len: usize = lens.iter().sum();
        // Merges only while the index holds data (learned splitters
        // are kept while it is empty). Under ByAccess a merge
        // additionally requires the combined length to stay below the
        // split trigger, so merging two access-cold but element-heavy
        // shards cannot manufacture an instantly-splittable giant.
        if total_len > 0 && n > 1 {
            let mean_len = (total_len / n).max(1);
            let mut i = 0;
            while i + 1 < n {
                let combined = (weights[i] + weights[i + 1]) as f64;
                let combined_len = lens[i] + lens[i + 1];
                let len_ok = (policy == BalancePolicy::ByLen
                    || (combined_len as f64) <= SPLIT_FACTOR * mean_len as f64)
                    // Never merge past the length backstop: the next
                    // round would split the result right back.
                    && self.cfg.max_shard_len.is_none_or(|m| combined_len <= m);
                if combined < MERGE_FACTOR * mean as f64 && len_ok {
                    let slack = (MERGE_FACTOR * mean as f64 - combined).max(0.0);
                    merges.push((
                        slack / (combined_len + 1) as f64,
                        MaintenanceStep::MergePair {
                            splitter: topo.splitters.keys()[i],
                        },
                    ));
                    i += 2; // pairs must not overlap within one round
                } else {
                    i += 1;
                }
            }
        }
        // Splits shed imbalance directly, so they all run before the
        // merges, which only recover footprint: hottest per resident
        // first, then coldest per migrated key first.
        let steps = descending(splits).chain(descending(merges)).collect();
        self.finish_plan(steps, PlanKind::Rebalance, report)
    }

    /// The multi-way splitter re-learn as a plan, behind the same
    /// two-stage stability guard as always: empty unless the observed
    /// max/mean access imbalance reaches 1.25 **and** the chosen
    /// plan's predicted imbalance improves on it by at least a tenth
    /// — uniform workloads plan zero steps.
    /// See the module docs for the nudge-vs-rebuild decision.
    pub fn plan_relearn(&self) -> MaintenancePlan {
        let topo = self.topo();
        let n = topo.shards.len();
        let mut report = RelearnReport::at(n);
        let masses: Vec<u64> = topo.shards.iter().map(|s| s.stats.total()).collect();
        if masses.iter().all(|&m| m == 0) {
            // No signal to learn from.
            return self.finish_plan(Vec::new(), PlanKind::Relearn, report);
        }
        let imbalance = imbalance_of(masses.iter().map(|&m| m as f64));
        report.imbalance_before = imbalance;
        if imbalance < RELEARN_TRIGGER {
            // Already balanced.
            return self.finish_plan(Vec::new(), PlanKind::Relearn, report);
        }
        let wb = weighted_buckets_of(&topo.shards);
        let gain_bar = (1.0 - RELEARN_MIN_GAIN) * imbalance;

        if self.cfg.relearn_strategy == RelearnStrategy::NudgeOnly {
            // Nudge sweeps are guarded by the trigger plus their own
            // fixpoint (a sweep whose targets all coincide with the
            // current boundaries plans nothing) — NOT by the
            // `RELEARN_MIN_GAIN` bar. A Lloyd iteration's *marginal*
            // per-round improvement shrinks long before the fixpoint,
            // so gain-gating sweeps would freeze the boundary chase
            // mid-convergence (and make the background maintainer,
            // which re-plans one sweep per poll, diverge from the
            // synchronous cascade in `relearn_splitters`). Nudges are
            // bounded two-shard steps; the trigger alone throttles
            // them adequately.
            // Left to right, the order the sweep clamped its moves in.
            let (sweep, predicted) = self.nudge_sweep(&topo, &wb);
            report.imbalance_predicted = predicted;
            return self.finish_plan(sweep, PlanKind::Relearn, report);
        }

        let candidate = Splitters::from_weighted_histogram(&wb, self.cfg.num_shards);
        let full_pred =
            (candidate != topo.splitters).then(|| imbalance_of(predicted_masses(&wb, &candidate)));
        let nudge = self.best_nudge(&topo, &masses, &wb);
        let full_ok = full_pred.is_some_and(|p| p < gain_bar);
        let nudge_ok = nudge.as_ref().is_some_and(|&(_, p)| p < gain_bar);
        // Plan-equivalence bar: a nudge may replace the full rebuild
        // only if it is predicted to land within this factor of the
        // rebuild's imbalance (the repository's acceptance criterion
        // for the incremental engine).
        const NUDGE_EQUIVALENCE: f64 = 1.1;
        // Prefer the single-boundary nudge when it clears the gain
        // guard, recovers most of the full rebuild's predicted gain
        // *and* stays within the equivalence bar (or the full rebuild
        // is not worth doing at all) — one two-shard step instead of
        // a topology-wide drain.
        let prefer_nudge = nudge_ok
            && match (nudge.as_ref(), full_pred) {
                (Some(&(_, np)), Some(fp)) if full_ok => {
                    np <= NUDGE_EQUIVALENCE * fp
                        && (imbalance - np) >= NUDGE_GAIN_FRACTION * (imbalance - fp)
                }
                _ => true,
            };
        let steps = if prefer_nudge {
            let (step, predicted) = nudge.expect("prefer_nudge implies a candidate");
            report.imbalance_predicted = predicted;
            vec![step]
        } else if full_ok {
            let full = full_pred.expect("full_ok implies a prediction");
            report.imbalance_predicted = full;
            self.full_rebuild_steps(&topo, &candidate)
        } else {
            if let Some(p) = full_pred {
                report.imbalance_predicted = p; // gain too small: no churn
            }
            Vec::new()
        };
        self.finish_plan(steps, PlanKind::Relearn, report)
    }

    /// The idle-time consolidation chain: when accreted splits have
    /// ratcheted the live shard count above the configured target,
    /// plan cap-bounded [`MergePair`](MaintenanceStep::MergePair)
    /// steps over the lowest-combined-decayed-mass neighbour pairs
    /// (non-overlapping within one round) until the count would reach
    /// `ShardConfig::num_shards`. Each merge obeys the idle-time size
    /// bound (`consolidation_bound`: the per-step write-stall cap
    /// widened to two natural target-count shards — the idle gate
    /// guarantees no foreground traffic is waiting on the locked
    /// window); multi-round chains (the maintainer re-plans each idle
    /// tick, or [`compact`](Self::compact) loops synchronously) walk
    /// the count the rest of the way down. Empty at or below the
    /// target, or when no adjacent pair fits the bound.
    pub fn plan_consolidation(&self) -> MaintenancePlan {
        let topo = self.topo();
        let n = topo.shards.len();
        let report = RelearnReport::at(n);
        let target = self.cfg.num_shards.max(1);
        if n <= target {
            return self.finish_plan(Vec::new(), PlanKind::Consolidation, report);
        }
        let lens: Vec<usize> = topo.lens().collect();
        let masses: Vec<u64> = topo.shards.iter().map(|s| s.stats.total()).collect();
        let bound = self.consolidation_bound();
        // Mergeable neighbour pairs, coldest combined mass first —
        // least mass disturbed per merge while the index is idle
        // anyway (ties break leftmost for determinism).
        let mut cands: Vec<(u64, usize)> = (0..n - 1)
            .filter(|&i| lens[i] + lens[i + 1] <= bound)
            .map(|i| (masses[i] + masses[i + 1], i))
            .collect();
        cands.sort_unstable();
        let max_merges = n - target;
        let mut taken = vec![false; n];
        let mut steps = Vec::new();
        for (_, i) in cands {
            if steps.len() >= max_merges {
                break;
            }
            if taken[i] || taken[i + 1] {
                continue; // pairs must not overlap within one round
            }
            taken[i] = true;
            taken[i + 1] = true;
            steps.push(MaintenanceStep::MergePair {
                splitter: topo.splitters.keys()[i],
            });
        }
        self.finish_plan(steps, PlanKind::Consolidation, report)
    }

    /// Records plan counters, journals the plan-creation event, and
    /// wraps the steps, which the planner emitted in execution order.
    fn finish_plan(
        &self,
        steps: Vec<MaintenanceStep>,
        kind: PlanKind,
        report: RelearnReport,
    ) -> MaintenancePlan {
        if !steps.is_empty() {
            let c = &self.maint_counters;
            c.plans.fetch_add(1, Relaxed);
            c.steps_planned.fetch_add(steps.len() as u64, Relaxed);
            let ev = match kind {
                PlanKind::Rebalance => rma_obs::EventKind::Rebalance,
                PlanKind::Relearn => {
                    c.relearns.fetch_add(1, Relaxed);
                    rma_obs::EventKind::Relearn
                }
                PlanKind::Consolidation => rma_obs::EventKind::Consolidate,
            };
            self.obs()
                .log(ev, rma_obs::Event::NO_SHARD, 0, steps.len() as u64);
        }
        MaintenancePlan {
            steps: steps.into(),
            kind,
            report,
            anchor_shards: report.shards_before.max(1),
            anchor_mass: self.access_masses().iter().sum(),
        }
    }

    /// The split key the configured [`BalancePolicy`] would cut this
    /// shard at, snapped to a resident key so both halves are
    /// non-empty; `None` when the shard cannot be split (one giant
    /// duplicate run). Works through point probes (`first_ge`) and a
    /// half-shard iterator walk at worst — it never materializes the
    /// shard, which the executor will do anyway under the write lock.
    fn split_point(&self, shard: &Shard) -> Option<Key> {
        shard.locked(|guard| {
            let min = guard.first_ge(Key::MIN)?.0;
            // Equal-access candidate: the histogram CDF midpoint, snapped
            // up to the first resident key. Invalid (outside the resident
            // range, or equal to the minimum — an empty left half) falls
            // through to the median.
            if self.cfg.balance == BalancePolicy::ByAccess {
                let wb = shard.stats.weighted_buckets();
                let two_way = Splitters::from_weighted_histogram(&wb, 2);
                if let Some(key) = two_way
                    .keys()
                    .first()
                    .and_then(|&k| guard.first_ge(k))
                    .map(|p| p.0)
                    .filter(|&k| k > min)
                {
                    return Some(key);
                }
            }
            // Median fallback (the PR-1 ByLen cut): the middle element's
            // key, or — when the front run of duplicates reaches the
            // middle — the first key after that run.
            let len = guard.len();
            if len < 2 {
                return None;
            }
            let median = guard.iter().nth(len / 2).expect("len/2 < len").0;
            if median > min {
                Some(median)
            } else {
                guard
                    .first_ge(min.saturating_add(1))
                    .map(|p| p.0)
                    .filter(|&k| k > min)
            }
        })
    }

    /// Decomposes the jump from the current splitters to `target`
    /// into bounded steps: a [`MaintenanceStep::RebuildShard`] per
    /// target range whose residents fit `max_step_elems`, and — for
    /// oversized (element-heavy, access-cold) ranges — exact edge
    /// splits plus cap-bounded merges of the interior boundaries.
    /// Target ranges that already exist as shards plan nothing.
    fn full_rebuild_steps(&self, topo: &Topology, target: &Splitters) -> Vec<MaintenanceStep> {
        let lens: Vec<usize> = topo.lens().collect();
        let cap = self.cfg.max_step_elems;
        let cur = topo.splitters.keys();
        let mut splits: BTreeSet<Key> = BTreeSet::new();
        let mut rebuilds = Vec::new();
        let mut merges = Vec::new();
        for i in 0..target.num_shards() {
            let (lo, hi) = target.range_of(i);
            let (j0, j1) = topo.splitters.overlapping(lo, hi);
            if j0 == j1 && topo.splitters.range_of(j0) == (lo, hi) {
                continue; // this range already is a shard: no churn
            }
            // A rebuild drains and rebuilds *every* overlapped shard in
            // full (partial edge overlaps become rebuilt prefix/suffix
            // shards), so its cost is the union's residency, not just
            // the target range's. The executor enforces the same measure.
            let cost: usize = lens[j0..=j1].iter().sum();
            if cost <= cap {
                rebuilds.push((cost, MaintenanceStep::RebuildShard { lo, hi }));
            } else {
                // Oversized: pin the target edges with 1-shard splits;
                // interior boundaries stay unless a cap-bounded merge
                // can absorb them (the executor enforces the cap).
                for edge in [lo, hi].into_iter().flatten() {
                    if cur.binary_search(&edge).is_err() {
                        splits.insert(edge);
                    }
                }
                for &c in &cur[j0..j1] {
                    merges.push(MaintenanceStep::MergePair { splitter: c });
                }
            }
        }
        // Three classes — splits in key order (cheap 1-shard edge pins
        // that later steps depend on), then the range rebuilds, then
        // the merge attempts inside oversized ranges as found. Each
        // rebuild recovers an equal share of the plan's predicted gain,
        // so the one with the fewest residents to move recovers the
        // most per migrated key and runs first (stable: equal unions
        // keep key order).
        rebuilds.sort_by_key(|&(cost, _)| cost);
        (splits.into_iter())
            .map(|at| MaintenanceStep::SplitShard { at })
            .chain(rebuilds.into_iter().map(|(_, step)| step))
            .chain(merges)
            .collect()
    }

    /// The best single boundary move around the hottest shard: for
    /// each of its (up to two) boundaries, the pair histogram's
    /// equal-access point becomes the nudge target, and the candidate
    /// with the lowest predicted global imbalance wins.
    fn best_nudge(
        &self,
        topo: &Topology,
        masses: &[u64],
        wb: &[(Key, Key, u64)],
    ) -> Option<(MaintenanceStep, f64)> {
        let (hot, _) = masses
            .iter()
            .enumerate()
            .max_by_key(|&(_, &m)| m)
            .expect("at least one shard");
        // The boundaries below and above the hottest shard; one that
        // does not exist (an edge shard) yields no candidate.
        [hot.checked_sub(1), Some(hot)]
            .into_iter()
            .flatten()
            .filter_map(|l| self.nudge_candidate(topo, wb, l))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Nudge candidate for the boundary between shards `l` and
    /// `l + 1`: target is the equal-access point of the pair's
    /// combined histogram. `None` when the pair carries no signal or
    /// the target is not strictly inside the pair's key range.
    fn nudge_candidate(
        &self,
        topo: &Topology,
        wb: &[(Key, Key, u64)],
        l: usize,
    ) -> Option<(MaintenanceStep, f64)> {
        let boundary = *topo.splitters.keys().get(l)?;
        let pair_wb = weighted_buckets_of(&topo.shards[l..=l + 1]);
        let two_way = Splitters::from_weighted_histogram(&pair_wb, 2);
        let &target = two_way.keys().first()?;
        let (pair_lo, _) = topo.splitters.range_of(l);
        let (_, pair_hi) = topo.splitters.range_of(l + 1);
        if target == boundary
            || pair_lo.is_some_and(|lo| target <= lo)
            || pair_hi.is_some_and(|hi| target >= hi)
        {
            return None;
        }
        let mut keys = topo.splitters.keys().to_vec();
        keys[l] = target;
        let predicted = imbalance_of(predicted_masses(wb, &Splitters::new(keys)));
        Some((
            MaintenanceStep::NudgeBoundary {
                target_key: target,
                boundary,
            },
            predicted,
        ))
    }

    /// The [`RelearnStrategy::NudgeOnly`] sweep: each boundary is
    /// nudged toward its **global** equal-access quantile — the same
    /// target function the full re-learn solves, but applied as
    /// bounded two-shard moves, each clamped to stay strictly between
    /// its (evolving) neighbours. A small move lands in one round; a
    /// splitter cluster sliding after a drifting band converges over
    /// the bounded rounds [`ShardedRma::relearn_splitters`] runs.
    /// Returns the steps plus the predicted global imbalance under
    /// all of them applied.
    fn nudge_sweep(&self, topo: &Topology, wb: &[(Key, Key, u64)]) -> (Vec<MaintenanceStep>, f64) {
        let mut steps = Vec::new();
        let mut keys = topo.splitters.keys().to_vec();
        let targets = Splitters::from_weighted_histogram(wb, keys.len() + 1);
        for l in 0..keys.len() {
            // Duplicate-collapsed target sets leave trailing
            // boundaries un-targeted; they keep their position.
            let Some(&raw) = targets.keys().get(l) else {
                continue;
            };
            // Clamp strictly inside the evolving neighbours (left one
            // already moved this sweep, right one not yet).
            let floor = if l == 0 {
                Key::MIN
            } else {
                keys[l - 1].saturating_add(1)
            };
            let ceil = keys.get(l + 1).map_or(Key::MAX, |&k| k.saturating_sub(1));
            if floor > ceil {
                continue;
            }
            let target = raw.clamp(floor, ceil);
            let boundary = keys[l];
            if target == boundary {
                continue;
            }
            keys[l] = target;
            steps.push(MaintenanceStep::NudgeBoundary {
                target_key: target,
                boundary,
            });
        }
        let predicted = imbalance_of(predicted_masses(wb, &Splitters::new(keys)));
        (steps, predicted)
    }
}

#[cfg(test)]
impl ShardedRma {
    /// A plan of exactly `steps`, popped in the given order, as the
    /// consolidation planner (`consolidation`) or the rebalance
    /// planner would have emitted it — planners cannot be made to
    /// produce stale steps on demand, the executor tests need them.
    pub(crate) fn plan_of(
        &self,
        steps: &[MaintenanceStep],
        consolidation: bool,
    ) -> MaintenancePlan {
        let kind = if consolidation {
            PlanKind::Consolidation
        } else {
            PlanKind::Rebalance
        };
        let n = self.num_shards();
        self.finish_plan(steps.to_vec(), kind, RelearnReport::at(n))
    }
}
