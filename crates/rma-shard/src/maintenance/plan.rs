//! Maintenance planning: turning the access-histogram signal into a
//! [`MaintenancePlan`] of bounded, key-identified steps.
//!
//! Every step is identified by **keys**, never by shard indices: the
//! topology can shift between planning and execution, a plan is
//! advisory, and the executor resolves each step's keys against the
//! live topology (stale steps are skipped, never mis-applied). Each
//! variant is the drift-proof *name* of a key range to re-cut — the
//! executor has one procedure for both of them.
//!
//! Two planners:
//!
//! * [`ShardedRma::plan_maintenance`] — the load-driven rule, one
//!   round of the split/merge pass: a [`SplitShard`] per hot shard, a
//!   [`MergePair`] per cold pair;
//! * [`ShardedRma::plan_consolidation`] — the idle-time chain of
//!   merges back toward the configured `num_shards`.
//!
//! A plan is a list: each planner emits its steps in the order they
//! are to run, and the plan pops them front to back. A rebalance's
//! splits come before its merges; within a class the planner sorts by
//! gain per migrated key, and consolidation takes the coldest pairs
//! first.
//!
//! [`SplitShard`]: MaintenanceStep::SplitShard
//! [`MergePair`]: MaintenanceStep::MergePair

use crate::shard::Shard;
use crate::{ShardedRma, Splitters};
use rma_core::Key;
use std::collections::VecDeque;
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
}

/// The scheduler's staleness bound: a plan whose live shard count or
/// total decayed access mass has moved more than this fraction from
/// its anchor since the last progress point has its remaining steps
/// dropped, not executed.
const STALE_DRIFT: f64 = 0.5;

/// A shard splits when its weight (access mass; length while no
/// access has been recorded) exceeds this many times the mean shard
/// weight (and the shard is at least `min_split_len` long). Above 1,
/// or a shard at the mean would split.
const SPLIT_FACTOR: f64 = 2.0;

/// Two adjacent shards merge when their combined weight falls below
/// this fraction of the mean shard weight. It has to stay below
/// [`SPLIT_FACTOR`], or a freshly split pair would immediately
/// re-merge and maintenance would oscillate.
const MERGE_FACTOR: f64 = 0.5;

/// The steps of `keyed`, largest key first; equal keys stay in the
/// order they were pushed.
fn descending(mut keyed: Vec<(f64, MaintenanceStep)>) -> impl Iterator<Item = MaintenanceStep> {
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    keyed.into_iter().map(|(_, step)| step)
}

/// The [`MaintenanceStep`]s one planner call produced, in the order
/// they are to run. When the maintainer's tick budget runs out before
/// the plan does, what has run is what the planner put first. Drained
/// step-by-step by [`ShardedRma::execute_step`] (the background
/// maintainer's paced mode) or all at once by
/// [`ShardedRma::drain_plan`].
///
/// The plan also remembers the live topology it was planned against
/// (shard count + total decayed access mass, re-anchored after every
/// pop); when the world drifts too far from it between pops,
/// [`ShardedRma::execute_step`] drops the un-executed tail.
#[derive(Debug)]
pub struct MaintenancePlan {
    steps: VecDeque<MaintenanceStep>,
    /// Made by the idle-time consolidation planner: its merges get
    /// the wider idle bound, and the ledger counts them.
    consolidation: bool,
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
        self.consolidation
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
    /// The load-driven rule, one round of the split/merge pass as a
    /// plan — what the background maintainer drains on its tick
    /// budget and [`maintain`](Self::maintain) drains at once: a
    /// [`SplitShard`] for every shard whose access mass exceeds twice
    /// the mean (cut at its histogram CDF midpoint, the key median as
    /// the fallback), a [`MergePair`] for every leftmost
    /// non-overlapping adjacent pair under the floor of half the mean.
    /// While no access has been recorded, lengths stand in for the
    /// masses (a freshly bulk-loaded index balances by residency).
    /// Balanced topologies plan zero steps.
    ///
    /// [`SplitShard`]: MaintenanceStep::SplitShard
    /// [`MergePair`]: MaintenanceStep::MergePair
    pub fn plan_maintenance(&self) -> MaintenancePlan {
        let topo = self.topo();
        let lens: Vec<usize> = topo.lens().collect();
        let masses: Vec<u64> = topo.shards.iter().map(|s| s.stats.total()).collect();
        let weights: Vec<u64> = if masses.iter().all(|&m| m == 0) {
            lens.iter().map(|&l| l as u64).collect()
        } else {
            masses
        };
        let total: u64 = weights.iter().sum();
        let n = weights.len();
        if total == 0 {
            return self.finish_plan(Vec::new(), false);
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
                if let Some(at) = split_point(&topo.shards[i]) {
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
        // are kept while it is empty), and only while the combined
        // length stays below the split trigger, so merging two
        // access-cold but element-heavy shards cannot manufacture an
        // instantly-splittable giant.
        if total_len > 0 && n > 1 {
            let mean_len = (total_len / n).max(1);
            let mut i = 0;
            while i + 1 < n {
                let combined = (weights[i] + weights[i + 1]) as f64;
                let combined_len = lens[i] + lens[i + 1];
                let len_ok = (combined_len as f64) <= SPLIT_FACTOR * mean_len as f64
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
        self.finish_plan(steps, false)
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
        let target = self.cfg.num_shards.max(1);
        if n <= target {
            return self.finish_plan(Vec::new(), true);
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
        self.finish_plan(steps, true)
    }

    /// Records plan counters, journals the plan-creation event, and
    /// wraps the steps, which the planner emitted in execution order.
    fn finish_plan(&self, steps: Vec<MaintenanceStep>, consolidation: bool) -> MaintenancePlan {
        if !steps.is_empty() {
            let c = &self.maint_counters;
            c.plans.fetch_add(1, Relaxed);
            c.steps_planned.fetch_add(steps.len() as u64, Relaxed);
            let ev = match consolidation {
                false => rma_obs::EventKind::Rebalance,
                true => rma_obs::EventKind::Consolidate,
            };
            self.obs()
                .log(ev, rma_obs::Event::NO_SHARD, 0, steps.len() as u64);
        }
        let masses = self.access_masses();
        MaintenancePlan {
            steps: steps.into(),
            consolidation,
            anchor_shards: masses.len().max(1),
            anchor_mass: masses.iter().sum(),
        }
    }
}

/// The key to split `shard` at, snapped to a resident key so both
/// halves are non-empty: its histogram's equal-access point, or the
/// key median when that point does not cut the residents; `None` when
/// the shard cannot be split (one giant duplicate run). Works through
/// point probes (`first_ge`) and a half-shard iterator walk at worst
/// — it never materializes the shard, which the executor will do
/// anyway under the write lock.
fn split_point(shard: &Shard) -> Option<Key> {
    shard.locked(|guard| {
        let min = guard.first_ge(Key::MIN)?.0;
        // Equal-access candidate: the histogram CDF midpoint, snapped
        // up to the first resident key. Invalid (outside the resident
        // range, or equal to the minimum — an empty left half) falls
        // through to the median.
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
        // Median fallback: the middle element's key, or — when the
        // front run of duplicates reaches the middle — the first key
        // after that run.
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
        self.finish_plan(steps.to_vec(), consolidation)
    }
}
