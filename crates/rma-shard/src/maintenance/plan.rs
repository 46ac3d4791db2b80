//! Maintenance planning: turning the access-histogram signal into a
//! [`MaintenancePlan`] of bounded, key-identified steps.
//!
//! Every step is identified by **keys**, never by shard indices: the
//! topology can shift between planning and execution, a plan is
//! advisory, and the executor resolves each step's keys against the
//! live topology (stale steps are skipped, never mis-applied). There
//! is one step, [`Recut`]: the drift-proof *name* of a run of whole
//! shards and the cuts to rebuild it at, so every key in the run
//! moves once per step.
//!
//! Two planners:
//!
//! * [`ShardedRma::plan_maintenance`] — the load-driven rule: each
//!   hot shard cut into as many pieces as its mass needs, each run of
//!   adjacent cold shards merged into one;
//! * [`ShardedRma::plan_consolidation`] — the idle-time merge of the
//!   coldest runs back toward the configured `num_shards`.
//!
//! A plan is a list: each planner emits its steps in the order they
//! are to run, and the plan pops them front to back, to its end. A
//! rebalance's splits come before its merges; within a class the
//! planner sorts by gain per migrated key, and consolidation takes the
//! coldest runs first. Nothing second-guesses a plan once it is made —
//! as the paper's calibrator picks a window and the window is
//! redistributed (§III) — so the only check between planning and
//! execution is the per-step one: a step whose keys no longer name
//! whole shards is skipped.
//!
//! [`Recut`]: MaintenanceStep::Recut

use crate::shard::Shard;
use crate::{ShardedRma, Splitters};
use rma_core::Key;
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;

/// One bounded unit of topology restructuring. Every step publishes
/// its own copy-on-write topology when executed, so concurrent
/// writers only ever queue behind the shards named by a single step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceStep {
    /// Re-cut the whole shards spanning `[lo, hi)` at `cuts`: drain
    /// them and rebuild the range as `cuts.len() + 1` shards, so each
    /// key in the range moves once. A step that puts out more shards
    /// than it takes in is a split, any other a merge; a merge builds
    /// at most `ShardConfig::max_shard_len` elements (2^17 when that
    /// is unset; a consolidation plan's merges get a wider idle-time
    /// bound), a split is not bounded — it is how an oversized shard
    /// shrinks. Skipped when `lo` or `hi` is no longer a shard
    /// boundary, when the cuts are not strictly ascending inside
    /// `(lo, hi)`, or when they are the range's boundaries already.
    Recut {
        /// Lower edge of the range (`None`: the key space's).
        lo: Option<Key>,
        /// Upper edge of the range, exclusive (`None`: the key
        /// space's).
        hi: Option<Key>,
        /// The range's new inner boundaries.
        cuts: Vec<Key>,
    },
}

/// A shard splits when its weight (access mass; length while no
/// access has been recorded) exceeds this many times the mean shard
/// weight (and the shard holds at least
/// [`MIN_SPLIT_SEGMENTS`](crate::config::MIN_SPLIT_SEGMENTS)
/// segments). Above 1, or a shard at the mean would split.
const SPLIT_FACTOR: f64 = 2.0;

/// A run of adjacent shards merges while its combined weight stays
/// below this fraction of the mean shard weight. It has to stay below
/// [`SPLIT_FACTOR`], or a freshly split shard would immediately
/// re-merge and maintenance would oscillate.
const MERGE_FACTOR: f64 = 0.5;

/// The steps of `keyed`, largest key first; equal keys stay in the
/// order they were pushed.
fn descending(mut keyed: Vec<(f64, MaintenanceStep)>) -> impl Iterator<Item = MaintenanceStep> {
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    keyed.into_iter().map(|(_, step)| step)
}

/// The step that re-cuts shards `first..=last` of `splitters` at
/// `cuts`.
fn recut(splitters: &Splitters, first: usize, last: usize, cuts: Vec<Key>) -> MaintenanceStep {
    MaintenanceStep::Recut {
        lo: splitters.range_of(first).0,
        hi: splitters.range_of(last).1,
        cuts,
    }
}

/// The [`MaintenanceStep`]s one planner call produced, in the order
/// they are to run. When the maintainer's tick budget runs out before
/// the plan does, what has run is what the planner put first. Drained
/// step-by-step by [`ShardedRma::execute_step`] (the background
/// maintainer's paced mode) or all at once by
/// [`ShardedRma::drain_plan`].
///
/// A plan runs to its end: the planner's thresholds decided there was
/// work, and each step is checked against the live topology only when
/// it is popped, where a stale one is skipped.
#[derive(Debug)]
pub struct MaintenancePlan {
    steps: VecDeque<MaintenanceStep>,
    /// Made by the idle-time consolidation planner: its merges get
    /// the wider idle bound, and the ledger counts them.
    consolidation: bool,
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
}

impl ShardedRma {
    /// The load-driven rule as a plan — what the background
    /// maintainer drains on its tick budget and
    /// [`maintain`](Self::maintain) drains at once. A shard whose
    /// weight exceeds twice the mean is cut at the k-quantiles of its
    /// access mass (of its residents while it has none), k the fewest
    /// pieces that leaves no piece above that trigger once the step
    /// has run; each maximal run of adjacent shards whose combined
    /// weight stays under half the mean merges into one shard, held
    /// to the merge bound. While no access has been recorded, lengths
    /// stand in for the masses (a freshly bulk-loaded index balances
    /// by residency). Balanced topologies plan zero steps.
    pub fn plan_maintenance(&self) -> MaintenancePlan {
        let topo = self.topo();
        let lens: Vec<usize> = topo.lens().collect();
        let masses: Vec<u64> = topo.shards.iter().map(|s| s.stats.total()).collect();
        let weights: Vec<f64> = if masses.iter().all(|&m| m == 0) {
            lens.iter().map(|&l| l as f64).collect()
        } else {
            masses.iter().map(|&m| m as f64).collect()
        };
        let total: f64 = weights.iter().sum();
        let n = weights.len();
        if total == 0.0 {
            return self.finish_plan(Vec::new(), false);
        }
        let mean = total / n as f64;
        let (mut splits, mut merges) = (Vec::new(), Vec::new());
        for (i, shard) in topo.shards.iter().enumerate() {
            let w = weights[i];
            // Piece mass w / k stays at or under the trigger over the
            // n + k - 1 shards the step leaves: k >= w (n - 1) / (2T - w).
            let by_mass = if w > SPLIT_FACTOR * mean {
                (w * (n - 1) as f64 / (SPLIT_FACTOR * total - w)).ceil() as usize
            } else {
                1
            };
            // Optional length backstop (`ShardConfig::max_shard_len`):
            // a shard larger than one step may rebuild would make
            // *every* future restructuring of it exceed the per-step
            // stall bound, so SLO deployments cut it down as soon as
            // it crosses the line, regardless of access balance.
            let by_len = self.cfg.max_shard_len.map_or(1, |m| lens[i].div_ceil(m));
            let min_split = self.cfg.min_split();
            // No piece of a shard at the floor holds less than half of it.
            let k = by_mass.max(by_len).min(2 * lens[i] / min_split);
            if k < 2 || lens[i] < min_split {
                continue;
            }
            let cuts = cut_points(shard, k);
            if !cuts.is_empty() {
                let excess = w / mean;
                let step = recut(&topo.splitters, i, i, cuts);
                splits.push((excess / (lens[i] + 1) as f64, step));
            }
        }
        // Merges only while the index holds data (learned splitters
        // are kept while it is empty). A run under half the mean
        // weight is far below the split trigger, so only the merge
        // bound caps its length.
        if lens.iter().any(|&l| l > 0) {
            let cap = self.merge_bound();
            let mut i = 0;
            while i < n {
                let (mut j, mut w, mut len) = (i, 0.0, 0);
                while j < n && w + weights[j] < MERGE_FACTOR * mean && len + lens[j] <= cap {
                    (w, len) = (w + weights[j], len + lens[j]);
                    j += 1;
                }
                if j - i >= 2 {
                    let slack = MERGE_FACTOR * mean - w;
                    let step = recut(&topo.splitters, i, j - 1, Vec::new());
                    merges.push((slack / (len + 1) as f64, step));
                }
                i = j.max(i + 1);
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
    /// remove the boundaries between the coldest neighbours —
    /// lowest combined decayed mass first — until the count would
    /// reach `ShardConfig::num_shards`, and plan each run of shards
    /// that loses its inner boundaries as one merging
    /// [`Recut`](MaintenanceStep::Recut), coldest run first. Each run
    /// obeys the idle-time size bound (`consolidation_bound`: the
    /// merge bound widened to two natural target-count shards — the
    /// idle gate guarantees no foreground traffic is waiting on the
    /// locked window); the maintainer re-plans each idle tick, and
    /// [`compact`](Self::compact) loops synchronously, so a count
    /// one round cannot reach is walked the rest of the way down.
    /// Empty at or below the target, or when no neighbours fit the
    /// bound.
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
        // Boundary `i` separates shards `i` and `i + 1`; coldest
        // neighbours first (ties break leftmost for determinism).
        let mut cands: Vec<(u64, usize)> =
            (0..n - 1).map(|i| (masses[i] + masses[i + 1], i)).collect();
        cands.sort_unstable();
        // `run[i]`: the first shard of the run shard `i` belongs to.
        let mut run: Vec<usize> = (0..n).collect();
        let end =
            |run: &[usize], i: usize| i + run[i + 1..].iter().take_while(|&&r| r == run[i]).count();
        let mut removed = 0;
        for (_, i) in cands {
            let (first, last) = (run[i], end(&run, i + 1));
            if removed < n - target && lens[first..=last].iter().sum::<usize>() <= bound {
                run[first..=last].fill(first);
                removed += 1;
            }
        }
        let mut runs = Vec::new();
        let mut i = 0;
        while i < n {
            let last = end(&run, i);
            if last > i {
                let mass: u64 = masses[i..=last].iter().sum();
                runs.push((-(mass as f64), recut(&topo.splitters, i, last, Vec::new())));
            }
            i = last + 1;
        }
        self.finish_plan(descending(runs).collect(), true)
    }

    /// A plan of exactly `steps`, popped in the given order: a
    /// re-cut chosen by hand instead of by a planner, resolved and
    /// skipped when stale like any planned step, its merges held to
    /// the load-driven merge bound.
    pub fn plan_of(&self, steps: Vec<MaintenanceStep>) -> MaintenancePlan {
        self.finish_plan(steps, false)
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
        MaintenancePlan {
            steps: steps.into(),
            consolidation,
        }
    }
}

/// The keys to cut `shard` into `k` pieces at, snapped to resident
/// keys so no piece is empty, strictly ascending: the k-quantiles of
/// its access histogram, or of its residents when it has no recorded
/// mass or the mass cuts no resident run. Fewer than `k - 1` cuts when
/// duplicate runs swallow some; none when the shard cannot be split
/// (one giant duplicate run). Works through point probes
/// (`first_ge`) and one iterator walk at worst — it never
/// materializes the shard, which the executor will do anyway under
/// the write lock.
fn cut_points(shard: &Shard, k: usize) -> Vec<Key> {
    shard.locked(|guard| {
        let Some((min, _)) = guard.first_ge(Key::MIN) else {
            return Vec::new();
        };
        // Each candidate snaps up to the first resident key past the
        // previous cut (or the minimum): ascending, and no piece empty.
        let snap = |cands: &mut dyn Iterator<Item = Key>| {
            let mut cuts: Vec<Key> = Vec::new();
            for c in cands {
                let floor = cuts.last().copied().unwrap_or(min).saturating_add(1);
                match guard.first_ge(c.max(floor)) {
                    Some((key, _)) => cuts.push(key),
                    None => break,
                }
            }
            cuts
        };
        let wb = shard.stats.weighted_buckets();
        if wb.iter().any(|b| b.2 > 0) {
            let by_mass = Splitters::from_weighted_histogram(&wb, k);
            let cuts = snap(&mut by_mass.keys().iter().copied());
            if !cuts.is_empty() {
                return cuts;
            }
        }
        let step = guard.len().div_ceil(k).max(1);
        snap(&mut guard.iter().map(|(key, _)| key).step_by(step).skip(1))
    })
}
