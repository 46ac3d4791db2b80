//! Maintenance planning: the paper's calibrator rule one level up,
//! turned into a [`MaintenancePlan`] of bounded, key-identified steps.
//!
//! Every step is identified by **keys**, never by shard indices: the
//! topology can shift between planning and execution, a plan is
//! advisory, and the executor resolves each step's keys against the
//! live topology (stale steps are skipped, never mis-applied). There
//! is one step, [`Recut`]: the drift-proof *name* of a run of whole
//! shards and the cuts to rebuild it at, so every key in the run
//! moves once per step.
//!
//! There is one planner, [`ShardedRma::plan_maintenance`], and it is
//! the calibrator tree of §III with the shards as its leaves. A
//! shard's density is its decayed access mass against the fixed
//! capacity `W / num_shards` (`W` the index's total mass; lengths
//! stand in while no mass is recorded), and the leaf and level bounds
//! are the update-oriented preset's. A shard out of its leaf bounds
//! takes the smallest enclosing calibrator window
//! ([`rma_core::windows_above`]) whose density is inside its level's
//! bounds, among the windows one step may drain; that window is
//! re-cut at the quantiles of its access mass. Split, merge and the
//! walk of an accreted topology back down are all this one rule.
//!
//! A plan is a list: the planner emits its steps in the order they
//! are to run, and the plan pops them front to back, to its end —
//! the windows that shed an overload first, then the rest, each in
//! key order. Nothing second-guesses a plan once it is made — as the
//! paper's calibrator picks a window and the window is redistributed
//! — so the only check between planning and execution is the
//! per-step one: a step whose keys no longer name whole shards is
//! skipped.
//!
//! [`Recut`]: MaintenanceStep::Recut

use crate::shard::Shard;
use crate::ShardedRma;
use rma_core::{height_for, windows_above, Key, Thresholds};
use std::collections::VecDeque;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// One bounded unit of topology restructuring. Every step publishes
/// its own copy-on-write topology when executed, so concurrent
/// writers only ever queue behind the shards named by a single step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceStep {
    /// Re-cut the whole shards spanning `[lo, hi)` at `cuts`: drain
    /// them and rebuild the range as `cuts.len() + 1` shards, so each
    /// key in the range moves once. A step that puts out more shards
    /// than it takes in is a split, any other a merge; a merge builds
    /// at most `ShardConfig::max_shard_len` elements (when that is
    /// unset, one target shard's length, `len / num_shards`, or 2^17
    /// if that is more), a split is not bounded — it is how an
    /// oversized shard shrinks. Skipped when `lo` or `hi` is no longer a shard
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

/// The [`MaintenanceStep`]s one planner call produced, in the order
/// they are to run. When the maintainer's tick budget runs out before
/// the plan does, what has run is what the planner put first. Drained
/// step-by-step by [`ShardedRma::execute_step`] (the background
/// maintainer's paced mode) or all at once by
/// [`ShardedRma::drain_plan`].
///
/// A plan runs to its end: the calibrator decided there was work,
/// and each step is checked against the live topology only when it
/// is popped, where a stale one is skipped.
#[derive(Debug)]
pub struct MaintenancePlan {
    steps: VecDeque<MaintenanceStep>,
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

    pub(crate) fn pop(&mut self) -> Option<MaintenanceStep> {
        self.steps.pop_front()
    }
}

impl ShardedRma {
    /// The calibrator rule as a plan — what the background maintainer
    /// drains on its tick budget and [`maintain`](Self::maintain)
    /// drains at once.
    ///
    /// Each shard is a leaf whose weight is its decayed access mass
    /// (its length while no access has been recorded anywhere, so a
    /// freshly bulk-loaded index balances by residency), against the
    /// target `W / num_shards` at the root's upper density τ_h = 0.75
    /// — the leaf capacity is `W / num_shards / τ_h`, as a bulk load
    /// fills a PMA's segments to τ_h, so `num_shards` shards of equal
    /// weight are in bounds. A shard is out of bounds above the
    /// update-oriented preset's τ₁ = 1 or below its ρ₁ = 0.08, or when
    /// it is longer than `ShardConfig::max_shard_len`; a shard no cut
    /// can split (under
    /// [`MIN_SPLIT_SEGMENTS`](crate::config::MIN_SPLIT_SEGMENTS)
    /// segments, or one key's run) is never over. An out-of-bounds
    /// shard takes the smallest enclosing window whose density is
    /// inside its level's bound, among the windows whose shards one
    /// merge may drain (`max_shard_len`; unset, a target shard's
    /// length or 2^17, whichever is more). When there is none, an
    /// overflowing shard splits alone and an underflowing one takes
    /// the largest such window — the array's resize, bounded to one
    /// step. Windows are nested or disjoint, and the outer one is
    /// kept. Each window is re-cut at the quantiles of its access mass
    /// as its residents carry it (of its residents while it has none)
    /// into the fewest pieces, from `⌈mass / target⌉` up, that leave
    /// every piece at or under the leaf capacity or holding one key's
    /// run; no piece of a shard below the split floor holds less than
    /// half of it. A window whose cuts are its boundaries already plans
    /// nothing, so balanced topologies plan zero steps.
    pub fn plan_maintenance(&self) -> MaintenancePlan {
        let topo = self.topo();
        let lens: Vec<usize> = topo.lens().collect();
        let masses: Vec<u64> = topo.shards.iter().map(|s| s.stats.total()).collect();
        let by_lens = masses.iter().all(|&m| m == 0);
        let weights: Vec<f64> = match by_lens {
            true => lens.iter().map(|&l| l as f64).collect(),
            false => masses.iter().map(|&m| m as f64).collect(),
        };
        let total: f64 = weights.iter().sum();
        // Learned splitters are kept while the index is empty.
        if total == 0.0 || lens.iter().all(|&l| l == 0) {
            return self.finish_plan(Vec::new());
        }
        let (n, th) = (weights.len(), Thresholds::update_oriented());
        let h = height_for(n);
        // A shard at the target mass sits at the root's upper density,
        // as a bulk load fills a PMA's segments to τ_h.
        let target = total / self.cfg.num_shards as f64;
        let cap = target / th.tau(h, h);
        let bound = self.merge_bound(lens.iter().sum());
        let min_split = self.cfg.min_split();
        let mass = |w: &Range<usize>| weights[w.clone()].iter().sum::<f64>();
        let len = |w: &Range<usize>| lens[w.clone()].iter().sum::<usize>();
        let too_long = |i: usize| self.cfg.max_shard_len.is_some_and(|m| lens[i] > m);
        // A shard no cut can split (under `MIN_SPLIT_SEGMENTS`
        // segments, or one key's run) is not over, however heavy.
        let splittable = |s: &Shard| {
            s.peek(|r| r.len() >= min_split && r.first_ge(Key::MIN).map(|e| e.0) != r.last_key())
        };
        let over: Vec<bool> = (0..n)
            .map(|i| {
                (weights[i] > th.tau(1, h) * cap || too_long(i)) && splittable(&topo.shards[i])
            })
            .collect();
        let mut windows: Vec<Range<usize>> = Vec::new();
        for i in 0..n {
            let under = weights[i] < th.rho(1, h) * cap;
            if !over[i] && !under {
                continue;
            }
            let mut pick = over[i].then_some(i..i + 1);
            for (level, w) in windows_above(i, n) {
                if len(&w) > bound {
                    break;
                }
                let room = w.len() as f64 * cap;
                let inside = match over[i] {
                    true => mass(&w) <= th.tau(level, h) * room,
                    false => mass(&w) >= th.rho(level, h) * room,
                };
                if inside || (under && w.len() > 1) {
                    pick = Some(w);
                }
                if inside {
                    break;
                }
            }
            windows.extend(pick);
        }
        // Calibrator windows are nested or disjoint: keep the outer
        // of nested ones.
        windows.sort_by_key(|w| (w.start, std::cmp::Reverse(w.end)));
        windows.dedup_by(|inner, outer| inner.end <= outer.end);
        let mut steps = Vec::new();
        for w in windows {
            let l = len(&w);
            let by_mass = (mass(&w) / target).ceil() as usize;
            let by_len = self.cfg.max_shard_len.map_or(1, |m| l.div_ceil(m));
            // No piece of a shard at the floor holds less than half of it.
            let most = (2 * l / min_split).max(1);
            let k = by_mass.max(by_len).min(most);
            if w.len() == 1 && k < 2 {
                continue;
            }
            // Cut by length when the length bound asks for more pieces.
            let (limit, by_len) = match (by_len > by_mass, self.cfg.max_shard_len) {
                (true, Some(m)) => (m as f64, true),
                _ => (cap, by_lens),
            };
            let cuts = cut_points(&topo.shards[w.clone()], k..=most, limit, by_len);
            if topo.splitters.keys()[w.start..w.end - 1] != cuts[..] {
                let lo = topo.splitters.range_of(w.start).0;
                let hi = topo.splitters.range_of(w.end - 1).1;
                let cool = !over[w].contains(&true);
                steps.push((cool, MaintenanceStep::Recut { lo, hi, cuts }));
            }
        }
        // The windows that shed an overload run first.
        steps.sort_by_key(|s| s.0);
        self.finish_plan(steps.into_iter().map(|s| s.1).collect())
    }

    /// A plan of exactly `steps`, popped in the given order: a
    /// re-cut chosen by hand instead of by the planner, resolved and
    /// skipped when stale like any planned step, its merges held to
    /// the merge bound.
    pub fn plan_of(&self, steps: Vec<MaintenanceStep>) -> MaintenancePlan {
        self.finish_plan(steps)
    }

    /// Records plan counters, journals the plan-creation event, and
    /// wraps the steps, which the planner emitted in execution order.
    fn finish_plan(&self, steps: Vec<MaintenanceStep>) -> MaintenancePlan {
        if !steps.is_empty() {
            let c = &self.maint_counters;
            c.plans.fetch_add(1, Relaxed);
            c.steps_planned.fetch_add(steps.len() as u64, Relaxed);
            self.obs().log(
                rma_obs::EventKind::Rebalance,
                rma_obs::Event::NO_SHARD,
                0,
                steps.len() as u64,
            );
        }
        MaintenancePlan {
            steps: steps.into(),
        }
    }
}

/// The keys to cut the run of `shards` at: strictly ascending
/// resident keys, each the first of its duplicate run, so no piece is
/// empty. The run's access mass is laid on its residents as the
/// executor seeds the successors
/// ([`AccessStats::resident_shares`](crate::AccessStats::resident_shares));
/// `by_len` (with `cap` a length), or while the run has no mass, every
/// resident weighs one. A cut falls before each duplicate run whose
/// weight, counted to its middle, reaches the next k-quantile, for the
/// first `k` in `ks` that leaves every piece at or under `cap` or
/// holding one key's run (the first `k` when none does): a key that
/// carries much of its shard's reads can leave a piece over the
/// capacity at the count the mass alone asks for. Fewer than `k - 1`
/// cuts when duplicate runs swallow some; none when the run cannot be
/// cut (one giant duplicate run). Walks the residents once and keeps
/// one entry per distinct key.
fn cut_points(
    shards: &[Arc<Shard>],
    ks: RangeInclusive<usize>,
    cap: f64,
    by_len: bool,
) -> Vec<Key> {
    // Each distinct key, the mass its residents carry and their count.
    let mut runs: Vec<(Key, f64, f64)> = Vec::new();
    for s in shards {
        s.peek(|r| {
            let (share, _) = s.stats.resident_shares(r.iter().map(|e| e.0));
            for (key, _) in r.iter() {
                let w = share[s.stats.bucket_of(key)];
                match runs.last_mut() {
                    Some(run) if run.0 == key => (run.1, run.2) = (run.1 + w, run.2 + 1.0),
                    _ => runs.push((key, w, 1.0)),
                }
            }
        });
    }
    // A run without mass is cut by residents, and no piece of it is
    // over a mass bound.
    let cold = !by_len && runs.iter().all(|r| r.1 == 0.0);
    let cap = if cold { f64::INFINITY } else { cap };
    let weight = |run: &(Key, f64, f64)| if by_len || cold { run.2 } else { run.1 };
    let total: f64 = runs.iter().map(weight).sum();
    // The k-quantile cuts, and whether every piece fits.
    let quantiles = |k: usize| {
        let (mut cuts, mut before, mut piece, mut keys, mut fits) = (Vec::new(), 0.0, 0.0, 0, true);
        for run in &runs {
            let w = weight(run);
            let q = (cuts.len() + 1) as f64 * total / k as f64;
            if before > 0.0 && cuts.len() + 1 < k && before + w / 2.0 >= q {
                fits &= piece <= cap || keys == 1;
                (piece, keys) = (0.0, 0);
                cuts.push(run.0);
            }
            (before, piece, keys) = (before + w, piece + w, keys + 1);
        }
        (cuts, fits && (piece <= cap || keys == 1))
    };
    (ks.clone().map(quantiles).find(|q| q.1))
        .unwrap_or_else(|| quantiles(*ks.start()))
        .0
}
