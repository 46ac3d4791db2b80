//! Maintenance planning: the paper's calibrator rule one level up,
//! turned into a [`MaintenancePlan`] of bounded, key-identified steps.
//!
//! Every step is identified by **keys**, never by shard indices: the
//! topology can shift between planning and execution, so the executor
//! resolves each step's keys against the live topology and skips a
//! stale one. There is one step, [`Recut`]: the name of a run of whole
//! shards and the cuts to rebuild it at.
//!
//! There is one planner, [`ShardedRma::plan_maintenance`]: the
//! calibrator tree of §III with the shards as its leaves. Like the
//! paper's calibrator it decides from counts — the shards' access
//! masses, and for a cut the residents per histogram bucket, read as
//! ranks — and never walks a shard's elements. A plan is a list popped
//! front to back, to its end: the windows that shed an overload
//! first, then the rest, each in key order. Nothing second-guesses a
//! plan once it is made — as the paper's calibrator picks a window
//! and redistributes it — so the only check left is the per-step one.
//!
//! [`Recut`]: MaintenanceStep::Recut

use crate::access::ResidentMass;
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
    /// than it takes in is a split, any other a merge; a merge is held
    /// to the merge bound (see
    /// [`plan_maintenance`](ShardedRma::plan_maintenance)), a split is
    /// how an oversized shard shrinks. Skipped when `lo` or `hi` is no
    /// longer a shard boundary, when the cuts are not strictly
    /// ascending inside `(lo, hi)`, or when they are the range's
    /// boundaries already.
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
/// they are to run, drained step by step by
/// [`ShardedRma::execute_step`] (the background maintainer's paced
/// mode) or all at once by [`ShardedRma::drain_plan`]. A plan runs to
/// its end; each step is checked against the live topology only when
/// it is popped, where a stale one is skipped.
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
    /// drains step by step and [`maintain`](Self::maintain)
    /// drains at once.
    ///
    /// Each shard is a leaf whose weight is its decayed access mass
    /// (its length while no access has been recorded anywhere, so a
    /// freshly bulk-loaded index balances by residency), against
    /// the leaf capacity `W / num_shards / τ_h`: `num_shards` shards of
    /// equal weight sit at the root's upper density τ_h = 0.75, as a
    /// bulk load fills a PMA's segments. A shard is out of bounds above
    /// the update-oriented preset's τ₁ = 1 or below its ρ₁ = 0.08, or
    /// when it is longer than `ShardConfig::max_shard_len`; a shard no
    /// cut can split (under
    /// [`MIN_SPLIT_SEGMENTS`](crate::config::MIN_SPLIT_SEGMENTS)
    /// segments, or one key's run) is never over. It takes the smallest
    /// enclosing window inside its level's bound among those one merge
    /// may drain (`max_shard_len`; unset, a target shard's length or
    /// 2^17, whichever is more); with none, an over shard splits alone
    /// and an under one takes the largest such window. Of nested
    /// windows the outer is kept. Each window is re-cut at the
    /// quantiles of its access mass (`cut_points`) into a count of
    /// pieces, from `⌈mass / target⌉` up and then down, that keeps every
    /// piece inside its leaf bounds; no piece of a shard below the
    /// split floor holds less than half of it. A window whose cuts are
    /// its boundaries already plans nothing.
    pub fn plan_maintenance(&self) -> MaintenancePlan {
        let t0 = rma_obs::now_ns();
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
            return self.finish_plan(Vec::new(), t0);
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
        let splittable =
            |s: &Shard| s.peek(|r| r.len() >= min_split && r.select(0) != r.select(r.len() - 1));
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
            let (bounds, by_len) = match (by_len > by_mass, self.cfg.max_shard_len) {
                (true, Some(m)) => (0.0..=m as f64, true),
                _ => (th.rho(1, h) * cap..=cap, by_lens),
            };
            // Up from the count the mass asks for, then down to one
            // piece (two for a lone shard).
            let lowest = if w.len() == 1 { 2 } else { 1 };
            let ks: Vec<usize> = (k..=most).chain((lowest..k).rev()).collect();
            let max_len = self.cfg.max_shard_len.unwrap_or(usize::MAX);
            let cuts = cut_points(&topo.shards[w.clone()], &ks, bounds, max_len, by_len);
            if topo.splitters.keys()[w.start..w.end - 1] != cuts[..] {
                let lo = topo.splitters.range_of(w.start).0;
                let hi = topo.splitters.range_of(w.end - 1).1;
                let cool = !over[w].contains(&true);
                steps.push((cool, MaintenanceStep::Recut { lo, hi, cuts }));
            }
        }
        // The windows that shed an overload run first.
        steps.sort_by_key(|s| s.0);
        self.finish_plan(steps.into_iter().map(|s| s.1).collect(), t0)
    }

    /// A plan of exactly `steps`, popped in the given order: a
    /// re-cut chosen by hand instead of by the planner, resolved and
    /// skipped when stale like any planned step, its merges held to
    /// the merge bound.
    pub fn plan_of(&self, steps: Vec<MaintenanceStep>) -> MaintenancePlan {
        self.finish_plan(steps, rma_obs::now_ns())
    }

    /// Records plan counters and the planning time since `t0`,
    /// journals the plan-creation event with that time, and wraps the
    /// steps, which the planner emitted in execution order.
    fn finish_plan(&self, steps: Vec<MaintenanceStep>, t0: u64) -> MaintenancePlan {
        let (c, ns) = (&self.maint_counters, rma_obs::now_ns().saturating_sub(t0));
        c.plan_ns.fetch_add(ns, Relaxed);
        if !steps.is_empty() {
            c.plans.fetch_add(1, Relaxed);
            c.steps_planned.fetch_add(steps.len() as u64, Relaxed);
            let event = rma_obs::EventKind::Rebalance;
            self.obs()
                .log(event, rma_obs::Event::NO_SHARD, ns, steps.len() as u64);
        }
        MaintenancePlan {
            steps: steps.into(),
        }
    }
}

/// The keys to cut the run of `shards` at: ascending resident keys,
/// each the first of its duplicate run. The run's access mass is laid
/// on its residents as the executor seeds the successors; `by_len`
/// (with `bounds` lengths), or while the run has no mass, every
/// resident weighs one. A cut falls before each duplicate run whose
/// weight, counted to its middle, reaches the next k-quantile, for the
/// first `k` in `ks` whose pieces all lie inside `bounds` and hold at
/// most `max_len` residents (one key's run may pass the upper bounds);
/// else the first `k` whose pieces pass no upper bound, else the first
/// `k`. Reads counts, not keys: residents per bucket by rank, a
/// quantile's resident by prefix sums over the buckets, and its
/// duplicate run by one `select` and two `rank`s.
fn cut_points(
    shards: &[Arc<Shard>],
    ks: &[usize],
    bounds: RangeInclusive<f64>,
    max_len: usize,
    by_len: bool,
) -> Vec<Key> {
    // The residents' mass, and the rank of each shard's first one.
    let count = |by_count: bool| {
        let mut mass = ResidentMass::new();
        let offsets: Vec<usize> = (shards.iter())
            .map(|s| s.peek(|r| mass.push(&s.stats, r.ascending_ranks(), r.len(), by_count)))
            .collect();
        (mass, offsets)
    };
    let (mut mass, mut offsets) = count(by_len);
    // A run without mass is cut by residents, and no piece of it is
    // outside a mass bound.
    let (lower, cap) = match !by_len && mass.total() == 0.0 {
        true => {
            (mass, offsets) = count(true);
            (0.0, f64::INFINITY)
        }
        false => bounds.into_inner(),
    };
    // The key of the window's resident `i` and the window ranks of
    // its duplicate run, or `None` past the last resident.
    let run_at = |i: usize| {
        let s = offsets.partition_point(|&o| o <= i) - 1;
        shards[s].peek(|r| {
            let key = r.select(i - offsets[s])?;
            let end = key.checked_add(1).map_or(r.len(), |next| r.rank(next));
            Some((key, offsets[s] + r.rank(key)..offsets[s] + end))
        })
    };
    // Shards may change after the counts: a rank past them carries no
    // mass, and the executor skips a stale cut.
    let (n, total) = (mass.len(), mass.total());
    let Some((_, first)) = run_at(0).filter(|_| n > 0 && total > 0.0) else {
        return Vec::new();
    };
    // No cut falls before the run after the first that carries mass.
    let carrier = mass.crossing(f64::MIN_POSITIVE).and_then(run_at);
    let carrier_end = carrier.map_or(n, |c| c.1.end);
    // A run's weight counted to its middle.
    let mid = |r: &Range<usize>| mass.between(0..r.start) + mass.between(r.clone()) / 2.0;
    // How the piece from `first`'s start to `to` fits: 0 past an upper
    // bound, 1 inside them but under the lower one, 2 inside all.
    let grade = |first: &Range<usize>, to: usize| {
        let w = mass.between(first.start..to);
        match (w <= cap && to.saturating_sub(first.start) <= max_len) || first.end == to {
            true => 1 + u8::from(w >= lower),
            false => 0,
        }
    };
    // The k-quantile cuts, and the worst grade of their pieces.
    let quantiles = |k: usize| {
        // Each cut's key and duplicate run.
        let mut cuts: Vec<(Key, Range<usize>)> = Vec::new();
        for j in 1..k {
            let q = j as f64 * total / k as f64;
            // The run holding the crossing of `q`, or the next one
            // whose weight, counted to its middle, reaches `q`.
            let from = cuts.last().map_or(carrier_end, |c| c.1.end);
            let mut cut = run_at(mass.crossing(q).unwrap_or(n).max(from));
            while let Some(end) = cut.as_ref().filter(|c| mid(&c.1) < q).map(|c| c.1.end) {
                cut = run_at(end);
            }
            cuts.extend(cut);
        }
        let firsts = std::iter::once(&first).chain(cuts.iter().map(|c| &c.1));
        let ends = cuts.iter().map(|c| c.1.start).chain([n]);
        let fit = firsts.zip(ends).fold(2, |g, (f, to)| g.min(grade(f, to)));
        (cuts.into_iter().map(|c| c.0).collect::<Vec<_>>(), fit)
    };
    // The first count whose pieces fit all bounds, else the first that
    // fits the upper ones, else the first count. Past `total / lower`
    // pieces one is under the lower bound, so the counts beyond are
    // tried only while none fits the upper bounds.
    let mut upper = None;
    for &k in ks {
        if upper.is_some() && k as f64 * lower > total {
            continue;
        }
        match quantiles(k) {
            (cuts, 2) => return cuts,
            (cuts, 1) => upper = upper.or(Some(cuts)),
            _ => {}
        }
    }
    upper.unwrap_or_else(|| quantiles(ks[0]).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::small_cfg;
    use crate::{AccessStats, Splitters};
    use proptest::TestRng;
    use std::cell::Cell;

    /// The resident walk the rank machinery replaced: each distinct
    /// key of the window, the mass its residents carry (each resident
    /// its bucket's share, added one by one) and their count.
    fn walk_runs(shards: &[Arc<Shard>]) -> Vec<(Key, f64, f64)> {
        let mut runs: Vec<(Key, f64, f64)> = Vec::new();
        for s in shards {
            s.peek(|r| {
                let mut counts = vec![0; s.stats.snapshot().len()];
                r.iter()
                    .for_each(|(k, _)| counts[s.stats.bucket_of(k)] += 1);
                let (share, _) = s.stats.resident_shares(&counts);
                for (key, _) in r.iter() {
                    let w = share[s.stats.bucket_of(key)];
                    match runs.last_mut() {
                        Some(run) if run.0 == key => (run.1, run.2) = (run.1 + w, run.2 + 1.0),
                        _ => runs.push((key, w, 1.0)),
                    }
                }
            });
        }
        runs
    }

    /// The cuts of the resident walk, and the smallest gap, relative
    /// to what was compared, between a midpoint and its quantile or a
    /// piece and the capacity in any comparison it made.
    fn walk_cut_points(
        runs: &[(Key, f64, f64)],
        ks: RangeInclusive<usize>,
        cap: f64,
        by_len: bool,
    ) -> (Vec<Key>, f64) {
        let cold = !by_len && runs.iter().all(|r| r.1 == 0.0);
        let cap = if cold { f64::INFINITY } else { cap };
        let weight = |run: &(Key, f64, f64)| if by_len || cold { run.2 } else { run.1 };
        let total: f64 = runs.iter().map(weight).sum();
        let gap = Cell::new(f64::INFINITY);
        let near = |a: f64, b: f64| gap.set(gap.get().min((a - b).abs() / b.abs().max(1.0)));
        let quantiles = |k: usize| {
            let (mut cuts, mut before, mut piece, mut keys, mut fits) =
                (Vec::new(), 0.0, 0.0, 0, true);
            for run in runs {
                let w = weight(run);
                let q = (cuts.len() + 1) as f64 * total / k as f64;
                if before > 0.0 && cuts.len() + 1 < k {
                    near(before + w / 2.0, q);
                }
                if before > 0.0 && cuts.len() + 1 < k && before + w / 2.0 >= q {
                    near(piece, cap);
                    fits &= piece <= cap || keys == 1;
                    (piece, keys) = (0.0, 0);
                    cuts.push(run.0);
                }
                (before, piece, keys) = (before + w, piece + w, keys + 1);
            }
            near(piece, cap);
            (cuts, fits && (piece <= cap || keys == 1))
        };
        let cuts = (ks.clone().map(quantiles).find(|q| q.1))
            .unwrap_or_else(|| quantiles(*ks.start()))
            .0;
        (cuts, gap.get())
    }

    /// A successor's histogram, and for each bucket the running sums
    /// of the seeding walk at its two ends.
    type Seeded = (Vec<u64>, Vec<(f64, f64)>);

    /// What the resident walk seeded each successor of a re-cut of the
    /// whole index at `cuts` with.
    fn walk_seeds(s: &ShardedRma, cuts: &[Key]) -> Vec<Seeded> {
        let topo = s.topo();
        let mut weighted: Vec<(Key, f64)> = Vec::new();
        for sh in topo.shards.iter() {
            sh.peek(|r| {
                let mut counts = vec![0; sh.stats.snapshot().len()];
                r.iter()
                    .for_each(|(k, _)| counts[sh.stats.bucket_of(k)] += 1);
                let (share, _) = sh.stats.resident_shares(&counts);
                weighted.extend(r.iter().map(|(k, _)| (k, share[sh.stats.bucket_of(k)])));
            });
        }
        let splitters = Splitters::new(cuts.to_vec());
        let mut at = vec![0];
        at.extend(cuts.iter().map(|&c| weighted.partition_point(|e| e.0 < c)));
        at.push(weighted.len());
        (0..=cuts.len())
            .map(|i| {
                let (lo, hi) = splitters.range_of(i);
                let dst = AccessStats::new(lo, hi, topo.shards[0].stats.snapshot().len());
                let mut sums = vec![(f64::NAN, 0.0); dst.snapshot().len()];
                let (mut sum, mut seeded) = (0.0, 0u64);
                for &(k, w) in &weighted[at[i]..at[i + 1]] {
                    let b = dst.bucket_of(k);
                    if sums[b].0.is_nan() {
                        sums[b].0 = sum;
                    }
                    sum += w;
                    sums[b].1 = sum;
                    let due = (sum.round() as u64).saturating_sub(seeded);
                    if due > 0 {
                        (0..due).for_each(|_| dst.record(k));
                        seeded += due;
                    }
                }
                (dst.snapshot(), sums)
            })
            .collect()
    }

    /// True when `x` lies within a relative 1e-12 of a rounding half.
    fn at_a_half(x: f64) -> bool {
        ((x - x.floor()) - 0.5).abs() <= 1e-12 * x.abs().max(1.0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Cuts and successor histograms read through ranks are the
        /// resident walk's: random shards with duplicate runs across
        /// segments, keys that saturate into the edge buckets of the
        /// unbounded end shards, reads on a few keys (most buckets
        /// carry no mass) or none (a cold window), cuts by mass and by
        /// length. They may differ only where the walk's float sum and
        /// the rank product fall on the two sides of a rounding half.
        #[test]
        fn rank_cuts_and_seeds_match_the_resident_walk(seed in proptest::any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let n = 1 + rng.below(4) as i64;
            let s = ShardedRma::with_splitters(
                small_cfg(1 + rng.below(4) as usize),
                Splitters::new((1..n).map(|i| i * 1000).collect()),
            );
            let mut stored = Vec::new();
            for _ in 0..rng.below(600) {
                let k = match rng.below(16) {
                    0 => -(rng.below(1 << 40) as Key),
                    1 => (1 << 62) + rng.below(1 << 40) as Key,
                    _ => rng.below(n as u64 * 1000) as Key,
                };
                let reps = if rng.below(8) == 0 { 1 + rng.below(40) } else { 1 };
                for _ in 0..reps {
                    s.insert(k, k);
                    stored.push(k);
                }
            }
            s.reset_access_stats();
            if rng.below(4) > 0 && !stored.is_empty() {
                let hot: Vec<Key> = (0..1 + rng.below(6))
                    .map(|_| stored[rng.below(stored.len() as u64) as usize])
                    .collect();
                for _ in 0..rng.below(3000) {
                    let _ = s.get(hot[rng.below(hot.len() as u64) as usize]);
                }
            }
            let topo = s.topo();
            let shards = &topo.shards[..];
            let runs = walk_runs(shards);
            let mass: f64 = runs.iter().map(|r| r.1).sum();
            for _ in 0..6 {
                let by_len = rng.below(3) == 0;
                let k = 1 + rng.below(8) as usize;
                let ks = k..=k + rng.below(6) as usize;
                let scale = if by_len { stored.len() as f64 } else { mass };
                let cap = scale * (0.05 + rng.below(100) as f64 / 100.0);
                let got = cut_points(shards, &ks.clone().collect::<Vec<_>>(), 0.0..=cap, usize::MAX, by_len);
                let (want, gap) = walk_cut_points(&runs, ks.clone(), cap, by_len);
                proptest::prop_assert!(
                    got == want || gap <= 1e-12,
                    "{:?} cap {} by_len {}: {:?} != {:?}", ks, cap, by_len, got, want
                );
            }
            drop(topo);
            let mut cuts: Vec<Key> = (0..rng.below(5))
                .filter_map(|_| stored.get(rng.below(stored.len().max(1) as u64) as usize).copied())
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            if cuts.is_empty() || cuts == s.splitters().keys() {
                return;
            }
            let want = walk_seeds(&s, &cuts);
            let step = MaintenanceStep::Recut { lo: None, hi: None, cuts: cuts.clone() };
            proptest::prop_assert_eq!(s.drain_plan(&mut s.plan_of(vec![step])).executed(), 1);
            let topo = s.topo();
            for (shard, (units, sums)) in topo.shards.iter().zip(want) {
                let got = shard.stats.snapshot();
                for (b, (&g, &w)) in got.iter().zip(&units).enumerate() {
                    let (from, to) = sums[b];
                    proptest::prop_assert!(
                        g == w || at_a_half(from) || at_a_half(to),
                        "bucket {} of {:?}: {} != {}", b, cuts, g, w
                    );
                }
            }
        }
    }
}
