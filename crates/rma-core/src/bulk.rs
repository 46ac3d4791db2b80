//! Batch updates (§III "Bulk loading").
//!
//! The paper's **bottom-up** scheme works in three passes over a
//! sorted batch:
//!
//! 1. route every batch element to its target segment and compute the
//!    segments' *final* cardinalities;
//! 2. walk the touched segments and, for each overflow, find the
//!    smallest calibrator window whose upper threshold absorbs the new
//!    total — merging overlapping windows;
//! 3. left to right: segments not covered by a window merge their run
//!    in place; each window is rebalanced once, merging its runs with
//!    its existing elements.
//!
//! The **top-down** scheme of Durand et al. (VRIPHYS 2012) — the
//! paper's baseline — propagates the batch from the calibrator root:
//! when a child's (tighter) threshold would be violated, the *parent*
//! window is rebalanced with the batch merged in. Starting from the
//! top, where densities are tighter, causes rebalances the bottom-up
//! scheme avoids (the effect measured in Fig. 13b).
//!
//! Batches with deletions run an initial deletion pass with rebalances
//! disabled, then load the insertions.
//!
//! A batch that overflows an **empty** array has nothing to merge
//! with: it is laid straight into the array, in the even spread a
//! whole-array rebalance would produce, one write per element per
//! column and no buffer page or scratch touched. The array is sized by
//! the batch and the thresholds, not by doubling: the fewest segments
//! whose root window holds the batch under `τ_h`, rounded up to whole
//! logical pages (the unit a memfd column wires it in) or, below one
//! page, to a power of two — an array that the column keeps on the
//! heap, exactly that size, with no page wired for it (nothing below a
//! page rewires). Under the
//! update-oriented preset that is a density between 0.75 and, for a
//! batch just past `n` pages, `0.75·n/(n+1)` — 2^19 pairs take 3 pages
//! of 2 MiB a column where doubling took 4. A batch that overflows a
//! **non-empty** array still doubles it until both fit, then merges.
//! Everything that builds a store — `ShardedRma::load_bulk`, recovery,
//! a maintenance step filling a fresh shard — comes through here.

use crate::rma::{cap_targets, even_targets, window_layout, Rma};
use crate::thresholds::height_for;
use crate::{Key, Value};
use std::ops::Range;

impl Rma {
    /// Bottom-up bulk load of a batch sorted by key; its members of a
    /// key land at the front of the key's stack, in batch order.
    pub fn load_bulk(&mut self, batch: &[(Key, Value)]) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk batch must be sorted"
        );
        if batch.is_empty() {
            return;
        }
        // Pass 1: final cardinality per segment.
        let runs = self.route_batch(batch);
        let m = self.storage.seg_count();
        let new_cards: Vec<usize> = (0..m)
            .map(|s| self.storage.card(s) + runs[s].len())
            .collect();

        // Global overflow: fall back to a rebuild at grown capacity.
        let total: usize = new_cards.iter().sum();
        if total > self.root_max(m) {
            self.rebuild_with_batch(batch);
            return;
        }

        // Pass 2: windows for overflowing segments, merged when they
        // overlap (windows at the same level are aligned, so any two
        // overlapping windows are nested — keep the larger).
        let windows = self.plan_windows(&new_cards);

        // Pass 3: apply right-to-left so slot movements of one window
        // never disturb the unprocessed segments to its left.
        let mut covered = vec![false; m];
        for w in &windows {
            for s in w.clone() {
                covered[s] = true;
            }
        }
        for w in windows.iter().rev() {
            self.merge_window(w.clone(), batch, &runs);
        }
        for s in (0..m).rev() {
            if !covered[s] && !runs[s].is_empty() {
                self.merge_segment(s, &batch[runs[s].clone()]);
            }
        }
        self.len += batch.len();
    }

    /// Top-down bulk load (the DRF12 baseline).
    pub fn load_bulk_top_down(&mut self, batch: &[(Key, Value)]) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk batch must be sorted"
        );
        if batch.is_empty() {
            return;
        }
        let runs = self.route_batch(batch);
        let m = self.storage.seg_count();
        if self.len + batch.len() > self.root_max(m) {
            self.rebuild_with_batch(batch);
            return;
        }
        self.top_down_rec(0..m, self.height(), batch, &runs);
        self.len += batch.len();
    }

    /// Batch with both insertions and deletions: deletions first (no
    /// rebalances; each pops its key's front, missing keys ignored),
    /// then the insertion load — the state that `insert`ing them one
    /// by one in *reverse* leaves. Returns the number actually deleted.
    pub fn apply_batch(&mut self, inserts: &[(Key, Value)], deletes: &[Key]) -> usize {
        let deleted = self.delete_pass(deletes);
        self.load_bulk(inserts);
        deleted
    }

    fn top_down_rec(
        &mut self,
        segs: Range<usize>,
        level: usize,
        batch: &[(Key, Value)],
        runs: &[Range<usize>],
    ) {
        let m = segs.len();
        let b = self.cfg.segment_size;
        if m == 1 {
            let s = segs.start;
            if !runs[s].is_empty() {
                self.merge_segment(s, &batch[runs[s].clone()]);
            }
            return;
        }
        // Check each child; a violated child threshold rebalances the
        // *current* window with the batch merged in.
        let half = 1usize << (usize::BITS - 1 - (m - 1).leading_zeros());
        let height = self.height();
        let children = [segs.start..segs.start + half, segs.start + half..segs.end];
        for child in &children {
            let cap = child.len() * b;
            let new_total: usize = child
                .clone()
                .map(|s| self.storage.card(s) + runs[s].len())
                .sum();
            let child_level = level.saturating_sub(1).max(1);
            let max = self
                .cfg
                .thresholds
                .max_card(child_level, height, cap)
                .min(child.len() * if child.len() == 1 { b } else { b - 1 });
            if new_total > max {
                self.merge_window(segs, batch, runs);
                return;
            }
        }
        for child in children {
            if child.clone().any(|s| !runs[s].is_empty()) {
                self.top_down_rec(child, level - 1, batch, runs);
            }
        }
    }
}

// ----------------------------------------------------------------- //
// Internal passes shared by the bottom-up and top-down schemes.      //
// ----------------------------------------------------------------- //

impl Rma {
    /// Pass 1: the contiguous batch run destined for each segment; a
    /// key equal to a separator goes left, as a point op's does.
    pub(crate) fn route_batch(&self, batch: &[(Key, Value)]) -> Vec<Range<usize>> {
        let m = self.storage.seg_count();
        let mut runs = Vec::with_capacity(m);
        let mut cursor = 0usize;
        for s in 0..m {
            if s + 1 < m {
                let sep = self
                    .index
                    .separator(s + 1)
                    .expect("separator for non-zero segment");
                let end = cursor + batch[cursor..].partition_point(|p| p.0 <= sep);
                runs.push(cursor..end);
                cursor = end;
            } else {
                runs.push(cursor..batch.len());
            }
        }
        runs
    }

    /// Pass 2: the smallest window absorbing each overflowing segment,
    /// with overlapping windows merged.
    pub(crate) fn plan_windows(&self, new_cards: &[usize]) -> Vec<Range<usize>> {
        let b = self.cfg.segment_size;
        let height = self.height();
        let mut raw: Vec<Range<usize>> = Vec::new();
        for s in (0..new_cards.len()).filter(|&s| new_cards[s] > b) {
            let (_, w) = self
                .windows_above(s)
                .find(|(level, w)| {
                    let max = self.cfg.thresholds.max_card(*level, height, w.len() * b);
                    new_cards[w.clone()].iter().sum::<usize>() <= max.min(w.len() * (b - 1))
                })
                .expect("global pre-check guarantees a window");
            raw.push(w);
        }
        raw.sort_by_key(|r| (r.start, std::cmp::Reverse(r.end)));
        let mut merged: Vec<Range<usize>> = Vec::new();
        for r in raw {
            match merged.last_mut() {
                Some(last) if r.start < last.end => last.end = last.end.max(r.end),
                _ => merged.push(r),
            }
        }
        merged
    }

    /// Pass 3a: merges a batch run into one segment in place.
    pub(crate) fn merge_segment(&mut self, s: usize, run: &[(Key, Value)]) {
        let card = self.storage.card(s);
        assert!(
            card + run.len() <= self.cfg.segment_size,
            "segment overflow in merge"
        );
        let stored = self.storage.seg_elems(s);
        merge_into(stored, run, &mut self.scratch_keys, &mut self.scratch_vals);
        self.storage.cards[s] = self.scratch_keys.len() as u32;
        let dst = self.storage.seg_range(s);
        self.storage.keys.as_mut_slice()[dst.clone()].copy_from_slice(&self.scratch_keys);
        self.storage.vals.as_mut_slice()[dst].copy_from_slice(&self.scratch_vals);
        if s > 0 {
            self.index.update(s, self.storage.seg_min(s));
        }
    }

    /// Pass 3b: rebalances a window once, merging its batch runs with
    /// its existing elements (even spread).
    pub(crate) fn merge_window(
        &mut self,
        segs: Range<usize>,
        batch: &[(Key, Value)],
        runs: &[Range<usize>],
    ) {
        let b = self.cfg.segment_size;
        let run = &batch[runs[segs.start].start..runs[segs.end - 1].end];
        let total = self.storage.cards_in(segs.clone()) + run.len();
        let mut targets = even_targets(total, segs.len());
        cap_targets(&mut targets, b, total);
        self.stats.rebalances += 1;
        // Merge the window's elements with the run into scratch; the
        // commit writes scratch out (one copy of scratch, which itself
        // consumed one read of the array).
        let st = &self.storage;
        let stored = segs.clone().flat_map(|s| st.seg_elems(s));
        merge_into(stored, run, &mut self.scratch_keys, &mut self.scratch_vals);
        debug_assert_eq!(self.scratch_keys.len(), total);
        self.commit_window(segs, &targets);
    }

    /// The most an array of `segs` segments holds with its root window
    /// within `τ_h` and a free slot left in every segment.
    pub(crate) fn root_max(&self, segs: usize) -> usize {
        let b = self.cfg.segment_size;
        let height = height_for(segs);
        self.cfg
            .thresholds
            .max_card(height, height, segs * b)
            .min(segs * (b - 1))
    }

    /// The size of an array built from `needed` elements: the fewest
    /// segments whose root threshold holds them, rounded up to whole
    /// logical pages from one page on and to a power of two below
    /// that. 2^19 pairs in 2 MiB pages take 3 pages a column (density
    /// 0.667), where the next power of two takes 4 (0.5).
    fn build_segments(&self, needed: usize) -> usize {
        let mut hi = 1usize;
        while needed > self.root_max(hi) {
            hi *= 2;
        }
        // `root_max` grows with the segment count, so the fewest that
        // fit lie in (hi / 2, hi].
        let mut lo = hi / 2;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if needed <= self.root_max(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.page_granular(hi)
    }

    /// Fallback for batches that overflow the whole array: resize to a
    /// capacity that fits, then load normally — or, when there is
    /// nothing to merge with, build the array from the batch at the
    /// size the batch asks for.
    pub(crate) fn rebuild_with_batch(&mut self, batch: &[(Key, Value)]) {
        self.stats.grows += 1;
        if self.len == 0 {
            self.build_from_batch(self.build_segments(batch.len()), batch);
            return;
        }
        let needed = self.len + batch.len();
        let mut segs = self.storage.seg_count();
        while needed > self.root_max(segs) {
            segs *= 2;
        }
        self.resize_to(segs);
        self.load_bulk(batch);
    }

    /// True when a bulk load of `n` elements into this empty array
    /// builds it at a page or more: the size from which a memfd column
    /// holds its array on pages.
    pub fn builds_on_pages(&self, n: usize) -> bool {
        self.build_segments(n) >= self.segs_per_page()
    }

    /// Wires each column's first page ahead of a bulk load that
    /// [`builds_on_pages`](Self::builds_on_pages), as a buffer page the
    /// build then grows over: the page setup a build pays whatever its
    /// size, so a caller that loads under a lock can pay it before
    /// taking the lock. A load that stays below a page gives the page
    /// back. Nothing on heap columns.
    pub fn prewire(&mut self) {
        debug_assert!(self.is_empty(), "prewire readies an empty array");
        let page = self.storage.keys.elems_per_page();
        self.storage.keys.wire_buffer(page);
        self.storage.vals.wire_buffer(page);
    }

    /// Lays a sorted batch straight into an empty array of `segs`
    /// segments: the even spread a whole-array rebalance would leave,
    /// written once per element per column into the array's own pages.
    /// An empty array has nothing to read while it is rewritten, so it
    /// needs neither buffer pages nor scratch.
    fn build_from_batch(&mut self, segs: usize, batch: &[(Key, Value)]) {
        debug_assert_eq!(self.len, 0, "direct build would drop elements");
        let b = self.cfg.segment_size;
        let mut targets = even_targets(batch.len(), segs);
        cap_targets(&mut targets, b, batch.len());
        self.stats.elements_moved += batch.len() as u64;

        self.storage.keys.resize_in_place(segs * b);
        self.storage.vals.resize_in_place(segs * b);
        let keys = self.storage.keys.as_mut_slice();
        let vals = self.storage.vals.as_mut_slice();
        let mut rest = batch;
        for dst in window_layout(0, b, &targets) {
            let (run, tail) = rest.split_at(dst.len());
            for (slot, &(k, v)) in dst.zip(run) {
                keys[slot] = k;
                vals[slot] = v;
            }
            rest = tail;
        }
        self.len = batch.len();
        self.install_layout(&targets);
    }

    /// Gives back scratch capacity beyond one logical page of
    /// elements, so a whole-array merge does not leave a heap copy of
    /// the array behind; page-sized and smaller rebalances keep their
    /// buffer.
    pub(crate) fn trim_scratch(&mut self) {
        let keep = self.storage.keys.elems_per_page();
        for scratch in [&mut self.scratch_keys, &mut self.scratch_vals] {
            scratch.clear();
            scratch.shrink_to(keep);
        }
    }

    /// Deletion pass with rebalances disabled (§III, batch deletes).
    pub(crate) fn delete_pass(&mut self, deletes: &[Key]) -> usize {
        let mut removed = 0usize;
        for &k in deletes {
            if let Some((seg, pos)) = self.search(self.index.search_lower_bound(k), k) {
                self.take_at(seg, pos);
                removed += 1;
            }
        }
        removed
    }
}

/// The one two-pointer merge: the `stored` elements, in key order,
/// with a sorted batch `run`, into `out_keys` / `out_vals` (cleared
/// first). Among equal keys the batch goes first, in batch order: a
/// batch lands at the front of each key's stack.
fn merge_into(
    stored: impl Iterator<Item = (Key, Value)>,
    run: &[(Key, Value)],
    out_keys: &mut Vec<Key>,
    out_vals: &mut Vec<Value>,
) {
    out_keys.clear();
    out_vals.clear();
    let mut run = run.iter().copied().peekable();
    for (k, v) in stored {
        while let Some((rk, rv)) = run.next_if(|&(rk, _)| rk <= k) {
            out_keys.push(rk);
            out_vals.push(rv);
        }
        out_keys.push(k);
        out_vals.push(v);
    }
    for (rk, rv) in run {
        out_keys.push(rk);
        out_vals.push(rv);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{RewiringMode, RmaConfig};
    use crate::rma::{cap_targets, even_targets, Rma};
    use proptest::prelude::*;
    use rewiring::BackendKind;
    use std::collections::BTreeMap;

    fn cfg() -> RmaConfig {
        RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            adaptive: false,
            reserve_bytes: 1 << 26,
            ..Default::default()
        }
    }

    fn rewired_cfg() -> RmaConfig {
        RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Enabled { page_bytes: 4096 },
            adaptive: false,
            reserve_bytes: 1 << 26,
            ..Default::default()
        }
    }

    #[test]
    fn bulk_load_into_empty() {
        let mut r = Rma::new(cfg());
        let batch: Vec<(i64, i64)> = (0..1000).map(|i| (i * 2, i)).collect();
        r.load_bulk(&batch);
        r.check_invariants();
        assert_eq!(r.len(), 1000);
        let got: Vec<(i64, i64)> = r.iter().collect();
        assert_eq!(got, batch);
    }

    #[test]
    fn bulk_load_matches_individual_inserts() {
        let mut bulk = Rma::new(cfg());
        let mut single = Rma::new(cfg());
        // Pre-populate both identically.
        let base: Vec<(i64, i64)> = (0..2000).map(|i| (i * 3, i)).collect();
        bulk.load_bulk(&base);
        for &(k, v) in &base {
            single.insert(k, v);
        }
        // Batch of interleaved keys.
        let mut batch: Vec<(i64, i64)> = (0..500).map(|i| (i * 11 + 1, -i)).collect();
        batch.sort_unstable();
        bulk.load_bulk(&batch);
        for &(k, v) in &batch {
            single.insert(k, v);
        }
        bulk.check_invariants();
        let a: Vec<(i64, i64)> = bulk.iter().collect();
        let mut want: Vec<(i64, i64)> = base.iter().chain(batch.iter()).copied().collect();
        want.sort_unstable();
        let b_sorted: Vec<(i64, i64)> = single.iter().collect();
        // Key order must match exactly; value order among equal keys
        // may differ between the two code paths.
        assert_eq!(
            a.iter().map(|p| p.0).collect::<Vec<_>>(),
            want.iter().map(|p| p.0).collect::<Vec<_>>()
        );
        assert_eq!(a.len(), b_sorted.len());
    }

    #[test]
    fn top_down_produces_same_content() {
        let base: Vec<(i64, i64)> = (0..3000).map(|i| (i * 5, i)).collect();
        let batch: Vec<(i64, i64)> = (0..800).map(|i| (i * 17 + 2, -i)).collect();
        let mut bu = Rma::new(cfg());
        bu.load_bulk(&base);
        bu.load_bulk(&batch);
        let mut td = Rma::new(cfg());
        td.load_bulk(&base);
        td.load_bulk_top_down(&batch);
        td.check_invariants();
        assert_eq!(
            bu.iter().map(|p| p.0).collect::<Vec<_>>(),
            td.iter().map(|p| p.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repeated_batches_grow_structure() {
        let mut r = Rma::new(cfg());
        for round in 0..50i64 {
            let batch: Vec<(i64, i64)> = (0..200).map(|i| (round * 200 + i, round)).collect();
            r.load_bulk(&batch);
        }
        r.check_invariants();
        assert_eq!(r.len(), 10_000);
        assert!(r.stats().grows > 0);
    }

    #[test]
    fn bulk_load_rewired_path() {
        let mut r = Rma::new(rewired_cfg());
        for round in 0..20i64 {
            let mut batch: Vec<(i64, i64)> = (0..500)
                .map(|i| ((round * 500 + i) * 48271 % 1_000_000, i))
                .collect();
            batch.sort_unstable();
            r.load_bulk(&batch);
        }
        r.check_invariants();
        assert_eq!(r.len(), 10_000);
        let keys: Vec<i64> = r.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn batch_with_deletions_keeps_cardinality() {
        let mut r = Rma::new(cfg());
        let base: Vec<(i64, i64)> = (0..5000).map(|i| (i, i)).collect();
        r.load_bulk(&base);
        // Delete 1000 even keys, insert 1000 fresh keys.
        let deletes: Vec<i64> = (0..1000).map(|i| i * 2).collect();
        let inserts: Vec<(i64, i64)> = (0..1000).map(|i| (10_000 + i, i)).collect();
        let deleted = r.apply_batch(&inserts, &deletes);
        assert_eq!(deleted, 1000);
        r.check_invariants();
        assert_eq!(r.len(), 5000);
        assert_eq!(r.get(0), None);
        assert_eq!(r.get(1), Some(1));
        assert_eq!(r.get(10_500), Some(500));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut r = Rma::new(cfg());
        r.insert(1, 1);
        r.load_bulk(&[]);
        r.load_bulk_top_down(&[]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn batch_of_duplicates() {
        let mut r = Rma::new(cfg());
        let batch: Vec<(i64, i64)> = (0..500).map(|i| (42, i)).collect();
        r.load_bulk(&batch);
        r.check_invariants();
        assert_eq!(r.len(), 500);
        assert!(r.iter().all(|(k, _)| k == 42));
    }

    #[test]
    fn huge_batch_triggers_rebuild() {
        let mut r = Rma::new(cfg());
        r.insert(0, 0);
        let batch: Vec<(i64, i64)> = (1..20_000).map(|i| (i, i)).collect();
        r.load_bulk(&batch);
        r.check_invariants();
        assert_eq!(r.len(), 20_000);
    }

    /// `⌊0.75·cap⌋` for a capacity of `segs` segments: the largest
    /// batch an array of that size holds.
    fn root_max(segs: usize, b: usize) -> usize {
        (segs * b * 3 / 4).min(segs * (b - 1))
    }

    /// After every operation each column wires its array pages and no
    /// spare page (a heap array, below a page or on a heap column, only
    /// its slots).
    fn assert_footprint_bound(r: &Rma) {
        for col in [&r.storage.keys, &r.storage.vals] {
            let epp = col.elems_per_page();
            let want = if col.len() < epp || r.backend_kind() == BackendKind::Heap {
                col.len() * 8
            } else {
                col.array_pages() * epp * 8
            };
            assert_eq!(col.wired_bytes(), want, "{} array pages", col.array_pages());
            assert_eq!(col.spare_pages(), 0);
        }
    }

    fn sorted_pairs(r: &Rma) -> Vec<(i64, i64)> {
        let mut pairs: Vec<(i64, i64)> = r.iter().collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn direct_build_matches_inserts_and_oracle() {
        let mut sizes_checked = 0;
        for cfg in [cfg(), rewired_cfg()] {
            let b = cfg.segment_size;
            let mut sizes = vec![0, 1, b - 1, b, b + 1];
            // (96 and 352 segments are 3 and 11 of the rewired pages.)
            for segs in [2usize, 8, 64, 96, 352, 512] {
                let edge = root_max(segs, b);
                sizes.extend([edge - 1, edge, edge + 1]);
            }
            for &n in &sizes {
                // Distinct keys, runs of seven equal keys, one key.
                for spread in [3i64, 0, -1] {
                    let key = |i: i64| match spread {
                        3 => i * 3,
                        0 => i / 7,
                        _ => 42,
                    };
                    let batch: Vec<(i64, i64)> = (0..n as i64).map(|i| (key(i), i)).collect();
                    let mut bulk = Rma::new(cfg);
                    bulk.load_bulk(&batch);
                    bulk.check_invariants();
                    let mut single = Rma::new(cfg);
                    // Multiset oracle: values are unique, so pairs are.
                    let mut oracle: BTreeMap<(i64, i64), ()> = BTreeMap::new();
                    for &(k, v) in &batch {
                        single.insert(k, v);
                        oracle.insert((k, v), ());
                    }
                    let want: Vec<(i64, i64)> = oracle.keys().copied().collect();
                    assert_eq!(sorted_pairs(&bulk), want, "n {n} spread {spread}");
                    assert_eq!(sorted_pairs(&single), want, "n {n} spread {spread}");
                    // The batch order survives among equal keys.
                    assert_eq!(bulk.iter().collect::<Vec<_>>(), batch);

                    if n >= b {
                        // Built directly: one grow, nothing committed,
                        // no page wired beyond the array, and the even
                        // spread of a whole-array rebalance.
                        let st = bulk.stats();
                        assert_eq!((st.grows, st.rebalances), (1, 0), "n {n}");
                        assert_eq!((st.rewired_commits, st.copied_commits), (0, 0), "n {n}");
                        assert_eq!(st.elements_moved, n as u64);
                        assert_eq!(bulk.storage.keys.spare_pages(), 0);
                        assert_eq!(bulk.storage.vals.spare_pages(), 0);
                        assert!(bulk.scratch_keys.capacity() == 0);
                        // Sized by the batch: the fewest whole pages
                        // that hold it under τ_h, a power of two below
                        // a page.
                        let segs = bulk.num_segments();
                        let spp = bulk.segs_per_page();
                        let smaller = if segs > spp { segs - spp } else { segs / 2 };
                        assert!(n <= root_max(segs, b) && n > root_max(smaller, b), "n {n}");
                        assert!(segs.is_multiple_of(spp) || segs.is_power_of_two(), "n {n}");
                        let mut want_cards = even_targets(n, segs);
                        cap_targets(&mut want_cards, b, n);
                        let cards: Vec<usize> = (0..segs).map(|s| bulk.storage.card(s)).collect();
                        assert_eq!(cards, want_cards, "n {n}");
                        sizes_checked += 1;
                    }
                    assert_footprint_bound(&bulk);

                    // The built array is an ordinary one afterwards.
                    let mut live = oracle;
                    let mut rng = TestRng::new(n as u64 ^ (spread as u64) << 32);
                    let key_space = 3 * n as u64 + 16;
                    for step in 0..10_000i64 {
                        let k = rng.below(key_space) as i64;
                        let stored = live.range((k, i64::MIN)..).next().map(|(&(k, _), _)| k);
                        match stored {
                            Some(k) if rng.below(3) == 0 => {
                                let v = bulk.remove(k).expect("stored key");
                                assert!(
                                    live.remove(&(k, v)).is_some(),
                                    "removed a pair never stored"
                                );
                            }
                            _ => {
                                bulk.insert(k, -step - 1);
                                live.insert((k, -step - 1), ());
                            }
                        }
                        assert_footprint_bound(&bulk);
                    }
                    bulk.check_invariants();
                    let live: Vec<(i64, i64)> = live.keys().copied().collect();
                    assert_eq!(sorted_pairs(&bulk), live, "n {n} spread {spread}");
                }
            }
        }
        assert!(sizes_checked >= 2 * 3 * 20, "{sizes_checked} direct builds");
    }

    #[test]
    fn direct_build_reuses_an_emptied_array() {
        for cfg in [cfg(), rewired_cfg()] {
            let mut r = Rma::new(cfg);
            let base: Vec<(i64, i64)> = (0..3000).map(|i| (i, i)).collect();
            r.load_bulk(&base);
            for k in 0..3000 {
                assert_eq!(r.remove(k), Some(k));
            }
            assert!(r.is_empty());
            let batch: Vec<(i64, i64)> = (0..50_000).map(|i| (i * 2, -i)).collect();
            r.load_bulk_top_down(&batch);
            r.check_invariants();
            assert_footprint_bound(&r);
            assert_eq!(r.iter().collect::<Vec<_>>(), batch);
        }
    }

    /// A prewired empty array: a build of a page or more grows over the
    /// wired first page, one below a page gives it back and is an
    /// exactly sized heap array.
    #[test]
    fn prewire_readies_a_build_of_a_page() {
        // Half a page (16 segments of 16) holds 192 under τ_h.
        let r = Rma::new(rewired_cfg());
        assert!(!r.builds_on_pages(192) && r.builds_on_pages(193));
        for n in [100usize, 193, 1000] {
            let mut r = Rma::new(rewired_cfg());
            let on_pages = r.builds_on_pages(n) && r.backend_kind() == BackendKind::Mmap;
            r.prewire();
            let batch: Vec<(i64, i64)> = (0..n as i64).map(|i| (i, i)).collect();
            r.load_bulk(&batch);
            r.check_invariants();
            let col = &r.storage.keys;
            let page_bytes = col.elems_per_page() * 8;
            let want = if on_pages {
                col.array_pages() * page_bytes
            } else {
                r.capacity() * 8
            };
            assert_eq!((col.wired_bytes(), col.spare_pages()), (want, 0), "n {n}");
        }
    }

    #[test]
    fn whole_array_merge_gives_its_scratch_back() {
        let mut r = Rma::new(rewired_cfg());
        r.insert(0, 0);
        let batch: Vec<(i64, i64)> = (1..200_000).map(|i| (i, i)).collect();
        r.load_bulk(&batch);
        r.check_invariants();
        assert_eq!(r.stats().rebalances, 1, "merged, not built");
        let page = r.storage.keys.elems_per_page();
        assert!(r.scratch_keys.capacity() <= page && r.scratch_vals.capacity() <= page);
        assert_footprint_bound(&r);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// 4 KiB pages hold 32 of these segments, so page-sized
        /// rebalances come by the thousand, each a copy, and grows and
        /// shrinks by the dozen, each from a page up a rewire; the bound
        /// holds after every one.
        #[test]
        fn footprint_stays_bounded_under_churn(seed in any::<u64>()) {
            let mut r = Rma::new(RmaConfig {
                reserve_bytes: 1 << 23,
                ..rewired_cfg()
            });
            let mut rng = TestRng::new(seed);
            let mut len = 0usize;
            let mut page_resizes = 0;
            for phase in 0..8 {
                // Odd phases drain, even phases fill; both hammer a
                // moving band so windows of every size rebalance.
                let draining = phase % 2 == 1;
                let band = rng.below(1 << 20) as i64;
                for _ in 0..12_000 {
                    let k = band + rng.below(1 << 12) as i64;
                    let resizes = r.stats().grows + r.stats().shrinks;
                    if draining && rng.below(8) != 0 {
                        len -= usize::from(r.remove_successor(k).is_some());
                    } else {
                        r.insert(k, k);
                        len += 1;
                    }
                    if r.stats().grows + r.stats().shrinks > resizes
                        && r.num_segments() >= r.segs_per_page()
                    {
                        page_resizes += 1;
                    }
                    assert_footprint_bound(&r);
                }
                r.check_invariants();
                prop_assert_eq!(r.len(), len);
            }
            // Only the resizes that reached a page rewired — on memfd
            // columns; heap columns copy every one.
            let st = r.stats();
            if r.backend_kind() == BackendKind::Mmap {
                prop_assert!(page_resizes > 5, "{:?}", st);
                prop_assert_eq!(st.rewired_commits, page_resizes, "{:?}", st);
            } else {
                prop_assert_eq!(st.rewired_commits, 0, "{:?}", st);
            }
            prop_assert!(st.grows > 5 && st.shrinks > 0, "{:?}", st);
        }

        /// 4 KiB pages hold 8 of these segments. An array built at 3,
        /// 5, 7 or 11 pages has a ragged last window on every level
        /// from a page up; it is then filled until it grows, drained
        /// until it shrinks and filled again, beside small bulk loads,
        /// and stays a whole number of pages (3 → 6, 3 → 2) and equal
        /// to a sorted multimap throughout.
        #[test]
        fn arrays_of_odd_page_counts_survive_churn(seed in any::<u64>()) {
            for pages in [3usize, 5, 7, 11] {
                let mut r = Rma::new(RmaConfig {
                    segment_size: 64,
                    adaptive: seed & 1 == 0,
                    reserve_bytes: 1 << 22,
                    ..rewired_cfg()
                });
                let (b, spp) = (64, r.segs_per_page());
                prop_assert_eq!(spp, 8);
                let mut rng = TestRng::new(seed ^ pages as u64);
                let mut oracle: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
                let mut next_val = 0i64;
                let mut fresh = |k: i64, oracle: &mut BTreeMap<i64, Vec<i64>>| {
                    next_val += 1;
                    oracle.entry(k).or_default().push(next_val);
                    (k, next_val)
                };

                let n = root_max(pages * spp, b) - rng.below(b as u64) as usize;
                let mut batch: Vec<(i64, i64)> = (0..n)
                    .map(|_| fresh(rng.below(1 << 16) as i64, &mut oracle))
                    .collect();
                batch.sort_by_key(|p| p.0);
                r.load_bulk(&batch);
                r.check_invariants();
                prop_assert_eq!(r.num_segments(), pages * spp);

                // Fill, drain, fill: each phase ends at its resize.
                let mut page_resizes = 0;
                for (phase, resizes) in [(0, 1), (1, 2), (2, 2)] {
                    let draining = phase == 1;
                    let before = r.stats().grows + r.stats().shrinks;
                    // The first fill appends, which drives rebalances
                    // up through the ragged windows on the right edge.
                    let band = if phase == 0 { 1 << 16 } else { rng.below(1 << 16) as i64 };
                    let mut ops = 0;
                    while r.stats().grows + r.stats().shrinks < before + resizes {
                        ops += 1;
                        prop_assert!(ops < 200_000, "phase {} never resized", phase);
                        let segs = r.num_segments();
                        let k = if rng.below(4) == 0 {
                            rng.below(1 << 16) as i64
                        } else {
                            band + rng.below(1 << 10) as i64
                        };
                        let stored = oracle.range(k..).next().map(|(&k, _)| k);
                        match (rng.below(256), stored) {
                            (0, _) => {
                                let mut batch: Vec<(i64, i64)> = (0..rng.below(96))
                                    .map(|_| fresh(k + rng.below(512) as i64, &mut oracle))
                                    .collect();
                                batch.sort_by_key(|p| p.0);
                                r.load_bulk(&batch);
                            }
                            (die, Some(k)) if draining == (die < 224) => {
                                let v = r.remove(k).expect("stored key");
                                let vals = oracle.get_mut(&k).expect("stored key");
                                let at = vals.iter().position(|&x| x == v);
                                vals.swap_remove(at.expect("a value stored under the key"));
                                if vals.is_empty() {
                                    oracle.remove(&k);
                                }
                                // `Double` from a whole number of pages.
                                let half = segs / 2;
                                let shrunk = if half > spp { half.next_multiple_of(spp) } else { half };
                                prop_assert!([segs, shrunk].contains(&r.num_segments()));
                            }
                            _ => {
                                let (k, v) = fresh(k, &mut oracle);
                                r.insert(k, v);
                                prop_assert!([segs, 2 * segs].contains(&r.num_segments()));
                            }
                        }
                        if r.num_segments() != segs {
                            let segs = r.num_segments();
                            prop_assert!(
                                segs.is_multiple_of(spp) || segs.is_power_of_two(),
                                "{} segments", segs
                            );
                            page_resizes += u64::from(segs >= spp);
                            r.check_invariants();
                        }
                    }
                    r.check_invariants();
                    let mut want: Vec<(i64, i64)> = oracle
                        .iter()
                        .flat_map(|(&k, vals)| vals.iter().map(move |&v| (k, v)))
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(sorted_pairs(&r), want);
                }
                let st = r.stats();
                prop_assert!(st.grows >= 3 && st.shrinks >= 2, "{:?}", st);
                // Only the resizes that reached a page rewired — on memfd
                // columns; heap columns copy every one.
                if r.backend_kind() == BackendKind::Mmap {
                    prop_assert_eq!(st.rewired_commits, page_resizes, "{:?}", st);
                } else {
                    prop_assert_eq!(st.rewired_commits, 0, "{:?}", st);
                }
            }
        }
    }
}
