//! The Rewired Memory Array: public operations, calibrator-tree
//! window search, rebalancing and resizing.

use crate::adaptive::{adaptive_targets, compute_marked_intervals, MarkedInterval};
use crate::config::RmaConfig;
use crate::detector::{self, Detector};
use crate::index::StaticIndex;
use crate::stats::RmaStats;
use crate::storage::Storage;
use crate::thresholds::{height_for, windows_above};
use crate::{Key, Value};
use std::ops::Range;

/// Keys [`Rma::get_batch`] stages together: enough lookups in flight
/// to fill the core's miss buffers, few enough that the first key's
/// lines are still cached when its turn to be searched comes.
const LOOKUP_GROUP: usize = 16;

/// Maximum separator keys per static-index node (the paper's
/// micro-benchmarked optimum).
const INDEX_FANOUT: usize = 64;

/// A sorted key/value container over a sparse array with fixed-size
/// clustered segments, a static index, rewired resizes and
/// adaptive rebalancing. See the crate docs for the feature overview.
///
/// # Duplicate keys
///
/// Keys may repeat. A key's members form a stack:
///
/// - [`insert`](Self::insert) pushes onto its front;
/// - [`get`](Self::get), [`first_ge`](Self::first_ge) and scans see
///   the front first;
/// - [`remove`](Self::remove) and a batch delete pop the front;
/// - one batch's members of a key ([`load_bulk`](Self::load_bulk),
///   [`apply_batch`](Self::apply_batch)) land at the front, in batch
///   order.
///
/// One routing rule gives it all: every op goes to the key's lower
/// bound ([`StaticIndex::search_lower_bound`], then in the segment).
pub struct Rma {
    pub(crate) cfg: RmaConfig,
    pub(crate) storage: Storage,
    pub(crate) index: StaticIndex,
    pub(crate) detector: Option<Detector>,
    pub(crate) len: usize,
    pub(crate) stats: RmaStats,
    /// Reusable auxiliary buffers for copy-path rebalances.
    pub(crate) scratch_keys: Vec<i64>,
    pub(crate) scratch_vals: Vec<i64>,
}

impl Rma {
    /// Creates an empty RMA.
    pub fn new(cfg: RmaConfig) -> Self {
        cfg.validate();
        let storage = Storage::new(&cfg);
        let index = StaticIndex::build(&[Key::MIN], INDEX_FANOUT);
        let detector = cfg.adaptive.then(|| Detector::new(1));
        Rma {
            cfg,
            storage,
            index,
            detector,
            len: 0,
            stats: RmaStats::default(),
            scratch_keys: Vec::new(),
            scratch_vals: Vec::new(),
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot capacity of the underlying sparse array.
    pub fn capacity(&self) -> usize {
        self.storage.capacity()
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.storage.seg_count()
    }

    /// The configuration this RMA was built with.
    pub fn config(&self) -> &RmaConfig {
        &self.cfg
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> &RmaStats {
        &self.stats
    }

    /// Whether storage ended up on the mmap backend; `Heap` copies.
    pub fn backend_kind(&self) -> rewiring::BackendKind {
        self.storage.backend_kind()
    }

    /// Resident bytes: columns + cards + index + detector. The
    /// detector's share is exact: one 64-byte line per segment of its
    /// capacity ([`Detector::memory_footprint`]).
    pub fn memory_footprint(&self) -> usize {
        let det = self.detector.as_ref().map_or(0, Detector::memory_footprint);
        self.storage.memory_footprint() + self.index.memory_footprint() + det
    }

    /// Calibrator tree height for the current segment count.
    pub(crate) fn height(&self) -> usize {
        height_for(self.storage.seg_count())
    }

    /// Segments in one logical page of a column: from this count up an
    /// array is sized in whole pages, the unit a memfd column wires it
    /// in anyway.
    pub(crate) fn segs_per_page(&self) -> usize {
        (self.storage.keys.elems_per_page() / self.cfg.segment_size).max(1)
    }

    /// `segs` rounded up to a count a bulk build and `Double` give an
    /// array: a power of two below one logical page, whole pages from
    /// there.
    pub(crate) fn page_granular(&self, segs: usize) -> usize {
        let spp = self.segs_per_page();
        if segs < spp {
            segs.next_power_of_two()
        } else {
            segs.next_multiple_of(spp)
        }
    }

    // ------------------------------------------------------ lookup --
    //
    // Every accessor below takes `&self` and reads only through safe
    // slices: concurrent callers may share an RMA freely as long as no
    // `&mut self` method runs at the same time. The sharded front-end
    // relies on exactly this contract for its pin-then-check read
    // path — a reader pins the shard, finds no writer inside and runs
    // these methods lock-free while writers wait for the pin to drain,
    // so nothing here may cache state or mutate through interior
    // mutability.
    //
    // A point lookup is three stages, each ending in the prefetch of
    // what the next one reads: *locate* (index search → the segment's
    // key run), *search* (lower bound in the run → the one value
    // line), *fetch*. `get` runs them back to back for one key;
    // `get_batch` runs each stage across a group of keys, so the
    // misses of a group are in flight together.

    /// Stage 1: the segment `k` routes to, with its key run on the
    /// way. The value column is a second page, so its translation miss
    /// is started here too rather than after the search: a lookup
    /// running `alone` has nothing else to overlap the value miss with
    /// and asks for the whole value run; inside a group the other
    /// keys' misses fill that time, so one line (enough to walk the
    /// page table: a segment of the default size lies within one page)
    /// keeps the group's footprint inside the L1.
    #[inline]
    fn locate(&self, k: Key, alone: bool) -> usize {
        let seg = self.index.search_lower_bound(k);
        self.storage.prefetch_keys(seg);
        if alone {
            self.storage.prefetch_vals(seg);
        } else {
            self.storage.prefetch_val(seg, self.storage.card(seg) / 2);
        }
        seg
    }

    /// The run-prefetch of the paths that go on to read or shift both
    /// columns of `seg`: updates and the lower-bound locate.
    #[inline]
    fn prefetch_run(&self, seg: usize) {
        self.storage.prefetch_keys(seg);
        self.storage.prefetch_vals(seg);
    }

    /// The prefetch of an update to `seg`: its Detector line first,
    /// then the run it shifts, so the line's miss overlaps the run's
    /// instead of following them.
    #[inline]
    fn prefetch_update(&self, seg: usize) {
        if let Some(det) = &self.detector {
            det.prefetch(seg);
        }
        self.prefetch_run(seg);
    }

    /// Stage 2: the position of the front member of `k` — its segment
    /// and its index there — if `k` is stored, its value line
    /// prefetched. `seg` is where `k` routes. When every element there
    /// is below `k`, a stored `k` is the next non-empty segment's
    /// minimum and the next separator is `k`: a miss is decided
    /// without reading another segment.
    #[inline]
    pub(crate) fn search(&self, seg: usize, k: Key) -> Option<(usize, usize)> {
        let pos = self.storage.seg_lower_bound(seg, k);
        let (seg, pos) = if pos < self.storage.card(seg) {
            (seg, pos)
        } else if self.index.separator(seg + 1) == Some(k) {
            (self.next_nonempty(seg + 1)?, 0)
        } else {
            return None;
        };
        (self.storage.seg_keys(seg)[pos] == k).then(|| {
            self.storage.prefetch_val(seg, pos);
            (seg, pos)
        })
    }

    /// Stage 3: the value at a position `search` returned.
    #[inline]
    fn fetch(&self, (seg, pos): (usize, usize)) -> Value {
        self.storage.seg_vals(seg)[pos]
    }

    /// The first non-empty segment from `seg` on.
    fn next_nonempty(&self, seg: usize) -> Option<usize> {
        (seg..self.storage.seg_count()).find(|&s| self.storage.card(s) > 0)
    }

    /// The value of the front member of `k`'s stack, if `k` is stored.
    pub fn get(&self, k: Key) -> Option<Value> {
        let seg = self.locate(k, true);
        self.search(seg, k).map(|at| self.fetch(at))
    }

    /// `out[i] = self.get(keys[i])` for every `i` — the same member of
    /// a key's stack — with the lookups of each group of 16 keys
    /// (`LOOKUP_GROUP`) staged so their cache misses overlap.
    /// Overwrites all of `out`.
    ///
    /// # Panics
    ///
    /// If `keys` and `out` differ in length.
    pub fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        for (keys, out) in keys.chunks(LOOKUP_GROUP).zip(out.chunks_mut(LOOKUP_GROUP)) {
            let mut segs = [0usize; LOOKUP_GROUP];
            let mut found = [None; LOOKUP_GROUP];
            let alone = keys.len() == 1;
            for (seg, &k) in segs.iter_mut().zip(keys) {
                *seg = self.locate(k, alone);
            }
            for ((at, &seg), &k) in found.iter_mut().zip(&segs).zip(keys) {
                *at = self.search(seg, k);
            }
            for (o, at) in out.iter_mut().zip(found) {
                *o = at.map(|at| self.fetch(at));
            }
        }
    }

    /// First element with key `>= k` in sorted order: of a stored `k`,
    /// the front member of its stack.
    pub fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        let (seg, pos) = self.locate_lower_bound(k, Self::prefetch_run)?;
        Some((
            self.storage.seg_keys(seg)[pos],
            self.storage.seg_vals(seg)[pos],
        ))
    }

    /// The number of elements with key `< k`: the cardinalities of the
    /// segments before the one `k` routes to, plus `k`'s lower bound
    /// in that segment's run. Reads no element outside that run, so
    /// where a calibrator needs only counts it costs one pass over
    /// `cards` and one binary search.
    pub fn rank(&self, k: Key) -> usize {
        if self.len == 0 {
            return 0;
        }
        let seg = self.index.search_lower_bound(k);
        self.storage.cards_in(0..seg) + self.storage.seg_lower_bound(seg, k)
    }

    /// [`rank`](Self::rank) for keys asked in ascending order: each
    /// call resumes the pass over `cards` where the previous one
    /// stopped, so a run of calls costs one pass in all.
    pub fn ascending_ranks(&self) -> impl FnMut(Key) -> usize + '_ {
        let (mut seg, mut before, mut last) = (0, 0, Key::MIN);
        move |k| {
            assert!(k >= last, "ascending_ranks takes keys in ascending order");
            last = k;
            if self.len == 0 {
                return 0;
            }
            let to = self.index.search_lower_bound(k);
            before += self.storage.cards_in(seg..to);
            seg = to;
            before + self.storage.seg_lower_bound(to, k)
        }
    }

    /// The key of the `i`-th element in sorted order (0-based), or
    /// `None` when `i >= len`: one pass over `cards` to the segment
    /// that holds it.
    pub fn select(&self, mut i: usize) -> Option<Key> {
        if i >= self.len {
            return None;
        }
        let seg = (self.storage.cards.iter())
            .position(|&c| match i.checked_sub(c as usize) {
                Some(rest) => {
                    i = rest;
                    false
                }
                None => true,
            })
            .expect("i < len lies in some segment");
        Some(self.storage.seg_keys(seg)[i])
    }

    /// The position of the first element `>= k`: its segment and its
    /// index in the segment's run. `prefetch` runs on the routed
    /// segment before its run is searched.
    fn locate_lower_bound(&self, k: Key, prefetch: fn(&Self, usize)) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let seg = self.index.search_lower_bound(k);
        prefetch(self, seg);
        let pos = self.storage.seg_lower_bound(seg, k);
        if pos < self.storage.card(seg) {
            return Some((seg, pos));
        }
        self.next_nonempty(seg + 1).map(|s| (s, 0))
    }

    // -------------------------------------------------------- scan --

    /// The one segment-run walk under every range read: each segment's
    /// key and value runs, in order, from the first element `>= start`
    /// on, cut so that together they hold at most `count` elements.
    /// Thanks to clustering, every run is a dense slice: the readers
    /// loop over it with no per-slot gap test.
    fn runs(&self, start: Key, count: usize) -> impl Iterator<Item = (&[Key], &[Value])> {
        let m = self.storage.seg_count();
        let (first, mut skip) = self
            .locate_lower_bound(start, Self::prefetch_run)
            .unwrap_or((m, 0));
        let mut left = count;
        (first..m).map_while(move |seg| {
            if left == 0 {
                return None;
            }
            let run = self.storage.seg_range(seg);
            let at = run.start + std::mem::take(&mut skip);
            let end = run.end.min(at.saturating_add(left));
            left -= end - at;
            Some((
                &self.storage.keys.as_slice()[at..end],
                &self.storage.vals.as_slice()[at..end],
            ))
        })
    }

    /// Visits up to `count` elements in key order starting from the
    /// first element `>= start`; returns the number visited.
    pub fn scan<F: FnMut(Key, Value)>(&self, start: Key, count: usize, mut f: F) -> usize {
        let mut visited = 0usize;
        for (keys, vals) in self.runs(start, count) {
            for (&k, &v) in keys.iter().zip(vals) {
                f(k, v);
            }
            visited += keys.len();
        }
        visited
    }

    /// Appends up to `count` elements in key order, starting from the
    /// first element `>= start`, to `out`; returns the number
    /// appended. [`scan`](Self::scan) for a caller that wants the
    /// entries themselves: each segment's key and value runs go in
    /// zipped, as slices, with one capacity check a segment and no
    /// call per element. What `out` already holds stays below them.
    pub fn scan_into(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let base = out.len();
        for (keys, vals) in self.runs(start, count) {
            out.extend(keys.iter().copied().zip(vals.iter().copied()));
        }
        out.len() - base
    }

    /// Sums up to `count` values starting at the first key `>= start`
    /// — the scan kernel of Fig. 1, 10c and 12b.
    pub fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        let mut visited = 0usize;
        let mut sum = 0i64;
        for (_, vals) in self.runs(start, count) {
            for &v in vals {
                sum = sum.wrapping_add(v);
            }
            visited += vals.len();
        }
        (visited, sum)
    }

    /// Iterates over all elements in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.runs(Key::MIN, usize::MAX)
            .flat_map(|(keys, vals)| keys.iter().copied().zip(vals.iter().copied()))
    }

    /// Appends every element in key order to `out`, reserving once up
    /// front — the allocation-friendly drain used by shard
    /// maintenance when it rebuilds topologies.
    pub fn collect_into(&self, out: &mut Vec<(Key, Value)>) {
        out.reserve(self.len);
        self.scan_into(Key::MIN, usize::MAX, out);
    }

    // ------------------------------------------------------ insert --

    /// Pushes `(k, v)` onto the front of `k`'s stack (duplicates are
    /// kept). Amortised `O(log²N / B)` slot moves per insertion.
    pub fn insert(&mut self, k: Key, v: Value) {
        let mut seg = self.index.search_lower_bound(k);
        self.prefetch_update(seg);
        if self.storage.card(seg) == self.cfg.segment_size {
            // τ₁ = 1: the segment filled completely; rebalance now.
            self.rebalance_for_insert(seg);
            seg = self.index.search_lower_bound(k);
            debug_assert!(self.storage.card(seg) < self.cfg.segment_size);
        }
        let pos = self.storage.insert_into_segment(seg, k, v);
        if pos == 0 {
            self.index.update(seg, k);
        }
        if self.detector.is_some() {
            let (pred, succ) = self.neighbours(seg, pos);
            if let Some(det) = &mut self.detector {
                det.on_insert(seg, k, pred, succ);
            }
        }
        self.len += 1;
    }

    /// Array neighbours of the element at `(seg, pos)`, looking at
    /// most two segments away (Detector metadata tolerates misses).
    fn neighbours(&self, seg: usize, pos: usize) -> (Option<Key>, Option<Key>) {
        let keys = self.storage.seg_keys(seg);
        let pred = if pos > 0 {
            Some(keys[pos - 1])
        } else {
            (seg.saturating_sub(2)..seg)
                .rev()
                .find(|&s| self.storage.card(s) > 0)
                .map(|s| *self.storage.seg_keys(s).last().expect("non-empty"))
        };
        let succ = if pos + 1 < keys.len() {
            Some(keys[pos + 1])
        } else {
            (seg + 1..(seg + 3).min(self.storage.seg_count()))
                .find(|&s| self.storage.card(s) > 0)
                .map(|s| self.storage.seg_keys(s)[0])
        };
        (pred, succ)
    }

    // ------------------------------------------------------ delete --

    /// Pops the front member of `k`'s stack — the element `get(k)`
    /// answers — returning its value.
    pub fn remove(&mut self, k: Key) -> Option<Value> {
        if self.len == 0 {
            return None;
        }
        let seg = self.index.search_lower_bound(k);
        self.prefetch_update(seg);
        let (seg, pos) = self.search(seg, k)?;
        Some(self.remove_at(seg, pos).1)
    }

    /// Removes the first element with key `>= k`, or the maximum when
    /// every key is smaller (the mixed-workload delete operator) —
    /// either way the front member of its key's stack. Returns `None`
    /// only on an empty array.
    pub fn remove_successor(&mut self, k: Key) -> Option<(Key, Value)> {
        let (seg, pos) = (self.locate_lower_bound(k, Self::prefetch_update))
            .or_else(|| self.locate_lower_bound(self.last_key()?, Self::prefetch_update))?;
        Some(self.remove_at(seg, pos))
    }

    fn remove_at(&mut self, seg: usize, pos: usize) -> (Key, Value) {
        let out = self.take_at(seg, pos);
        if let Some(det) = &mut self.detector {
            det.on_delete(seg);
        }
        self.after_delete(seg);
        out
    }

    /// Takes the element at `(seg, pos)` out, keeping the separator the
    /// segment's minimum; no rebalance (the batch delete pass's step).
    pub(crate) fn take_at(&mut self, seg: usize, pos: usize) -> (Key, Value) {
        let out = self.storage.remove_from_segment(seg, pos);
        if pos == 0 && self.storage.card(seg) > 0 {
            let new_min = self.storage.seg_min(seg);
            self.index.update(seg, new_min);
        }
        self.len -= 1;
        out
    }

    // ------------------------------------ calibrator-tree triggers --

    /// The calibrator windows above `seg` over this array's segments
    /// ([`windows_above`]). Each caller `find`s the first window its
    /// own threshold accepts.
    pub(crate) fn windows_above(&self, seg: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
        windows_above(seg, self.storage.seg_count())
    }

    /// Finds and rebalances the smallest enclosing window whose upper
    /// density threshold tolerates the overflowing segment, growing
    /// the array if even the root violates it.
    fn rebalance_for_insert(&mut self, seg: usize) {
        let height = self.height();
        let b = self.cfg.segment_size;
        // Hammer-escalation rule: when the Detector says this segment
        // is being hammered, a rebalance is only worthwhile if the
        // window has enough slack to leave real gaps at the hot spot —
        // otherwise the very next insertions re-trigger it. Demanding
        // half a segment of headroom makes hammered triggers escalate
        // to windows that amortise (the effect adaptive rebalancing is
        // for, §IV).
        let hammered = self
            .detector
            .as_ref()
            .is_some_and(|d| d.segment(seg).sc.unsigned_abs() >= detector::THETA_SC);
        let headroom = if hammered { b / 2 } else { 0 };
        let window = self.windows_above(seg).find(|(level, w)| {
            let cards = self.storage.cards_in(w.clone());
            // Progress guard on top of the density test: the window
            // must be able to leave every segment with a free slot.
            cards <= self.cfg.thresholds.max_card(*level, height, w.len() * b)
                && cards + headroom <= w.len() * (b - 1)
        });
        match window {
            Some((_, w)) => self.rebalance_window(w),
            None => self.resize_grow(),
        }
    }

    /// After a deletion from `seg`: rebalance the smallest window
    /// satisfying its lower threshold, shrink when even the root
    /// cannot, and enforce the scan-oriented 50% fill rule.
    fn after_delete(&mut self, seg: usize) {
        let m = self.storage.seg_count();
        // Scan-oriented extra rule: fill factor below 50% forces a
        // resize regardless of the per-window thresholds.
        if self.cfg.thresholds.policy == crate::thresholds::ResizePolicy::Proportional {
            if m > 1 && self.len * 2 < self.capacity() {
                self.resize_shrink();
            }
            return;
        }
        let height = self.height();
        let b = self.cfg.segment_size;
        let min_seg = self.cfg.thresholds.min_card(1, height, b);
        if self.storage.card(seg) >= min_seg {
            return;
        }
        let window = self.windows_above(seg).find(|(level, w)| {
            self.storage.cards_in(w.clone())
                >= self.cfg.thresholds.min_card(*level, height, w.len() * b)
        });
        match window {
            Some((_, w)) => self.rebalance_window(w),
            None if m > 1 => self.resize_shrink(),
            None => {}
        }
    }

    // -------------------------------------------------- rebalances --

    /// Redistributes the elements of `segs` according to the adaptive
    /// algorithm (if enabled and hammering was detected) or an even
    /// spread, then refreshes the affected separators.
    fn rebalance_window(&mut self, segs: Range<usize>) {
        let m = segs.len();
        let b = self.cfg.segment_size;
        let total = self.storage.cards_in(segs.clone());
        let mut intervals: Vec<MarkedInterval> = match &self.detector {
            Some(det) => compute_marked_intervals(det, &self.storage, segs.clone()),
            None => Vec::new(),
        };
        // Conflicting predictions (insert-hot and delete-hot intervals
        // in the same window, as in the mixed workload's alternating
        // phases) carry no usable position signal: honouring one side
        // starves the other and the window thrashes. Fall back to the
        // even spread, which §IV's scoring would also converge to.
        if intervals.iter().any(|i| i.score > 0) && intervals.iter().any(|i| i.score < 0) {
            intervals.clear();
        }
        let mut targets = if intervals.is_empty() {
            even_targets(total, m)
        } else {
            self.stats.adaptive_rebalances += 1;
            adaptive_targets(b, m, total, &intervals, &self.cfg.thresholds, self.height())
        };
        // Progress guarantee: no segment may end up completely full,
        // or the very next insert would re-trigger the same rebalance.
        cap_targets(&mut targets, b, total);
        self.stats.rebalances += 1;
        let src: Vec<Range<usize>> = segs.clone().map(|s| self.storage.seg_range(s)).collect();
        self.gather(&src);
        self.commit_window(segs, &targets);
    }

    /// Commits a rebalanced window `segs`, its elements waiting in
    /// scratch, into the layout `targets`, then records its
    /// cardinalities and recomputes its separators: a non-empty
    /// segment's separator is its minimum; an empty one inherits the
    /// next non-empty minimum (or the window maximum for a trailing
    /// run, so only keys above it route into the run), keeping
    /// separators monotone.
    pub(crate) fn commit_window(&mut self, segs: Range<usize>, targets: &[usize]) {
        let b = self.cfg.segment_size;
        let dst = window_layout(segs.start, b, targets);
        self.commit(segs.start * b, segs.len() * b, &dst);
        for (s, &t) in segs.clone().zip(targets) {
            self.storage.cards[s] = t as u32;
        }
        let Some(window_max) = segs
            .clone()
            .rev()
            .find(|&s| self.storage.card(s) > 0)
            .map(|s| *self.storage.seg_keys(s).last().expect("non-empty"))
        else {
            return; // fully empty window: previous separators still bound it
        };
        let mut next_sep = window_max;
        for s in segs.rev() {
            if self.storage.card(s) > 0 {
                next_sep = self.storage.seg_min(s);
            }
            if s > 0 {
                self.index.update(s, next_sep);
            }
        }
    }

    /// Copies the elements of the array's occupied slot ranges `src`,
    /// in order, into scratch: the first pass of the paper's two-pass
    /// auxiliary-buffer scheme.
    fn gather(&mut self, src: &[Range<usize>]) {
        self.scratch_keys.clear();
        self.scratch_vals.clear();
        let (keys, vals) = (self.storage.keys.as_slice(), self.storage.vals.as_slice());
        for r in src {
            self.scratch_keys.extend_from_slice(&keys[r.clone()]);
            self.scratch_vals.extend_from_slice(&vals[r.clone()]);
        }
    }

    /// The copy commit of a reorganisation (§III), the second pass:
    /// writes the elements waiting in scratch, in order, into the
    /// occupied ranges `dst` (relative to `first`) of the `slots` slots
    /// from slot `first`, and counts a copied commit. Every window
    /// rebalance ends here, page-aligned or not: rewiring a window cost
    /// more than its second copy (the README's "Rewiring"), so only a
    /// resize to a page or more rewires ([`resize_to`](Self::resize_to)).
    fn commit(&mut self, first: usize, slots: usize, dst: &[Range<usize>]) {
        self.stats.copied_commits += 1;
        self.stats.elements_moved += dst.iter().map(Range::len).sum::<usize>() as u64;
        let whole = 0..self.scratch_keys.len();
        let cols = [
            (&mut self.storage.keys, &self.scratch_keys),
            (&mut self.storage.vals, &self.scratch_vals),
        ];
        for (col, scratch) in cols {
            let window = &mut col.as_mut_slice()[first..first + slots];
            copy_runs(scratch, std::slice::from_ref(&whole), window, dst);
        }
        self.trim_scratch();
    }

    // ------------------------------------------------------ resize --

    fn grow_target_segments(&self) -> usize {
        let b = self.cfg.segment_size;
        match self.cfg.thresholds.policy {
            crate::thresholds::ResizePolicy::Double => self.storage.seg_count() * 2,
            crate::thresholds::ResizePolicy::Proportional => {
                let denom = self.cfg.thresholds.tau_h + self.cfg.thresholds.rho_h;
                let slots = (2.0 * self.len as f64 / denom).ceil() as usize;
                slots.div_ceil(b).max(self.storage.seg_count() + 1)
            }
        }
    }

    fn shrink_target_segments(&self) -> usize {
        let b = self.cfg.segment_size;
        match self.cfg.thresholds.policy {
            // Half, in whole pages: 3 pages shrink to 2, not to 1.5.
            crate::thresholds::ResizePolicy::Double => {
                self.page_granular((self.storage.seg_count() / 2).max(1))
            }
            crate::thresholds::ResizePolicy::Proportional => {
                let denom = self.cfg.thresholds.tau_h + self.cfg.thresholds.rho_h;
                let slots = (2.0 * self.len as f64 / denom).ceil() as usize;
                slots
                    .div_ceil(b)
                    .clamp(1, self.storage.seg_count().saturating_sub(1).max(1))
            }
        }
    }

    fn resize_grow(&mut self) {
        self.stats.grows += 1;
        let new_segs = self.grow_target_segments();
        self.resize_to(new_segs);
    }

    fn resize_shrink(&mut self) {
        self.stats.shrinks += 1;
        let new_segs = self.shrink_target_segments();
        if new_segs >= self.storage.seg_count() {
            return;
        }
        self.resize_to(new_segs);
    }

    /// Rebuilds the array at `new_segs` segments with an even spread.
    /// On memfd columns a resize to a page or more is the one commit
    /// that rewires (§III): the elements go into buffer pages of the new
    /// capacity, one copy each, that are then swapped in whole however
    /// the last one is filled — and an array below a page moves onto
    /// pages. Every other resize — below a page, on heap columns, or
    /// with rewiring disabled — copies each element once, straight into
    /// a fresh, exactly sized heap array, and wires no buffer page that
    /// the kernel would zero and punch again. With rewiring disabled
    /// that is the paper's standard resize, which the `-RWR` ablation
    /// measures: into fresh storage, one copy per element plus the
    /// OS-level page zeroing the paper highlights.
    pub(crate) fn resize_to(&mut self, new_segs: usize) {
        let b = self.cfg.segment_size;
        debug_assert!(self.len <= new_segs * b, "resize target too small");
        let mut targets = even_targets(self.len, new_segs);
        cap_targets(&mut targets, b, self.len);
        let src: Vec<Range<usize>> = (0..self.storage.seg_count())
            .map(|s| self.storage.seg_range(s))
            .collect();
        let dst = window_layout(0, b, &targets);
        let new_slots = new_segs * b;
        let rewire = self.storage.backend_kind() == rewiring::BackendKind::Mmap
            && new_slots >= self.storage.keys.elems_per_page();
        if rewire {
            self.stats.rewired_commits += 1;
            self.stats.elements_moved += self.len as u64;
            for col in [&mut self.storage.keys, &mut self.storage.vals] {
                let (arr, buf) = col.array_and_buffer_mut(new_slots);
                copy_runs(arr, &src, buf, &dst);
                col.commit_resize_swap(new_slots);
            }
        } else {
            self.stats.copied_commits += 1;
            self.stats.elements_moved += self.len as u64;
            for col in [&mut self.storage.keys, &mut self.storage.vals] {
                col.resize_copy(new_slots, |old, new| copy_runs(old, &src, new, &dst));
            }
        }
        self.install_layout(&targets);
    }

    /// Last step of anything that rewrites the whole array: records
    /// the new cardinalities and rebuilds what is sized by the segment
    /// count — the index is static, the detector per-segment.
    pub(crate) fn install_layout(&mut self, targets: &[usize]) {
        self.storage.cards = targets.iter().map(|&t| t as u32).collect();
        self.rebuild_index();
        if let Some(det) = &mut self.detector {
            det.reset(targets.len());
        }
    }

    fn rebuild_index(&mut self) {
        let m = self.storage.seg_count();
        let mut minima = vec![Key::MIN; m];
        let mut next_sep = self.last_key().unwrap_or(Key::MIN);
        for (s, slot) in minima.iter_mut().enumerate().rev() {
            if self.storage.card(s) > 0 {
                next_sep = self.storage.seg_min(s);
            }
            *slot = next_sep;
        }
        self.index = StaticIndex::build(&minima, INDEX_FANOUT);
    }

    /// The largest key stored, if any.
    pub(crate) fn last_key(&self) -> Option<Key> {
        (0..self.storage.seg_count())
            .rev()
            .find(|&s| self.storage.card(s) > 0)
            .map(|s| *self.storage.seg_keys(s).last().expect("non-empty"))
    }

    // -------------------------------------------------- validation --

    /// Exhaustive structural check; test helper.
    pub fn check_invariants(&self) {
        self.storage.check_invariants();
        assert_eq!(self.storage.total_cards(), self.len, "len mismatch");
        // Separator invariants: monotone; equal to the minimum for
        // non-empty segments; routing-consistent for empty ones.
        let mut prev_sep = Key::MIN;
        let mut prev_max = Key::MIN;
        for s in 0..self.storage.seg_count() {
            if let Some(sep) = self.index.separator(s) {
                assert!(sep >= prev_sep, "separators not monotone at {s}");
                assert!(
                    sep >= prev_max,
                    "separator at {s} below the keys to its left"
                );
                if self.storage.card(s) > 0 {
                    assert_eq!(sep, self.storage.seg_min(s), "separator != min at {s}");
                }
                prev_sep = sep;
            }
            if self.storage.card(s) > 0 {
                prev_max = *self.storage.seg_keys(s).last().expect("non-empty");
            }
        }
    }
}

/// Copies the elements of `from` in the slot ranges `src`, in order,
/// into the slot ranges `dst` of `to`, in order; the two lists cover
/// the same number of slots. Each step copies the longest stretch
/// that neither list breaks.
fn copy_runs(from: &[i64], src: &[Range<usize>], to: &mut [i64], dst: &[Range<usize>]) {
    let mut src = src.iter().cloned();
    let mut s = 0..0;
    for d in dst {
        let mut d = d.clone();
        while !d.is_empty() {
            if s.is_empty() {
                s = src.next().expect("src and dst cover the same slots");
            }
            let n = s.len().min(d.len());
            to[d.start..d.start + n].copy_from_slice(&from[s.start..s.start + n]);
            s.start += n;
            d.start += n;
        }
    }
}

/// Even spread: `total` elements over `m` segments, remainder to the
/// leftmost segments (the TPMA policy).
pub(crate) fn even_targets(total: usize, m: usize) -> Vec<usize> {
    let base = total / m;
    let rem = total % m;
    (0..m).map(|i| base + usize::from(i < rem)).collect()
}

/// Caps every target at `B − 1` so no segment leaves a rebalance
/// already full; donates the excess to the least-filled segments.
pub(crate) fn cap_targets(targets: &mut [usize], b: usize, total: usize) {
    let m = targets.len();
    if m <= 1 || total > m * (b - 1) {
        return; // single segment may legitimately be full
    }
    for i in 0..m {
        while targets[i] >= b {
            let j = (0..m)
                .min_by_key(|&j| targets[j])
                .expect("non-empty targets");
            targets[i] -= 1;
            targets[j] += 1;
        }
    }
}

/// Occupied slot ranges (window-relative) for the clustered layout of
/// segments starting at global index `seg0` with the given targets.
pub(crate) fn window_layout(seg0: usize, b: usize, targets: &[usize]) -> Vec<Range<usize>> {
    targets
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let base = i * b;
            if Storage::packs_right(seg0 + i) {
                base + b - t..base + b
            } else {
                base..base + t
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RewiringMode;
    use crate::thresholds::Thresholds;
    use rewiring::BackendKind;

    fn small_cfg() -> RmaConfig {
        RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            adaptive: false,
            reserve_bytes: 1 << 26,
            ..Default::default()
        }
    }

    #[test]
    fn insert_and_get_small() {
        let mut r = Rma::new(small_cfg());
        for k in [5i64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            r.insert(k, k * 10);
        }
        r.check_invariants();
        for k in 0..10 {
            assert_eq!(r.get(k), Some(k * 10), "get {k}");
        }
        assert_eq!(r.get(42), None);
    }

    #[test]
    fn grows_through_many_resizes() {
        let mut r = Rma::new(small_cfg());
        for k in 0..10_000i64 {
            r.insert((k * 2654435761) % 100_000, k);
        }
        r.check_invariants();
        assert_eq!(r.len(), 10_000);
        assert!(r.stats().grows >= 5, "expected several resizes");
        let collected: Vec<i64> = r.iter().map(|(k, _)| k).collect();
        assert!(collected.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(collected.len(), 10_000);
    }

    #[test]
    fn sequential_inserts() {
        let mut r = Rma::new(small_cfg());
        for k in 0..5000i64 {
            r.insert(k, k);
        }
        r.check_invariants();
        for k in (0..5000).step_by(97) {
            assert_eq!(r.get(k), Some(k));
        }
    }

    #[test]
    fn reverse_sequential_inserts() {
        let mut r = Rma::new(small_cfg());
        for k in (0..5000i64).rev() {
            r.insert(k, -k);
        }
        r.check_invariants();
        assert_eq!(r.get(0), Some(0));
        assert_eq!(r.get(4999), Some(-4999));
    }

    #[test]
    fn duplicates_everywhere() {
        let mut r = Rma::new(small_cfg());
        for i in 0..1000 {
            r.insert(7, i);
        }
        for i in 0..500 {
            r.insert(3, i);
            r.insert(11, i);
        }
        r.check_invariants();
        assert_eq!(r.len(), 2000);
        assert!(r.get(7).is_some());
        assert_eq!(r.iter().filter(|&(k, _)| k == 7).count(), 1000);
    }

    /// A key's members form a stack: `insert` pushes onto its front;
    /// `get`, `get_batch`, `first_ge` and scans see the front first;
    /// `remove`, a batch delete and `remove_successor` pop it; a batch
    /// lands at the front in batch order. Forty members of each of
    /// three keys span many segments of 8.
    #[test]
    fn duplicates_form_a_stack() {
        let mut r = Rma::new(small_cfg());
        for i in 0..40 {
            for k in [3, 7, 11] {
                r.insert(k, k * 100 + i);
            }
        }
        r.check_invariants();
        for k in [3, 7, 11] {
            assert_eq!(r.get(k), Some(k * 100 + 39));
            assert_eq!(r.first_ge(k - 1), Some((k, k * 100 + 39)));
        }
        let mut got = [None; 5];
        r.get_batch(&[3, 4, 7, 11, 12], &mut got);
        assert_eq!(got, [Some(339), None, Some(739), Some(1139), None]);
        let sevens: Vec<Value> = r.iter().filter(|p| p.0 == 7).map(|p| p.1).collect();
        assert_eq!(sevens, (0..40).rev().map(|i| 700 + i).collect::<Vec<_>>());

        assert_eq!(r.apply_batch(&[(7, -1), (7, -2)], &[7]), 1);
        let mut front = Vec::new();
        r.scan(7, 3, |_, v| front.push(v));
        assert_eq!(front, [-1, -2, 738]);
        assert_eq!((r.remove(7), r.remove(7)), (Some(-1), Some(-2)));
        for i in (0..39).rev() {
            assert_eq!(r.remove(7), Some(700 + i));
        }
        assert_eq!(r.remove(7), None);
        assert_eq!(
            r.remove_successor(12),
            Some((11, 1139)),
            "the maximum's front"
        );
        r.check_invariants();
    }

    #[test]
    fn remove_exact() {
        let mut r = Rma::new(small_cfg());
        for k in 0..2000i64 {
            r.insert(k, k);
        }
        for k in (0..2000).step_by(2) {
            assert_eq!(r.remove(k), Some(k), "remove {k}");
        }
        r.check_invariants();
        assert_eq!(r.len(), 1000);
        for k in 0..2000 {
            assert_eq!(r.get(k).is_some(), k % 2 == 1);
        }
        assert!(r.stats().shrinks + r.stats().rebalances > 0);
    }

    #[test]
    fn remove_to_empty_and_reuse() {
        let mut r = Rma::new(small_cfg());
        for k in 0..500i64 {
            r.insert(k, k);
        }
        for k in 0..500i64 {
            assert_eq!(r.remove(k), Some(k));
        }
        assert!(r.is_empty());
        r.check_invariants();
        r.insert(1, 1);
        assert_eq!(r.get(1), Some(1));
    }

    #[test]
    fn remove_successor_semantics() {
        let mut r = Rma::new(small_cfg());
        for k in [10i64, 20, 30] {
            r.insert(k, k);
        }
        assert_eq!(r.remove_successor(15), Some((20, 20)));
        assert_eq!(r.remove_successor(100), Some((30, 30)));
        assert_eq!(r.remove_successor(0), Some((10, 10)));
        assert_eq!(r.remove_successor(0), None);
    }

    #[test]
    fn scan_sums_and_order() {
        let mut r = Rma::new(small_cfg());
        for k in 0..3000i64 {
            r.insert(k, 1);
        }
        let (n, sum) = r.sum_range(100, 500);
        assert_eq!((n, sum), (500, 500));
        let mut seen = Vec::new();
        r.scan(2990, 100, |k, _| seen.push(k));
        assert_eq!(seen, (2990..3000).collect::<Vec<i64>>());
        assert_eq!(r.sum_range(99999, 5).0, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// `scan_into` is `scan` with the entries kept. Forty keys
        /// over up to 400 inserts in segments of 8: every duplicate
        /// run spans segments; the probes start below, inside and
        /// past the stored keys and ask for nothing, a few and more
        /// than there is; what `out` held stays in front.
        #[test]
        fn scan_into_equals_scan(
            keys in proptest::collection::vec(0i64..40, 0..400),
            probes in proptest::collection::vec((-2i64..44, 0usize..500), 1..24),
            held in 0usize..4,
        ) {
            let mut r = Rma::new(small_cfg());
            for (i, &k) in keys.iter().enumerate() {
                r.insert(k, i as i64);
            }
            let held: Vec<(Key, Value)> = (0..held).map(|i| (-7, i as i64)).collect();
            let edges = [(i64::MIN, usize::MAX), (i64::MAX, 5), (0, 0)];
            for (start, count) in probes.into_iter().chain(edges) {
                let mut want = held.clone();
                let n = r.scan(start, count, |k, v| want.push((k, v)));
                let mut got = held.clone();
                proptest::prop_assert_eq!(r.scan_into(start, count, &mut got), n);
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// `rank`, `ascending_ranks` and `select` against a multiset
        /// oracle, on heap and memfd columns: random inserts, removes
        /// and mixed batches over a few dozen keys in segments of 8,
        /// so duplicate runs straddle segment boundaries; checked from
        /// the empty array on, through one-segment arrays, after every
        /// op.
        #[test]
        fn rank_and_select_match_a_multiset(
            ops in proptest::collection::vec((0u8..4, -4i64..44, 0usize..24), 0..160),
            seed in proptest::any::<u64>(),
        ) {
            use std::collections::BTreeMap;
            for rewiring in [RewiringMode::Enabled { page_bytes: 4096 }, RewiringMode::Disabled] {
                let mut r = Rma::new(RmaConfig { rewiring, ..small_cfg() });
                let mut oracle: BTreeMap<Key, Vec<Value>> = BTreeMap::new();
                let mut rng = proptest::TestRng::new(seed);
                for (step, &(op, k, n)) in ops.iter().enumerate() {
                    let v = step as Value;
                    match op {
                        0 | 1 => {
                            r.insert(k, v);
                            oracle.entry(k).or_default().insert(0, v);
                        }
                        2 => {
                            let want = oracle.get_mut(&k).map(|s| s.remove(0));
                            oracle.retain(|_, s| !s.is_empty());
                            proptest::prop_assert_eq!(r.remove(k), want);
                        }
                        _ => {
                            let mut ins: Vec<(Key, Value)> = (0..n)
                                .map(|_| ((rng.next_u64() % 48) as Key - 4, v))
                                .collect();
                            ins.sort_unstable();
                            let dels: Vec<Key> =
                                (0..n / 2).map(|_| (rng.next_u64() % 48) as Key - 4).collect();
                            for d in &dels {
                                if let Some(s) = oracle.get_mut(d).filter(|s| !s.is_empty()) {
                                    s.remove(0);
                                }
                            }
                            oracle.retain(|_, s| !s.is_empty());
                            for &(k, v) in ins.iter().rev() {
                                oracle.entry(k).or_default().insert(0, v);
                            }
                            r.apply_batch(&ins, &dels);
                        }
                    }
                    let keys: Vec<Key> = (oracle.iter())
                        .flat_map(|(&k, s)| std::iter::repeat_n(k, s.len()))
                        .collect();
                    let mut ascending = r.ascending_ranks();
                    for probe in std::iter::once(Key::MIN).chain(-6..47).chain([Key::MAX]) {
                        let want = keys.partition_point(|&x| x < probe);
                        proptest::prop_assert_eq!(r.rank(probe), want, "rank({}) at step {}", probe, step);
                        proptest::prop_assert_eq!(ascending(probe), want, "ascending rank({})", probe);
                    }
                    for i in 0..keys.len() + 2 {
                        proptest::prop_assert_eq!(r.select(i), keys.get(i).copied(), "select({})", i);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        /// Every reorganisation — rebalance, grow or shrink, from a
        /// single insert or removal, a successor removal or a mixed
        /// batch — is exactly one commit, rewired or copied, in both
        /// rewiring modes and at two segment sizes; both modes end with
        /// the same content. The array is never emptied: a batch into
        /// an empty array is built in place, a grow without a commit.
        #[test]
        fn a_reorganisation_is_exactly_one_commit(seed in proptest::any::<u64>()) {
            for b in [8usize, 16] {
                let mut ends = Vec::new();
                for rewiring in [RewiringMode::Enabled { page_bytes: 4096 }, RewiringMode::Disabled] {
                    let mut r = Rma::new(RmaConfig {
                        segment_size: b,
                        rewiring,
                        adaptive: seed & 1 == 0,
                        reserve_bytes: 1 << 24,
                        ..Default::default()
                    });
                    let mut rng = proptest::TestRng::new(seed);
                    let page = r.storage.keys.elems_per_page();
                    let mut page_resizes = 0;
                    r.insert(0, 0);
                    for phase in 0..6 {
                        // Even phases fill, odd ones drain.
                        let draining = phase % 2 == 1;
                        for step in 0..3000i64 {
                            let k = rng.below(1 << 14) as i64;
                            let resizes = r.stats().grows + r.stats().shrinks;
                            match rng.below(32) {
                                0 => {
                                    let (n_ins, n_del) = if draining { (8, 128) } else { (128, 8) };
                                    let mut ins: Vec<(Key, Value)> = (0..rng.below(n_ins))
                                        .map(|i| (k + rng.below(1024) as i64, step * 1000 + i as i64))
                                        .collect();
                                    ins.sort_by_key(|p| p.0);
                                    let mut del: Vec<Key> = (0..rng.below(n_del))
                                        .filter_map(|_| r.first_ge(rng.below(1 << 14) as i64))
                                        .map(|(k, _)| k)
                                        .collect();
                                    del.truncate(r.len() - 1);
                                    r.apply_batch(&ins, &del);
                                }
                                x if (x < 24) != draining || r.len() == 1 => r.insert(k, step),
                                x if x % 2 == 0 => {
                                    r.remove_successor(k);
                                }
                                _ => {
                                    let k = r.first_ge(k).map_or(k, |(k, _)| k);
                                    r.remove(k);
                                }
                            }
                            let st = r.stats();
                            proptest::prop_assert_eq!(
                                st.rewired_commits + st.copied_commits,
                                st.reorganisations(),
                                "{:?}", st
                            );
                            if st.grows + st.shrinks > resizes && r.capacity() >= page {
                                page_resizes += 1;
                            }
                        }
                        r.check_invariants();
                    }
                    let st = r.stats();
                    proptest::prop_assert!(st.grows > 0 && st.shrinks > 0, "{:?}", st);
                    // Only a resize that reaches a page rewires, and only
                    // on memfd columns: `Disabled`, and `Enabled` on a
                    // host without memfd, copy.
                    if r.backend_kind() == BackendKind::Mmap {
                        proptest::prop_assert!(page_resizes > 0, "{:?}", st);
                        proptest::prop_assert_eq!(st.rewired_commits, page_resizes, "{:?}", st);
                    } else {
                        proptest::prop_assert_eq!(st.rewired_commits, 0, "{:?}", st);
                    }
                    ends.push(r.iter().collect::<Vec<_>>());
                }
                proptest::prop_assert_eq!(&ends[0], &ends[1]);
            }
        }
    }

    #[test]
    fn first_ge_crosses_segments() {
        let mut r = Rma::new(small_cfg());
        for k in (0..1000).step_by(10) {
            r.insert(k, k);
        }
        assert_eq!(r.first_ge(-5), Some((0, 0)));
        assert_eq!(r.first_ge(15), Some((20, 20)));
        assert_eq!(r.first_ge(990), Some((990, 990)));
        assert_eq!(r.first_ge(991), None);
    }

    #[test]
    fn adaptive_mode_stays_consistent() {
        let cfg = RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 26,
            ..Default::default()
        };
        assert!(cfg.adaptive);
        let mut r = Rma::new(cfg);
        for k in 0..20_000i64 {
            r.insert(k, k); // sequential hammering
        }
        r.check_invariants();
        assert_eq!(r.len(), 20_000);
        for k in (0..20_000).step_by(371) {
            assert_eq!(r.get(k), Some(k));
        }
    }

    /// The Detector's decisions, pinned: five seeded streams at B = 8
    /// and 16, adaptive on, each with the exact counts it produced
    /// when the Detector kept a boxed `u64` ring per segment. A change
    /// of its record, clock or cutoff that moved one decision — a
    /// hammered trigger, a marked interval, a target — moves a count.
    /// The uniform and insert/remove streams repeat keys; their rows
    /// were re-pinned when a repeated key began routing to the front
    /// of its stack (the three distinct-key rows did not move).
    #[test]
    fn adaptive_decisions_are_pinned() {
        const N: i64 = 12_000;
        type Stream = fn(&mut Rma, &mut proptest::TestRng);
        let streams: [(&str, Stream); 5] = [
            ("ascending", |r, _| (0..N).for_each(|k| r.insert(k, k))),
            ("descending", |r, _| (0..N).for_each(|k| r.insert(N - k, k))),
            ("three runs", |r, _| {
                (0..N).for_each(|i| r.insert(i % 3 * 1_000_000 + i / 3, i))
            }),
            ("uniform", |r, rng| {
                (0..N).for_each(|i| r.insert(rng.below(1 << 20) as i64, i))
            }),
            ("insert/remove", |r, rng| {
                // Fill and drain phases; each interleaves both kinds.
                for i in 0..2 * N {
                    let k = rng.below(1 << 16) as i64;
                    if (i / 3000 % 2 == 0) == (rng.below(3) != 0) {
                        r.insert(k, i);
                    } else if rng.below(2) == 0 {
                        r.remove_successor(k);
                    } else {
                        let k = r.first_ge(k).map_or(k, |(k, _)| k);
                        r.remove(k);
                    }
                }
            }),
        ];
        /// (rebalances, adaptive, grows, shrinks, elements moved)
        type Counts = (u64, u64, u64, u64, u64);
        let want: [[Counts; 5]; 2] = [
            [
                (1993, 1993, 11, 0, 137_686),
                (2140, 2140, 11, 0, 141_111),
                (3084, 3047, 11, 0, 202_189),
                (833, 754, 11, 0, 73_644),
                (1937, 920, 18, 13, 51_182),
            ],
            [
                (922, 922, 10, 0, 125_000),
                (922, 922, 10, 0, 124_534),
                (1221, 1218, 10, 0, 159_211),
                (406, 322, 10, 0, 42_267),
                (929, 720, 18, 13, 39_062),
            ],
        ];
        let mut got = Vec::new();
        for b in [8usize, 16] {
            let mut row = Vec::new();
            for (name, stream) in streams {
                let mut r = Rma::new(RmaConfig {
                    segment_size: b,
                    rewiring: RewiringMode::Disabled,
                    reserve_bytes: 1 << 26,
                    ..Default::default()
                });
                stream(&mut r, &mut proptest::TestRng::new(31));
                r.check_invariants();
                let st = r.stats();
                assert!(st.rebalances > 0, "B {b} {name}: {st:?}");
                row.push((
                    st.rebalances,
                    st.adaptive_rebalances,
                    st.grows,
                    st.shrinks,
                    st.elements_moved,
                ));
            }
            got.push(row);
        }
        assert_eq!(got, want, "B = 8 row, then B = 16");
    }

    #[test]
    fn rewired_mode_matches_copy_mode() {
        let mk = |rewired: bool| {
            let cfg = RmaConfig {
                segment_size: 16,
                rewiring: if rewired {
                    RewiringMode::Enabled { page_bytes: 4096 }
                } else {
                    RewiringMode::Disabled
                },
                adaptive: false,
                reserve_bytes: 1 << 26,
                ..Default::default()
            };
            let mut r = Rma::new(cfg);
            for k in 0..30_000i64 {
                r.insert((k * 48271) % 65_536, k);
            }
            r.iter().collect::<Vec<_>>()
        };
        let a = mk(true);
        let b = mk(false);
        assert_eq!(a.len(), 30_000);
        assert_eq!(
            a, b,
            "rewired and copy paths must produce identical content"
        );
    }

    #[test]
    fn an_array_under_a_page_resizes_without_wiring_a_buffer() {
        let mut r = Rma::new(RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Enabled { page_bytes: 4096 },
            adaptive: false,
            reserve_bytes: 1 << 22,
            ..Default::default()
        });
        // Rewired commits need memfd columns; a heap column (no memfd
        // here) copies throughout. Either way an array below a page is
        // an exactly sized heap array.
        let memfd = r.backend_kind() == BackendKind::Mmap;
        let exact = |r: &Rma| r.storage.keys.wired_bytes() == r.capacity() * 8;
        let page = r.storage.keys.elems_per_page();
        let mut k = 0i64;
        // Grows up to one page of slots go through scratch ...
        while r.capacity() < page / 2 {
            r.insert(k * 7919 % 10_007, k);
            k += 1;
            assert!(exact(&r));
        }
        assert!(r.stats().grows >= 4);
        assert_eq!(r.stats().rewired_commits, 0);
        // ... from one page on, through rewired buffer pages ...
        while r.capacity() < 4 * page {
            r.insert(k * 7919 % 10_007, k);
            k += 1;
        }
        let rewired_grows = r.stats().rewired_commits;
        assert!(if memfd {
            rewired_grows >= 3
        } else {
            rewired_grows == 0
        });
        r.check_invariants();
        // ... and so back down: the shrink below a page copies.
        while r.capacity() >= page {
            r.remove_successor(0);
        }
        assert!(r.stats().shrinks > 0);
        assert!(exact(&r));
        r.check_invariants();
        assert_eq!(r.iter().count(), r.len());
    }

    /// The commit contract on memfd columns: a window rebalance copies,
    /// page-aligned or not, and leaves no spare page wired; a resize to
    /// a page or more rewires, one below a page copies.
    #[test]
    fn only_a_resize_to_a_page_rewires() {
        let mut r = Rma::new(RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Enabled { page_bytes: 4096 },
            adaptive: false,
            reserve_bytes: 1 << 22,
            ..Default::default()
        });
        if r.backend_kind() != BackendKind::Mmap {
            return;
        }
        let (page, spp) = (r.storage.keys.elems_per_page(), r.segs_per_page());
        // Runs `op` and, when it resized the array, checks that the
        // resize was one commit, rewired exactly when it reached a page.
        let mut resizes = [0; 2];
        let mut resize_by = |r: &mut Rma, op: &dyn Fn(&mut Rma)| {
            let (before, cap) = (*r.stats(), r.capacity());
            op(r);
            if r.capacity() != cap {
                let on_pages = usize::from(r.capacity() >= page);
                resizes[on_pages] += 1;
                let st = r.stats();
                let rewired = st.rewired_commits - before.rewired_commits;
                let copied = st.copied_commits - before.copied_commits;
                assert_eq!((rewired, copied), (on_pages as u64, 1 - on_pages as u64));
            }
        };
        let mut k = 0i64;
        while r.capacity() < 4 * page {
            resize_by(&mut r, &|r| r.insert(k * 7919 % 10_007, k));
            k += 1;
        }
        let want: Vec<(Key, Value)> = r.iter().collect();
        for window in [0..spp, spp..3 * spp, 0..r.num_segments()] {
            let before = *r.stats();
            r.rebalance_window(window.clone());
            let st = r.stats();
            assert_eq!(st.rewired_commits, before.rewired_commits, "{window:?}");
            assert_eq!(st.copied_commits, before.copied_commits + 1, "{window:?}");
            for col in [&r.storage.keys, &r.storage.vals] {
                assert_eq!(col.spare_pages(), 0, "{window:?}");
                assert_eq!(col.wired_bytes(), col.array_pages() * page * 8);
            }
            r.check_invariants();
            assert_eq!(r.iter().collect::<Vec<_>>(), want, "{window:?}");
        }
        while r.capacity() >= page {
            resize_by(&mut r, &|r| {
                r.remove_successor(0);
            });
        }
        r.check_invariants();
        // Grows below and from a page, a shrink on pages and the one
        // below a page.
        assert!(resizes[0] >= 4 && resizes[1] >= 4, "{resizes:?}");
    }

    /// Where a sub-page array's bytes live must not move a rewire
    /// decision. A sub-page array grows past a page three ways — by
    /// inserts, by a batch that overflows it, and by a direct build
    /// followed by inserts — and each ends with the exact commit counts
    /// it produced when every column wired its first page from birth.
    /// Re-pinned when window rebalances stopped rewiring: each way's
    /// rewired count fell to its resizes that reached a page, and its
    /// commit total, grows and rebalances stayed.
    #[test]
    fn commits_across_the_page_floor_are_pinned() {
        let cfg = RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Enabled { page_bytes: 4096 },
            reserve_bytes: 1 << 22,
            ..Default::default()
        };
        type Rng = proptest::TestRng;
        fn inserts(r: &mut Rma, rng: &mut Rng, from: i64) {
            (from..6000).for_each(|i| r.insert(rng.below(1 << 20) as i64, i));
        }
        type Grow = fn(&mut Rma, &mut Rng);
        let ways: [(&str, Grow); 3] = [
            ("inserts", |r, rng| inserts(r, rng, 0)),
            ("overflowing batch", |r, rng| {
                inserts(r, rng, 5800);
                let mut batch: Vec<(Key, Value)> = (200..6000)
                    .map(|i| (rng.below(1 << 20) as i64, i))
                    .collect();
                batch.sort_by_key(|p| p.0);
                r.load_bulk(&batch);
            }),
            ("build, then inserts", |r, rng| {
                let batch: Vec<(Key, Value)> = (0..300).map(|i| (i << 12, i)).collect();
                r.load_bulk(&batch);
                inserts(r, rng, 300);
            }),
        ];
        /// (rewired commits, copied commits, grows, rebalances)
        type Counts = (u64, u64, u64, u64);
        let want: [Counts; 3] = [(5, 184, 9, 180), (1, 10, 5, 6), (4, 157, 5, 157)];
        for ((name, grow), want) in ways.into_iter().zip(want) {
            let mut r = Rma::new(cfg);
            grow(&mut r, &mut Rng::new(37));
            r.check_invariants();
            assert_eq!(r.len(), 6000, "{name}");
            assert!(r.capacity() > 4 * r.storage.keys.elems_per_page(), "{name}");
            let st = r.stats();
            let got = (
                st.rewired_commits,
                st.copied_commits,
                st.grows,
                st.rebalances,
            );
            // Without memfd every commit copies: the same decisions,
            // each counted as copied.
            let want = match r.backend_kind() {
                BackendKind::Mmap => want,
                BackendKind::Heap => (0, want.0 + want.1, want.2, want.3),
            };
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn scan_oriented_thresholds_work() {
        let cfg = RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            adaptive: false,
            thresholds: Thresholds::scan_oriented(),
            reserve_bytes: 1 << 26,
        };
        let mut r = Rma::new(cfg);
        for k in 0..10_000i64 {
            r.insert((k * 7919) % 50_000, k);
        }
        r.check_invariants();
        // ST keeps the array dense: fill factor near 75%.
        let fill = r.len() as f64 / r.capacity() as f64;
        assert!(fill > 0.55, "ST fill factor too low: {fill}");
        // Delete most elements: the 50% rule must kick in.
        for _ in 0..9_000 {
            r.remove_successor(0);
        }
        r.check_invariants();
        let fill = r.len() as f64 / r.capacity() as f64;
        assert!(fill >= 0.45, "ST shrink rule failed: fill {fill}");
        assert!(r.stats().shrinks > 0);
    }

    #[test]
    fn mixed_churn_against_btreemap() {
        use std::collections::BTreeMap;
        let mut r = Rma::new(small_cfg());
        let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
        let mut x = 99u64;
        for step in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = ((x >> 52) & 0x7FF) as i64;
            if step % 3 == 2 {
                let want = oracle
                    .range(k..)
                    .next()
                    .map(|(&kk, _)| kk)
                    .or_else(|| oracle.keys().next_back().copied());
                let got = r.remove_successor(k).map(|(kk, _)| kk);
                assert_eq!(got, want, "step {step} delete_succ {k}");
                if let Some(kk) = want {
                    let c = oracle.get_mut(&kk).expect("oracle has key");
                    *c -= 1;
                    if *c == 0 {
                        oracle.remove(&kk);
                    }
                }
            } else {
                r.insert(k, step as i64);
                *oracle.entry(k).or_insert(0) += 1;
            }
            let total: usize = oracle.values().sum();
            assert_eq!(r.len(), total, "step {step}");
        }
        r.check_invariants();
    }

    #[test]
    fn cap_targets_prevents_full_segments() {
        let mut t = vec![8, 0, 8, 0];
        cap_targets(&mut t, 8, 16);
        assert_eq!(t.iter().sum::<usize>(), 16);
        assert!(t.iter().all(|&x| x < 8), "{t:?}");
    }

    #[test]
    fn even_targets_distributes_remainder() {
        assert_eq!(even_targets(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(even_targets(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn footprint_reports_resident_bytes() {
        let mut r = Rma::new(small_cfg());
        let empty = r.memory_footprint();
        for k in 0..100_000i64 {
            r.insert(k, k);
        }
        assert!(r.memory_footprint() > empty * 10);
    }

    #[test]
    fn the_detector_costs_one_line_a_segment() {
        for adaptive in [true, false] {
            let mut r = Rma::new(RmaConfig {
                adaptive,
                ..small_cfg()
            });
            for k in 0..20_000i64 {
                r.insert(k * 7919 % 100_003, k);
            }
            assert!(r.stats().grows >= 5);
            let det =
                r.memory_footprint() - r.storage.memory_footprint() - r.index.memory_footprint();
            assert_eq!(det, if adaptive { 64 * r.num_segments() } else { 0 });
        }
    }
}
