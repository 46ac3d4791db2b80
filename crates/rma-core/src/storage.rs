//! Clustered segment storage (§III "Segments").
//!
//! Keys and values live in two parallel rewirable columns (the
//! key-value split), logically divided into fixed-size segments of `B`
//! slots. Inside a segment, elements are *clustered* against one
//! boundary — the right end for the first segment of each pair, the
//! left end for the second — so each pair of segments exposes one
//! contiguous run of elements with all gaps pushed to the pair's outer
//! edges. A side array `cards` tracks per-segment cardinalities;
//! storage content in gap slots is never read.
//!
//! ```text
//! pair 0                      pair 1
//! [..gaps..|elems][elems|..gaps..][..gaps..|elems][elems|..gaps..]
//!  seg 0           seg 1           seg 2           seg 3
//! ```

use crate::config::{RewiringMode, RmaConfig};
use crate::{Key, Value};
use rewiring::{BackendKind, RewireOptions, RewiredVec};

/// The two clustered columns plus cardinalities.
pub struct Storage {
    pub(crate) keys: RewiredVec<i64>,
    pub(crate) vals: RewiredVec<i64>,
    pub(crate) cards: Vec<u32>,
    seg_size: usize,
}

impl Storage {
    /// Creates storage with one empty segment.
    pub fn new(cfg: &RmaConfig) -> Self {
        let (page_bytes, force_heap) = match cfg.rewiring {
            RewiringMode::Enabled { page_bytes } => (page_bytes, false),
            // Without rewiring the backend is irrelevant; the heap
            // backend avoids accidentally benefiting from mmap.
            RewiringMode::Disabled => (64 << 10, true),
        };
        let opts = RewireOptions {
            page_bytes,
            reserve_bytes: cfg.reserve_bytes,
            force_heap,
            huge_pages: cfg.huge_pages,
        };
        let mut keys = RewiredVec::new(opts);
        let mut vals = RewiredVec::new(opts);
        keys.resize_in_place(cfg.segment_size);
        vals.resize_in_place(cfg.segment_size);
        Storage {
            keys,
            vals,
            cards: vec![0],
            seg_size: cfg.segment_size,
        }
    }

    /// Segment capacity `B`.
    #[inline]
    pub fn seg_size(&self) -> usize {
        self.seg_size
    }

    /// Number of segments.
    #[inline]
    pub fn seg_count(&self) -> usize {
        self.cards.len()
    }

    /// Total slot capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.seg_count() * self.seg_size
    }

    /// Total stored elements.
    pub fn total_cards(&self) -> usize {
        self.cards.iter().map(|&c| c as usize).sum()
    }

    /// Cardinality of segment `seg`.
    #[inline]
    pub fn card(&self, seg: usize) -> usize {
        self.cards[seg] as usize
    }

    /// True if this segment packs its elements against its right end
    /// (the first segment of each pair; the paper numbers segments
    /// from 1 and packs odd ones right).
    #[inline]
    pub fn packs_right(seg: usize) -> bool {
        seg.is_multiple_of(2)
    }

    /// Occupied slot range of segment `seg` in the columns.
    #[inline]
    pub fn seg_range(&self, seg: usize) -> std::ops::Range<usize> {
        let base = seg * self.seg_size;
        let c = self.cards[seg] as usize;
        if Self::packs_right(seg) {
            base + self.seg_size - c..base + self.seg_size
        } else {
            base..base + c
        }
    }

    /// Keys of segment `seg`, in sorted order.
    #[inline]
    pub fn seg_keys(&self, seg: usize) -> &[Key] {
        &self.keys.as_slice()[self.seg_range(seg)]
    }

    /// Values of segment `seg`, parallel to [`Storage::seg_keys`].
    #[inline]
    pub fn seg_vals(&self, seg: usize) -> &[Value] {
        &self.vals.as_slice()[self.seg_range(seg)]
    }

    /// Minimum key of segment `seg`; the segment must be non-empty.
    #[inline]
    pub fn seg_min(&self, seg: usize) -> Key {
        debug_assert!(self.cards[seg] > 0);
        self.keys.as_slice()[self.seg_range(seg).start]
    }

    /// Which backend the columns ended up on.
    pub fn backend_kind(&self) -> BackendKind {
        self.keys.backend_kind()
    }

    /// Physical bytes wired by the columns plus the cards array.
    pub fn memory_footprint(&self) -> usize {
        self.keys.wired_bytes() + self.vals.wired_bytes() + self.cards.capacity() * 4
    }

    /// Inserts `(k, v)` into `seg` keeping sorted order; the segment
    /// must have a free slot. Returns the insertion position within
    /// the segment (0 = new minimum).
    pub fn insert_into_segment(&mut self, seg: usize, k: Key, v: Value) -> usize {
        let c = self.cards[seg] as usize;
        debug_assert!(c < self.seg_size, "segment full");
        let base = seg * self.seg_size;
        let pos = self.seg_keys(seg).partition_point(|&x| x < k);
        let keys = self.keys.as_mut_slice();
        if Self::packs_right(seg) {
            // Occupied [base+B-c, base+B); grow leftward: elements
            // before `pos` shift one slot left.
            let start = base + self.seg_size - c;
            keys.copy_within(start..start + pos, start - 1);
            keys[start - 1 + pos] = k;
            let vals = self.vals.as_mut_slice();
            vals.copy_within(start..start + pos, start - 1);
            vals[start - 1 + pos] = v;
        } else {
            // Occupied [base, base+c); grow rightward: elements from
            // `pos` shift one slot right.
            keys.copy_within(base + pos..base + c, base + pos + 1);
            keys[base + pos] = k;
            let vals = self.vals.as_mut_slice();
            vals.copy_within(base + pos..base + c, base + pos + 1);
            vals[base + pos] = v;
        }
        self.cards[seg] += 1;
        pos
    }

    /// Removes the element at sorted position `pos` of segment `seg`,
    /// returning it.
    pub fn remove_from_segment(&mut self, seg: usize, pos: usize) -> (Key, Value) {
        let c = self.cards[seg] as usize;
        debug_assert!(pos < c);
        let base = seg * self.seg_size;
        let keys = self.keys.as_mut_slice();
        let out_k;
        let out_v;
        if Self::packs_right(seg) {
            let start = base + self.seg_size - c;
            out_k = keys[start + pos];
            keys.copy_within(start..start + pos, start + 1);
            let vals = self.vals.as_mut_slice();
            out_v = vals[start + pos];
            vals.copy_within(start..start + pos, start + 1);
        } else {
            out_k = keys[base + pos];
            keys.copy_within(base + pos + 1..base + c, base + pos);
            let vals = self.vals.as_mut_slice();
            out_v = vals[base + pos];
            vals.copy_within(base + pos + 1..base + c, base + pos);
        }
        self.cards[seg] -= 1;
        (out_k, out_v)
    }

    /// Position of the first key `>= k` within segment `seg`.
    #[inline]
    pub fn seg_lower_bound(&self, seg: usize, k: Key) -> usize {
        self.seg_keys(seg).partition_point(|&x| x < k)
    }

    /// Starts the cache misses of every line of segment `seg`'s keys,
    /// so they overlap instead of queueing behind one another — and
    /// behind the binary search's dependent probes. Clustering is what
    /// makes this possible: the run's address range is known from
    /// `cards[seg]` alone, before any key has been compared.
    #[inline]
    pub fn prefetch_keys(&self, seg: usize) {
        prefetch_lines(self.keys.as_slice(), self.seg_range(seg));
    }

    /// As [`prefetch_keys`](Self::prefetch_keys), for the value run.
    #[inline]
    pub fn prefetch_vals(&self, seg: usize) {
        prefetch_lines(self.vals.as_slice(), self.seg_range(seg));
    }

    /// Hints the line of the value at sorted position `pos` of `seg`.
    #[inline]
    pub fn prefetch_val(&self, seg: usize, pos: usize) {
        rewiring::prefetch(self.vals.as_slice(), self.seg_range(seg).start + pos);
    }

    /// Checks the clustering invariants; test helper.
    pub fn check_invariants(&self) {
        assert_eq!(self.keys.len(), self.capacity());
        assert_eq!(self.vals.len(), self.capacity());
        let mut prev: Option<Key> = None;
        for seg in 0..self.seg_count() {
            assert!(
                self.cards[seg] as usize <= self.seg_size,
                "overfull segment"
            );
            let ks = self.seg_keys(seg);
            for w in ks.windows(2) {
                assert!(w[0] <= w[1], "unsorted segment {seg}");
            }
            if let (Some(p), Some(&first)) = (prev, ks.first()) {
                assert!(p <= first, "segments out of order at {seg}");
            }
            if let Some(&last) = ks.last() {
                prev = Some(last);
            }
        }
    }
}

/// Prefetches every cache line `col[run]` touches. Stepping one line
/// of elements from the run's start reaches all but possibly the last
/// line when the column base is not line-aligned (the heap backend),
/// so the last element is hinted as well.
#[inline]
fn prefetch_lines(col: &[i64], run: std::ops::Range<usize>) {
    const LINE_ELEMS: usize = 64 / std::mem::size_of::<i64>();
    if run.is_empty() {
        return;
    }
    for i in run.clone().step_by(LINE_ELEMS) {
        rewiring::prefetch(col, i);
    }
    rewiring::prefetch(col, run.end - 1);
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage")
            .field("seg_size", &self.seg_size)
            .field("segments", &self.seg_count())
            .field("elements", &self.total_cards())
            .field("backend", &self.backend_kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage(b: usize) -> Storage {
        let cfg = RmaConfig {
            segment_size: b,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 24,
            ..Default::default()
        };
        Storage::new(&cfg)
    }

    fn grow_to(st: &mut Storage, segs: usize) {
        let b = st.seg_size();
        st.keys.resize_in_place(segs * b);
        st.vals.resize_in_place(segs * b);
        st.cards.resize(segs, 0);
    }

    #[test]
    fn right_packed_insert_clusters_to_right_boundary() {
        let mut st = storage(8);
        for k in [5, 1, 9] {
            st.insert_into_segment(0, k, k);
        }
        assert_eq!(st.seg_range(0), 5..8);
        assert_eq!(st.seg_keys(0), &[1, 5, 9]);
        assert_eq!(st.seg_vals(0), &[1, 5, 9]);
        st.check_invariants();
    }

    #[test]
    fn left_packed_insert_clusters_to_left_boundary() {
        let mut st = storage(8);
        grow_to(&mut st, 2);
        for k in [50, 10, 90] {
            st.insert_into_segment(1, k, -k);
        }
        assert_eq!(st.seg_range(1), 8..11);
        assert_eq!(st.seg_keys(1), &[10, 50, 90]);
        assert_eq!(st.seg_vals(1), &[-10, -50, -90]);
    }

    #[test]
    fn pair_forms_contiguous_run() {
        let mut st = storage(4);
        grow_to(&mut st, 2);
        for k in [1, 2, 3] {
            st.insert_into_segment(0, k, k);
        }
        for k in [4, 5] {
            st.insert_into_segment(1, k, k);
        }
        // seg0 occupies slots [1,4), seg1 occupies [4,6): contiguous.
        assert_eq!(st.seg_range(0).end, st.seg_range(1).start);
        let run: Vec<i64> = st.keys.as_slice()[1..6].to_vec();
        assert_eq!(run, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn remove_maintains_clustering() {
        let mut st = storage(8);
        for k in [1, 2, 3, 4, 5] {
            st.insert_into_segment(0, k, k * 10);
        }
        let (k, v) = st.remove_from_segment(0, 2);
        assert_eq!((k, v), (3, 30));
        assert_eq!(st.seg_keys(0), &[1, 2, 4, 5]);
        assert_eq!(st.seg_range(0), 4..8);
        let (k, _) = st.remove_from_segment(0, 0);
        assert_eq!(k, 1);
        assert_eq!(st.seg_keys(0), &[2, 4, 5]);
        st.check_invariants();
    }

    #[test]
    fn remove_from_left_packed() {
        let mut st = storage(8);
        grow_to(&mut st, 2);
        for k in [1, 2, 3, 4] {
            st.insert_into_segment(1, k, k);
        }
        let (k, _) = st.remove_from_segment(1, 3);
        assert_eq!(k, 4);
        assert_eq!(st.seg_range(1), 8..11);
        assert_eq!(st.seg_keys(1), &[1, 2, 3]);
    }

    #[test]
    fn fill_segment_to_capacity() {
        let mut st = storage(8);
        for k in 0..8 {
            st.insert_into_segment(0, k, k);
        }
        assert_eq!(st.card(0), 8);
        assert_eq!(st.seg_range(0), 0..8);
        assert_eq!(st.seg_keys(0), &[0, 1, 2, 3, 4, 5, 6, 7]);
        st.check_invariants();
    }

    #[test]
    fn lower_bound_within_segment() {
        let mut st = storage(8);
        for k in [10, 20, 30] {
            st.insert_into_segment(0, k, k);
        }
        assert_eq!(st.seg_lower_bound(0, 5), 0);
        assert_eq!(st.seg_lower_bound(0, 20), 1);
        assert_eq!(st.seg_lower_bound(0, 25), 2);
        assert_eq!(st.seg_lower_bound(0, 99), 3);
    }

    #[test]
    fn duplicate_keys_preserve_insertion_neighbourhood() {
        let mut st = storage(8);
        for (k, v) in [(5, 1), (5, 2), (5, 3)] {
            st.insert_into_segment(0, k, v);
        }
        assert_eq!(st.seg_keys(0), &[5, 5, 5]);
        st.check_invariants();
    }

    #[test]
    fn footprint_counts_wired_pages() {
        let st = storage(8);
        assert!(st.memory_footprint() >= 2 * 8 * 8);
    }
}
