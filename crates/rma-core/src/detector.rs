//! The Detector (§IV, Fig. 8, Algorithm 1): per-segment metadata that
//! identifies hammered intervals for adaptive rebalancing.
//!
//! Each segment carries:
//! * a fixed-length queue `Q` of the timestamps of its most recent
//!   updates (a discrete global counter in this implementation);
//! * two predicted keys `k_bwd` / `k_fwd` with saturating counters: on
//!   every insertion of key `k`, if the successor of `k` matches
//!   `k_bwd` (a backward-sequential pattern, e.g. 16, 15, 14, …) its
//!   counter increments, if the predecessor matches `k_fwd` (forward
//!   pattern) that counter increments, otherwise both decay; a counter
//!   hitting zero re-targets its key;
//! * a score counter `sc`, incremented per insertion and decremented
//!   per deletion, that decides whether a marked interval predicts
//!   inserts (+1) or deletes (−1).
//!
//! Every update of the array reads and writes its segment's metadata,
//! so the layout serves that one access:
//! * **One cache line a segment.** A [`SegmentMeta`] is 64 bytes,
//!   64-aligned, in one flat `Vec`: `u32` timestamps, byte-sized
//!   counters and score. An update that knows its segment prefetches
//!   the line beside the segment run it shifts
//!   ([`Detector::prefetch`]), so its miss overlaps the run's. A queue
//!   allocated apart from the record would add a second miss that can
//!   start only after the first, and an allocation per segment.
//! * **A 32-bit clock that resets instead of wrapping.** When the
//!   clock would pass `u32::MAX`, every segment resets, exactly as at
//!   a resize, and the clock starts again from 1. That is at most once
//!   per 2^32 updates of one array; until then every decision is the
//!   one a 64-bit clock makes.

use crate::Key;

/// Length of the per-segment timestamp queue.
pub const QUEUE_LEN: usize = 8;
/// Saturation bound `SC` for the pattern counters and `|sc|`.
pub const SC_MAX: u8 = 7;
/// Pattern-counter threshold `θ_SC`: at or above it, a marked
/// interval shrinks to the predicted 2-element range.
pub const THETA_SC: u8 = 2;
/// A segment is marked when at least this fraction of its queued
/// timestamps exceeds the recency cutoff.
const MARK_FRACTION: f64 = 0.75;
/// The recency cutoff is the timestamp ranked `TOP_RANK` from the top
/// across the window being rebalanced: two segments' full queues.
///
/// The paper uses the 99.9th percentile at 2^30-element scale; a
/// rank-based cutoff expresses the same intent ("only the most
/// recently hammered segments") in a way that is robust at the
/// scaled-down window sizes of this reproduction (see DESIGN.md).
const TOP_RANK: usize = 2 * QUEUE_LEN;

/// One pattern predictor: a key and its saturating counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Predictor {
    /// The predicted boundary key.
    pub value: Key,
    /// Confidence counter in `[0, SC]`.
    pub counter: u8,
}

/// Per-segment metadata (Fig. 8), one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct SegmentMeta {
    /// Ring buffer of recent update timestamps.
    timestamps: [u32; QUEUE_LEN],
    /// Predicted key of `k_bwd`, then of `k_fwd`.
    k_bwd: Key,
    k_fwd: Key,
    /// Their confidence counters.
    c_bwd: u8,
    c_fwd: u8,
    /// Insert/delete balance in `[-SC, +SC]`.
    pub sc: i8,
    head: u8,
    filled: u8,
}

const _: () =
    assert!(std::mem::size_of::<SegmentMeta>() == 64 && std::mem::align_of::<SegmentMeta>() == 64);

impl SegmentMeta {
    const EMPTY: SegmentMeta = SegmentMeta {
        timestamps: [0; QUEUE_LEN],
        k_bwd: 0,
        k_fwd: 0,
        c_bwd: 0,
        c_fwd: 0,
        sc: 0,
        head: 0,
        filled: 0,
    };

    fn record_timestamp(&mut self, ts: u32) {
        self.timestamps[self.head as usize] = ts;
        self.head = (self.head + 1) % QUEUE_LEN as u8;
        self.filled = (self.filled + 1).min(QUEUE_LEN as u8);
    }

    /// The recorded timestamps (unordered).
    pub fn timestamps(&self) -> &[u32] {
        &self.timestamps[..self.filled as usize]
    }

    /// Backward-sequential predictor (`k_bwd`).
    pub fn kbwd(&self) -> Predictor {
        Predictor {
            value: self.k_bwd,
            counter: self.c_bwd,
        }
    }

    /// Forward-sequential predictor (`k_fwd`).
    pub fn kfwd(&self) -> Predictor {
        Predictor {
            value: self.k_fwd,
            counter: self.c_fwd,
        }
    }
}

/// The Detector: one [`SegmentMeta`] per segment plus the global
/// operation clock.
#[derive(Debug)]
pub struct Detector {
    segments: Vec<SegmentMeta>,
    clock: u32,
}

impl Detector {
    /// A detector for `num_segments` segments.
    pub fn new(num_segments: usize) -> Self {
        Detector {
            segments: vec![SegmentMeta::EMPTY; num_segments],
            clock: 0,
        }
    }

    /// Metadata of segment `seg`.
    pub fn segment(&self, seg: usize) -> &SegmentMeta {
        &self.segments[seg]
    }

    /// Bytes allocated for the metadata: one line per segment of
    /// capacity, which a shrink keeps.
    pub fn memory_footprint(&self) -> usize {
        self.segments.capacity() * std::mem::size_of::<SegmentMeta>()
    }

    /// Re-dimensions the detector after a resize; all metadata resets
    /// (the paper rebuilds index-adjacent state at resizes too).
    pub fn reset(&mut self, num_segments: usize) {
        self.segments.clear();
        self.segments.reserve_exact(num_segments);
        self.segments.resize(num_segments, SegmentMeta::EMPTY);
    }

    /// Hints the line of segment `seg`'s metadata, so that an update
    /// starts its miss beside those of the segment run.
    #[inline]
    pub fn prefetch(&self, seg: usize) {
        rewiring::prefetch(&self.segments, seg);
    }

    /// The timestamp of the next update. A clock at `u32::MAX` would
    /// wrap below the queued timestamps, so instead every segment
    /// resets, as at a resize, and the clock starts again.
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.segments.fill(SegmentMeta::EMPTY);
            self.clock = 0;
        }
        self.clock += 1;
        self.clock
    }

    /// Algorithm 1: updates segment `seg` after inserting key `k`
    /// whose in-array neighbours are `pred` and `succ` (`None` at the
    /// array boundaries).
    pub fn on_insert(&mut self, seg: usize, _k: Key, pred: Option<Key>, succ: Option<Key>) {
        let ts = self.tick();
        let meta = &mut self.segments[seg];
        meta.record_timestamp(ts);
        meta.sc = (meta.sc + 1).min(SC_MAX as i8);

        let bwd_hit = succ.is_some_and(|s| s == meta.k_bwd && meta.c_bwd > 0);
        let fwd_hit = pred.is_some_and(|p| p == meta.k_fwd && meta.c_fwd > 0);
        if bwd_hit {
            meta.c_bwd = (meta.c_bwd + 1).min(SC_MAX);
        } else if fwd_hit {
            meta.c_fwd = (meta.c_fwd + 1).min(SC_MAX);
        } else {
            meta.c_bwd = meta.c_bwd.saturating_sub(1);
            meta.c_fwd = meta.c_fwd.saturating_sub(1);
            if meta.c_bwd == 0 {
                if let Some(s) = succ {
                    meta.k_bwd = s;
                    meta.c_bwd = 1;
                }
            }
            if meta.c_fwd == 0 {
                if let Some(p) = pred {
                    meta.k_fwd = p;
                    meta.c_fwd = 1;
                }
            }
        }
    }

    /// Deletion bookkeeping (§IV "Deletions"): timestamps record the
    /// update; `sc` decays towards the deletion side.
    pub fn on_delete(&mut self, seg: usize) {
        let ts = self.tick();
        let meta = &mut self.segments[seg];
        meta.record_timestamp(ts);
        meta.sc = (meta.sc - 1).max(-(SC_MAX as i8));
    }

    /// The recency cutoff for a window: the timestamp ranked
    /// `TOP_RANK` from the top among all timestamps recorded by
    /// `segs`, or `None` when the window has no recorded activity.
    pub fn recency_cutoff(&self, segs: std::ops::Range<usize>) -> Option<u32> {
        let mut all: Vec<u32> = Vec::with_capacity(segs.len() * QUEUE_LEN);
        for s in segs {
            all.extend_from_slice(self.segments[s].timestamps());
        }
        if all.is_empty() {
            return None;
        }
        let idx = all.len().saturating_sub(TOP_RANK);
        Some(*all.select_nth_unstable(idx).1)
    }

    /// True if segment `seg` passes the recency mark rule: at least
    /// `MARK_FRACTION` of its queued timestamps exceed `cutoff`.
    pub fn is_recent(&self, seg: usize, cutoff: u32) -> bool {
        let meta = &self.segments[seg];
        if meta.filled == 0 {
            return false;
        }
        let above = meta.timestamps().iter().filter(|&&t| t > cutoff).count();
        (above as f64) >= MARK_FRACTION * f64::from(meta.filled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_sequential_pattern_builds_confidence() {
        let mut d = Detector::new(4);
        // Fig. 8 semantics: k_bwd tracks a *fixed successor*. An
        // ascending run 14, 15, 16 … inserted before existing key 19
        // always sees successor 19.
        for k in 14..19 {
            d.on_insert(0, k, Some(k - 1), Some(19));
        }
        let kbwd = d.segment(0).kbwd();
        assert_eq!(kbwd.value, 19);
        assert!(
            kbwd.counter >= THETA_SC,
            "kbwd counter {} too low",
            kbwd.counter
        );
    }

    #[test]
    fn forward_sequential_pattern_builds_confidence() {
        let mut d = Detector::new(4);
        // k_fwd tracks a *fixed predecessor*: a descending run 150,
        // 149, 148 … inserted after existing key 100 always sees
        // predecessor 100.
        for k in (140..150).rev() {
            d.on_insert(1, k, Some(100), Some(k + 1));
        }
        let kfwd = d.segment(1).kfwd();
        assert_eq!(kfwd.value, 100);
        assert!(kfwd.counter >= THETA_SC);
    }

    #[test]
    fn random_inserts_decay_counters() {
        let mut d = Detector::new(2);
        for k in [5i64, 100, 3, 77, 42, 9, 64, 21] {
            d.on_insert(0, k, Some(k - 1), Some(k + 1000));
        }
        let m = d.segment(0);
        assert!(m.kbwd().counter <= 1, "no stable backward pattern expected");
        assert!(m.kfwd().counter <= 1);
    }

    #[test]
    fn sc_tracks_insert_delete_balance_with_saturation() {
        let mut d = Detector::new(1);
        for _ in 0..20 {
            d.on_insert(0, 1, None, None);
        }
        assert_eq!(d.segment(0).sc, SC_MAX as i8);
        for _ in 0..40 {
            d.on_delete(0);
        }
        assert_eq!(d.segment(0).sc, -(SC_MAX as i8));
    }

    #[test]
    fn recency_marks_only_hammered_segment() {
        let mut d = Detector::new(8);
        // Balanced background activity (round-robin)...
        for k in 0..8 {
            for s in 0..8 {
                d.on_insert(s, k, None, None);
            }
        }
        // ...then hammer segment 3.
        for k in 0..8 {
            d.on_insert(3, k, None, None);
        }
        let cutoff = d.recency_cutoff(0..8).unwrap();
        assert!(d.is_recent(3, cutoff), "hammered segment must be marked");
        let marked: Vec<usize> = (0..8).filter(|&s| d.is_recent(s, cutoff)).collect();
        assert_eq!(marked, vec![3]);
    }

    #[test]
    fn uniform_activity_marks_nothing_or_everything_weakly() {
        let mut d = Detector::new(16);
        for round in 0..16 {
            for s in 0..16 {
                d.on_insert(s, round, None, None);
            }
        }
        let cutoff = d.recency_cutoff(0..16).unwrap();
        let marked = (0..16).filter(|&s| d.is_recent(s, cutoff)).count();
        assert!(
            marked <= 2,
            "uniform activity should not mark segments, got {marked}"
        );
    }

    #[test]
    fn recency_cutoff_is_the_sorted_reference() {
        let mut rng = proptest::TestRng::new(7);
        for round in 0..200 {
            let segs = 1 + rng.below(40) as usize;
            let mut d = Detector::new(segs);
            for _ in 0..rng.below(600) {
                let s = rng.below(segs as u64) as usize;
                if rng.below(4) == 0 {
                    d.on_delete(s);
                } else {
                    d.on_insert(s, 0, None, None);
                }
            }
            let lo = rng.below(segs as u64) as usize;
            let hi = lo + rng.below((segs - lo) as u64 + 1) as usize;
            let mut all: Vec<_> = (lo..hi)
                .flat_map(|s| d.segment(s).timestamps().to_vec())
                .collect();
            all.sort_unstable();
            // The timestamp ranked 2 × QUEUE_LEN = 16 from the top.
            let want = all.get(all.len().saturating_sub(16)).copied();
            assert_eq!(d.recency_cutoff(lo..hi), want, "round {round}");
        }
    }

    #[test]
    fn empty_window_has_no_cutoff() {
        let d = Detector::new(4);
        assert_eq!(d.recency_cutoff(0..4), None);
    }

    #[test]
    fn the_clock_resets_every_segment_where_it_would_wrap() {
        let mut d = Detector::new(4);
        d.clock = u32::MAX - 3;
        for s in 0..3 {
            d.on_insert(s, 1, None, Some(2));
        }
        assert_eq!(d.segment(2).timestamps(), [u32::MAX]);
        // The update that wraps the clock.
        d.on_delete(3);
        assert_eq!(d.segment(3).timestamps(), [1]);
        assert_eq!(d.segment(3).sc, -1);
        for s in 0..3 {
            let m = d.segment(s);
            assert!(m.timestamps().is_empty(), "segment {s}");
            assert_eq!((m.sc, m.kbwd().counter), (0, 0), "segment {s}");
        }
        assert_eq!(d.recency_cutoff(0..4), Some(1));
    }

    #[test]
    fn one_line_a_segment() {
        let mut d = Detector::new(24);
        assert_eq!(d.memory_footprint(), 24 * 64);
        // A resize re-allocates only to grow, and exactly.
        d.reset(48);
        assert_eq!(d.memory_footprint(), 48 * 64);
        d.reset(16);
        assert_eq!((d.segments.len(), d.memory_footprint()), (16, 48 * 64));
    }

    #[test]
    fn reset_clears_metadata() {
        let mut d = Detector::new(2);
        d.on_insert(0, 1, None, None);
        d.reset(4);
        assert_eq!(d.segments.len(), 4);
        assert_eq!(d.segment(0).timestamps().len(), 0);
    }
}
