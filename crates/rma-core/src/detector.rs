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
/// The recency cutoff is the timestamp ranked `TOP_MULTIPLIER ×
/// QUEUE_LEN` from the top across the window being rebalanced.
///
/// The paper uses the 99.9th percentile at 2^30-element scale; a
/// rank-based cutoff expresses the same intent ("only the most
/// recently hammered segments") in a way that is robust at the
/// scaled-down window sizes of this reproduction (see DESIGN.md).
const TOP_MULTIPLIER: f64 = 2.0;

/// One pattern predictor: a key and its saturating counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Predictor {
    /// The predicted boundary key.
    pub value: Key,
    /// Confidence counter in `[0, SC]`.
    pub counter: u8,
}

/// Per-segment metadata (Fig. 8).
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Ring buffer of recent update timestamps.
    timestamps: Box<[u64]>,
    head: usize,
    filled: usize,
    /// Backward-sequential predictor (`k_bwd`).
    pub kbwd: Predictor,
    /// Forward-sequential predictor (`k_fwd`).
    pub kfwd: Predictor,
    /// Insert/delete balance in `[-SC, +SC]`.
    pub sc: i16,
}

impl SegmentMeta {
    fn new() -> Self {
        SegmentMeta {
            timestamps: vec![0; QUEUE_LEN].into_boxed_slice(),
            head: 0,
            filled: 0,
            kbwd: Predictor::default(),
            kfwd: Predictor::default(),
            sc: 0,
        }
    }

    fn record_timestamp(&mut self, ts: u64) {
        self.timestamps[self.head] = ts;
        self.head = (self.head + 1) % self.timestamps.len();
        self.filled = (self.filled + 1).min(self.timestamps.len());
    }

    /// The recorded timestamps (unordered).
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps[..self.filled]
    }
}

/// The Detector: one [`SegmentMeta`] per segment plus the global
/// operation clock.
#[derive(Debug)]
pub struct Detector {
    segments: Vec<SegmentMeta>,
    clock: u64,
}

impl Detector {
    /// A detector for `num_segments` segments.
    pub fn new(num_segments: usize) -> Self {
        Detector {
            segments: (0..num_segments).map(|_| SegmentMeta::new()).collect(),
            clock: 0,
        }
    }

    /// Metadata of segment `seg`.
    pub fn segment(&self, seg: usize) -> &SegmentMeta {
        &self.segments[seg]
    }

    /// Number of tracked segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Re-dimensions the detector after a resize; all metadata resets
    /// (the paper rebuilds index-adjacent state at resizes too).
    pub fn reset(&mut self, num_segments: usize) {
        self.segments = (0..num_segments).map(|_| SegmentMeta::new()).collect();
    }

    /// Algorithm 1: updates segment `seg` after inserting key `k`
    /// whose in-array neighbours are `pred` and `succ` (`None` at the
    /// array boundaries).
    pub fn on_insert(&mut self, seg: usize, _k: Key, pred: Option<Key>, succ: Option<Key>) {
        self.clock += 1;
        let meta = &mut self.segments[seg];
        meta.record_timestamp(self.clock);
        meta.sc = (meta.sc + 1).min(SC_MAX as i16);

        let bwd_hit = succ.is_some_and(|s| s == meta.kbwd.value && meta.kbwd.counter > 0);
        let fwd_hit = pred.is_some_and(|p| p == meta.kfwd.value && meta.kfwd.counter > 0);
        if bwd_hit {
            meta.kbwd.counter = (meta.kbwd.counter + 1).min(SC_MAX);
        } else if fwd_hit {
            meta.kfwd.counter = (meta.kfwd.counter + 1).min(SC_MAX);
        } else {
            meta.kbwd.counter = meta.kbwd.counter.saturating_sub(1);
            meta.kfwd.counter = meta.kfwd.counter.saturating_sub(1);
            if meta.kbwd.counter == 0 {
                if let Some(s) = succ {
                    meta.kbwd.value = s;
                    meta.kbwd.counter = 1;
                }
            }
            if meta.kfwd.counter == 0 {
                if let Some(p) = pred {
                    meta.kfwd.value = p;
                    meta.kfwd.counter = 1;
                }
            }
        }
    }

    /// Deletion bookkeeping (§IV "Deletions"): timestamps record the
    /// update; `sc` decays towards the deletion side.
    pub fn on_delete(&mut self, seg: usize) {
        self.clock += 1;
        let meta = &mut self.segments[seg];
        meta.record_timestamp(self.clock);
        meta.sc = (meta.sc - 1).max(-(SC_MAX as i16));
    }

    /// The recency cutoff for a window: the timestamp ranked
    /// `TOP_MULTIPLIER × QUEUE_LEN` from the top among all timestamps
    /// recorded by `segs`, or `None` when the window has no recorded
    /// activity.
    pub fn recency_cutoff(&self, segs: std::ops::Range<usize>) -> Option<u64> {
        let mut all: Vec<u64> = Vec::with_capacity(segs.len() * QUEUE_LEN);
        for s in segs {
            all.extend_from_slice(self.segments[s].timestamps());
        }
        if all.is_empty() {
            return None;
        }
        all.sort_unstable();
        let top = ((TOP_MULTIPLIER * QUEUE_LEN as f64).round() as usize).max(1);
        let idx = all.len().saturating_sub(top);
        Some(all[idx])
    }

    /// True if segment `seg` passes the recency mark rule: at least
    /// `MARK_FRACTION` of its queued timestamps exceed `cutoff`.
    pub fn is_recent(&self, seg: usize, cutoff: u64) -> bool {
        let meta = &self.segments[seg];
        if meta.filled == 0 {
            return false;
        }
        let above = meta.timestamps().iter().filter(|&&t| t > cutoff).count();
        (above as f64) >= MARK_FRACTION * meta.filled as f64
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
        let m = d.segment(0);
        assert_eq!(m.kbwd.value, 19);
        assert!(
            m.kbwd.counter >= THETA_SC,
            "kbwd counter {} too low",
            m.kbwd.counter
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
        let m = d.segment(1);
        assert_eq!(m.kfwd.value, 100);
        assert!(m.kfwd.counter >= THETA_SC);
    }

    #[test]
    fn random_inserts_decay_counters() {
        let mut d = Detector::new(2);
        for k in [5i64, 100, 3, 77, 42, 9, 64, 21] {
            d.on_insert(0, k, Some(k - 1), Some(k + 1000));
        }
        let m = d.segment(0);
        assert!(m.kbwd.counter <= 1, "no stable backward pattern expected");
        assert!(m.kfwd.counter <= 1);
    }

    #[test]
    fn sc_tracks_insert_delete_balance_with_saturation() {
        let mut d = Detector::new(1);
        for _ in 0..20 {
            d.on_insert(0, 1, None, None);
        }
        assert_eq!(d.segment(0).sc, SC_MAX as i16);
        for _ in 0..40 {
            d.on_delete(0);
        }
        assert_eq!(d.segment(0).sc, -(SC_MAX as i16));
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
    fn empty_window_has_no_cutoff() {
        let d = Detector::new(4);
        assert_eq!(d.recency_cutoff(0..4), None);
    }

    #[test]
    fn reset_clears_metadata() {
        let mut d = Detector::new(2);
        d.on_insert(0, 1, None, None);
        d.reset(4);
        assert_eq!(d.num_segments(), 4);
        assert_eq!(d.segment(0).timestamps().len(), 0);
    }
}
