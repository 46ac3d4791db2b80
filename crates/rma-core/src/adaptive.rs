//! Adaptive rebalancing (§IV): the preprocessing phase that turns
//! Detector metadata into *marked intervals*, and the recursive
//! adaptive algorithm (Algorithm 2) that converts marked intervals
//! into per-segment target cardinalities.
//!
//! A marked interval `⟨s, l⟩` states that new updates are expected
//! among the elements at sorted positions `[s, s + l)` of the window
//! being rebalanced. Insert-dominant intervals (score +1) are pushed
//! towards the child with fewer elements (more future gaps);
//! delete-dominant intervals (score −1) towards the denser child. The
//! sanitisation step (lines 9–14 of Algorithm 2) clamps every split to
//! the child density thresholds, which preserves the amortised
//! `O(log²N / B)` bound.

use crate::detector::{Detector, THETA_SC};
use crate::storage::Storage;
use crate::thresholds::height_for;
use crate::thresholds::Thresholds;

/// A predicted-update interval within a rebalance window, in element
/// positions of the window's sorted content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkedInterval {
    /// First element position (window-relative).
    pub start: usize,
    /// Number of elements covered.
    pub len: usize,
    /// +1 for insert-dominant hammering, −1 for delete-dominant.
    pub score: i32,
}

/// Preprocessing phase: inspects the Detector for the window
/// `segs` and emits the marked intervals (sorted by position).
pub fn compute_marked_intervals(
    detector: &Detector,
    storage: &Storage,
    segs: std::ops::Range<usize>,
) -> Vec<MarkedInterval> {
    let Some(cutoff) = detector.recency_cutoff(segs.clone()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut prefix = 0usize; // elements before the current segment
    for seg in segs {
        let card = storage.card(seg);
        let meta = detector.segment(seg);
        let marked = detector.is_recent(seg, cutoff) && meta.sc.unsigned_abs() >= THETA_SC;
        if marked && card > 0 {
            let score = if meta.sc > 0 { 1 } else { -1 };
            // Prefer the 2-element interval of a confident sequential
            // predictor; fall back to the whole segment.
            let interval = confident_pair(storage, seg, meta).map_or(
                MarkedInterval {
                    start: prefix,
                    len: card,
                    score,
                },
                |(pos, len)| MarkedInterval {
                    start: prefix + pos,
                    len,
                    score,
                },
            );
            out.push(interval);
        }
        prefix += card;
    }
    out
}

/// Returns the in-segment position and length of the segment's
/// predicted hot interval.
///
/// A predictor with counter `≥ θ` gives the paper's confident
/// 2-element interval. Failing that, a predictor whose key is still
/// present in the segment gives a *positional* 2-element estimate —
/// even an oscillating counter keeps its key near the most recent
/// insertions, so the location is informative. Only when neither key
/// can be located does the whole segment get marked; such oversized
/// intervals carry no position information and are handled by the
/// "too big" rule of Algorithm 2.
fn confident_pair(
    storage: &Storage,
    seg: usize,
    meta: &crate::detector::SegmentMeta,
) -> Option<(usize, usize)> {
    let card = storage.card(seg);
    let locate = |key: i64| -> Option<usize> {
        let pos = storage.seg_lower_bound(seg, key);
        (pos < card && storage.seg_keys(seg)[pos] == key).then_some(pos)
    };
    // Prefer the more confident predictor; break ties backward-first.
    let (kbwd, kfwd) = (meta.kbwd(), meta.kfwd());
    let order = if kfwd.counter > kbwd.counter {
        [(kfwd, false), (kbwd, true)]
    } else {
        [(kbwd, true), (kfwd, false)]
    };
    for (pred, backward) in order {
        if pred.counter == 0 {
            continue;
        }
        if let Some(pos) = locate(pred.value) {
            return Some(if backward {
                // Backward pattern: inserts land in [pred(k_bwd), k_bwd].
                let start = pos.saturating_sub(1);
                (start, (card - start).min(2))
            } else {
                // Forward pattern: inserts land in [k_fwd, succ(k_fwd)].
                (pos, (card - pos).min(2))
            });
        }
    }
    None
}

/// Algorithm 2: computes target cardinalities for the `num_segs`
/// segments of a window holding `total` elements, honouring the
/// marked `intervals` and the density `thresholds` of a calibrator
/// tree with `height` levels and segments of `seg_size` slots.
pub fn adaptive_targets(
    seg_size: usize,
    num_segs: usize,
    total: usize,
    intervals: &[MarkedInterval],
    thresholds: &Thresholds,
    height: usize,
) -> Vec<usize> {
    debug_assert!(total <= num_segs * seg_size);
    let mut targets = vec![0usize; num_segs];
    let iv: Vec<MarkedInterval> = intervals
        .iter()
        .copied()
        .filter(|i| i.len > 0 && i.start < total)
        .collect();
    recurse(
        seg_size,
        0,
        num_segs,
        0,
        total,
        &iv,
        thresholds,
        height,
        &mut targets,
    );
    debug_assert_eq!(targets.iter().sum::<usize>(), total);
    targets
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    seg_size: usize,
    seg_lo: usize,
    seg_hi: usize,
    r_start: usize,
    r_len: usize,
    intervals: &[MarkedInterval],
    thresholds: &Thresholds,
    height: usize,
    targets: &mut [usize],
) {
    let m = seg_hi - seg_lo;
    if m == 1 {
        debug_assert!(r_len <= seg_size, "segment target over capacity");
        targets[seg_lo] = r_len;
        return;
    }
    // Split the node into its two calibrator children: the left child
    // covers the aligned power-of-two block, the right child the rest
    // (smaller when the window is clamped at the array edge).
    let half = 1usize << (usize::BITS - 1 - (m - 1).leading_zeros());
    let left_cap = half * seg_size;
    let right_cap = (m - half) * seg_size;

    // Line 3: a window of two segments with an oversized marked
    // interval is simply split evenly — an interval spanning half the
    // content carries no usable position information.
    let oversized = intervals.iter().any(|i| i.len >= r_len.div_ceil(2).max(1));
    let mut cut = if intervals.is_empty() || (m == 2 && oversized) {
        split_even(r_len, left_cap, right_cap)
    } else {
        objective_function(r_start, r_len, intervals)
    };

    // Lines 9–14: sanitise against the child density thresholds.
    let child_level = height_for(half).max(height_for(m - half));
    let child_level = child_level.min(height.saturating_sub(1)).max(1);
    let min_left = thresholds
        .min_card(child_level, height, left_cap)
        .max(r_len.saturating_sub(thresholds.max_card(child_level, height, right_cap)));
    let max_left = thresholds
        .max_card(child_level, height, left_cap)
        .min(r_len.saturating_sub(thresholds.min_card(child_level, height, right_cap)));
    if min_left <= max_left {
        cut = cut.clamp(min_left, max_left);
    } else {
        // Conflicting constraints (can happen on clamped windows at
        // the array edge): fall back to a feasible even split.
        cut = split_even(r_len, left_cap, right_cap);
    }
    // Never exceed physical capacities.
    cut = cut
        .max(r_len.saturating_sub(right_cap))
        .min(left_cap)
        .min(r_len);

    let (left_iv, right_iv) = partition_intervals(intervals, r_start + cut);
    recurse(
        seg_size,
        seg_lo,
        seg_lo + half,
        r_start,
        cut,
        &left_iv,
        thresholds,
        height,
        targets,
    );
    recurse(
        seg_size,
        seg_lo + half,
        seg_hi,
        r_start + cut,
        r_len - cut,
        &right_iv,
        thresholds,
        height,
        targets,
    );
}

/// Even split proportional to child capacities (plain TPMA behaviour).
fn split_even(r_len: usize, left_cap: usize, right_cap: usize) -> usize {
    (r_len * left_cap).div_ceil(left_cap + right_cap).min(r_len)
}

/// The objective function of Algorithm 2: chooses how many elements
/// go to the left child so marked intervals are balanced by score and
/// count, and an unpaired interval lands in the child that suits its
/// score (insert → sparser child, delete → denser child).
fn objective_function(r_start: usize, r_len: usize, intervals: &[MarkedInterval]) -> usize {
    debug_assert!(!intervals.is_empty());
    if intervals.len() == 1 {
        let iv = intervals[0];
        let before = iv.start.saturating_sub(r_start).min(r_len);
        let after = r_len - (before + iv.len).min(r_len);
        if iv.score >= 0 {
            // Insert-dominant: the interval goes to the child with
            // fewer elements, so gaps accumulate where inserts land.
            let interval_left = before <= after;
            return if interval_left {
                before + iv.len.min(r_len - before)
            } else {
                before
            };
        }
        // Delete-dominant: the child positionally containing the
        // interval should stay as dense as the thresholds allow, so
        // future deletions free space where they land. The sanitise
        // step clamps the extreme cut into the feasible range.
        let interval_positionally_left = before + iv.len / 2 <= r_len / 2;
        return if interval_positionally_left { r_len } else { 0 };
    }
    // Several intervals: pick the boundary j (intervals[..j] left)
    // that balances cumulative score first, then count; place the cut
    // midway in the gap between the two boundary intervals.
    let total_score: i32 = intervals.iter().map(|i| i.score).sum();
    let total_count = intervals.len() as i32;
    let mut best_j = 1;
    let mut best = (i32::MAX, i32::MAX);
    let mut left_score = 0;
    for j in 1..intervals.len() {
        left_score += intervals[j - 1].score;
        let score_diff = (2 * left_score - total_score).abs();
        let count_diff = (2 * j as i32 - total_count).abs();
        if (score_diff, count_diff) < best {
            best = (score_diff, count_diff);
            best_j = j;
        }
    }
    let gap_lo = intervals[best_j - 1].start + intervals[best_j - 1].len;
    let gap_hi = intervals[best_j].start;
    let mid = gap_lo + (gap_hi.saturating_sub(gap_lo)) / 2;
    mid.saturating_sub(r_start).min(r_len)
}

/// Splits intervals at absolute element position `cut_abs`; straddling
/// intervals are divided into two pieces.
fn partition_intervals(
    intervals: &[MarkedInterval],
    cut_abs: usize,
) -> (Vec<MarkedInterval>, Vec<MarkedInterval>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &iv in intervals {
        let end = iv.start + iv.len;
        if end <= cut_abs {
            left.push(iv);
        } else if iv.start >= cut_abs {
            right.push(iv);
        } else {
            left.push(MarkedInterval {
                start: iv.start,
                len: cut_abs - iv.start,
                score: iv.score,
            });
            right.push(MarkedInterval {
                start: cut_abs,
                len: end - cut_abs,
                score: iv.score,
            });
        }
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ut() -> Thresholds {
        Thresholds::update_oriented()
    }

    /// The paper's running example (Fig. 2a / Fig. 7): 16 elements in
    /// 4 segments of 6 slots; the last insertions were 14, 15, 16, so
    /// the marked interval is the pair {16, 19} at positions (4, 2).
    /// The paper's thresholds for that figure are ρ₁=0.1, τ₁=1,
    /// ρ₂=0.2, τ₂=0.875, ρ₃=0.3, τ₃=0.75. Expected targets: [4,2,5,5].
    #[test]
    fn reproduces_fig7_example() {
        let t = Thresholds {
            rho_1: 0.1,
            rho_h: 0.3,
            tau_h: 0.75,
            tau_1: 1.0,
            policy: crate::thresholds::ResizePolicy::Double,
        };
        t.validate();
        let iv = [MarkedInterval {
            start: 4,
            len: 2,
            score: 1,
        }];
        // Segment size 6 is not a power of two; the algorithm itself
        // has no such requirement (only the storage does).
        let targets = adaptive_targets(6, 4, 16, &iv, &t, 3);
        assert_eq!(targets, vec![4, 2, 5, 5]);
    }

    #[test]
    fn no_intervals_gives_even_spread() {
        let targets = adaptive_targets(8, 4, 16, &[], &ut(), 3);
        assert_eq!(targets, vec![4, 4, 4, 4]);
    }

    #[test]
    fn targets_always_sum_to_total() {
        for total in [0usize, 1, 7, 16, 24, 30] {
            for iv_start in [0usize, 3, 10] {
                let iv = [MarkedInterval {
                    start: iv_start,
                    len: 2,
                    score: 1,
                }];
                let targets = adaptive_targets(8, 4, total, &iv, &ut(), 3);
                assert_eq!(targets.iter().sum::<usize>(), total, "total={total}");
                assert!(targets.iter().all(|&t| t <= 8));
            }
        }
    }

    #[test]
    fn delete_interval_moves_to_denser_side() {
        // 12 elements, delete hammering at the front: the front
        // partition should receive MORE elements (denser), so future
        // deletes free space where they land.
        let iv = [MarkedInterval {
            start: 0,
            len: 2,
            score: -1,
        }];
        let del = adaptive_targets(8, 2, 12, &iv, &ut(), 2);
        let ins = adaptive_targets(
            8,
            2,
            12,
            &[MarkedInterval {
                start: 0,
                len: 2,
                score: 1,
            }],
            &ut(),
            2,
        );
        assert!(
            del[0] >= ins[0],
            "delete hammering should keep the hammered side denser: del={del:?} ins={ins:?}"
        );
    }

    #[test]
    fn two_intervals_split_between_children() {
        let iv = [
            MarkedInterval {
                start: 1,
                len: 2,
                score: 1,
            },
            MarkedInterval {
                start: 13,
                len: 2,
                score: 1,
            },
        ];
        let targets = adaptive_targets(8, 4, 16, &iv, &ut(), 3);
        assert_eq!(targets.iter().sum::<usize>(), 16);
        // Both halves keep their hammered interval; neither side is
        // starved below the level-2 lower threshold.
        assert!(targets[0] + targets[1] >= 4);
        assert!(targets[2] + targets[3] >= 4);
    }

    #[test]
    fn straddling_interval_is_partitioned() {
        let iv = [MarkedInterval {
            start: 0,
            len: 16,
            score: 1,
        }];
        let targets = adaptive_targets(8, 4, 16, &iv, &ut(), 3);
        assert_eq!(targets.iter().sum::<usize>(), 16);
    }

    #[test]
    fn non_power_of_two_window() {
        let targets = adaptive_targets(8, 3, 20, &[], &ut(), 3);
        assert_eq!(targets.iter().sum::<usize>(), 20);
        assert!(targets.iter().all(|&t| t <= 8));
    }

    #[test]
    fn full_window_distributes_capacity() {
        let targets = adaptive_targets(4, 4, 16, &[], &ut(), 3);
        assert_eq!(targets, vec![4, 4, 4, 4]);
    }

    #[test]
    fn partition_intervals_splits_straddlers() {
        let iv = [MarkedInterval {
            start: 2,
            len: 6,
            score: 1,
        }];
        let (l, r) = partition_intervals(&iv, 5);
        assert_eq!(
            l,
            vec![MarkedInterval {
                start: 2,
                len: 3,
                score: 1
            }]
        );
        assert_eq!(
            r,
            vec![MarkedInterval {
                start: 5,
                len: 3,
                score: 1
            }]
        );
    }
}
