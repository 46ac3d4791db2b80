//! Density thresholds of the calibrator tree (§II "Density
//! thresholds", §III "Scan-oriented thresholds").
//!
//! The calibrator tree has `h` levels; level 1 is a single segment,
//! level `h` covers the whole array. Each level has a lower `ρ_l` and
//! an upper `τ_l` density bound, interpolated arithmetically between
//! the four designer-chosen extremes `ρ₁, ρ_h, τ_h, τ₁` with
//! `0 ≤ ρ₁ < ρ_h ≤ τ_h < τ₁ ≤ 1`.
//!
//! Two presets follow the paper:
//! * **update-oriented** (`ρ₁=0.08, ρ_h=0.3, τ_h=0.75, τ₁=1`): looser
//!   constraints, fewer rebalances, capacity doubles/halves on resize
//!   (in whole logical pages once it is more than one);
//! * **scan-oriented** (`ρ₁=0, ρ_h=τ_h=0.75, τ₁=1`): array kept ~75%
//!   full, capacity set to `2N/(τ_h+ρ_h)` on resize, plus a forced
//!   shrink when the fill factor drops below 50%.
//!
//! The presets are the only way to build a [`Thresholds`]: the four
//! extremes and the resize policy are fixed by the paper, so no
//! ordering check is needed at run time.

use std::ops::Range;

/// How the array capacity changes when a resize is unavoidable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResizePolicy {
    /// Capacity doubles on growth and halves on shrink (the paper's
    /// first strategy; favours updates). A bulk-built array need not
    /// be a power of two — it is a whole number of logical pages —
    /// and stays so: 3 pages double to 6, and halve to 2, not 1.5
    /// (the half is rounded up to whole pages while it is more than
    /// one; from one page down the counts are powers of two). The
    /// calibrator tree over such an array has a ragged last window on
    /// its upper levels, as under `Proportional`.
    Double,
    /// Capacity becomes `2N / (τ_h + ρ_h)` (the paper's second
    /// strategy; favours scans). A fill factor below 50% forces a
    /// shrink.
    Proportional,
}

/// The four threshold extremes plus the resize policy: one of the
/// paper's two presets, [`update_oriented`](Self::update_oriented) or
/// [`scan_oriented`](Self::scan_oriented).
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Lower density bound at the segment level.
    pub(crate) rho_1: f64,
    /// Lower density bound at the root level.
    pub(crate) rho_h: f64,
    /// Upper density bound at the root level.
    pub(crate) tau_h: f64,
    /// Upper density bound at the segment level (1.0 in the RMA:
    /// segments fill completely before triggering a rebalance).
    pub(crate) tau_1: f64,
    /// Resize strategy tied to the preset.
    pub(crate) policy: ResizePolicy,
}

impl Thresholds {
    /// The paper's update-oriented preset (UT), also the default used
    /// in most of its experiments.
    pub fn update_oriented() -> Self {
        Thresholds {
            rho_1: 0.08,
            rho_h: 0.3,
            tau_h: 0.75,
            tau_1: 1.0,
            policy: ResizePolicy::Double,
        }
    }

    /// The paper's scan-oriented preset (ST) from §III.
    pub fn scan_oriented() -> Self {
        Thresholds {
            rho_1: 0.0,
            rho_h: 0.75,
            tau_h: 0.75,
            tau_1: 1.0,
            policy: ResizePolicy::Proportional,
        }
    }

    /// Upper density bound at `level` (1-based) of a calibrator tree
    /// of height `height`.
    #[inline]
    pub fn tau(&self, level: usize, height: usize) -> f64 {
        debug_assert!(level >= 1 && level <= height);
        if height <= 1 {
            return self.tau_1;
        }
        let t = (level - 1) as f64 / (height - 1) as f64;
        self.tau_1 + t * (self.tau_h - self.tau_1)
    }

    /// Lower density bound at `level` (1-based).
    #[inline]
    pub fn rho(&self, level: usize, height: usize) -> f64 {
        debug_assert!(level >= 1 && level <= height);
        if height <= 1 {
            return self.rho_1;
        }
        let t = (level - 1) as f64 / (height - 1) as f64;
        self.rho_1 + t * (self.rho_h - self.rho_1)
    }

    /// Maximum cardinality a window of `cap` slots tolerates at
    /// `level` before it must spill to the parent window.
    #[inline]
    pub fn max_card(&self, level: usize, height: usize, cap: usize) -> usize {
        (self.tau(level, height) * cap as f64).floor() as usize
    }

    /// Minimum cardinality a window of `cap` slots tolerates.
    #[inline]
    pub fn min_card(&self, level: usize, height: usize, cap: usize) -> usize {
        (self.rho(level, height) * cap as f64).ceil() as usize
    }
}

/// Height of the calibrator tree over `leaves` leaves (1 = a single
/// leaf), which is also the level of a window of that many leaves:
/// `⌈log₂ leaves⌉ + 1`, the last window of a level ragged when
/// `leaves` is not a power of two.
pub fn height_for(leaves: usize) -> usize {
    if leaves <= 1 {
        1
    } else {
        (usize::BITS - (leaves - 1).leading_zeros()) as usize + 1
    }
}

/// The one calibrator-window search: the windows above `leaf` in a
/// tree over `leaves` leaves, with their levels, smallest first — for
/// every level from 2 to the root, the aligned run of `2^(level-1)`
/// leaves holding `leaf`, the last run of a level ragged. A window's
/// level and [`height_for`]`(leaves)` give its density bounds
/// ([`Thresholds::rho`], [`Thresholds::tau`]); an array's leaves are
/// its segments, a sharded index's its shards.
pub fn windows_above(leaf: usize, leaves: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    (2..=height_for(leaves)).map(move |level| {
        let w = 1usize << (level - 1);
        let start = leaf / w * w;
        (level, start..(start + w).min(leaves))
    })
}

#[cfg(test)]
impl Thresholds {
    /// Checks the designer ordering `0 ≤ ρ₁ ≤ ρ_h ≤ τ_h < τ₁ ≤ 1`
    /// (and `2ρ_h ≤ τ_h` under doubling), panicking with the violated
    /// rule.
    pub(crate) fn validate(&self) {
        let rule = if !(self.rho_1 >= 0.0 && self.tau_1 <= 1.0) {
            "thresholds out of [0,1]"
        } else if self.rho_1 > self.rho_h {
            "rho_1 must be <= rho_h"
        } else if self.rho_h > self.tau_h {
            "rho_h must be <= tau_h"
        } else if self.tau_h >= self.tau_1 {
            "tau_h must be < tau_1"
        } else if self.policy == ResizePolicy::Double && 2.0 * self.rho_h > self.tau_h {
            "doubling requires 2*rho_h <= tau_h for consistency"
        } else {
            return;
        };
        panic!("{rule}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Thresholds::update_oriented().validate();
        Thresholds::scan_oriented().validate();
    }

    #[test]
    fn interpolation_hits_extremes() {
        let t = Thresholds::update_oriented();
        let h = 10;
        assert!((t.tau(1, h) - 1.0).abs() < 1e-12);
        assert!((t.tau(h, h) - 0.75).abs() < 1e-12);
        assert!((t.rho(1, h) - 0.08).abs() < 1e-12);
        assert!((t.rho(h, h) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn tau_decreases_rho_increases_with_level() {
        let t = Thresholds::update_oriented();
        let h = 8;
        for l in 1..h {
            assert!(t.tau(l, h) >= t.tau(l + 1, h));
            assert!(t.rho(l, h) <= t.rho(l + 1, h));
        }
    }

    #[test]
    fn rho_stays_below_tau_at_every_level() {
        for t in [Thresholds::update_oriented(), Thresholds::scan_oriented()] {
            for h in 1..20 {
                for l in 1..=h {
                    assert!(t.rho(l, h) <= t.tau(l, h), "h={h} l={l}");
                }
            }
        }
    }

    #[test]
    fn card_bounds_round_conservatively() {
        let t = Thresholds::update_oriented();
        // At root level with cap 100: tau=0.75 -> 75, rho=0.3 -> 30.
        assert_eq!(t.max_card(5, 5, 100), 75);
        assert_eq!(t.min_card(5, 5, 100), 30);
        // Segment level: tau_1 = 1.0 -> the full segment.
        assert_eq!(t.max_card(1, 5, 128), 128);
    }

    #[test]
    fn single_level_tree_uses_leaf_values() {
        let t = Thresholds::update_oriented();
        assert_eq!(t.tau(1, 1), 1.0);
        assert_eq!(t.rho(1, 1), 0.08);
    }

    #[test]
    #[should_panic(expected = "tau_h must be < tau_1")]
    fn invalid_ordering_panics() {
        Thresholds {
            rho_1: 0.1,
            rho_h: 0.3,
            tau_h: 1.0,
            tau_1: 1.0,
            policy: ResizePolicy::Double,
        }
        .validate();
    }
}
