//! The shifting-hotspot workload: a key distribution whose hammered
//! region jumps (or drifts) between phases.
//!
//! The paper's adaptive machinery (§IV) exists precisely because real
//! workloads concentrate on a small, *moving* part of the key space.
//! None of the paper's four patterns exercises the moving part: Zipf
//! hammers a fixed region forever and sequential moves one key at a
//! time. This generator fills that gap for the shard maintenance
//! experiments: time is divided into fixed-length **phases**; within a
//! phase, a `hot_fraction` of the draws land uniformly inside a narrow
//! **hot band** of width `hot_width`, and the rest fall uniformly over
//! the whole domain; at each phase boundary the band relocates —
//! either to a fresh seeded-random position ([`HotspotMotion::Jump`])
//! or by a fixed step ([`HotspotMotion::Drift`]).
//!
//! Everything is a pure function of `(seed, op index)`: the band
//! position of phase `p` is derived from the seed and `p` alone, so a
//! replay harness can compute `hot_range(p)` without drawing a single
//! key, and two streams with the same seed are bit-identical.

use crate::{Key, SplitMix64, Value};

/// How the hot band relocates at phase boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotspotMotion {
    /// The band jumps to an independent seeded-uniform position each
    /// phase (the adversarial case for learned splitters).
    Jump,
    /// The band's lower edge advances by `step` keys per phase,
    /// wrapping at the domain end (a slowly moving working set).
    Drift {
        /// Keys the band moves per phase.
        step: i64,
    },
}

/// Parameters of a [`ShiftingHotspot`] stream.
#[derive(Debug, Clone, Copy)]
pub struct HotspotConfig {
    /// Keys are drawn from `[0, domain)`.
    pub domain: i64,
    /// Operations per phase (the band holds still within a phase).
    pub phase_len: u64,
    /// Fraction of draws that land inside the hot band.
    pub hot_fraction: f64,
    /// Width of the hot band in keys.
    pub hot_width: i64,
    /// How the band relocates between phases.
    pub motion: HotspotMotion,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        HotspotConfig {
            domain: 1 << 62,
            phase_len: 100_000,
            hot_fraction: 0.9,
            // 1/64th of the domain: narrow enough that a static
            // uniform sharding concentrates it in one shard.
            hot_width: 1 << 56,
            motion: HotspotMotion::Jump,
        }
    }
}

impl HotspotConfig {
    fn validate(&self) {
        assert!(self.domain > 0, "domain must be positive");
        assert!(self.phase_len > 0, "phases need at least one op");
        assert!(
            (0.0..=1.0).contains(&self.hot_fraction),
            "hot fraction is a probability"
        );
        assert!(
            self.hot_width > 0 && self.hot_width <= self.domain,
            "hot band must fit inside the domain"
        );
    }
}

/// Deterministic stream of `(key, value)` pairs whose hot band shifts
/// between phases. Values carry the 1-based draw rank, matching
/// [`KeyStream`](crate::KeyStream).
#[derive(Debug, Clone)]
pub struct ShiftingHotspot {
    cfg: HotspotConfig,
    seed: u64,
    rng: SplitMix64,
    emitted: u64,
}

impl ShiftingHotspot {
    /// Creates a stream for `cfg` seeded with `seed`.
    pub fn new(cfg: HotspotConfig, seed: u64) -> Self {
        cfg.validate();
        ShiftingHotspot {
            cfg,
            seed,
            rng: SplitMix64::new(seed),
            emitted: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HotspotConfig {
        &self.cfg
    }

    /// Phase index of operation `op` (0-based).
    pub fn phase_of(&self, op: u64) -> u64 {
        op / self.cfg.phase_len
    }

    /// Phase the *next* draw belongs to.
    pub fn current_phase(&self) -> u64 {
        self.phase_of(self.emitted)
    }

    /// The hot band `[lo, hi)` of phase `p` — a pure function of the
    /// seed and `p`, independent of how many keys were drawn.
    pub fn hot_range(&self, phase: u64) -> (Key, Key) {
        let positions = (self.cfg.domain - self.cfg.hot_width + 1) as u64;
        let lo = match self.cfg.motion {
            HotspotMotion::Jump => {
                // An independent one-draw generator per phase: mixing
                // the phase index through SplitMix's output function
                // decorrelates adjacent phases.
                let mut r =
                    SplitMix64::new(self.seed ^ (phase + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                r.next_below(positions) as i64
            }
            HotspotMotion::Drift { step } => {
                let start = SplitMix64::new(self.seed ^ 0xD1F7_BEE5).next_below(positions) as i64;
                let span = positions as i128;
                let pos = (start as i128 + step as i128 * phase as i128).rem_euclid(span);
                pos as i64
            }
        };
        (lo, lo + self.cfg.hot_width)
    }

    /// Draws the next key.
    #[inline]
    pub fn next_key(&mut self) -> Key {
        let phase = self.current_phase();
        self.emitted += 1;
        if self.rng.next_f64() < self.cfg.hot_fraction {
            let (lo, _) = self.hot_range(phase);
            lo + self.rng.next_below(self.cfg.hot_width as u64) as i64
        } else {
            self.rng.next_below(self.cfg.domain as u64) as i64
        }
    }

    /// Draws the next `(key, value)` pair; the value is the 1-based
    /// rank of the pair within the stream.
    #[inline]
    pub fn next_pair(&mut self) -> (Key, Value) {
        let k = self.next_key();
        (k, self.emitted as i64)
    }

    /// Collects the next `n` pairs.
    pub fn take_pairs(&mut self, n: usize) -> Vec<(Key, Value)> {
        (0..n).map(|_| self.next_pair()).collect()
    }

    /// Number of keys drawn so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HotspotConfig {
        HotspotConfig {
            domain: 1 << 20,
            phase_len: 1000,
            hot_fraction: 0.9,
            hot_width: 1 << 12,
            motion: HotspotMotion::Jump,
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = ShiftingHotspot::new(small_cfg(), 7);
        let mut b = ShiftingHotspot::new(small_cfg(), 7);
        for _ in 0..3000 {
            assert_eq!(a.next_pair(), b.next_pair());
        }
    }

    #[test]
    fn keys_stay_in_domain() {
        let cfg = small_cfg();
        let mut s = ShiftingHotspot::new(cfg, 3);
        for _ in 0..5000 {
            let k = s.next_key();
            assert!((0..cfg.domain).contains(&k), "key {k} escaped the domain");
        }
    }

    #[test]
    fn hot_fraction_lands_in_the_band() {
        let cfg = small_cfg();
        let mut s = ShiftingHotspot::new(cfg, 11);
        let mut hot = 0usize;
        let n = cfg.phase_len as usize; // stay inside phase 0
        let (lo, hi) = s.hot_range(0);
        for _ in 0..n {
            let k = s.next_key();
            if (lo..hi).contains(&k) {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!(
            frac > 0.85 && frac <= 1.0,
            "hot fraction {frac} far from configured 0.9"
        );
    }

    #[test]
    fn jump_band_moves_between_phases() {
        let s = ShiftingHotspot::new(small_cfg(), 5);
        let ranges: Vec<(i64, i64)> = (0..6).map(|p| s.hot_range(p)).collect();
        let distinct: std::collections::BTreeSet<i64> = ranges.iter().map(|r| r.0).collect();
        assert!(distinct.len() >= 5, "bands barely move: {ranges:?}");
    }

    #[test]
    fn drift_band_moves_by_step() {
        let mut cfg = small_cfg();
        cfg.motion = HotspotMotion::Drift { step: 500 };
        let s = ShiftingHotspot::new(cfg, 5);
        let (a, _) = s.hot_range(0);
        let (b, _) = s.hot_range(1);
        let (c, _) = s.hot_range(2);
        let span = cfg.domain - cfg.hot_width + 1;
        assert_eq!((b - a).rem_euclid(span), 500);
        assert_eq!((c - b).rem_euclid(span), 500);
    }

    #[test]
    fn hot_range_is_independent_of_draw_position() {
        let cfg = small_cfg();
        let fresh = ShiftingHotspot::new(cfg, 9);
        let mut drawn = ShiftingHotspot::new(cfg, 9);
        for _ in 0..2500 {
            drawn.next_key();
        }
        for p in 0..5 {
            assert_eq!(fresh.hot_range(p), drawn.hot_range(p));
        }
        assert_eq!(drawn.current_phase(), 2);
    }

    #[test]
    fn values_carry_rank() {
        let mut s = ShiftingHotspot::new(small_cfg(), 13);
        let pairs = s.take_pairs(3);
        assert_eq!(pairs[0].1, 1);
        assert_eq!(pairs[2].1, 3);
    }

    #[test]
    #[should_panic(expected = "hot band")]
    fn oversized_band_panics() {
        let cfg = HotspotConfig {
            hot_width: 1 << 30,
            domain: 1 << 20,
            ..small_cfg()
        };
        let _ = ShiftingHotspot::new(cfg, 1);
    }
}
