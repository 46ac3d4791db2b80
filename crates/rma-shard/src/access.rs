//! The online access histogram (§IV of the paper, lifted one level):
//! where the Detector learns hammered intervals *inside* one RMA, the
//! [`AccessStats`] learns hammered intervals *across* a shard's key
//! range, so shard maintenance can split shards where the workload
//! actually lands instead of at the key median.
//!
//! Design constraints, in order:
//!
//! 1. **Zero coordination on the hot path.** Point operations already
//!    hold only their shard's `RwLock`; the histogram must not add a
//!    second lock. Every bucket is a plain `AtomicU64` bumped with a
//!    `Relaxed` `fetch_add` — the counters are advisory statistics,
//!    not synchronisation.
//! 2. **Bounded staleness.** A hotspot that moved an hour ago must not
//!    outvote the hotspot of the last minute. Every `DECAY_EVERY`
//!    operations on the *whole index*, every shard's histogram halves
//!    together ([`crate::ShardedRma`] drives this off one shared op
//!    clock), so bucket counts are a geometric sum that forgets the
//!    past at a fixed rate. The decay clock is deliberately
//!    global: halving shards on their *own* op counts would drive
//!    every busy shard toward the same steady-state mass
//!    (~2 × `DECAY_EVERY`) and erase exactly the cross-shard
//!    imbalance the split/merge pass needs to see.
//! 3. **Survives restructuring.** When maintenance splits or merges
//!    shards, the learned signal must not reset to zero (a fresh shard
//!    with an empty histogram would immediately look "cold" and
//!    oscillate). [`AccessStats::seed`] re-bins another histogram's
//!    weighted buckets into this one's geometry, piecewise-uniformly.
//!
//! The bucket geometry is fixed at construction: `num_buckets` equal
//! slices of the shard's key range. Unbounded range edges clamp to the
//! workload generators' positive 62-bit domain, which keeps bucket
//! widths meaningful for every workload this repository generates;
//! keys outside the modelled range saturate into the edge buckets.

use rma_core::Key;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Default key domain modelled when a shard range edge is unbounded:
/// the workload generators draw uniform keys from `[0, 2^62)`.
const DOMAIN_END: i128 = 1 << 62;

/// A lock-free, decaying access histogram over one shard's key range.
pub struct AccessStats {
    /// Inclusive lower edge of the modelled range.
    lo: i128,
    /// Exclusive upper edge of the modelled range.
    hi: i128,
    /// Per-bucket key width (>= 1). The modelled range spans less
    /// than 2^64 keys, so it fits a `u64`.
    width: u64,
    buckets: Box<[AtomicU64]>,
}

impl std::fmt::Debug for AccessStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessStats")
            .field("lo", &self.lo)
            .field("width", &self.width)
            .field("total", &self.total())
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

/// Resolves a shard's possibly-unbounded range to a concrete modelled
/// interval `[lo, hi)` with `hi > lo`.
fn modelled_range(lo: Option<Key>, hi: Option<Key>) -> (i128, i128) {
    let (lo, hi) = match (lo, hi) {
        (Some(l), Some(h)) => (l as i128, h as i128),
        // Right-open shard: model up to the generator domain end.
        (Some(l), None) => (l as i128, DOMAIN_END.max(l as i128 + 1)),
        // Left-open shard: model down to zero (negative keys saturate
        // into bucket 0 — they exist only in adversarial tests).
        (None, Some(h)) => ((h as i128 - 1).min(0), h as i128),
        (None, None) => (0, DOMAIN_END),
    };
    (lo, hi.max(lo + 1))
}

impl AccessStats {
    /// A zeroed histogram of `num_buckets` equal slices over the shard
    /// range `[lo, hi)` (`None` = unbounded, clamped to the modelled
    /// domain).
    pub fn new(lo: Option<Key>, hi: Option<Key>, num_buckets: usize) -> Self {
        assert!(num_buckets >= 1, "need at least one bucket");
        let (lo, hi) = modelled_range(lo, hi);
        let width = ((hi - lo) / num_buckets as i128).max(1);
        AccessStats {
            lo,
            // The last bucket absorbs both the flooring remainder of
            // the width division and any width.max(1) overshoot.
            hi: hi.max(lo + num_buckets as i128 * width),
            width: u64::try_from(width).expect("the modelled range spans under 2^64 keys"),
            buckets: (0..num_buckets).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Bucket index of key `k`, saturating at the range edges. Runs on
    /// every recorded key, so it divides in 64 bits. A key below `lo`
    /// is bucket 0; an offset `k − lo` too large for a `u64` (only
    /// when `lo` lies below `Key::MIN`) saturates, which still lands
    /// in the last bucket.
    #[inline]
    fn bucket_of(&self, k: Key) -> usize {
        let offset = k as i128 - self.lo;
        if offset < 0 {
            return 0;
        }
        let offset = u64::try_from(offset).unwrap_or(u64::MAX);
        ((offset / self.width) as usize).min(self.buckets.len() - 1)
    }

    /// Records one access to key `k`. Lock-free; decay is driven
    /// externally (see [`crate::ShardedRma`]'s shared op clock).
    #[inline]
    pub fn record(&self, k: Key) {
        self.buckets[self.bucket_of(k)].fetch_add(1, Relaxed);
    }

    /// Halves every bucket (one exponential-decay step). Concurrent
    /// increments commute with the CAS loop; the counters stay
    /// approximately right, which is all a statistic needs.
    pub fn decay(&self) {
        for b in self.buckets.iter() {
            let _ = b.fetch_update(Relaxed, Relaxed, |v| Some(v / 2));
        }
    }

    /// Zeroes all buckets (test/measurement hook).
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Relaxed);
        }
    }

    /// Total decayed access mass across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Snapshot of the raw bucket counters.
    pub fn snapshot(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Relaxed)).collect()
    }

    /// Non-empty buckets as `(bucket_lo, bucket_hi, mass)` triples in
    /// key order — the CDF input of
    /// [`Splitters::from_weighted_histogram`](crate::Splitters::from_weighted_histogram).
    /// The last bucket's upper edge extends to the modelled range
    /// end, so keys saturated into it stay inside its reported range.
    pub fn weighted_buckets(&self) -> Vec<(Key, Key, u64)> {
        let (n, width) = (self.buckets.len() as i128, i128::from(self.width));
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let w = b.load(Relaxed);
                if w == 0 {
                    return None;
                }
                let blo = self.lo + i as i128 * width;
                let bhi = if i as i128 + 1 == n {
                    self.hi
                } else {
                    self.lo + (i as i128 + 1) * width
                };
                Some((clamp_key(blo), clamp_key(bhi), w))
            })
            .collect()
    }

    /// Adds another histogram's weighted buckets into this one,
    /// distributing each source bucket's mass over the destination
    /// buckets it overlaps, proportionally to the overlap. Mass
    /// outside this histogram's range saturates into the edge buckets
    /// (nothing is dropped).
    pub fn seed(&self, weights: &[(Key, Key, u64)]) {
        let (n, width) = (self.buckets.len() as i128, i128::from(self.width));
        for &(slo, shi, w) in weights {
            let (slo, shi) = (slo as i128, (shi as i128).max(slo as i128 + 1));
            let src_width = shi - slo;
            // Destination bucket range the source overlaps (clamped).
            let first = ((slo - self.lo) / width).clamp(0, n - 1);
            let last = ((shi - 1 - self.lo) / width).clamp(0, n - 1);
            let mut assigned = 0u64;
            for d in first..last {
                let dhi = self.lo + (d + 1) * width;
                let overlap = (dhi.min(shi) - slo.max(self.lo + d * width)).max(0);
                let share = ((w as i128 * overlap) / src_width) as u64;
                self.buckets[d as usize].fetch_add(share, Relaxed);
                assigned += share;
            }
            // Remainder (rounding + overhang past either edge) lands
            // in the last overlapped bucket so totals are preserved.
            self.buckets[last as usize].fetch_add(w - assigned, Relaxed);
        }
    }
}

/// Clamps a modelled i128 key position back into the `Key` domain.
fn clamp_key(x: i128) -> Key {
    x.clamp(Key::MIN as i128, Key::MAX as i128) as Key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_buckets() {
        let h = AccessStats::new(Some(0), Some(1000), 10);
        h.record(0);
        h.record(99);
        h.record(100);
        h.record(999);
        h.record(-5); // saturates low
        h.record(2000); // saturates high
        let snap = h.snapshot();
        assert_eq!(snap[0], 3);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[9], 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn decay_halves_counters() {
        let h = AccessStats::new(Some(0), Some(100), 4);
        for _ in 0..8 {
            h.record(10);
        }
        h.decay();
        assert_eq!(h.total(), 4);
        h.decay();
        h.decay();
        assert_eq!(h.total(), 1);
        h.decay();
        assert_eq!(h.total(), 0, "decay drives stale mass to zero");
    }

    #[test]
    fn unbounded_edges_use_the_generator_domain() {
        let h = AccessStats::new(None, None, 4);
        h.record(0);
        h.record((1 << 62) - 1);
        h.record(1 << 60); // within the second quarter
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[3], 1);
        assert_eq!(snap[1], 1);
    }

    #[test]
    fn weighted_buckets_skip_zeros_and_cover_ranges() {
        let h = AccessStats::new(Some(0), Some(400), 4);
        h.record(50);
        h.record(350);
        let wb = h.weighted_buckets();
        assert_eq!(wb, vec![(0, 100, 1), (300, 400, 1)]);
    }

    #[test]
    fn last_bucket_extends_to_the_range_end() {
        // Range 103 over 10 buckets: width floors to 10, leaving a
        // [100, 103) tail that must belong to the last bucket's
        // reported range.
        let h = AccessStats::new(Some(0), Some(103), 10);
        h.record(102);
        assert_eq!(h.weighted_buckets(), vec![(90, 103, 1)]);
    }

    #[test]
    fn seed_preserves_total_mass() {
        let src = AccessStats::new(Some(0), Some(1000), 8);
        for k in (0..1000).step_by(7) {
            src.record(k);
        }
        let total = src.total();
        // Re-bin into a *different* geometry covering half the range.
        let dst = AccessStats::new(Some(500), Some(1000), 5);
        dst.seed(&src.weighted_buckets());
        assert_eq!(dst.total(), total, "seed must conserve mass");
        // Mass from below 500 saturates into dst's first bucket.
        assert!(dst.snapshot()[0] > dst.snapshot()[4]);
    }

    #[test]
    fn seed_distributes_proportionally() {
        let dst = AccessStats::new(Some(0), Some(100), 10);
        // One source bucket spanning [0, 100) with mass 1000.
        dst.seed(&[(0, 100, 1000)]);
        let snap = dst.snapshot();
        assert_eq!(snap.iter().sum::<u64>(), 1000);
        assert!(snap.iter().all(|&b| b == 100), "{snap:?}");
    }

    #[test]
    fn clear_resets_everything() {
        let h = AccessStats::new(Some(0), Some(10), 2);
        h.record(1);
        h.record(9);
        h.clear();
        assert_eq!(h.total(), 0);
        assert_eq!(h.snapshot(), vec![0, 0]);
    }

    #[test]
    fn degenerate_range_still_works() {
        let h = AccessStats::new(Some(5), Some(5), 4);
        h.record(5);
        h.record(4);
        assert_eq!(h.total(), 2);
    }

    /// `bucket_of` divides in 64 bits; the reference is the formula it
    /// replaced, in `i128`.
    #[test]
    fn bucket_of_matches_the_i128_formula() {
        let ranges = [
            (None, Some(i64::MIN + 1)),
            (None, Some(i64::MIN)),
            (Some(i64::MIN), None),
            (Some(i64::MIN), Some(i64::MAX)),
            (None, None),
            (Some(-1000), Some(1 << 40)),
            (Some(5), Some(5)),
            (Some(i64::MAX), None),
        ];
        let mut rng = proptest::TestRng::new(11);
        for (lo, hi) in ranges {
            for n in [1usize, 3, 64, 1000] {
                let h = AccessStats::new(lo, hi, n);
                let reference = |k: Key| {
                    let idx = (k as i128 - h.lo) / h.width as i128;
                    idx.clamp(0, n as i128 - 1) as usize
                };
                let clamp = |x: i128| x.clamp(Key::MIN as i128, Key::MAX as i128) as Key;
                let mut keys = vec![Key::MIN, Key::MAX, 0, clamp(h.lo - 1), clamp(h.hi)];
                for i in 0..=n as i128 {
                    let edge = h.lo + i * h.width as i128;
                    keys.extend([clamp(edge - 1), clamp(edge), clamp(edge + 1)]);
                }
                keys.extend((0..2000).map(|_| rng.next_u64() as Key));
                keys.extend((0..2000).map(|_| clamp(h.lo + (rng.next_u64() >> 1) as i128)));
                for k in keys {
                    assert_eq!(h.bucket_of(k), reference(k), "{lo:?}..{hi:?} / {n}: {k}");
                }
            }
        }
    }

    #[test]
    fn shared_across_threads() {
        let h = AccessStats::new(Some(0), Some(1000), 4);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for k in 0..1000 {
                        h.record(k);
                    }
                });
            }
        });
        assert_eq!(h.total(), 4000);
    }
}
