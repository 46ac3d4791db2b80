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
//!    imbalance the maintenance planner needs to see.
//! 3. **Survives restructuring.** When maintenance splits or merges
//!    shards, the learned signal must not reset to zero (a fresh shard
//!    with an empty histogram would immediately look "cold" and
//!    oscillate). Each drained shard's mass is laid on its residents
//!    ([`AccessStats::resident_shares`]), and a successor's histogram
//!    is seeded with the mass of the residents it takes
//!    ([`AccessStats::seed`]), so the mass stays where the keys are.
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
    pub(crate) fn bucket_of(&self, k: Key) -> usize {
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

    /// The access mass each resident of this histogram's shard
    /// carries, by bucket: bucket `b`'s mass split evenly over the
    /// residents (`keys`, ascending) that record into it, and the mass
    /// of a bucket none of them records into handed on to the next
    /// bucket that has one (the last such bucket takes what trails it).
    /// A resident `k` carries `shares[bucket_of(k)]`; the shares sum,
    /// over the residents, to the histogram's total (to zero when
    /// `keys` is empty). Returns the shares and that total.
    pub fn resident_shares(&self, keys: impl Iterator<Item = Key>) -> (Vec<f64>, f64) {
        let mut count = vec![0usize; self.buckets.len()];
        keys.for_each(|k| count[self.bucket_of(k)] += 1);
        let mut shares = vec![0.0; count.len()];
        let (mut pending, mut total, mut last) = (0.0, 0.0, None);
        for (b, bucket) in self.buckets.iter().enumerate() {
            pending += bucket.load(Relaxed) as f64;
            if count[b] > 0 {
                shares[b] = pending / count[b] as f64;
                (total, pending, last) = (total + pending, 0.0, Some(b));
            }
        }
        if let Some(b) = last {
            shares[b] += pending / count[b] as f64;
            total += pending;
        }
        (shares, total)
    }

    /// Adds the mass `weighted` puts on each key (ascending keys, as
    /// [`resident_shares`](Self::resident_shares) weighs a shard's
    /// residents) into the bucket the key records into, so a shard
    /// rebuilt from another's residents starts with their mass where
    /// they are. Rounds the running sum, not each key: the histogram
    /// gains the total weight to the nearest unit.
    pub fn seed(&self, weighted: impl IntoIterator<Item = (Key, f64)>) {
        let (mut sum, mut seeded) = (0.0, 0u64);
        for (k, w) in weighted {
            sum += w;
            let due = (sum.round() as u64).saturating_sub(seeded);
            if due > 0 {
                self.buckets[self.bucket_of(k)].fetch_add(due, Relaxed);
                seeded += due;
            }
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
        // The residents are the even keys; bucket 7 has none past 900,
        // and the mass of [900, 1000) stays with bucket 7's residents.
        let keys = || (0..900).step_by(2);
        let (shares, sum) = src.resident_shares(keys());
        assert_eq!(sum, total as f64);
        // Re-bin into a *different* geometry covering half the range.
        let dst = AccessStats::new(Some(500), Some(1000), 5);
        dst.seed(keys().map(|k| (k, shares[src.bucket_of(k)])));
        assert_eq!(dst.total(), total, "seed must conserve mass");
        // Residents below 500 saturate into dst's first bucket, and
        // none lies in its last.
        assert!(dst.snapshot()[0] > 0 && dst.snapshot()[4] == 0);
    }

    #[test]
    fn seed_distributes_proportionally() {
        // Mass recorded where no resident is lands on the residents:
        // bucket 0 holds none, so its 300 units go to bucket 1's.
        let src = AccessStats::new(Some(0), Some(100), 4);
        for k in [1, 2, 3] {
            (0..100).for_each(|_| src.record(k));
        }
        (0..100).for_each(|_| src.record(60));
        let keys = [30, 40, 60, 70];
        let (shares, total) = src.resident_shares(keys.into_iter());
        assert_eq!(shares, [0.0, 150.0, 50.0, 0.0]);
        assert_eq!(total, 400.0);
        let dst = AccessStats::new(Some(0), Some(100), 10);
        dst.seed(keys.map(|k| (k, shares[src.bucket_of(k)])));
        assert_eq!(dst.snapshot(), [0, 0, 0, 150, 150, 0, 50, 50, 0, 0]);
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
