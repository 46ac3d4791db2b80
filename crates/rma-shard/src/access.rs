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
//! 3. **Survives restructuring, read from counts.** When maintenance
//!    splits or merges shards, the learned signal must not reset to
//!    zero (a fresh shard with an empty histogram would look "cold"
//!    and oscillate). Each bucket's mass is laid evenly on the
//!    residents inside it ([`AccessStats::resident_shares`]) and a
//!    successor is seeded with the mass of the residents it takes, so
//!    the mass stays where the keys are. Both read only how many
//!    residents each bucket holds: ranks at its edges.
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
        // The last bucket absorbs both the flooring remainder of the
        // width division and any width.max(1) overshoot.
        AccessStats {
            lo,
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

    /// Residents per bucket, counted from ranks alone: `below(k)`
    /// residents have a key `< k`, asked at ascending bucket edges
    /// (`Rma::ascending_ranks`, or a `partition_point` on a sorted
    /// run), `len` in all; the edge buckets take what saturates.
    pub(crate) fn bucket_counts(
        &self,
        mut below: impl FnMut(Key) -> usize,
        len: usize,
    ) -> Vec<usize> {
        let edge = |b: usize| match self.lo + b as i128 * i128::from(self.width) {
            e if e > Key::MAX as i128 => len,
            e => below(e.max(Key::MIN as i128) as Key),
        };
        let mut ranks: Vec<usize> = vec![0];
        ranks.extend((1..self.buckets.len()).map(edge).chain([len]));
        ranks.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// What each resident carries, by bucket: bucket `b`'s mass split
    /// evenly over its `counts[b]` residents, the mass of a bucket with
    /// none handed on to the next that has some (the last such takes
    /// what trails it). Returns the shares and their sum over the
    /// residents: the histogram's total, or zero when there are none.
    pub fn resident_shares(&self, counts: &[usize]) -> (Vec<f64>, f64) {
        let mut shares = vec![0.0; counts.len()];
        let (mut pending, mut total, mut last) = (0.0, 0.0, None);
        for (b, bucket) in self.buckets.iter().enumerate() {
            pending += bucket.load(Relaxed) as f64;
            if counts[b] > 0 {
                shares[b] = pending / counts[b] as f64;
                (total, pending, last) = (total + pending, 0.0, Some(b));
            }
        }
        if let Some(b) = last {
            shares[b] += pending / counts[b] as f64;
            total += pending;
        }
        (shares, total)
    }

    /// Adds the mass `mass` puts on residents `from..` — `counts[b]`
    /// of them in bucket `b`, as [`bucket_counts`](Self::bucket_counts)
    /// counts them — into those buckets, so a shard rebuilt from
    /// others' residents starts with their mass where they are. Rounds
    /// the running sum at each bucket's end: the histogram gains the
    /// total to the nearest unit.
    pub(crate) fn seed(&self, mass: &ResidentMass, from: usize, counts: Vec<usize>) {
        let (mut sum, mut seeded, mut at) = (0.0, 0u64, from);
        for (bucket, c) in self.buckets.iter().zip(counts) {
            sum += mass.between(at..at + c);
            at += c;
            let due = (sum.round() as u64).saturating_sub(seeded);
            bucket.fetch_add(due, Relaxed);
            seeded += due;
        }
    }
}

/// The access mass a sorted run of residents carries, as cuts and
/// successor histograms weigh it: one run of equal shares per bucket
/// of each histogram the residents were counted in, so `O(buckets)`
/// entries, not one per resident.
pub(crate) struct ResidentMass {
    /// The rank each run starts at, then the residents' count.
    ranks: Vec<usize>,
    /// The mass before each run, then the total.
    cum: Vec<f64>,
    /// What each resident of a run carries.
    shares: Vec<f64>,
}

impl ResidentMass {
    pub(crate) fn new() -> Self {
        let (ranks, cum, shares) = (vec![0], vec![0.0], Vec::new());
        ResidentMass { ranks, cum, shares }
    }

    /// Appends a shard's residents, counted per bucket of its `stats`
    /// by `below` and `len`, carrying their shares (one each with
    /// `by_count`). Returns the rank of the first of them.
    pub(crate) fn push(
        &mut self,
        stats: &AccessStats,
        below: impl FnMut(Key) -> usize,
        len: usize,
        by_count: bool,
    ) -> usize {
        let (first, counts) = (self.len(), stats.bucket_counts(below, len));
        let shares = match by_count {
            true => vec![1.0; counts.len()],
            false => stats.resident_shares(&counts).0,
        };
        for (c, share) in counts.into_iter().zip(shares) {
            self.ranks.push(self.len() + c);
            self.cum.push(self.total() + c as f64 * share);
            self.shares.push(share);
        }
        first
    }

    /// Residents counted.
    pub(crate) fn len(&self) -> usize {
        self.ranks[self.ranks.len() - 1]
    }

    /// The mass of every resident counted.
    pub(crate) fn total(&self) -> f64 {
        self.cum[self.cum.len() - 1]
    }

    /// A resident at or just before the one whose mass reaches `q > 0`
    /// — the run by prefix sums, then the resident by the run's share
    /// — or `None` when the total stays below `q`.
    pub(crate) fn crossing(&self, q: f64) -> Option<usize> {
        let run = self.cum[1..].partition_point(|&c| c < q);
        let inside = ((q - self.cum[run]) / self.shares.get(run)?).floor();
        Some((self.ranks[run] + inside.max(0.0) as usize).min(self.ranks[run + 1] - 1))
    }

    /// The mass of residents `from..to`; none past those counted.
    pub(crate) fn between(&self, residents: std::ops::Range<usize>) -> f64 {
        let (mut sum, mut at, to) = (0.0, residents.start, residents.end.min(self.len()));
        while at < to {
            let run = self.ranks.partition_point(|&r| r <= at) - 1;
            let end = self.ranks[run + 1].min(to);
            sum += (end - at) as f64 * self.shares[run];
            at = end;
        }
        sum
    }
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

    /// Residents of sorted `keys` per bucket of `h`, by rank.
    fn counts_of(h: &AccessStats, keys: &[Key]) -> Vec<usize> {
        h.bucket_counts(|k| keys.partition_point(|&x| x < k), keys.len())
    }

    #[test]
    fn last_bucket_extends_to_the_range_end() {
        // Range 103 over 10 buckets: width floors to 10, leaving a
        // [100, 103) tail that must belong to the last bucket.
        let h = AccessStats::new(Some(0), Some(103), 10);
        assert_eq!(h.bucket_of(102), 9);
        assert_eq!(
            counts_of(&h, &[89, 90, 100, 102]),
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 3]
        );
    }

    /// Counting by rank at the bucket edges puts every resident where
    /// `bucket_of` does, saturated keys and unbounded ranges included.
    #[test]
    fn bucket_counts_match_bucket_of() {
        let mut rng = proptest::TestRng::new(5);
        let ranges = [
            (None, Some(i64::MIN + 1)),
            (Some(i64::MIN), Some(i64::MAX)),
            (None, None),
            (Some(-1000), Some(1 << 40)),
            (Some(5), Some(5)),
            (Some(i64::MAX), None),
        ];
        for (lo, hi) in ranges {
            for n in [1usize, 3, 32] {
                let h = AccessStats::new(lo, hi, n);
                let mut keys: Vec<Key> = (0..500).map(|_| rng.next_u64() as Key).collect();
                keys.extend((0..500).map(|_| (rng.next_u64() >> 40) as Key - 1000));
                keys.extend([Key::MIN, Key::MAX, 0, 0]);
                keys.sort_unstable();
                let mut want = vec![0; n];
                keys.iter().for_each(|&k| want[h.bucket_of(k)] += 1);
                assert_eq!(counts_of(&h, &keys), want, "{lo:?}..{hi:?} / {n}");
            }
        }
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
        let keys: Vec<Key> = (0..900).step_by(2).collect();
        let below = |k: Key| keys.partition_point(|&x| x < k);
        let (_, sum) = src.resident_shares(&counts_of(&src, &keys));
        assert_eq!(sum, total as f64);
        let mut mass = ResidentMass::new();
        mass.push(&src, below, keys.len(), false);
        assert_eq!(mass.total(), sum);
        // Re-bin into a *different* geometry covering half the range.
        let dst = AccessStats::new(Some(500), Some(1000), 5);
        dst.seed(&mass, 0, dst.bucket_counts(below, keys.len()));
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
        let below = |k: Key| keys.partition_point(|&x| x < k);
        let (shares, total) = src.resident_shares(&counts_of(&src, &keys));
        assert_eq!(shares, [0.0, 150.0, 50.0, 0.0]);
        assert_eq!(total, 400.0);
        let mut mass = ResidentMass::new();
        mass.push(&src, below, keys.len(), false);
        // A rank past the residents counted carries nothing.
        assert_eq!((mass.between(1..3), mass.between(0..9)), (200.0, 400.0));
        let dst = AccessStats::new(Some(0), Some(100), 10);
        dst.seed(&mass, 0, dst.bucket_counts(below, keys.len()));
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
                let end = modelled_range(lo, hi).1;
                let mut keys = vec![Key::MIN, Key::MAX, 0, clamp(h.lo - 1), clamp(end)];
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
