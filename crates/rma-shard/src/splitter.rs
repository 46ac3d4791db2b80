//! Key-space partitioning: splitter keys and the branch-free router.
//!
//! A [`Splitters`] with `s` keys partitions the `i64` key space into
//! `s + 1` contiguous shard ranges: shard `0` holds keys below
//! `keys[0]`, shard `i` holds `keys[i-1] <= k < keys[i]`, and the last
//! shard holds everything from `keys[s-1]` up. Routing is a
//! *branch-free* binary search — the loop body has no data-dependent
//! branch, so a stream of lookups with random keys never mispredicts
//! on the splitter comparison (the same trick the RMA's static index
//! uses for its node search).

use rma_core::{Key, Value};

/// Sorted, strictly increasing splitter keys defining shard ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Splitters {
    keys: Vec<Key>,
}

impl Splitters {
    /// Builds from explicit splitter keys (sorted, strictly
    /// increasing).
    pub fn new(keys: Vec<Key>) -> Self {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "splitters must be strictly increasing"
        );
        Splitters { keys }
    }

    /// Splitters dividing the 62-bit uniform key domain (the domain
    /// the workload generators draw from) into `num_shards` equal
    /// ranges — the sensible default when no sample is available.
    pub fn uniform(num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let domain = 1i64 << 62;
        let step = domain / num_shards as i64;
        Splitters {
            keys: (1..num_shards as i64).map(|i| i * step).collect(),
        }
    }

    /// Learns splitters from a `(key, value)` batch *sorted by key*
    /// (the `load_bulk` input; the batch entry points assert the
    /// order): the `num_shards`-quantiles of its keys, deduplicated.
    /// Heavy duplicate runs can yield fewer than `num_shards - 1`
    /// distinct splitters (and therefore fewer shards) — every key
    /// still lands in exactly one shard. An empty batch falls back to
    /// [`Splitters::uniform`].
    pub fn from_sorted_pairs(batch: &[(Key, Value)], num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let Some(&(min, _)) = batch.first() else {
            return Splitters::uniform(num_shards);
        };
        let mut keys: Vec<Key> = (1..num_shards)
            .map(|i| batch[i * batch.len() / num_shards].0)
            .collect();
        keys.dedup();
        // A splitter equal to the global minimum would leave shard 0
        // permanently empty of batch keys; drop it.
        if keys.first() == Some(&min) {
            keys.remove(0);
        }
        Splitters { keys }
    }

    /// Learns splitters from a weighted access histogram: `buckets`
    /// are `(bucket_lo, bucket_hi, mass)` triples in key order (the
    /// concatenation of per-shard
    /// [`AccessStats::weighted_buckets`](crate::AccessStats::weighted_buckets)
    /// is exactly this shape) and the result places the `num_shards -
    /// 1` splitters at the equal-*access* quantiles of the histogram
    /// CDF — the Detector idea of §IV applied across shards: hammered
    /// key intervals get many narrow shards, cold intervals get few
    /// wide ones. Split keys interpolate linearly inside the crossed
    /// bucket (mass is modelled piecewise-uniform).
    ///
    /// Duplicate quantile keys collapse (fewer shards result, as with
    /// [`Splitters::from_sorted_pairs`]); a histogram with zero total
    /// mass falls back to [`Splitters::uniform`].
    pub fn from_weighted_histogram(buckets: &[(Key, Key, u64)], num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(
            buckets.windows(2).all(|w| w[0].0 <= w[1].0),
            "histogram buckets must be in key order"
        );
        let total: u128 = buckets.iter().map(|&(_, _, w)| w as u128).sum();
        if total == 0 {
            return Splitters::uniform(num_shards);
        }
        let mut keys: Vec<Key> = Vec::with_capacity(num_shards - 1);
        let mut cum: u128 = 0;
        let mut it = buckets.iter().copied();
        let mut cur = it.next().expect("non-zero total implies a bucket");
        for i in 1..num_shards as u128 {
            let target = i * total / num_shards as u128;
            // Advance to the bucket whose cumulative mass crosses
            // `target` (targets are non-decreasing, so the iterator
            // never rewinds).
            while cum + cur.2 as u128 <= target {
                cum += cur.2 as u128;
                match it.next() {
                    Some(b) => cur = b,
                    None => break,
                }
            }
            let (blo, bhi, w) = cur;
            let need = (target - cum).min(w as u128);
            let span = (bhi as i128 - blo as i128).max(1) as u128;
            let key = blo as i128 + (need * span / (w as u128).max(1)) as i128;
            keys.push(key.clamp(Key::MIN as i128, Key::MAX as i128) as Key);
        }
        keys.dedup();
        // A splitter at the histogram's lower edge would leave shard 0
        // empty of observed mass; drop it (same rule as the sample
        // learner).
        if keys.first() == Some(&buckets[0].0) {
            keys.remove(0);
        }
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        Splitters { keys }
    }

    /// Number of shards these splitters induce.
    pub fn num_shards(&self) -> usize {
        self.keys.len() + 1
    }

    /// The raw splitter keys.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Routes `k` to its shard index — a branch-free binary search
    /// computing the number of splitters `<= k`. The loop’s control
    /// flow depends only on the splitter count, never on the key, so
    /// it cannot mispredict on data.
    #[inline]
    pub fn route(&self, k: Key) -> usize {
        let s = &self.keys;
        let mut base = 0usize;
        let mut size = s.len();
        while size > 0 {
            let half = size / 2;
            let mid = base + half;
            // `go_right` selects between the two continuations with
            // arithmetic instead of a branch (compiles to cmov/csel).
            let go_right = (s[mid] <= k) as usize;
            base = go_right * (mid + 1) + (1 - go_right) * base;
            size = go_right * (size - half - 1) + (1 - go_right) * half;
        }
        base
    }

    /// Inclusive lower / exclusive upper key bound of shard `i`
    /// (`None` = unbounded).
    pub fn range_of(&self, i: usize) -> (Option<Key>, Option<Key>) {
        assert!(i < self.num_shards());
        let lo = (i > 0).then(|| self.keys[i - 1]);
        let hi = self.keys.get(i).copied();
        (lo, hi)
    }

    /// First and last index of the shards overlapping the key range
    /// `[lo, hi)` (`None` = unbounded), which must not be empty.
    pub(crate) fn overlapping(&self, lo: Option<Key>, hi: Option<Key>) -> (usize, usize) {
        let first = lo.map_or(0, |l| self.route(l));
        let last = hi.map_or(self.keys.len(), |h| self.route(h.saturating_sub(1)));
        (first, last)
    }

    /// Partitions a *sorted* batch into one contiguous index range per
    /// shard (zero-copy: callers slice the batch with these ranges).
    /// Delegates to [`workloads::partition_sorted`], the single home
    /// of the boundary rule (a key equal to a splitter goes right).
    pub fn partition_sorted(&self, batch: &[(Key, Value)]) -> Vec<std::ops::Range<usize>> {
        workloads::partition_sorted(batch, &self.keys)
    }

    /// Splits shard `i` at `key`: `key` becomes a new splitter, so the
    /// old shard range `[lo, hi)` becomes `[lo, key)` and `[key, hi)`.
    /// `key` must lie strictly inside the shard's range. Routing of
    /// keys outside shard `i` is unchanged (their index shifts by one
    /// right of the split).
    pub fn split_shard(&mut self, i: usize, key: Key) {
        let (lo, hi) = self.range_of(i);
        assert!(lo.is_none_or(|l| l < key), "split key at shard lower bound");
        assert!(hi.is_none_or(|h| key < h), "split key beyond shard range");
        self.keys.insert(i, key);
    }

    /// Merges shard `i` with shard `i + 1` by removing the splitter
    /// between them.
    pub fn merge_with_next(&mut self, i: usize) {
        assert!(i + 1 < self.num_shards(), "no right neighbour to merge");
        self.keys.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_matches_partition_point() {
        let s = Splitters::new(vec![-50, 0, 10, 999]);
        for k in [
            -100,
            -51,
            -50,
            -1,
            0,
            5,
            10,
            11,
            998,
            999,
            1000,
            i64::MIN,
            i64::MAX,
        ] {
            let want = s.keys().partition_point(|&sep| sep <= k);
            assert_eq!(s.route(k), want, "key {k}");
        }
    }

    #[test]
    fn route_with_no_splitters_is_zero() {
        let s = Splitters::new(Vec::new());
        assert_eq!(s.num_shards(), 1);
        assert_eq!(s.route(i64::MIN), 0);
        assert_eq!(s.route(0), 0);
    }

    #[test]
    fn uniform_covers_domain() {
        let s = Splitters::uniform(8);
        assert_eq!(s.num_shards(), 8);
        assert_eq!(s.route(0), 0);
        assert_eq!(s.route((1 << 62) - 1), 7);
    }

    #[test]
    fn quantile_sample_balances_ranges() {
        let sample: Vec<(i64, i64)> = (0..1000).map(|k| (k, k)).collect();
        let s = Splitters::from_sorted_pairs(&sample, 4);
        assert_eq!(s.num_shards(), 4);
        let counts = sample.iter().fold(vec![0usize; 4], |mut c, &(k, _)| {
            c[s.route(k)] += 1;
            c
        });
        assert!(counts.iter().all(|&c| c == 250), "{counts:?}");
    }

    #[test]
    fn duplicate_heavy_sample_degrades_gracefully() {
        let sample = vec![(7i64, 0i64); 1000];
        let s = Splitters::from_sorted_pairs(&sample, 8);
        assert_eq!(s.num_shards(), 1);
        assert_eq!(s.route(7), 0);
    }

    #[test]
    fn partition_sorted_is_a_partition() {
        let s = Splitters::new(vec![10, 20]);
        let batch: Vec<(i64, i64)> = [1, 5, 10, 15, 19, 20, 25].iter().map(|&k| (k, k)).collect();
        let parts = s.partition_sorted(&batch);
        assert_eq!(parts, vec![0..2, 2..5, 5..7]);
        for (i, r) in parts.iter().enumerate() {
            for &(k, _) in &batch[r.clone()] {
                assert_eq!(s.route(k), i);
            }
        }
    }

    #[test]
    fn weighted_histogram_equalises_access_mass() {
        // Mass concentrated in [100, 200): most splitters should land
        // inside that band.
        let buckets = vec![(0i64, 100i64, 10u64), (100, 200, 80), (200, 300, 10)];
        let s = Splitters::from_weighted_histogram(&buckets, 5);
        assert_eq!(s.num_shards(), 5);
        let inside = s
            .keys()
            .iter()
            .filter(|&&k| (100..200).contains(&k))
            .count();
        assert!(inside >= 3, "hot band under-split: {:?}", s.keys());
        // Each shard should hold ~1/5 of the mass: route the bucket
        // mass pointwise and check the spread.
        let mut mass = vec![0u64; s.num_shards()];
        for &(lo, hi, w) in &buckets {
            let step = ((hi - lo) / 10).max(1);
            let mut k = lo;
            while k < hi {
                mass[s.route(k)] += w / 10;
                k += step;
            }
        }
        let (min, max) = (
            *mass.iter().min().unwrap() as f64,
            *mass.iter().max().unwrap() as f64,
        );
        assert!(max <= 2.5 * min.max(1.0), "unbalanced: {mass:?}");
    }

    #[test]
    fn weighted_histogram_interpolates_inside_a_bucket() {
        // One bucket, uniform mass: splitters should be the uniform
        // quantiles of its key range.
        let s = Splitters::from_weighted_histogram(&[(0, 1000, 100)], 4);
        assert_eq!(s.keys(), &[250, 500, 750]);
    }

    #[test]
    fn weighted_histogram_zero_mass_falls_back_to_uniform() {
        let s = Splitters::from_weighted_histogram(&[], 4);
        assert_eq!(s, Splitters::uniform(4));
        let s = Splitters::from_weighted_histogram(&[(0, 10, 0)], 4);
        assert_eq!(s, Splitters::uniform(4));
    }

    #[test]
    fn weighted_histogram_point_mass_degrades_gracefully() {
        // All mass in one narrow bucket: duplicate quantile keys must
        // collapse instead of violating strict ordering.
        let s = Splitters::from_weighted_histogram(&[(7, 8, 1000)], 8);
        assert!(s.num_shards() <= 2, "{:?}", s.keys());
        assert!(s.keys().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn split_and_merge_round_trip() {
        let mut s = Splitters::new(vec![100]);
        s.split_shard(0, 50);
        assert_eq!(s.keys(), &[50, 100]);
        s.split_shard(2, 200);
        assert_eq!(s.keys(), &[50, 100, 200]);
        s.merge_with_next(1);
        assert_eq!(s.keys(), &[50, 200]);
    }
}
