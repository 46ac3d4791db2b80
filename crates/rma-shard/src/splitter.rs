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
}
