//! Cross-shard reads: scans, range sums and successor lookups
//! stitched across shard boundaries. Nothing here writes: every write
//! is an [`ShardedRma::apply_ops`] group.
//!
//! Shards cover disjoint, contiguous key ranges in shard order, so a
//! range operation starts at the routed shard and walks right,
//! continuing from `Key::MIN` inside every subsequent shard (whose
//! keys all exceed the previous shard's upper bound). Every per-shard
//! read ([`ShardedRma::sum_range`], [`ShardedRma::first_ge`],
//! [`ShardedRma::scan_into`] of any size) is one pinned look at the
//! shard, under its read lock only beside a writer — see the crate
//! docs for the consistency contract.
//!
//! A scan has one data path. [`Rma::scan_into`](rma_core::Rma::scan_into)
//! appends each segment's key and value runs zipped,
//! [`ShardedRma::scan_into`] points every shard at the caller's
//! vector, and the session hands that vector to the reply: an
//! entry is moved once between the array and the wire encoder.
//! [`ShardedRma::scan`] is the same path with a `for` over the result.

use crate::ShardedRma;
use rma_core::{Key, Rma, Value};

impl ShardedRma {
    /// Visits up to `count` elements in key order starting from the
    /// first element `>= start`; returns the number visited.
    /// [`scan_into`](Self::scan_into) a private vector, then `f` over
    /// it — so `f` runs with no shard pinned (it may take its time, or
    /// write to the index), and a scan of the whole index holds 16
    /// bytes an element while it runs.
    pub fn scan<F: FnMut(Key, Value)>(&self, start: Key, count: usize, mut f: F) -> usize {
        let mut out = Vec::new();
        self.scan_into(start, count, &mut out);
        for &(k, v) in &out {
            f(k, v);
        }
        out.len()
    }

    /// Appends up to `count` elements in key order, starting from the
    /// first element `>= start`, to `out`; returns the number
    /// appended. Each shard's share is written straight into `out`
    /// by [`Rma::scan_into`](rma_core::Rma::scan_into) in one look at
    /// the shard. What `out` held on entry stays below the result.
    pub fn scan_into(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.walk(start, count, |rma, from, n| rma.scan_into(from, n, out))
    }

    /// Sums up to `count` values starting at the first key `>= start`
    /// — the paper's scan kernel, stitched across shards. Lock-free
    /// on the happy path.
    pub fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        let mut sum = 0i64;
        let visited = self.walk(start, count, |rma, from, n| {
            let (n, s) = rma.sum_range(from, n);
            sum = sum.wrapping_add(s);
            n
        });
        (visited, sum)
    }

    /// First element with key `>= k` in sorted order. Lock-free on
    /// the happy path.
    pub fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        let mut hit = None;
        self.walk(k, 1, |rma, from, _| {
            hit = rma.first_ge(from);
            usize::from(hit.is_some())
        });
        hit
    }

    /// The one cross-shard range walk, as `Rma::runs` is the one
    /// segment walk inside a shard: routes `start`, then, while fewer
    /// than `count` elements were visited, gives the next shard
    /// rightwards one read access and one pinned look in which `visit`
    /// reads up to the `n` missing elements from its probe — `start`
    /// in the first shard, `Key::MIN` after — and returns how many it
    /// visited. A walk for no elements touches no shard.
    fn walk(
        &self,
        start: Key,
        count: usize,
        mut visit: impl FnMut(&Rma, Key, usize) -> usize,
    ) -> usize {
        let topo = self.topo();
        let first = topo.splitters.route(start);
        let mut visited = 0usize;
        for (i, shard) in topo.shards.iter().enumerate().skip(first) {
            if visited >= count {
                break;
            }
            let from = if i == first { start } else { Key::MIN };
            self.record_access(&topo, shard, &shard.reads, [from]);
            visited += shard.peek(|rma| visit(rma, from, count - visited));
        }
        visited
    }

    /// Collects every element in key order — test/debug helper (holds
    /// one shard read lock at a time).
    pub fn collect_all(&self) -> Vec<(Key, Value)> {
        let topo = self.topo();
        let mut out = Vec::new();
        for shard in &topo.shards {
            shard.locked(|rma| out.extend(rma.iter()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::small_cfg;
    use crate::{ShardedRma, Splitters};

    fn populated() -> ShardedRma {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![250, 500, 750]));
        for k in (0..1000i64).step_by(2) {
            s.insert(k, 1);
        }
        s
    }

    #[test]
    fn scan_stitches_across_shards() {
        let s = populated();
        let mut seen = Vec::new();
        let n = s.scan(240, 20, |k, _| seen.push(k));
        assert_eq!(n, 20);
        let want: Vec<i64> = (240..280).step_by(2).collect();
        assert_eq!(seen, want, "scan must cross the 250 boundary seamlessly");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// `scan_into` against one `Rma` read through its closure
        /// scan (which shares no code with it). Forty keys, splitters
        /// among them, segments of 8: duplicate runs span segments and
        /// end on shard boundaries, some shards stay empty; the probes
        /// start below, inside and past the stored keys and ask for
        /// nothing, a few and more than there is; what `out` held
        /// stays in front; and `scan` hands its closure the same.
        #[test]
        fn scan_into_equals_one_array(
            mut splitters in proptest::collection::vec(0i64..40, 0..6),
            keys in proptest::collection::vec(0i64..40, 0..400),
            probes in proptest::collection::vec((-2i64..44, 0usize..500), 1..24),
            held in 0usize..4,
        ) {
            splitters.sort_unstable();
            splitters.dedup();
            let cfg = small_cfg(splitters.len() + 1);
            let mut single = rma_core::Rma::new(cfg.rma);
            let s = ShardedRma::with_splitters(cfg, Splitters::new(splitters));
            // A distinct value per member: a truncated scan keeps a
            // key's newest members, in both stores.
            for (i, &k) in keys.iter().enumerate() {
                s.insert(k, i as i64);
                single.insert(k, i as i64);
            }
            let held: Vec<(i64, i64)> = (0..held).map(|i| (-7, i as i64)).collect();
            let edges = [(i64::MIN, usize::MAX), (i64::MAX, 5), (0, 0)];
            for (start, count) in probes.into_iter().chain(edges) {
                let mut want = held.clone();
                let n = single.scan(start, count, |k, v| want.push((k, v)));
                let mut got = held.clone();
                proptest::prop_assert_eq!(s.scan_into(start, count, &mut got), n);
                proptest::prop_assert_eq!(&got, &want);
                let mut seen = held.clone();
                proptest::prop_assert_eq!(s.scan(start, count, |k, v| seen.push((k, v))), n);
                proptest::prop_assert_eq!(seen, want);
            }
        }
    }

    /// A scan of any size is one pinned look at each shard: on a
    /// quiescent index even a shard of 2^17 pairs, scanned whole,
    /// takes no read lock.
    #[test]
    fn a_whole_scan_of_a_big_shard_takes_no_lock() {
        let n = 1usize << 17;
        let batch: Vec<(i64, i64)> = (0..n as i64).map(|k| (k, k)).collect();
        let s = ShardedRma::new(small_cfg(1));
        s.apply_batch(&batch, &[]);
        let (r0, _) = s.lock_acquisitions();
        let mut out = Vec::new();
        assert_eq!(s.scan_into(i64::MIN, usize::MAX, &mut out), n);
        assert_eq!(out, batch);
        assert_eq!(s.lock_acquisitions().0 - r0, 0);
    }

    /// A walk for no elements touches no shard: a zero-count scan or
    /// sum — what the server submits for every scan chunk a spent
    /// budget defers — leaves every access mass and read count as it
    /// was, and a one-element scan records one read.
    #[test]
    fn a_zero_count_read_records_no_access() {
        let s = populated();
        s.reset_access_stats();
        let reads = |s: &ShardedRma| -> Vec<u64> {
            s.stats_snapshot()
                .shards
                .iter()
                .map(|st| st.reads)
                .collect()
        };
        let (masses, reads0) = (s.access_masses(), reads(&s));
        assert_eq!(s.scan_into(240, 0, &mut Vec::new()), 0);
        assert_eq!(s.sum_range(240, 0), (0, 0));
        assert_eq!(s.access_masses(), masses);
        assert_eq!(reads(&s), reads0);
        assert_eq!(s.scan_into(240, 1, &mut Vec::new()), 1);
        let total = |r: Vec<u64>| r.iter().sum::<u64>();
        assert_eq!(total(reads(&s)), total(reads0) + 1);
    }

    #[test]
    fn sum_range_spans_all_shards() {
        let s = populated();
        let (n, sum) = s.sum_range(i64::MIN, usize::MAX);
        assert_eq!(n, 500);
        assert_eq!(sum, 500);
        assert_eq!(s.sum_range(999, 10).0, 0);
    }

    #[test]
    fn first_ge_crosses_empty_shards() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![250, 500, 750]));
        s.insert(900, 9);
        assert_eq!(s.first_ge(0), Some((900, 9)));
        assert_eq!(s.first_ge(901), None);
    }

    #[test]
    fn reads_stay_lock_free_across_shards() {
        let s = populated();
        let (r0, _) = s.lock_acquisitions();
        assert_eq!(s.sum_range(i64::MIN, usize::MAX).0, 500);
        assert_eq!(s.first_ge(123), Some((124, 1)));
        let mut n = 0;
        s.scan(0, 100, |_, _| n += 1);
        assert_eq!(n, 100);
        // Open-ended scans must stay lock-free too.
        let mut all = 0;
        s.scan(i64::MIN, usize::MAX, |_, _| all += 1);
        assert_eq!(all, 500);
        // So must whoever is watching: a sampler reading the totals
        // and the per-shard table, a planner sizing its steps.
        assert_eq!(s.len(), 500);
        assert!(!s.is_empty());
        assert!(s.memory_footprint() > 0);
        let snap = s.stats_snapshot();
        assert!(snap.shards.iter().all(|st| st.len == 125));
        assert_eq!(snap.shards.iter().map(|st| st.len).sum::<usize>(), 500);
        assert_eq!(snap.len, 500);
        let _ = s.plan_maintenance();
        let (r1, _) = s.lock_acquisitions();
        assert_eq!(r1 - r0, 0, "quiescent reads must not lock");
    }
}
