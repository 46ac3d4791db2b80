//! Cross-shard reads: scans, range sums and successor operations
//! stitched across shard boundaries.
//!
//! Shards cover disjoint, contiguous key ranges in shard order, so a
//! range operation starts at the routed shard and walks right,
//! continuing from `Key::MIN` inside every subsequent shard (whose
//! keys all exceed the previous shard's upper bound). Per-shard reads
//! go through the optimistic seqlock path where the result can be
//! buffered or is scalar ([`ShardedRma::sum_range`],
//! [`ShardedRma::first_ge`], moderate [`ShardedRma::scan`] windows),
//! falling back to the shard read lock otherwise — see the crate docs
//! for the consistency contract.

use crate::{DurabilityOp, ShardedRma};
use rma_core::{Key, Value};

/// Scans asked to visit more than this many elements in one shard
/// skip the optimistic attempt: the attempt buffers its visits (the
/// caller's closure must not observe a retried pass), and an
/// unbounded buffer would trade lock freedom for allocation storms.
const OPTIMISTIC_SCAN_MAX: usize = 1 << 16;

impl ShardedRma {
    /// Visits up to `count` elements in key order starting from the
    /// first element `>= start`; returns the number visited.
    pub fn scan<F: FnMut(Key, Value)>(&self, start: Key, count: usize, mut f: F) -> usize {
        let topo = self.topo();
        let first = topo.splitters.route(start);
        let mut visited = 0usize;
        for (i, shard) in topo.shards.iter().enumerate().skip(first) {
            if visited >= count {
                break;
            }
            let from = if i == first { start } else { Key::MIN };
            self.record_access(&topo, shard, &shard.reads, &[from]);
            let want = count - visited;
            // Optimistic attempt buffers the visits so the caller's
            // closure only ever sees the validated pass. The size
            // gate compares against what the shard can actually
            // yield, so open-ended scans (`count = usize::MAX`) stay
            // lock-free as long as each shard is moderate.
            let buffered = shard
                .try_optimistic(|rma| {
                    if want.min(rma.len()) > OPTIMISTIC_SCAN_MAX {
                        return None;
                    }
                    let mut buf = Vec::new();
                    rma.scan(from, want, |k, v| buf.push((k, v)));
                    Some(buf)
                })
                .flatten();
            match buffered {
                Some(buf) => {
                    visited += buf.len();
                    for (k, v) in buf {
                        f(k, v);
                    }
                }
                None => visited += shard.read().scan(from, want, &mut f),
            }
        }
        visited
    }

    /// Sums up to `count` values starting at the first key `>= start`
    /// — the paper's scan kernel, stitched across shards. Lock-free
    /// on the happy path (scalar result: no buffering needed).
    pub fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        let topo = self.topo();
        let first = topo.splitters.route(start);
        let mut visited = 0usize;
        let mut sum = 0i64;
        for (i, shard) in topo.shards.iter().enumerate().skip(first) {
            if visited >= count {
                break;
            }
            let from = if i == first { start } else { Key::MIN };
            self.record_access(&topo, shard, &shard.reads, &[from]);
            let want = count - visited;
            let (n, s) = shard
                .try_optimistic(|rma| rma.sum_range(from, want))
                .unwrap_or_else(|| shard.read().sum_range(from, want));
            visited += n;
            sum = sum.wrapping_add(s);
        }
        (visited, sum)
    }

    /// First element with key `>= k` in sorted order. Lock-free on
    /// the happy path.
    pub fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        let topo = self.topo();
        let first = topo.splitters.route(k);
        for (i, shard) in topo.shards.iter().enumerate().skip(first) {
            let from = if i == first { k } else { Key::MIN };
            self.record_access(&topo, shard, &shard.reads, &[from]);
            let hit = shard
                .try_optimistic(|rma| rma.first_ge(from))
                .unwrap_or_else(|| shard.read().first_ge(from));
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// Removes the first element with key `>= k`, or the maximum when
    /// every key is smaller (the mixed-workload delete operator).
    /// Returns `None` only on an empty index. Restarts against a
    /// fresh topology (via the shared `with_topo_retry` idiom) if a
    /// maintenance step retires a shard mid-walk — the walk mutates
    /// at most one shard, and only as its final action, so restarting
    /// before that point is always safe.
    pub fn remove_successor(&self, k: Key) -> Option<(Key, Value)> {
        self.with_topo_retry(|topo| {
            let start = topo.splitters.route(k);
            // Shards right of `start` hold only keys > k, so the first
            // non-empty one (checked under its write lock) has the
            // successor.
            for (i, shard) in topo.shards.iter().enumerate().skip(start) {
                let mut g = shard.write();
                if g.is_retired() {
                    return None; // re-route through the fresh topology
                }
                let from = if i == start { k } else { Key::MIN };
                if g.rma().first_ge(from).is_some() {
                    self.record_access(topo, shard, &shard.writes, &[from]);
                    let out = g.mutate(|rma| rma.remove_successor(from));
                    // Effect-log under the same lock: the WAL records
                    // the key actually removed, not the probe key.
                    if let (Some((rk, _)), Some(wal)) = (out, self.durability()) {
                        wal.append(DurabilityOp::Remove(rk));
                    }
                    return Some(out);
                }
            }
            // No successor anywhere: remove the global maximum, which
            // lives in the rightmost non-empty shard at or left of
            // `start`.
            for shard in topo.shards[..=start].iter().rev() {
                let mut g = shard.write();
                if g.is_retired() {
                    return None;
                }
                if !g.rma().is_empty() {
                    self.record_access(topo, shard, &shard.writes, &[Key::MAX]);
                    let out = g.mutate(|rma| rma.remove_successor(Key::MAX));
                    if let (Some((rk, _)), Some(wal)) = (out, self.durability()) {
                        wal.append(DurabilityOp::Remove(rk));
                    }
                    return Some(out);
                }
            }
            Some(None)
        })
    }

    /// Collects every element in key order — test/debug helper (holds
    /// one shard read lock at a time).
    pub fn collect_all(&self) -> Vec<(Key, Value)> {
        let topo = self.topo();
        let mut out = Vec::new();
        for shard in &topo.shards {
            out.extend(shard.read().iter());
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
    fn remove_successor_semantics_match_rma() {
        let s = ShardedRma::with_splitters(small_cfg(3), Splitters::new(vec![100, 200]));
        for k in [10i64, 150, 250] {
            s.insert(k, k);
        }
        assert_eq!(s.remove_successor(120), Some((150, 150)));
        assert_eq!(s.remove_successor(1000), Some((250, 250))); // max fallback
        assert_eq!(s.remove_successor(0), Some((10, 10)));
        assert_eq!(s.remove_successor(0), None);
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
        // Open-ended scans must stay lock-free too: the optimistic
        // gate bounds on shard content, not the requested count.
        let mut all = 0;
        s.scan(i64::MIN, usize::MAX, |_, _| all += 1);
        assert_eq!(all, 500);
        let (r1, _) = s.lock_acquisitions();
        assert_eq!(r1 - r0, 0, "quiescent range reads must not lock");
    }
}
