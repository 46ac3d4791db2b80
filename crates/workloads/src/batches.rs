//! Sorted-batch and partitioned-batch generation.
//!
//! The bulk-loading workload of Fig. 13b feeds *sorted* batches; the
//! sharded front-end additionally wants batches *pre-partitioned* by
//! splitter keys so per-shard bulk loads can run on parallel
//! threads. A [`BatchStream`] turns any insertion [`Pattern`] into a
//! deterministic sequence of sorted batches, and
//! [`partition_sorted`] / [`BatchStream::next_partitioned`] cut a
//! sorted batch into per-partition index ranges with the same routing
//! rule the sharded index uses (partition `i` holds keys `k` with
//! `splitters[i-1] <= k < splitters[i]`).

use crate::{Key, KeyStream, Pattern, Value};
use std::ops::Range;

/// Partitions a *sorted* batch by splitter keys into one contiguous
/// index range per partition (`splitters.len() + 1` ranges). Every
/// batch index lands in exactly one range.
pub fn partition_sorted(batch: &[(Key, Value)], splitters: &[Key]) -> Vec<Range<usize>> {
    debug_assert!(
        batch.windows(2).all(|w| w[0].0 <= w[1].0),
        "batch must be sorted"
    );
    debug_assert!(
        splitters.windows(2).all(|w| w[0] < w[1]),
        "splitters must be strictly increasing"
    );
    let mut ranges = Vec::with_capacity(splitters.len() + 1);
    let mut cursor = 0usize;
    for &sep in splitters {
        let end = cursor + batch[cursor..].partition_point(|p| p.0 < sep);
        ranges.push(cursor..end);
        cursor = end;
    }
    ranges.push(cursor..batch.len());
    ranges
}

/// A sorted batch together with its per-partition ranges.
#[derive(Debug, Clone)]
pub struct PartitionedBatch {
    /// The batch, sorted by key.
    pub pairs: Vec<(Key, Value)>,
    /// One contiguous range of `pairs` per partition.
    pub parts: Vec<Range<usize>>,
}

impl PartitionedBatch {
    /// Number of partitions (`splitters + 1`).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// The sub-batch destined for partition `i`.
    pub fn part(&self, i: usize) -> &[(Key, Value)] {
        &self.pairs[self.parts[i].clone()]
    }
}

/// Deterministic stream of sorted insert batches following a
/// [`Pattern`]; values carry the global insertion rank, as in
/// [`KeyStream`].
#[derive(Debug, Clone)]
pub struct BatchStream {
    stream: KeyStream,
}

impl BatchStream {
    /// Creates a batch stream for `pattern` seeded with `seed`.
    pub fn new(pattern: Pattern, seed: u64) -> Self {
        BatchStream {
            stream: KeyStream::new(pattern, seed),
        }
    }

    /// Draws the next `n` pairs and returns them sorted by key.
    pub fn next_batch(&mut self, n: usize) -> Vec<(Key, Value)> {
        let mut batch = self.stream.take_pairs(n);
        batch.sort_unstable();
        batch
    }

    /// Draws the next `n` pairs, sorted and partitioned by
    /// `splitters`.
    pub fn next_partitioned(&mut self, n: usize, splitters: &[Key]) -> PartitionedBatch {
        let pairs = self.next_batch(n);
        let parts = partition_sorted(&pairs, splitters);
        PartitionedBatch { pairs, parts }
    }

    /// Total pairs drawn so far.
    pub fn emitted(&self) -> u64 {
        self.stream.emitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_sorted_and_deterministic() {
        let mut a = BatchStream::new(Pattern::Uniform, 5);
        let mut b = BatchStream::new(Pattern::Uniform, 5);
        for _ in 0..10 {
            let ba = a.next_batch(100);
            assert!(ba.windows(2).all(|w| w[0].0 <= w[1].0));
            assert_eq!(ba, b.next_batch(100));
        }
        assert_eq!(a.emitted(), 1000);
    }

    #[test]
    fn partition_is_exact_and_exhaustive() {
        let mut s = BatchStream::new(
            Pattern::Zipf {
                alpha: 1.0,
                beta: 1000,
            },
            9,
        );
        let splitters = [10i64, 100, 500];
        let pb = s.next_partitioned(500, &splitters);
        assert_eq!(pb.num_parts(), 4);
        // Ranges tile the batch exactly.
        let mut cursor = 0usize;
        for r in &pb.parts {
            assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        assert_eq!(cursor, pb.pairs.len());
        // Every pair obeys its partition's bounds.
        for i in 0..pb.num_parts() {
            for &(k, _) in pb.part(i) {
                let routed = splitters.iter().filter(|&&sep| sep <= k).count();
                assert_eq!(routed, i, "key {k} in wrong partition {i}");
            }
        }
    }

    #[test]
    fn empty_splitters_yield_single_partition() {
        let batch: Vec<(Key, Value)> = (0..10).map(|i| (i, i)).collect();
        let parts = partition_sorted(&batch, &[]);
        assert_eq!(parts, vec![0..10]);
    }

    #[test]
    fn boundary_keys_go_right() {
        let batch: Vec<(Key, Value)> = vec![(9, 0), (10, 0), (11, 0)];
        let parts = partition_sorted(&batch, &[10]);
        assert_eq!(
            parts,
            vec![0..1, 1..3],
            "splitter key belongs to the right partition"
        );
    }
}
