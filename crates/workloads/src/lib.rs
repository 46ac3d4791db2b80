//! Workload generators for the RMA reproduction.
//!
//! Every experiment in "Packed Memory Arrays – Rewired" (ICDE 2019)
//! drives its data structures with one of four insertion patterns —
//! uniform, Zipfian (range `β`, skew `α`), sequential — optionally
//! interleaved with deletions (the *mixed* workload of Fig. 11b) or
//! grouped into sorted batches (the bulk-loading workload of Fig. 13b).
//! This crate implements those generators deterministically from a
//! seed, so every figure regenerates bit-identically. Beyond the
//! paper, [`hotspot`] adds a *shifting-hotspot* pattern (a hammered
//! band that jumps or drifts between phases) for the sharded
//! front-end's shard maintenance experiments.
//!
//! The scalar element type across the whole reproduction is an 8-byte
//! signed integer key paired with an 8-byte value, matching the paper's
//! "8 byte key/value integer pairs".

pub mod batches;
pub mod hotspot;
pub mod latency;
pub mod mixed;
pub mod scans;
pub mod xorshift;
pub mod zipf;

pub use batches::{partition_sorted, BatchStream, PartitionedBatch};
pub use hotspot::{HotspotConfig, HotspotMotion, ShiftingHotspot};
pub use latency::{drive_recorded, summarize, LatencyLog, LatencySummary, MixOp, ReadWriteMix};
pub use mixed::{MixedWorkload, Op};
pub use scans::ScanRanges;
pub use xorshift::SplitMix64;
pub use zipf::Zipf;

/// Key type used throughout the reproduction (8-byte integer).
pub type Key = i64;
/// Value type used throughout the reproduction (8-byte integer).
pub type Value = i64;

/// The four insertion patterns evaluated by the paper (Fig. 1, 10–14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Keys drawn uniformly from a 62-bit domain.
    Uniform,
    /// Keys drawn from a Zipf distribution with skew `alpha` over the
    /// integer range `[1, beta]`; low ranks are hot, so skew hammers
    /// the front of the sorted order exactly as in the paper's setup.
    Zipf { alpha: f64, beta: u64 },
    /// Monotonically increasing keys (append-at-end hammering).
    Sequential,
}

impl Pattern {
    /// Human-readable label used by the experiment drivers' output.
    pub fn label(&self) -> String {
        match self {
            Pattern::Uniform => "uniform".into(),
            Pattern::Zipf { alpha, .. } => format!("zipf a={alpha}"),
            Pattern::Sequential => "sequential".into(),
        }
    }
}

/// Deterministic stream of `(key, value)` insertions following a
/// [`Pattern`].
///
/// Values carry the insertion rank so differential tests can verify
/// which duplicate got deleted.
#[derive(Debug, Clone)]
pub struct KeyStream {
    pattern: Pattern,
    rng: SplitMix64,
    zipf: Option<Zipf>,
    next_seq: i64,
    emitted: u64,
}

impl KeyStream {
    /// Creates a stream for `pattern` seeded with `seed`.
    pub fn new(pattern: Pattern, seed: u64) -> Self {
        let zipf = match pattern {
            Pattern::Zipf { alpha, beta } => Some(Zipf::new(beta, alpha)),
            _ => None,
        };
        KeyStream {
            pattern,
            rng: SplitMix64::new(seed),
            zipf,
            next_seq: 1,
            emitted: 0,
        }
    }

    /// Draws the next key of the stream.
    #[inline]
    pub fn next_key(&mut self) -> Key {
        self.emitted += 1;
        match self.pattern {
            // Uniform over a 62-bit positive domain: collisions are
            // negligible yet harmless (all structures are multisets).
            Pattern::Uniform => (self.rng.next_u64() >> 2) as i64,
            Pattern::Zipf { .. } => {
                let rank = self
                    .zipf
                    .as_mut()
                    .expect("zipf sampler")
                    .sample(&mut self.rng);
                rank as i64
            }
            Pattern::Sequential => {
                let k = self.next_seq;
                self.next_seq += 1;
                k
            }
        }
    }

    /// Draws the next `(key, value)` pair; the value is the 1-based
    /// rank of the pair within the stream.
    #[inline]
    pub fn next_pair(&mut self) -> (Key, Value) {
        let k = self.next_key();
        (k, self.emitted as i64)
    }

    /// Collects `n` pairs into a vector.
    pub fn take_pairs(&mut self, n: usize) -> Vec<(Key, Value)> {
        (0..n).map(|_| self.next_pair()).collect()
    }

    /// Number of keys drawn so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// Generates `n` sorted, distinct keys spread over the uniform domain —
/// used to pre-populate structures before aging/bulk experiments.
pub fn sorted_unique_keys(n: usize, seed: u64) -> Vec<Key> {
    let mut rng = SplitMix64::new(seed);
    let mut keys: Vec<Key> = (0..n).map(|_| (rng.next_u64() >> 2) as i64).collect();
    keys.sort_unstable();
    keys.dedup();
    // Top up in the unlikely event dedup removed entries.
    while keys.len() < n {
        let k = (rng.next_u64() >> 2) as i64;
        if let Err(pos) = keys.binary_search(&k) {
            keys.insert(pos, k);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stream_is_deterministic() {
        let mut a = KeyStream::new(Pattern::Uniform, 42);
        let mut b = KeyStream::new(Pattern::Uniform, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_pair(), b.next_pair());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = KeyStream::new(Pattern::Uniform, 1);
        let mut b = KeyStream::new(Pattern::Uniform, 2);
        let same = (0..100).filter(|_| a.next_key() == b.next_key()).count();
        assert!(same < 5);
    }

    #[test]
    fn sequential_stream_counts_up() {
        let mut s = KeyStream::new(Pattern::Sequential, 7);
        let keys: Vec<_> = (0..5).map(|_| s.next_key()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zipf_stream_stays_in_range() {
        let beta = 1 << 16;
        let mut s = KeyStream::new(
            Pattern::Zipf {
                alpha: 1.5,
                beta: beta as u64,
            },
            3,
        );
        for _ in 0..10_000 {
            let k = s.next_key();
            assert!(k >= 1 && k <= beta, "zipf key {k} out of [1, {beta}]");
        }
    }

    #[test]
    fn values_carry_rank() {
        let mut s = KeyStream::new(Pattern::Uniform, 9);
        let pairs = s.take_pairs(3);
        assert_eq!(pairs[0].1, 1);
        assert_eq!(pairs[2].1, 3);
    }

    #[test]
    fn sorted_unique_keys_are_sorted_and_unique() {
        let keys = sorted_unique_keys(10_000, 11);
        assert_eq!(keys.len(), 10_000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pattern_labels() {
        assert_eq!(Pattern::Uniform.label(), "uniform");
        assert_eq!(
            Pattern::Zipf {
                alpha: 1.0,
                beta: 10
            }
            .label(),
            "zipf a=1"
        );
        assert_eq!(Pattern::Sequential.label(), "sequential");
    }
}
