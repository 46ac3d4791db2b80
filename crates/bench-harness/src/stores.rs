//! A uniform façade over every data structure under test, so the
//! experiment drivers can sweep structures generically.

use abtree::{AbTree, AbTreeConfig, DenseArray};
use art::ArtTree;
use pma_baseline::{Tpma, TpmaConfig};
use rma_core::{Rma, RmaConfig};

/// Key/value scalar type of the reproduction.
pub type Key = i64;
/// Value scalar type.
pub type Value = i64;

/// A fresh store from `factory` holding the first `n` pairs of
/// `pattern` under `seed`, and the seconds their inserts took.
pub fn filled(
    factory: &StoreFactory,
    pattern: workloads::Pattern,
    n: usize,
    seed: u64,
) -> (Box<dyn Store>, f64) {
    let mut s = factory();
    let mut stream = workloads::KeyStream::new(pattern, seed);
    let (_, secs) = crate::time(|| {
        for _ in 0..n {
            let (k, v) = stream.next_pair();
            s.insert(k, v);
        }
    });
    (s, secs)
}

/// Common operations the experiments exercise.
#[allow(clippy::len_without_is_empty)] // drivers never need is_empty
pub trait Store {
    /// Short label for report rows.
    fn label(&self) -> String;
    /// Inserts a pair (duplicates kept).
    fn insert(&mut self, k: Key, v: Value);
    /// Removes the first element `>= k` (or the maximum); returns
    /// false only when empty.
    fn remove_successor(&mut self, k: Key) -> bool;
    /// Point lookup.
    fn get(&self, k: Key) -> Option<Value>;
    /// Sums up to `count` values from the first key `>= start`.
    fn sum_range(&self, start: Key, count: usize) -> (usize, i64);
    /// Stored elements.
    fn len(&self) -> usize;
    /// Estimated resident bytes.
    fn footprint(&self) -> usize;
}

impl Store for Rma {
    fn label(&self) -> String {
        format!("RMA B={}", self.config().segment_size)
    }
    fn insert(&mut self, k: Key, v: Value) {
        Rma::insert(self, k, v)
    }
    fn remove_successor(&mut self, k: Key) -> bool {
        Rma::remove_successor(self, k).is_some()
    }
    fn get(&self, k: Key) -> Option<Value> {
        Rma::get(self, k)
    }
    fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        Rma::sum_range(self, start, count)
    }
    fn len(&self) -> usize {
        Rma::len(self)
    }
    fn footprint(&self) -> usize {
        self.memory_footprint()
    }
}

impl Store for AbTree {
    fn label(&self) -> String {
        format!("(a,b)-tree B={}", self.config().leaf_capacity)
    }
    fn insert(&mut self, k: Key, v: Value) {
        AbTree::insert(self, k, v)
    }
    fn remove_successor(&mut self, k: Key) -> bool {
        AbTree::remove_successor(self, k).is_some()
    }
    fn get(&self, k: Key) -> Option<Value> {
        AbTree::get(self, k)
    }
    fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        AbTree::sum_range(self, start, count)
    }
    fn len(&self) -> usize {
        AbTree::len(self)
    }
    fn footprint(&self) -> usize {
        self.memory_footprint()
    }
}

impl Store for ArtTree {
    fn label(&self) -> String {
        format!("ART B={}", self.leaf_capacity())
    }
    fn insert(&mut self, k: Key, v: Value) {
        ArtTree::insert(self, k, v)
    }
    fn remove_successor(&mut self, k: Key) -> bool {
        ArtTree::remove_successor(self, k).is_some()
    }
    fn get(&self, k: Key) -> Option<Value> {
        ArtTree::get(self, k)
    }
    fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        ArtTree::sum_range(self, start, count)
    }
    fn len(&self) -> usize {
        ArtTree::len(self)
    }
    fn footprint(&self) -> usize {
        self.memory_footprint()
    }
}

impl Store for Tpma {
    fn label(&self) -> String {
        "TPMA".into()
    }
    fn insert(&mut self, k: Key, v: Value) {
        Tpma::insert(self, k, v)
    }
    fn remove_successor(&mut self, k: Key) -> bool {
        Tpma::remove_successor(self, k).is_some()
    }
    fn get(&self, k: Key) -> Option<Value> {
        Tpma::get(self, k)
    }
    fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        Tpma::sum_range(self, start, count)
    }
    fn len(&self) -> usize {
        Tpma::len(self)
    }
    fn footprint(&self) -> usize {
        self.memory_footprint()
    }
}

/// Factory closures for the structures a driver sweeps.
pub type StoreFactory = Box<dyn Fn() -> Box<dyn Store>>;

/// RMA factory at segment size `b` with optional features.
pub fn rma_factory(b: usize, rewired: bool, adaptive: bool) -> StoreFactory {
    Box::new(move || {
        Box::new(Rma::new(
            RmaConfig::with_segment_size(b)
                .rewired(rewired)
                .adaptive(adaptive),
        ))
    })
}

/// (a,b)-tree factory at leaf capacity `b`.
pub fn abtree_factory(b: usize) -> StoreFactory {
    Box::new(move || Box::new(AbTree::new(AbTreeConfig::with_leaf_capacity(b))))
}

/// ART-indexed tree factory at leaf capacity `b`.
pub fn art_factory(b: usize) -> StoreFactory {
    Box::new(move || Box::new(ArtTree::new(b)))
}

/// TPMA factory from a config.
pub fn tpma_factory(cfg: TpmaConfig) -> StoreFactory {
    Box::new(move || Box::new(Tpma::new(cfg)))
}

/// Builds the dense-array scan roofline from a store's content via a
/// full scan (keys reconstructed as ranks is enough for scan cost).
pub fn dense_from_pairs(pairs: &[(Key, Value)]) -> DenseArray {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable_by_key(|p| p.0);
    DenseArray::from_sorted(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_factory_round_trips() {
        let factories: Vec<StoreFactory> = vec![
            rma_factory(32, false, false),
            rma_factory(32, true, true),
            abtree_factory(32),
            art_factory(32),
            tpma_factory(TpmaConfig::traditional()),
            tpma_factory(TpmaConfig::clustered()),
        ];
        for f in factories {
            let mut s = f();
            for k in 0..2000i64 {
                s.insert((k * 37) % 1000, k);
            }
            assert_eq!(s.len(), 2000, "{}", s.label());
            assert!(s.get(37).is_some());
            let (n, _) = s.sum_range(0, 100);
            assert_eq!(n, 100);
            assert!(s.remove_successor(0));
            assert_eq!(s.len(), 1999);
            assert!(s.footprint() > 0);
        }
    }

    #[test]
    fn dense_from_pairs_sorts() {
        let d = dense_from_pairs(&[(3, 1), (1, 2), (2, 3)]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(1), Some(2));
    }
}
