//! The trie-indexed (a,b)-tree — "ART" in the paper's evaluation.
//!
//! Chained leaves with the same layout and occupancy rules as the
//! plain (a,b)-tree (shared `abtree::node::Leaf`), but routed through
//! an [`Art`] that maps each leaf's minimum key to its id. Point
//! queries route with `floor(k)` (greatest leaf minimum ≤ k); the
//! index is updated whenever a leaf's minimum changes, a leaf splits,
//! or leaves merge.
//!
//! Duplicate keys can make several consecutive leaves share the same
//! minimum (a run of equal keys longer than one leaf). The index
//! therefore holds exactly one entry per *distinct* minimum, pointing
//! at some leaf of the run, and routing walks the leaf chain forward
//! while the next leaf's minimum is still `≤ k`. The walk is bounded
//! by the length of a single equal-key run, which only grows long
//! under extreme duplication.

use crate::trie::Art;
use crate::{Key, Value};
use abtree::node::{Arena, Leaf, NIL};

/// (a,b)-tree leaves indexed by an adaptive radix tree.
#[derive(Debug)]
pub struct ArtTree {
    leaf_capacity: usize,
    leaves: Arena<Leaf>,
    index: Art<u32>,
    first_leaf: u32,
    len: usize,
}

impl ArtTree {
    /// Creates an empty tree with leaf capacity `b` (the paper's `B`).
    pub fn new(leaf_capacity: usize) -> Self {
        assert!(leaf_capacity >= 2);
        ArtTree {
            leaf_capacity,
            leaves: Arena::new(),
            index: Art::new(),
            first_leaf: NIL,
            len: 0,
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leaf capacity `B`.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Estimated resident bytes (leaves plus a per-leaf index charge).
    pub fn memory_footprint(&self) -> usize {
        let leaf_bytes = 2 * self.leaf_capacity * 8 + std::mem::size_of::<Leaf>();
        // ART costs roughly one path of nodes per entry; charge a flat
        // 64 bytes per indexed leaf, which matches measured sizes
        // within a few percent for 8-byte keys.
        self.leaves.len() * (leaf_bytes + 64)
    }

    fn min_occupancy(&self) -> usize {
        (self.leaf_capacity / 2).max(1)
    }

    /// Rightmost leaf whose minimum is `≤ k` (the leaf that must hold
    /// `k` if any leaf does). Starts from the index floor entry and
    /// walks the chain across an equal-minimum run.
    fn route(&self, k: Key) -> Option<u32> {
        let mut leaf_id = match self.index.floor(k) {
            Some((_, id)) => id,
            None => {
                if self.first_leaf == NIL {
                    return None;
                }
                self.first_leaf
            }
        };
        loop {
            let next = self.leaves.get(leaf_id).next;
            if next == NIL || self.leaves.get(next).min_key() > k {
                return Some(leaf_id);
            }
            leaf_id = next;
        }
    }

    /// Detaches the index entry for minimum `m` if it points at
    /// `leaf_id`, repointing it at a chain predecessor that shares the
    /// same minimum when one exists (equal-key runs).
    fn unindex_leaf_min(&mut self, leaf_id: u32, m: Key) {
        if self.index.get(m) != Some(leaf_id) {
            return; // entry points at another leaf of the same run
        }
        let (prev, next) = {
            let l = self.leaves.get(leaf_id);
            (l.prev, l.next)
        };
        if prev != NIL && self.leaves.get(prev).min_key() == m {
            self.index.insert(m, prev);
        } else if next != NIL && self.leaves.get(next).min_key() == m {
            self.index.insert(m, next);
        } else {
            self.index.remove(m);
        }
    }

    // ------------------------------------------------------ insert --

    /// Inserts `(k, v)`; duplicates are kept.
    pub fn insert(&mut self, k: Key, v: Value) {
        self.len += 1;
        let Some(leaf_id) = self.route(k) else {
            let mut leaf = Leaf::new(self.leaf_capacity);
            leaf.insert_at(0, k, v);
            let id = self.leaves.alloc(leaf);
            self.first_leaf = id;
            self.index.insert(k, id);
            return;
        };
        if self.leaves.get(leaf_id).len < self.leaf_capacity {
            self.insert_into(leaf_id, k, v);
            return;
        }
        // Split the full leaf, register the right half, then insert.
        let right_id = self.leaves.alloc(Leaf::new(self.leaf_capacity));
        let old_next;
        {
            let (left, right) = self.leaves.get2_mut(leaf_id, right_id);
            let mid = left.len / 2;
            let moved = left.len - mid;
            right.keys[..moved].copy_from_slice(&left.keys[mid..left.len]);
            right.vals[..moved].copy_from_slice(&left.vals[mid..left.len]);
            right.len = moved;
            left.len = mid;
            old_next = left.next;
            left.next = right_id;
            right.prev = leaf_id;
            right.next = old_next;
        }
        if old_next != NIL {
            self.leaves.get_mut(old_next).prev = right_id;
        }
        let sep = self.leaves.get(right_id).min_key();
        self.index.insert(sep, right_id);
        let target = if k >= sep { right_id } else { leaf_id };
        self.insert_into(target, k, v);
    }

    fn insert_into(&mut self, leaf_id: u32, k: Key, v: Value) {
        let old_min = {
            let leaf = self.leaves.get_mut(leaf_id);
            let old_min = if leaf.len > 0 {
                Some(leaf.min_key())
            } else {
                None
            };
            let pos = leaf.lower_bound(k);
            leaf.insert_at(pos, k, v);
            old_min
        };
        // A new minimum moves the leaf's index entry.
        if let Some(old) = old_min {
            if k < old {
                self.unindex_leaf_min(leaf_id, old);
                self.index.insert(k, leaf_id);
            }
        }
    }

    // ------------------------------------------------------ lookup --

    /// Returns a value stored under `k`, if any.
    pub fn get(&self, k: Key) -> Option<Value> {
        let leaf = self.leaves.get(self.route(k)?);
        let pos = leaf.lower_bound(k);
        (pos < leaf.len && leaf.keys[pos] == k).then(|| leaf.vals[pos])
    }

    /// Leaf and slot of the first element `>= k`.
    fn locate_lower_bound(&self, k: Key) -> Option<(u32, usize)> {
        let mut leaf_id = self.route(k)?;
        // The route is right-biased; duplicates equal to `k` may
        // strand in earlier leaves whose maximum still reaches `k`.
        loop {
            let prev = self.leaves.get(leaf_id).prev;
            if prev == NIL {
                break;
            }
            let p = self.leaves.get(prev);
            if p.keys[p.len - 1] < k {
                break;
            }
            leaf_id = prev;
        }
        loop {
            let leaf = self.leaves.get(leaf_id);
            let pos = leaf.lower_bound(k);
            if pos < leaf.len {
                return Some((leaf_id, pos));
            }
            if leaf.next == NIL {
                return None;
            }
            leaf_id = leaf.next;
        }
    }

    /// First element with key `>= k`.
    pub fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        let (id, pos) = self.locate_lower_bound(k)?;
        let leaf = self.leaves.get(id);
        Some((leaf.keys[pos], leaf.vals[pos]))
    }

    // -------------------------------------------------------- scan --

    /// Sums up to `count` values starting at the first key `>= start`,
    /// prefetching the next leaf as the paper's implementation does.
    pub fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        let Some((mut leaf_id, mut pos)) = self.locate_lower_bound(start) else {
            return (0, 0);
        };
        let mut visited = 0;
        let mut sum = 0i64;
        while visited < count {
            let leaf = self.leaves.get(leaf_id);
            self.prefetch(leaf.next);
            let take = (leaf.len - pos).min(count - visited);
            for &v in &leaf.vals[pos..pos + take] {
                sum = sum.wrapping_add(v);
            }
            visited += take;
            if leaf.next == NIL {
                break;
            }
            leaf_id = leaf.next;
            pos = 0;
        }
        (visited, sum)
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        if id != NIL {
            rewiring::prefetch(&self.leaves.get(id).vals, 0);
        }
    }

    /// Iterates over all elements in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        IndexedIter {
            tree: self,
            leaf: self.first_leaf,
            pos: 0,
        }
    }

    // ------------------------------------------------------ delete --

    /// Removes one element with key exactly `k`.
    pub fn remove(&mut self, k: Key) -> Option<Value> {
        let leaf_id = self.route(k)?;
        let pos = {
            let leaf = self.leaves.get(leaf_id);
            let pos = leaf.lower_bound(k);
            if pos >= leaf.len || leaf.keys[pos] != k {
                return None;
            }
            pos
        };
        Some(self.remove_at(leaf_id, pos).1)
    }

    /// Removes the first element `>= k`, or the maximum when no such
    /// element exists (mixed-workload delete). `None` only when empty.
    pub fn remove_successor(&mut self, k: Key) -> Option<(Key, Value)> {
        if self.len == 0 {
            return None;
        }
        if let Some((leaf_id, pos)) = self.locate_lower_bound(k) {
            return Some(self.remove_at(leaf_id, pos));
        }
        // Everything is smaller: remove the global maximum, i.e. the
        // last element of the last leaf in the chain.
        let last_leaf = self.route(Key::MAX).expect("non-empty tree");
        debug_assert_eq!(self.leaves.get(last_leaf).next, NIL);
        let pos = self.leaves.get(last_leaf).len - 1;
        Some(self.remove_at(last_leaf, pos))
    }

    fn remove_at(&mut self, leaf_id: u32, pos: usize) -> (Key, Value) {
        let (out, new_min, went_empty) = {
            let leaf = self.leaves.get_mut(leaf_id);
            let old_min = leaf.min_key();
            let out = leaf.remove_at(pos);
            let went_empty = leaf.len == 0;
            let new_min = if !went_empty && leaf.min_key() != old_min {
                Some((old_min, leaf.min_key()))
            } else {
                None
            };
            (out, new_min, went_empty)
        };
        self.len -= 1;
        if let Some((old, new)) = new_min {
            self.unindex_leaf_min(leaf_id, old);
            self.index.insert(new, leaf_id);
        }
        if went_empty {
            self.drop_leaf(leaf_id, out.0);
        } else if self.leaves.get(leaf_id).len < self.min_occupancy() {
            self.fix_underflow(leaf_id);
        }
        out
    }

    fn drop_leaf(&mut self, leaf_id: u32, old_min: Key) {
        self.unindex_leaf_min(leaf_id, old_min);
        let (prev, next) = {
            let l = self.leaves.get(leaf_id);
            (l.prev, l.next)
        };
        if prev != NIL {
            self.leaves.get_mut(prev).next = next;
        } else {
            self.first_leaf = next;
        }
        if next != NIL {
            self.leaves.get_mut(next).prev = prev;
        }
        self.leaves.dealloc(leaf_id);
    }

    fn fix_underflow(&mut self, leaf_id: u32) {
        // Prefer the right neighbour; fall back to the left one. A
        // solitary leaf may underflow freely.
        let (prev, next) = {
            let l = self.leaves.get(leaf_id);
            (l.prev, l.next)
        };
        let (left, right) = if next != NIL {
            (leaf_id, next)
        } else if prev != NIL {
            (prev, leaf_id)
        } else {
            return;
        };
        let (llen, rlen) = (self.leaves.get(left).len, self.leaves.get(right).len);
        let right_old_min = self.leaves.get(right).min_key();
        if llen + rlen <= self.leaf_capacity {
            // Merge right into left.
            let next_next;
            {
                let (l, r) = self.leaves.get2_mut(left, right);
                l.keys[llen..llen + rlen].copy_from_slice(&r.keys[..rlen]);
                l.vals[llen..llen + rlen].copy_from_slice(&r.vals[..rlen]);
                l.len = llen + rlen;
                l.next = r.next;
                next_next = r.next;
            }
            if next_next != NIL {
                self.leaves.get_mut(next_next).prev = left;
            }
            self.unindex_leaf_min(right, right_old_min);
            self.leaves.dealloc(right);
        } else {
            // Borrow: redistribute evenly; the right leaf's minimum
            // changes either way.
            let total = llen + rlen;
            let new_llen = total / 2;
            {
                let (l, r) = self.leaves.get2_mut(left, right);
                if new_llen > llen {
                    let take = new_llen - llen;
                    l.keys[llen..new_llen].copy_from_slice(&r.keys[..take]);
                    l.vals[llen..new_llen].copy_from_slice(&r.vals[..take]);
                    r.keys.copy_within(take..rlen, 0);
                    r.vals.copy_within(take..rlen, 0);
                } else {
                    let take = llen - new_llen;
                    r.keys.copy_within(..rlen, take);
                    r.vals.copy_within(..rlen, take);
                    r.keys[..take].copy_from_slice(&l.keys[new_llen..llen]);
                    r.vals[..take].copy_from_slice(&l.vals[new_llen..llen]);
                }
                l.len = new_llen;
                r.len = total - new_llen;
            }
            let new_min = self.leaves.get(right).min_key();
            if new_min != right_old_min {
                self.unindex_leaf_min(right, right_old_min);
                self.index.insert(new_min, right);
            }
        }
    }

    // -------------------------------------------------- validation --

    /// Checks chain order, occupancy, index coverage and exactness.
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        let mut distinct_minima = 0usize;
        let mut prev_key: Option<Key> = None;
        let mut prev_min: Option<Key> = None;
        let mut prev_leaf = NIL;
        let mut run: Vec<u32> = Vec::new(); // leaves sharing the current minimum
        let mut leaf = self.first_leaf;
        while leaf != NIL {
            let l = self.leaves.get(leaf);
            assert_eq!(l.prev, prev_leaf, "broken prev link");
            assert!(l.len > 0, "empty leaf in chain");
            for i in 0..l.len {
                if let Some(p) = prev_key {
                    assert!(p <= l.keys[i], "chain out of order");
                }
                prev_key = Some(l.keys[i]);
                count += 1;
            }
            let m = l.min_key();
            if prev_min != Some(m) {
                self.check_run(&run, prev_min);
                run.clear();
                distinct_minima += 1;
                prev_min = Some(m);
            }
            run.push(leaf);
            prev_leaf = leaf;
            leaf = l.next;
        }
        self.check_run(&run, prev_min);
        assert_eq!(count, self.len, "len mismatch");
        assert_eq!(self.index.len(), distinct_minima, "index size mismatch");
    }

    /// One distinct minimum → exactly one index entry pointing at a
    /// member of the equal-minimum run.
    fn check_run(&self, run: &[u32], min: Option<Key>) {
        let Some(m) = min else { return };
        let entry = self.index.get(m).expect("index misses a leaf minimum");
        assert!(
            run.contains(&entry),
            "index entry for {m} points outside its run"
        );
    }
}

struct IndexedIter<'a> {
    tree: &'a ArtTree,
    leaf: u32,
    pos: usize,
}

impl<'a> Iterator for IndexedIter<'a> {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        loop {
            if self.leaf == NIL {
                return None;
            }
            let leaf = self.tree.leaves.get(self.leaf);
            if self.pos < leaf.len {
                let out = (leaf.keys[self.pos], leaf.vals[self.pos]);
                self.pos += 1;
                return Some(out);
            }
            self.leaf = leaf.next;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_many() {
        let mut t = ArtTree::new(8);
        for k in (0..2000).rev() {
            t.insert(k, k * 3);
        }
        t.check_invariants();
        for k in 0..2000 {
            assert_eq!(t.get(k), Some(k * 3), "get {k}");
        }
        assert_eq!(t.get(-1), None);
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn iteration_sorted() {
        let mut t = ArtTree::new(16);
        let mut keys: Vec<i64> = (0..5000).map(|i| (i * 769) % 5000).collect();
        for &k in &keys {
            t.insert(k, k);
        }
        keys.sort_unstable();
        let got: Vec<i64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn remove_exact_everything() {
        let mut t = ArtTree::new(8);
        for k in 0..1000 {
            t.insert(k, k);
        }
        for k in (0..1000).rev() {
            assert_eq!(t.remove(k), Some(k), "remove {k}");
        }
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn remove_interleaved_keeps_invariants() {
        let mut t = ArtTree::new(8);
        for k in 0..3000 {
            t.insert((k * 7919) % 3000, k);
        }
        let mut removed = 0;
        for k in 0..3000 {
            if k % 2 == 0 && t.remove(k).is_some() {
                removed += 1;
            }
            if k % 333 == 0 {
                t.check_invariants();
            }
        }
        assert!(removed > 1000);
        t.check_invariants();
    }

    #[test]
    fn remove_successor_wraps_to_max() {
        let mut t = ArtTree::new(4);
        for k in [10, 20, 30] {
            t.insert(k, k);
        }
        assert_eq!(t.remove_successor(25), Some((30, 30)));
        assert_eq!(t.remove_successor(25), Some((20, 20))); // fallback to max
        assert_eq!(t.remove_successor(5), Some((10, 10)));
        assert_eq!(t.remove_successor(5), None);
    }

    #[test]
    fn duplicates_route_correctly() {
        let mut t = ArtTree::new(4);
        for i in 0..100 {
            t.insert(42, i);
        }
        for i in 0..50 {
            t.insert(41, i);
            t.insert(43, i);
        }
        t.check_invariants();
        assert_eq!(t.len(), 200);
        assert!(t.get(42).is_some());
        for _ in 0..100 {
            assert!(t.remove(42).is_some());
        }
        assert_eq!(t.remove(42), None);
        t.check_invariants();
        assert_eq!(t.iter().filter(|&(k, _)| k == 41).count(), 50);
    }

    #[test]
    fn sum_range_matches_dense_oracle() {
        let mut t = ArtTree::new(32);
        for k in 0..10_000 {
            t.insert(k, 1);
        }
        let (n, s) = t.sum_range(500, 250);
        assert_eq!((n, s), (250, 250));
        let (n, _) = t.sum_range(9_990, 100);
        assert_eq!(n, 10);
        let (n, _) = t.sum_range(100_000, 10);
        assert_eq!(n, 0);
    }

    #[test]
    fn mixed_churn_against_btreemap() {
        use std::collections::BTreeMap;
        let mut t = ArtTree::new(8);
        let mut oracle: BTreeMap<i64, usize> = BTreeMap::new(); // key -> multiplicity
        let mut x = 42u64;
        for step in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = ((x >> 52) & 0x3FF) as i64;
            if step % 3 == 2 {
                // successor-delete on both sides
                let want = oracle
                    .range(k..)
                    .next()
                    .map(|(&kk, _)| kk)
                    .or_else(|| oracle.keys().next_back().copied());
                let got = t.remove_successor(k).map(|(kk, _)| kk);
                assert_eq!(got, want, "step {step} delete_succ {k}");
                if let Some(kk) = want {
                    let m = oracle.get_mut(&kk).unwrap();
                    *m -= 1;
                    if *m == 0 {
                        oracle.remove(&kk);
                    }
                }
            } else {
                t.insert(k, step as i64);
                *oracle.entry(k).or_insert(0) += 1;
            }
            let total: usize = oracle.values().sum();
            assert_eq!(t.len(), total, "step {step}");
        }
        t.check_invariants();
    }

    #[test]
    fn first_ge_walks_chain() {
        let mut t = ArtTree::new(4);
        for k in (0..100).step_by(10) {
            t.insert(k, k);
        }
        assert_eq!(t.first_ge(35), Some((40, 40)));
        assert_eq!(t.first_ge(0), Some((0, 0)));
        assert_eq!(t.first_ge(95), None);
    }

    #[test]
    fn footprint_positive() {
        let mut t = ArtTree::new(64);
        for k in 0..10_000 {
            t.insert(k, k);
        }
        assert!(t.memory_footprint() > 10_000 * 16);
    }
}
