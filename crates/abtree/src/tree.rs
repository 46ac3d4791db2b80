//! The (a,b)-tree: a main-memory B+-tree with tunable leaf capacity.
//!
//! Semantics are multiset (duplicate keys allowed), matching a PMA:
//! `insert` never overwrites, `remove` deletes one instance. The
//! deletion operator used by the mixed workload of Fig. 11b is
//! [`AbTree::remove_successor`], which removes the first element with
//! key `>= k` (or the maximum when no such element exists), so a
//! delete always removes exactly one element.

use crate::node::{Arena, Inner, Leaf, NIL};
use crate::{Key, Value};

/// Tuning knobs of the (a,b)-tree.
#[derive(Debug, Clone, Copy)]
pub struct AbTreeConfig {
    /// Maximum number of elements per leaf (the paper's `B`).
    pub leaf_capacity: usize,
    /// Maximum number of separator keys per inner node (the paper
    /// fixes this to 64 after micro-benchmarks).
    pub inner_capacity: usize,
}

impl Default for AbTreeConfig {
    fn default() -> Self {
        AbTreeConfig {
            leaf_capacity: 128,
            inner_capacity: 64,
        }
    }
}

impl AbTreeConfig {
    /// Config with leaf capacity `b` and the default inner fanout.
    pub fn with_leaf_capacity(b: usize) -> Self {
        AbTreeConfig {
            leaf_capacity: b,
            ..Default::default()
        }
    }

    fn leaf_min(&self) -> usize {
        (self.leaf_capacity / 2).max(1)
    }

    /// Minimum number of children of a non-root inner node.
    fn inner_min_children(&self) -> usize {
        self.inner_capacity.div_ceil(2).max(2)
    }
}

/// B+-tree with arena-allocated nodes and chained leaves.
#[derive(Debug)]
pub struct AbTree {
    cfg: AbTreeConfig,
    leaves: Arena<Leaf>,
    inners: Arena<Inner>,
    /// Root id: a leaf id if `height == 0`, else an inner id.
    root: u32,
    /// Number of inner levels above the leaves.
    height: usize,
    len: usize,
    first_leaf: u32,
}

impl AbTree {
    /// Creates an empty tree.
    pub fn new(cfg: AbTreeConfig) -> Self {
        assert!(cfg.leaf_capacity >= 2, "leaf capacity must be >= 2");
        assert!(cfg.inner_capacity >= 2, "inner capacity must be >= 2");
        let mut leaves = Arena::new();
        let root = leaves.alloc(Leaf::new(cfg.leaf_capacity));
        AbTree {
            cfg,
            leaves,
            inners: Arena::new(),
            root,
            height: 0,
            len: 0,
            first_leaf: root,
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &AbTreeConfig {
        &self.cfg
    }

    /// Estimated resident bytes of the whole structure (node arrays
    /// plus arena bookkeeping), used for Fig. 12c.
    pub fn memory_footprint(&self) -> usize {
        let leaf_bytes = 2 * self.cfg.leaf_capacity * 8 + std::mem::size_of::<Leaf>();
        let inner_bytes = (2 * self.cfg.inner_capacity + 1) * 8 + std::mem::size_of::<Inner>();
        self.leaves.len() * leaf_bytes + self.inners.len() * inner_bytes
    }

    // ------------------------------------------------------ lookup --

    /// Returns a value stored under `k`, if any.
    pub fn get(&self, k: Key) -> Option<Value> {
        let mut node = self.root;
        let mut level = self.height;
        while level > 0 {
            let inner = self.inners.get(node);
            node = inner.children[inner.route(k)];
            level -= 1;
        }
        let leaf = self.leaves.get(node);
        let pos = leaf.lower_bound(k);
        if pos < leaf.len && leaf.keys[pos] == k {
            Some(leaf.vals[pos])
        } else {
            None
        }
    }

    /// First element with key `>= k` in sorted order, if any.
    pub fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        let (leaf_id, pos) = self.locate_lower_bound(k)?;
        let leaf = self.leaves.get(leaf_id);
        Some((leaf.keys[pos], leaf.vals[pos]))
    }

    /// Leaf and slot of the first element `>= k`, walking the chain if
    /// the descent leaf is exhausted.
    fn locate_lower_bound(&self, k: Key) -> Option<(u32, usize)> {
        if self.len == 0 {
            return None;
        }
        let mut node = self.root;
        let mut level = self.height;
        while level > 0 {
            let inner = self.inners.get(node);
            // Leftmost child whose subtree can contain a key >= k.
            let idx = inner.keys.partition_point(|&s| s < k);
            node = inner.children[idx];
            level -= 1;
        }
        let mut leaf_id = node;
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

    // -------------------------------------------------------- scan --

    /// Visits up to `count` elements in key order starting from the
    /// first element `>= start`; returns the number visited.
    pub fn scan<F: FnMut(Key, Value)>(&self, start: Key, count: usize, mut f: F) -> usize {
        let Some((mut leaf_id, mut pos)) = self.locate_lower_bound(start) else {
            return 0;
        };
        let mut visited = 0;
        while visited < count {
            let leaf = self.leaves.get(leaf_id);
            Self::prefetch_leaf(&self.leaves, leaf.next);
            let take = (leaf.len - pos).min(count - visited);
            for i in pos..pos + take {
                f(leaf.keys[i], leaf.vals[i]);
            }
            visited += take;
            if leaf.next == NIL {
                break;
            }
            leaf_id = leaf.next;
            pos = 0;
        }
        visited
    }

    /// Sums up to `count` values starting at the first key `>= start`
    /// — the scan kernel measured in Fig. 1, 10c, 12b and 13a.
    pub fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        let Some((mut leaf_id, mut pos)) = self.locate_lower_bound(start) else {
            return (0, 0);
        };
        let mut visited = 0;
        let mut sum = 0i64;
        while visited < count {
            let leaf = self.leaves.get(leaf_id);
            Self::prefetch_leaf(&self.leaves, leaf.next);
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
    fn prefetch_leaf(leaves: &Arena<Leaf>, id: u32) {
        if id == NIL {
            return;
        }
        // SAFETY: `_mm_prefetch` only hints the cache: it never faults
        // and neither reads nor writes memory as far as the abstract
        // machine is concerned, whatever the address — and this one is
        // the start of a live leaf's `vals`. `sse`, the feature it
        // needs, is part of the x86-64 baseline.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            let leaf = leaves.get(id);
            core::arch::x86_64::_mm_prefetch(
                leaf.vals.as_ptr() as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = leaves.get(id);
        }
    }

    /// Iterates over all elements in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            tree: self,
            leaf: if self.len == 0 { NIL } else { self.first_leaf },
            pos: 0,
        }
    }

    // ------------------------------------------------------ insert --

    /// Inserts `(k, v)`; duplicates are kept.
    pub fn insert(&mut self, k: Key, v: Value) {
        if let Some((sep, right)) = self.insert_rec(self.root, self.height, k, v) {
            let mut new_root = Inner::new(self.cfg.inner_capacity);
            new_root.keys.push(sep);
            new_root.children.push(self.root);
            new_root.children.push(right);
            self.root = self.inners.alloc(new_root);
            self.height += 1;
        }
        self.len += 1;
    }

    fn insert_rec(&mut self, node: u32, level: usize, k: Key, v: Value) -> Option<(Key, u32)> {
        if level == 0 {
            return self.insert_leaf(node, k, v);
        }
        let idx = {
            let inner = self.inners.get(node);
            inner.route(k)
        };
        let child = self.inners.get(node).children[idx];
        let split = self.insert_rec(child, level - 1, k, v)?;
        let (sep, right) = split;
        let inner = self.inners.get_mut(node);
        inner.keys.insert(idx, sep);
        inner.children.insert(idx + 1, right);
        if inner.keys.len() <= self.cfg.inner_capacity {
            return None;
        }
        // Split the overflowing inner node; the middle key moves up.
        let mid = inner.keys.len() / 2;
        let sep_up = inner.keys[mid];
        let right_keys = inner.keys.split_off(mid + 1);
        inner.keys.pop();
        let right_children = inner.children.split_off(mid + 1);
        let mut right_node = Inner::new(self.cfg.inner_capacity);
        right_node.keys = right_keys;
        right_node.children = right_children;
        let right_id = self.inners.alloc(right_node);
        Some((sep_up, right_id))
    }

    fn insert_leaf(&mut self, leaf_id: u32, k: Key, v: Value) -> Option<(Key, u32)> {
        let full = self.leaves.get(leaf_id).len == self.cfg.leaf_capacity;
        if !full {
            let leaf = self.leaves.get_mut(leaf_id);
            let pos = leaf.lower_bound(k);
            leaf.insert_at(pos, k, v);
            return None;
        }
        // Split, then insert into the correct half.
        let right_id = self.leaves.alloc(Leaf::new(self.cfg.leaf_capacity));
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
        let target = if k >= sep { right_id } else { leaf_id };
        let leaf = self.leaves.get_mut(target);
        let pos = leaf.lower_bound(k);
        leaf.insert_at(pos, k, v);
        Some((sep, right_id))
    }

    // ------------------------------------------------------ delete --

    /// Removes one element with key exactly `k`, returning its value.
    pub fn remove(&mut self, k: Key) -> Option<Value> {
        let out = self.remove_rec(self.root, self.height, k)?;
        self.len -= 1;
        self.shrink_root();
        Some(out)
    }

    fn remove_rec(&mut self, node: u32, level: usize, k: Key) -> Option<Value> {
        if level == 0 {
            let leaf = self.leaves.get_mut(node);
            let pos = leaf.lower_bound(k);
            if pos < leaf.len && leaf.keys[pos] == k {
                return Some(leaf.remove_at(pos).1);
            }
            return None;
        }
        // Route right (duplicates of a separator live right of it),
        // falling back to children left of any separator equal to `k`
        // — a split can strand duplicates in the left sibling.
        let mut idx = self.inners.get(node).route(k);
        loop {
            let child = self.inners.get(node).children[idx];
            if let Some(v) = self.remove_rec(child, level - 1, k) {
                self.fix_child(node, idx, level);
                return Some(v);
            }
            if idx == 0 || self.inners.get(node).keys[idx - 1] != k {
                return None;
            }
            idx -= 1;
        }
    }

    /// Removes the first element with key `>= k`; if every key is
    /// smaller, removes the maximum. Returns the removed pair, or
    /// `None` on an empty tree. This keeps the cardinality constant in
    /// the mixed workload regardless of where the delete key lands.
    pub fn remove_successor(&mut self, k: Key) -> Option<(Key, Value)> {
        if self.len == 0 {
            return None;
        }
        let out = self
            .remove_first_ge(self.root, self.height, k)
            .or_else(|| self.remove_last(self.root, self.height));
        debug_assert!(out.is_some());
        self.len -= 1;
        self.shrink_root();
        out
    }

    fn remove_first_ge(&mut self, node: u32, level: usize, k: Key) -> Option<(Key, Value)> {
        if level == 0 {
            let leaf = self.leaves.get_mut(node);
            let pos = leaf.lower_bound(k);
            if pos < leaf.len {
                return Some(leaf.remove_at(pos));
            }
            return None;
        }
        let first = {
            let inner = self.inners.get(node);
            inner.keys.partition_point(|&s| s < k)
        };
        let children_len = self.inners.get(node).children.len();
        for idx in first..children_len {
            let child = self.inners.get(node).children[idx];
            // Children after the routed one hold keys >= their
            // separator >= k, so removing their minimum suffices.
            let key = if idx == first { k } else { Key::MIN };
            if let Some(out) = self.remove_first_ge(child, level - 1, key) {
                self.fix_child(node, idx, level);
                return Some(out);
            }
        }
        None
    }

    fn remove_last(&mut self, node: u32, level: usize) -> Option<(Key, Value)> {
        if level == 0 {
            let leaf = self.leaves.get_mut(node);
            if leaf.len == 0 {
                return None;
            }
            let pos = leaf.len - 1;
            return Some(leaf.remove_at(pos));
        }
        let idx = self.inners.get(node).children.len() - 1;
        let child = self.inners.get(node).children[idx];
        let out = self.remove_last(child, level - 1)?;
        self.fix_child(node, idx, level);
        Some(out)
    }

    fn shrink_root(&mut self) {
        while self.height > 0 {
            let only_child = {
                let root = self.inners.get(self.root);
                if root.children.len() == 1 {
                    Some(root.children[0])
                } else {
                    None
                }
            };
            match only_child {
                Some(child) => {
                    self.inners.dealloc(self.root);
                    self.root = child;
                    self.height -= 1;
                }
                None => break,
            }
        }
    }

    /// Restores the occupancy invariant of `parent.children[idx]`
    /// (which sits at level `parent_level - 1`) after a removal, by
    /// borrowing from a sibling or merging with it.
    fn fix_child(&mut self, parent: u32, idx: usize, parent_level: usize) {
        let child_level = parent_level - 1;
        let child = self.inners.get(parent).children[idx];
        let (child_size, min_size) = if child_level == 0 {
            (self.leaves.get(child).len, self.cfg.leaf_min())
        } else {
            (
                self.inners.get(child).children.len(),
                self.cfg.inner_min_children(),
            )
        };
        if child_size >= min_size {
            return;
        }
        let sibling_count = self.inners.get(parent).children.len();
        debug_assert!(sibling_count >= 2, "non-root inner with one child");
        // Prefer the left sibling; fall back to the right one.
        let (left_idx, right_idx) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        let left = self.inners.get(parent).children[left_idx];
        let right = self.inners.get(parent).children[right_idx];

        if child_level == 0 {
            self.fix_leaf_pair(parent, left_idx, left, right, idx == left_idx, min_size);
        } else {
            self.fix_inner_pair(parent, left_idx, left, right, idx == left_idx, min_size);
        }
    }

    fn fix_leaf_pair(
        &mut self,
        parent: u32,
        left_idx: usize,
        left: u32,
        right: u32,
        deficit_is_left: bool,
        min_size: usize,
    ) {
        let (llen, rlen) = (self.leaves.get(left).len, self.leaves.get(right).len);
        if llen + rlen >= 2 * min_size {
            // Borrow: redistribute evenly between the two leaves.
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
            let sep = self.leaves.get(right).min_key();
            self.inners.get_mut(parent).keys[left_idx] = sep;
            let _ = deficit_is_left;
        } else {
            // Merge right into left and drop the right leaf.
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
            self.leaves.dealloc(right);
            let p = self.inners.get_mut(parent);
            p.keys.remove(left_idx);
            p.children.remove(left_idx + 1);
        }
    }

    fn fix_inner_pair(
        &mut self,
        parent: u32,
        left_idx: usize,
        left: u32,
        right: u32,
        deficit_is_left: bool,
        min_size: usize,
    ) {
        let (lc, rc) = (
            self.inners.get(left).children.len(),
            self.inners.get(right).children.len(),
        );
        let parent_sep = self.inners.get(parent).keys[left_idx];
        if lc + rc >= 2 * min_size {
            if deficit_is_left {
                // Rotate one child from right to left through the
                // parent separator.
                let (moved_child, new_sep) = {
                    let r = self.inners.get_mut(right);
                    let child = r.children.remove(0);
                    let sep = r.keys.remove(0);
                    (child, sep)
                };
                let l = self.inners.get_mut(left);
                l.keys.push(parent_sep);
                l.children.push(moved_child);
                self.inners.get_mut(parent).keys[left_idx] = new_sep;
            } else {
                let (moved_child, new_sep) = {
                    let l = self.inners.get_mut(left);
                    let child = l.children.pop().expect("non-empty inner");
                    let sep = l.keys.pop().expect("non-empty inner");
                    (child, sep)
                };
                let r = self.inners.get_mut(right);
                r.keys.insert(0, parent_sep);
                r.children.insert(0, moved_child);
                self.inners.get_mut(parent).keys[left_idx] = new_sep;
            }
        } else {
            // Merge: left ++ sep ++ right.
            let right_node = self.inners.dealloc(right);
            let l = self.inners.get_mut(left);
            l.keys.push(parent_sep);
            l.keys.extend(right_node.keys);
            l.children.extend(right_node.children);
            let p = self.inners.get_mut(parent);
            p.keys.remove(left_idx);
            p.children.remove(left_idx + 1);
        }
    }

    // --------------------------------------------------- bulk load --

    /// Builds a tree from key-sorted pairs with full leaves — the
    /// "load a sorted batch" step of Fig. 13a.
    pub fn bulk_load(cfg: AbTreeConfig, pairs: &[(Key, Value)]) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "unsorted bulk load"
        );
        let mut tree = AbTree::new(cfg);
        if pairs.is_empty() {
            return tree;
        }
        tree.len = pairs.len();
        // Build the leaf level: full leaves, with the tail balanced so
        // the last leaf never underflows.
        let b = cfg.leaf_capacity;
        let n = pairs.len();
        let mut leaf_ids: Vec<u32> = Vec::with_capacity(n.div_ceil(b));
        let mut i = 0;
        while i < n {
            let rest = n - i;
            let take = if rest > b && rest - b < cfg.leaf_min() {
                // Balance the final two leaves.
                rest / 2
            } else {
                rest.min(b)
            };
            let id = if leaf_ids.is_empty() {
                tree.root // reuse the pre-allocated empty root leaf
            } else {
                tree.leaves.alloc(Leaf::new(b))
            };
            {
                let leaf = tree.leaves.get_mut(id);
                for (j, &(k, v)) in pairs[i..i + take].iter().enumerate() {
                    leaf.keys[j] = k;
                    leaf.vals[j] = v;
                }
                leaf.len = take;
            }
            if let Some(&prev) = leaf_ids.last() {
                tree.leaves.get_mut(prev).next = id;
                tree.leaves.get_mut(id).prev = prev;
            }
            leaf_ids.push(id);
            i += take;
        }
        tree.first_leaf = leaf_ids[0];
        // Build inner levels bottom-up, carrying each node's subtree
        // minimum so the next level can form separators in O(1).
        let fanout = cfg.inner_capacity + 1;
        let mut level_mins: Vec<Key> = leaf_ids
            .iter()
            .map(|&id| tree.leaves.get(id).min_key())
            .collect();
        let mut level_ids = leaf_ids;
        while level_ids.len() > 1 {
            let mut next_level: Vec<u32> = Vec::with_capacity(level_ids.len().div_ceil(fanout));
            let mut next_mins: Vec<Key> = Vec::with_capacity(next_level.capacity());
            let m = level_ids.len();
            let mut i = 0;
            while i < m {
                let rest = m - i;
                let take = if rest > fanout && rest - fanout < cfg.inner_min_children() {
                    rest / 2
                } else {
                    rest.min(fanout)
                };
                let mut node = Inner::new(cfg.inner_capacity);
                node.children.extend_from_slice(&level_ids[i..i + take]);
                node.keys.extend_from_slice(&level_mins[i + 1..i + take]);
                next_level.push(tree.inners.alloc(node));
                next_mins.push(level_mins[i]);
                i += take;
            }
            level_ids = next_level;
            level_mins = next_mins;
            tree.height += 1;
        }
        tree.root = level_ids[0];
        tree
    }

    // -------------------------------------------------- validation --

    /// Exhaustively checks the structural invariants; test helper.
    ///
    /// Panics with a description on the first violation.
    pub fn check_invariants(&self) {
        let mut leaf_count = 0usize;
        let mut elem_count = 0usize;
        self.check_rec(
            self.root,
            self.height,
            true,
            None,
            None,
            &mut leaf_count,
            &mut elem_count,
        );
        assert_eq!(elem_count, self.len, "len mismatch");
        // The leaf chain visits every element in global sorted order.
        let mut chained = 0usize;
        let mut prev_key: Option<Key> = None;
        let mut prev_leaf = NIL;
        let mut leaf = self.first_leaf;
        let mut chain_leaves = 0usize;
        while leaf != NIL {
            let l = self.leaves.get(leaf);
            assert_eq!(l.prev, prev_leaf, "broken prev link");
            chain_leaves += 1;
            for i in 0..l.len {
                if let Some(p) = prev_key {
                    assert!(p <= l.keys[i], "leaf chain out of order");
                }
                prev_key = Some(l.keys[i]);
                chained += 1;
            }
            prev_leaf = leaf;
            leaf = l.next;
        }
        assert_eq!(chained, self.len, "chain misses elements");
        assert_eq!(chain_leaves, leaf_count, "chain misses leaves");
    }

    #[allow(clippy::too_many_arguments)]
    fn check_rec(
        &self,
        node: u32,
        level: usize,
        is_root: bool,
        lo: Option<Key>,
        hi: Option<Key>,
        leaf_count: &mut usize,
        elem_count: &mut usize,
    ) {
        if level == 0 {
            let leaf = self.leaves.get(node);
            *leaf_count += 1;
            *elem_count += leaf.len;
            if !is_root {
                assert!(leaf.len >= self.cfg.leaf_min(), "leaf underflow");
            }
            assert!(leaf.len <= self.cfg.leaf_capacity, "leaf overflow");
            for w in leaf.keys[..leaf.len].windows(2) {
                assert!(w[0] <= w[1], "unsorted leaf");
            }
            if leaf.len > 0 {
                if let Some(lo) = lo {
                    assert!(lo <= leaf.keys[0], "leaf key below separator");
                }
                if let Some(hi) = hi {
                    assert!(leaf.keys[leaf.len - 1] <= hi, "leaf key above separator");
                }
            }
            return;
        }
        let inner = self.inners.get(node);
        assert_eq!(inner.keys.len() + 1, inner.children.len(), "arity mismatch");
        assert!(
            inner.keys.len() <= self.cfg.inner_capacity,
            "inner overflow"
        );
        if !is_root {
            assert!(
                inner.children.len() >= self.cfg.inner_min_children(),
                "inner underflow"
            );
        } else {
            assert!(inner.children.len() >= 2, "degenerate root");
        }
        for w in inner.keys.windows(2) {
            assert!(w[0] <= w[1], "unsorted separators");
        }
        for (i, &child) in inner.children.iter().enumerate() {
            let child_lo = if i == 0 { lo } else { Some(inner.keys[i - 1]) };
            let child_hi = if i == inner.keys.len() {
                hi
            } else {
                Some(inner.keys[i])
            };
            self.check_rec(
                child,
                level - 1,
                false,
                child_lo,
                child_hi,
                leaf_count,
                elem_count,
            );
        }
    }
}

/// Sorted iterator over the tree.
pub struct Iter<'a> {
    tree: &'a AbTree,
    leaf: u32,
    pos: usize,
}

impl<'a> Iterator for Iter<'a> {
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

    fn small() -> AbTreeConfig {
        AbTreeConfig {
            leaf_capacity: 4,
            inner_capacity: 4,
        }
    }

    #[test]
    fn insert_and_get() {
        let mut t = AbTree::new(small());
        for k in [5, 3, 8, 1, 9, 2, 7, 4, 6, 0] {
            t.insert(k, k * 10);
        }
        t.check_invariants();
        for k in 0..10 {
            assert_eq!(t.get(k), Some(k * 10));
        }
        assert_eq!(t.get(42), None);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut t = AbTree::new(small());
        let mut keys: Vec<i64> = (0..1000).map(|i| (i * 37) % 1000).collect();
        for &k in &keys {
            t.insert(k, k);
        }
        t.check_invariants();
        keys.sort_unstable();
        let got: Vec<i64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = AbTree::new(small());
        for i in 0..100 {
            t.insert(7, i);
        }
        t.check_invariants();
        assert_eq!(t.len(), 100);
        assert_eq!(t.iter().filter(|&(k, _)| k == 7).count(), 100);
    }

    #[test]
    fn remove_exact() {
        let mut t = AbTree::new(small());
        for k in 0..200 {
            t.insert(k, k);
        }
        for k in (0..200).step_by(2) {
            assert_eq!(t.remove(k), Some(k), "remove {k}");
            t.check_invariants();
        }
        assert_eq!(t.len(), 100);
        for k in 0..200 {
            assert_eq!(t.get(k).is_some(), k % 2 == 1, "get {k}");
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = AbTree::new(small());
        t.insert(1, 1);
        assert_eq!(t.remove(2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_duplicates_with_stranded_left_copies() {
        let mut t = AbTree::new(small());
        // Force splits inside runs of equal keys.
        for i in 0..50 {
            t.insert(10, i);
        }
        for i in 0..50 {
            t.insert(20, i);
        }
        t.check_invariants();
        for _ in 0..50 {
            assert!(t.remove(10).is_some());
        }
        assert_eq!(t.remove(10), None);
        assert_eq!(t.len(), 50);
        t.check_invariants();
    }

    #[test]
    fn remove_successor_semantics() {
        let mut t = AbTree::new(small());
        for k in [10, 20, 30] {
            t.insert(k, k);
        }
        assert_eq!(t.remove_successor(15), Some((20, 20)));
        assert_eq!(t.remove_successor(100), Some((30, 30))); // falls back to max
        assert_eq!(t.remove_successor(0), Some((10, 10)));
        assert_eq!(t.remove_successor(0), None);
    }

    #[test]
    fn scan_sums_expected_values() {
        let mut t = AbTree::new(AbTreeConfig::with_leaf_capacity(16));
        for k in 0..1000 {
            t.insert(k, 1);
        }
        let (n, sum) = t.sum_range(100, 50);
        assert_eq!((n, sum), (50, 50));
        let (n, _) = t.sum_range(990, 100);
        assert_eq!(n, 10, "scan stops at the end");
        let (n, _) = t.sum_range(5000, 10);
        assert_eq!(n, 0);
    }

    #[test]
    fn scan_visits_in_order() {
        let mut t = AbTree::new(small());
        for k in (0..500).rev() {
            t.insert(k, k);
        }
        let mut seen = Vec::new();
        t.scan(123, 100, |k, _| seen.push(k));
        assert_eq!(seen, (123..223).collect::<Vec<i64>>());
    }

    #[test]
    fn first_ge_walks_leaf_chain() {
        let mut t = AbTree::new(small());
        for k in (0..100).step_by(10) {
            t.insert(k, k);
        }
        assert_eq!(t.first_ge(35), Some((40, 40)));
        assert_eq!(t.first_ge(90), Some((90, 90)));
        assert_eq!(t.first_ge(91), None);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (i * 3, i)).collect();
        let bulk = AbTree::bulk_load(AbTreeConfig::with_leaf_capacity(32), &pairs);
        bulk.check_invariants();
        assert_eq!(bulk.len(), pairs.len());
        let got: Vec<(i64, i64)> = bulk.iter().collect();
        assert_eq!(got, pairs);
    }

    #[test]
    fn bulk_load_then_update() {
        let pairs: Vec<(i64, i64)> = (0..1000).map(|i| (i * 2, i)).collect();
        let mut t = AbTree::bulk_load(small(), &pairs);
        for i in 0..500 {
            t.insert(i * 2 + 1, -i);
        }
        for i in 0..250 {
            assert!(t.remove(i * 4).is_some());
        }
        t.check_invariants();
        assert_eq!(t.len(), 1250);
    }

    #[test]
    fn bulk_load_tiny_inputs() {
        for n in 0..20 {
            let pairs: Vec<(i64, i64)> = (0..n).map(|i| (i, i)).collect();
            let t = AbTree::bulk_load(small(), &pairs);
            t.check_invariants();
            assert_eq!(t.len(), n as usize);
            assert_eq!(t.iter().count(), n as usize);
        }
    }

    #[test]
    fn mixed_churn_keeps_invariants() {
        let mut t = AbTree::new(AbTreeConfig::with_leaf_capacity(8));
        let mut x = 1u64;
        let mut count = 0i64;
        for round in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 40) as i64;
            if round % 3 == 2 && count > 0 {
                assert!(t.remove_successor(k).is_some());
                count -= 1;
            } else {
                t.insert(k, k);
                count += 1;
            }
            if round % 257 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), count as usize);
    }

    #[test]
    fn drain_to_empty_and_reuse() {
        let mut t = AbTree::new(small());
        for k in 0..500 {
            t.insert(k, k);
        }
        for k in 0..500 {
            assert!(t.remove(k).is_some());
        }
        assert!(t.is_empty());
        t.check_invariants();
        t.insert(1, 1);
        assert_eq!(t.get(1), Some(1));
    }

    #[test]
    fn memory_footprint_grows_with_content() {
        let mut t = AbTree::new(AbTreeConfig::default());
        let empty = t.memory_footprint();
        for k in 0..100_000 {
            t.insert(k, k);
        }
        assert!(t.memory_footprint() > empty * 100);
    }
}
