//! Differential tests for the sharded front-end: a [`ShardedRma`]
//! must behave exactly like one big [`Rma`] and like a `BTreeMap`
//! multiset oracle under mixed workloads — including across shard
//! maintenance — plus property tests for the routing and stitching
//! invariants.

use proptest::prelude::*;
use rma_repro::db::Db;
use rma_repro::rma::{windows_above, RewiringMode, Rma, RmaConfig, Thresholds};
use rma_repro::shard::config::MIN_SPLIT_SEGMENTS;
use rma_repro::shard::{ShardConfig, Splitters};
use std::collections::BTreeMap;

/// Number of splitters `<= k` — the routing oracle.
fn route_oracle(splitters: &[i64], k: i64) -> usize {
    splitters.partition_point(|&sep| sep <= k)
}

fn small_rma() -> RmaConfig {
    RmaConfig {
        segment_size: 8,
        rewiring: RewiringMode::Disabled,
        reserve_bytes: 1 << 24,
        ..Default::default()
    }
}

fn small_sharded(n: usize) -> ShardConfig {
    ShardConfig {
        num_shards: n,
        rma: small_rma(),
        ..Default::default()
    }
}

/// Opens the engine under test through the facade (the only
/// construction path consumers use since the `rma-db` redesign).
fn sharded_db(cfg: ShardConfig, splitter_keys: Vec<i64>) -> Db {
    Db::builder()
        .shard_config(cfg)
        .splitter_keys(splitter_keys)
        .build()
        .expect("valid test config")
}

/// Multiset oracle helpers.
fn oracle_insert(o: &mut BTreeMap<i64, usize>, k: i64) {
    *o.entry(k).or_insert(0) += 1;
}

#[test]
fn mixed_churn_matches_rma_and_btreemap() {
    let db = sharded_db(small_sharded(4), vec![512, 1024, 1536]);
    let sharded = db.engine();
    let mut single = Rma::new(small_rma());
    let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
    let mut x = 1234u64;
    for step in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = ((x >> 48) & 0x7FF) as i64; // keys in [0, 2048): all four shards
        match step % 5 {
            3 | 4 => {
                let got = sharded.remove(k);
                let single_got = single.remove(k);
                let present = oracle.get(&k).copied().unwrap_or(0) > 0;
                assert_eq!(got.is_some(), present, "step {step} remove({k})");
                assert_eq!(got, single_got, "step {step}: the same member");
                if present {
                    let c = oracle.get_mut(&k).expect("present");
                    *c -= 1;
                    if *c == 0 {
                        oracle.remove(&k);
                    }
                }
            }
            _ => {
                // A distinct value per member: both stores pop and
                // scan a key's stack from its newest member, so every
                // answer and every sum names the same members.
                sharded.insert(k, step as i64);
                single.insert(k, step as i64);
                oracle_insert(&mut oracle, k);
            }
        }
        if step % 2_000 == 1_999 {
            // Scans must agree everywhere, mid-churn.
            let start = (k - 100).max(0);
            assert_eq!(
                sharded.sum_range(start, 300),
                single.sum_range(start, 300),
                "step {step} sum_range({start})"
            );
            let total: usize = oracle.values().sum();
            assert_eq!(sharded.len(), total, "step {step} len");
        }
        if step % 10_000 == 9_999 {
            // Shard maintenance mid-workload must not change content.
            sharded.maintain();
            sharded.check_invariants();
        }
    }
    sharded.check_invariants();
    let got: Vec<i64> = sharded.collect_all().iter().map(|p| p.0).collect();
    let want: Vec<i64> = oracle
        .iter()
        .flat_map(|(&k, &c)| std::iter::repeat_n(k, c))
        .collect();
    assert_eq!(got, want, "final content");
    assert_eq!(sharded.collect_all(), single.iter().collect::<Vec<_>>());
}

/// Coverage the original suite missed: `remove()` *after* shard
/// split/merge cycles. Skewed inserts force splits, mass deletion
/// forces merges, and exact-key removes run against the `BTreeMap`
/// multiset oracle after every topology change.
#[test]
fn removes_after_split_merge_cycles_match_btreemap() {
    let db = sharded_db(small_sharded(4), vec![4000, 8000, 12000]);
    let sharded = db.engine();
    let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
    let mut x = 99u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    for cycle in 0..4 {
        // Skewed inserts: hammer one quarter of the key space so the
        // hot shard must split.
        let base = (cycle % 4) * 4000;
        for _ in 0..1500 {
            let k = base + (rand() % 2000) as i64;
            sharded.insert(k, k);
            oracle_insert(&mut oracle, k);
        }
        sharded.maintain();
        sharded.check_invariants();
        if cycle == 0 {
            // The hot quarter held no boundary: now it is cut.
            let keys = sharded.splitters().keys().to_vec();
            assert!(
                keys.iter().any(|&k| (base..base + 2000).contains(&k)),
                "skew must split the hot quarter: {keys:?}"
            );
        }

        // Interleaved removes right after the topology changed: half
        // present keys, half misses.
        for _ in 0..800 {
            let k = (rand() % 16_000) as i64;
            let got = sharded.remove(k).is_some();
            let present = oracle.get(&k).copied().unwrap_or(0) > 0;
            assert_eq!(got, present, "cycle {cycle} remove({k})");
            if present {
                let c = oracle.get_mut(&k).expect("present");
                *c -= 1;
                if *c == 0 {
                    oracle.remove(&k);
                }
            }
        }
        sharded.check_invariants();

        // Mass deletion drains most shards so the next maintenance
        // pass merges; removes must still agree afterwards.
        let victims: Vec<i64> = oracle.keys().copied().filter(|&k| k % 3 != 0).collect();
        for k in victims {
            while oracle_remove_exact(&mut oracle, k) {
                assert!(sharded.remove(k).is_some(), "cycle {cycle} drain({k})");
            }
            assert!(sharded.remove(k).is_none(), "cycle {cycle} over-drain({k})");
        }
        let report = sharded.maintain();
        sharded.check_invariants();
        let _ = report;
        assert_eq!(
            sharded.len(),
            oracle.values().sum::<usize>(),
            "cycle {cycle} len after drain+merge"
        );
    }

    let got: Vec<i64> = sharded.collect_all().iter().map(|p| p.0).collect();
    let want: Vec<i64> = oracle
        .iter()
        .flat_map(|(&k, &c)| std::iter::repeat_n(k, c))
        .collect();
    assert_eq!(got, want, "content after split/merge/remove cycles");
}

/// `get_many` against per-key `get` (bit for bit: the same member of
/// a duplicate run) and against the oracle's presence. Values are a
/// function of the key, so the oracle predicts them without tracking
/// members; `tests/key_contract.rs` checks that the member is the
/// front of the key's stack.
fn assert_get_many_matches(
    sharded: &rma_repro::shard::ShardedRma,
    oracle: &BTreeMap<i64, usize>,
    probes: &[i64],
    when: &str,
) {
    let mut got = vec![Some(i64::MIN); probes.len()];
    sharded.get_many(probes, &mut got);
    for (&k, &v) in probes.iter().zip(&got) {
        assert_eq!(v, sharded.get(k), "{when}: get_many({k}) vs get");
        assert_eq!(
            v,
            oracle.contains_key(&k).then(|| k * 3),
            "{when}: get_many({k}) vs oracle"
        );
    }
}

/// `get_many` with keys spanning every shard, on the topology before
/// a split, between the split and the merge, and after the merge.
#[test]
fn get_many_matches_get_and_btreemap_across_split_and_merge() {
    let db = sharded_db(small_sharded(4), vec![4000, 8000, 12000]);
    let sharded = db.engine();
    let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
    let mut rng = rma_repro::workloads::SplitMix64::new(0x6E7);
    // Hits, misses, duplicates of both, below the minimum and above
    // the maximum, in no order, more than one routing block of them.
    let probes: Vec<i64> = (0..300)
        .map(|_| rng.next_below(16_400) as i64 - 200)
        .chain([i64::MIN, i64::MAX, 3999, 4000, 4001])
        .collect();

    for _ in 0..2000 {
        let k = rng.next_below(16_000) as i64;
        sharded.insert(k, k * 3);
        oracle_insert(&mut oracle, k);
    }
    assert_get_many_matches(sharded, &oracle, &probes, "four even shards");

    // Hammer one quarter so its shard splits.
    for _ in 0..3000 {
        let k = rng.next_below(2000) as i64;
        sharded.insert(k, k * 3);
        oracle_insert(&mut oracle, k);
    }
    sharded.maintain();
    let keys = sharded.splitters().keys().to_vec();
    assert!(
        keys.iter().any(|&k| (0..2000).contains(&k)),
        "skew must split the hot quarter: {keys:?}"
    );
    sharded.check_invariants();
    assert_get_many_matches(sharded, &oracle, &probes, "after the split");

    // Drain most keys, then read only the upper half: the pieces of
    // the once-hot quarter are cold now, and merge into one.
    let victims: Vec<i64> = oracle.keys().copied().filter(|&k| k % 5 != 0).collect();
    for k in victims {
        while oracle_remove_exact(&mut oracle, k) {
            assert!(sharded.remove(k).is_some(), "drain({k})");
        }
    }
    sharded.reset_access_stats();
    for k in 8000..16_000 {
        let _ = sharded.get(k);
    }
    let report = sharded.maintain();
    let keys = sharded.splitters().keys().to_vec();
    assert!(
        !keys.iter().any(|&k| (0..4000).contains(&k)),
        "the cold pieces must merge: {report:?} {keys:?}"
    );
    sharded.check_invariants();
    assert_get_many_matches(sharded, &oracle, &probes, "after the merge");
}

/// More shards than one routing block of `get_many` has keys: every
/// group is a single key, and shard ids run past the block size.
#[test]
fn get_many_spans_a_topology_of_more_than_64_shards() {
    const SHARDS: i64 = 80;
    let splitter_keys: Vec<i64> = (1..SHARDS).map(|i| i * 100).collect();
    let db = sharded_db(small_sharded(SHARDS as usize), splitter_keys);
    let sharded = db.engine();
    assert_eq!(sharded.num_shards(), SHARDS as usize);
    let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
    for k in (0..SHARDS * 100).step_by(7) {
        sharded.insert(k, k * 3);
        oracle_insert(&mut oracle, k);
    }
    // Descending, so consecutive probes never share a shard.
    let probes: Vec<i64> = (-50..SHARDS * 100 + 50).rev().step_by(33).collect();
    assert!(probes.len() > 200);
    assert_get_many_matches(sharded, &oracle, &probes, "80 shards");
    let (reads, _) = sharded.lock_acquisitions();
    assert_get_many_matches(sharded, &oracle, &probes, "80 shards, again");
    assert_eq!(sharded.lock_acquisitions().0, reads, "uncontended reads");
}

/// Removes one instance of exactly `k`; false when absent.
fn oracle_remove_exact(o: &mut BTreeMap<i64, usize>, k: i64) -> bool {
    match o.get_mut(&k) {
        Some(c) => {
            *c -= 1;
            if *c == 0 {
                o.remove(&k);
            }
            true
        }
        None => false,
    }
}

#[test]
fn apply_batch_matches_unsharded_apply_batch() {
    let mut base: Vec<(i64, i64)> =
        rma_repro::workloads::KeyStream::new(rma_repro::workloads::Pattern::Uniform, 11)
            .take_pairs(20_000);
    base.sort_unstable();
    let db = Db::builder()
        .shard_config(small_sharded(8))
        .build_bulk(&base)
        .expect("valid test config");
    let sharded = db.engine();
    let mut single = Rma::new(small_rma());
    single.load_bulk(&base);

    let mut batches =
        rma_repro::workloads::BatchStream::new(rma_repro::workloads::Pattern::Uniform, 22);
    for round in 0..10 {
        let inserts = batches.next_batch(2_000);
        // Delete every third key of the previous batch (exact keys).
        let deletes: Vec<i64> = inserts.iter().step_by(3).map(|p| p.0).collect();
        let a = sharded.apply_batch(&inserts, &deletes);
        let b = single.apply_batch(&inserts, &deletes);
        assert_eq!(a, b, "round {round} deleted counts");
        assert_eq!(sharded.len(), single.len(), "round {round} len");
    }
    sharded.check_invariants();
    assert_eq!(
        sharded
            .collect_all()
            .iter()
            .map(|p| p.0)
            .collect::<Vec<_>>(),
        single.iter().map(|p| p.0).collect::<Vec<_>>(),
        "content after batched churn"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routing invariant: every key lands in exactly one shard, and
    /// that shard is the one whose splitter range contains it.
    #[test]
    fn every_key_routes_to_exactly_one_shard(
        mut raw_splitters in prop::collection::vec(-1000i64..1000, 0..12),
        keys in prop::collection::vec(-1200i64..1200, 1..200),
    ) {
        raw_splitters.sort_unstable();
        raw_splitters.dedup();
        let s = Splitters::new(raw_splitters.clone());
        for &k in &keys {
            let i = s.route(k);
            // Exactly the partition_point count — one shard, the
            // right shard.
            prop_assert_eq!(i, raw_splitters.partition_point(|&sep| sep <= k));
            let (lo, hi) = s.range_of(i);
            prop_assert!(lo.is_none_or(|l| l <= k), "key below its shard range");
            prop_assert!(hi.is_none_or(|h| k < h), "key at/above its shard range");
        }
    }

    /// Splitter invariant under inserts: stored keys route back to
    /// the shard that physically holds them (check_invariants
    /// asserts routing consistency internally).
    #[test]
    fn inserts_respect_shard_bounds(
        mut raw_splitters in prop::collection::vec(0i64..500, 1..6),
        keys in prop::collection::vec(-100i64..600, 1..300),
    ) {
        raw_splitters.sort_unstable();
        raw_splitters.dedup();
        let db = sharded_db(small_sharded(1), raw_splitters);
        let sharded = db.engine();
        for &k in &keys {
            sharded.insert(k, k);
        }
        sharded.check_invariants();
        prop_assert_eq!(sharded.len(), keys.len());
    }

    /// Stitched scans equal the oracle scan for arbitrary splitter
    /// placements, starts and counts.
    #[test]
    fn stitched_scans_equal_oracle(
        mut raw_splitters in prop::collection::vec(0i64..2000, 0..8),
        keys in prop::collection::vec(0i64..2000, 1..400),
        start in -100i64..2200,
        count in 1usize..300,
    ) {
        raw_splitters.sort_unstable();
        raw_splitters.dedup();
        let db = sharded_db(small_sharded(1), raw_splitters);
        let sharded = db.engine();
        let mut single = Rma::new(small_rma());
        for &k in &keys {
            sharded.insert(k, 1);
            single.insert(k, 1);
        }
        prop_assert_eq!(sharded.sum_range(start, count), single.sum_range(start, count));
        let mut got = Vec::new();
        let n = sharded.scan(start, count, |k, v| got.push((k, v)));
        let mut want = Vec::new();
        let m = single.scan(start, count, |k, v| want.push((k, v)));
        prop_assert_eq!(n, m);
        prop_assert_eq!(got, want);
        prop_assert_eq!(sharded.first_ge(start), single.first_ge(start));
    }

    /// Split/merge invariant 1: whatever the access pattern, the
    /// splitters every published topology routes by stay strictly
    /// sorted, route every key to exactly one shard (the
    /// partition_point oracle), and only ever name the shard that
    /// holds the key — across the split/merge pass's publications.
    /// The hot shards split at their histogram's equal-access point,
    /// so the weights here shape where the cuts fall.
    #[test]
    fn maintained_splitters_stay_sorted_and_partition_the_keyspace(
        mut edges in prop::collection::vec(-2000i64..2000, 2..12),
        weights in prop::collection::vec(0u64..40, 1..12),
        keys in prop::collection::vec(-2500i64..2500, 1..300),
    ) {
        edges.sort_unstable();
        edges.dedup();
        let db = sharded_db(small_sharded(1), edges.clone());
        let sharded = db.engine();
        for &k in &keys {
            sharded.insert(k, k);
        }
        sharded.reset_access_stats();
        // Touch each gap between consecutive edges with its weight
        // from the pool (zero weights included on purpose).
        for (i, w) in edges.windows(2).enumerate() {
            for r in 0..weights[i % weights.len()] {
                let _ = sharded.get(w[0] + (r as i64 * 7) % (w[1] - w[0]));
            }
        }
        let before = sharded.collect_all();
        let _ = sharded.maintain();
        let s = sharded.splitters();
        prop_assert!(
            s.keys().windows(2).all(|w| w[0] < w[1]),
            "not strictly sorted: {:?}",
            s.keys()
        );
        for &k in &keys {
            let i = s.route(k);
            prop_assert_eq!(i, route_oracle(s.keys(), k));
            let (lo, hi) = s.range_of(i);
            prop_assert!(lo.is_none_or(|l| l <= k));
            prop_assert!(hi.is_none_or(|h| k < h));
        }
        sharded.check_invariants();
        prop_assert_eq!(sharded.collect_all(), before);
    }

    /// Split/merge invariant 2: one split step moves exactly one
    /// boundary — keys routing to other shards keep their shard
    /// (modulo the index shift right of the split), bit for bit.
    #[test]
    fn split_step_leaves_outside_routing_unchanged(
        mut raw_splitters in prop::collection::vec(-1000i64..1000, 1..8),
        shard_sel in 0usize..8,
        key_sel in 1i64..1_000_000,
        keys in prop::collection::vec(-1200i64..1200, 1..150),
    ) {
        raw_splitters.sort_unstable();
        raw_splitters.dedup();
        let before = Splitters::new(raw_splitters.clone());
        let i = shard_sel % before.num_shards();
        let (lo, hi) = before.range_of(i);
        // A split key strictly inside shard i's range (skip empty
        // integer ranges).
        let lo_k = lo.map_or(-1_000_000, |l| l + 1);
        let hi_k = hi.map_or(1_000_000, |h| h - 1);
        if lo_k <= hi_k {
            let split_key = lo_k + key_sel.rem_euclid(hi_k - lo_k + 1);
            let mut keys_after = raw_splitters.clone();
            keys_after.insert(i, split_key);
            let after = Splitters::new(keys_after);
            prop_assert_eq!(after.num_shards(), before.num_shards() + 1);
            for &k in &keys {
                let old = before.route(k);
                let new = after.route(k);
                if old < i {
                    prop_assert_eq!(new, old, "key {} left of split moved", k);
                } else if old > i {
                    prop_assert_eq!(new, old + 1, "key {} right of split misrouted", k);
                } else {
                    prop_assert!(new == i || new == i + 1, "key {} escaped split shard", k);
                    prop_assert_eq!(new == i + 1, k >= split_key);
                }
            }
        }
    }

    /// Split/merge invariant 3: the split/merge pass on a live index
    /// preserves contents exactly and every stored key still routes
    /// to the shard that physically holds it.
    #[test]
    fn maintenance_preserves_content_and_routing(
        keys in prop::collection::vec(0i64..10_000, 2..400),
        hot_lo in 0i64..9_000,
    ) {
        let db = sharded_db(small_sharded(1), vec![2500, 5000, 7500]);
        let sharded = db.engine();
        for &k in &keys {
            sharded.insert(k, k);
        }
        sharded.reset_access_stats();
        // Hammer a narrow band to give the pass a real signal.
        for _ in 0..40 {
            for d in 0..50 {
                let _ = sharded.get(hot_lo + d);
            }
        }
        let before = sharded.collect_all();
        let _ = sharded.maintain();
        sharded.check_invariants();
        prop_assert_eq!(sharded.collect_all(), before);
        prop_assert_eq!(sharded.len(), keys.len());
    }

    /// Bulk construction equals element-wise insertion.
    #[test]
    fn load_bulk_equals_inserts(mut keys in prop::collection::vec(0i64..5000, 1..500)) {
        keys.sort_unstable();
        let batch: Vec<(i64, i64)> = keys.iter().map(|&k| (k, -k)).collect();
        let bulk_db = Db::builder()
            .shard_config(small_sharded(4))
            .build_bulk(&batch)
            .expect("valid test config");
        let bulk = bulk_db.engine();
        let singles_db = sharded_db(small_sharded(1), bulk.splitters().keys().to_vec());
        let singles = singles_db.engine();
        for &(k, v) in &batch {
            singles.insert(k, v);
        }
        bulk.check_invariants();
        prop_assert_eq!(
            bulk.collect_all().iter().map(|p| p.0).collect::<Vec<_>>(),
            singles.collect_all().iter().map(|p| p.0).collect::<Vec<_>>()
        );
    }
}

/// The calibrator rule reaches a fixed point. Shard `i` of
/// `lens.len()` holds `lens[i]` random keys of its width; `dups` adds
/// duplicate runs; shard `i` then takes `reads[i]` reads of stored
/// keys, half on one of them. Under either threshold preset for the
/// shards' arrays and with or without a length `backstop` (at 64 or
/// more): after `maintain()` every shard is inside its leaf bounds
/// (access mass between ρ₁ = 0.08 and τ₁ = 1 times the capacity
/// `W / num_shards / τ_h`, and no longer than the backstop), or too
/// cold with no window of two or more shards that one step may drain,
/// or unsplittable (shorter than `MIN_SPLIT_SEGMENTS` segments, or
/// one duplicate run). The next plan is empty, and the content is
/// the oracle's.
fn check_fixed_point(
    lens: &[u16],
    reads: &[u16],
    dups: &[(i64, u16)],
    targets: usize,
    backstop: usize,
    scan_oriented: bool,
    seed: u64,
) {
    let width = 1000i64;
    let n = lens.len();
    let thresholds = match scan_oriented {
        true => Thresholds::scan_oriented(),
        false => Thresholds::update_oriented(),
    };
    let cfg = ShardConfig {
        num_shards: targets,
        rma: small_rma().with_thresholds(thresholds),
        max_shard_len: (backstop >= 64).then_some(backstop),
    };
    let db = sharded_db(cfg, (1..n as i64).map(|i| i * width).collect());
    let sharded = db.engine();
    let mut rng = rma_repro::workloads::SplitMix64::new(seed);
    let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
    for (i, &len) in lens.iter().enumerate() {
        for _ in 0..len {
            let k = i as i64 * width + rng.next_below(width as u64) as i64;
            sharded.insert(k, k);
            oracle_insert(&mut oracle, k);
        }
    }
    for &(k, reps) in dups {
        for _ in 0..reps {
            sharded.insert(k, k);
            oracle_insert(&mut oracle, k);
        }
    }
    // The masses are the reads of stored keys alone; all zero,
    // the lengths rule.
    sharded.reset_access_stats();
    for (i, &r) in reads.iter().take(n).enumerate() {
        let range = i as i64 * width..(i as i64 + 1) * width;
        let stored: Vec<i64> = oracle.range(range).map(|(&k, _)| k).collect();
        if stored.is_empty() {
            continue;
        }
        let pick = |rng: &mut rma_repro::workloads::SplitMix64| {
            stored[rng.next_below(stored.len() as u64) as usize]
        };
        // Half the reads on one key, half spread over the shard.
        let hot = pick(&mut rng);
        for j in 0..r {
            let k = if j % 2 == 0 { hot } else { pick(&mut rng) };
            let _ = sharded.get(k);
        }
    }
    sharded.maintain();
    sharded.check_invariants();
    let got: Vec<i64> = sharded.collect_all().iter().map(|p| p.0).collect();
    let want: Vec<i64> = oracle
        .iter()
        .flat_map(|(&k, &c)| std::iter::repeat_n(k, c))
        .collect();
    assert_eq!(got, want);

    let stats = sharded.stats_snapshot().shards;
    let lens: Vec<usize> = stats.iter().map(|s| s.len).collect();
    let masses: Vec<u64> = stats.iter().map(|s| s.access_mass).collect();
    let weights: Vec<f64> = match masses.iter().all(|&m| m == 0) {
        true => lens.iter().map(|&l| l as f64).collect(),
        false => masses.iter().map(|&m| m as f64).collect(),
    };
    let total: f64 = weights.iter().sum();
    let plan = sharded.plan_maintenance();
    assert!(
        plan.is_empty(),
        "no fixed point: {:?} {:?} {:?}",
        lens,
        weights,
        plan
    );
    if total == 0.0 || lens.iter().all(|&l| l == 0) {
        return;
    }
    let cap = total / targets as f64 / 0.75;
    let len: usize = lens.iter().sum();
    let bound = cfg.max_shard_len.unwrap_or((1 << 17).max(len / targets));
    let min_split = MIN_SPLIT_SEGMENTS * cfg.rma.segment_size;
    let content = sharded.collect_all();
    for (i, s) in stats.iter().enumerate() {
        let too_long = cfg.max_shard_len.is_some_and(|m| s.len > m);
        let over = weights[i] > cap || too_long;
        let under = weights[i] < 0.08 * cap;
        let inside =
            |k: &i64| s.lower_bound.is_none_or(|l| l <= *k) && s.upper_bound.is_none_or(|h| *k < h);
        let keys: Vec<i64> = content.iter().map(|p| p.0).filter(inside).collect();
        let unsplittable = s.len < min_split || keys.first() == keys.last();
        let no_window = windows_above(i, lens.len())
            .find(|(_, w)| w.len() >= 2)
            .is_none_or(|(_, w)| lens[w].iter().sum::<usize>() > bound);
        assert!(
            !(over || under) || unsplittable || (under && no_window),
            "shard {} out of bounds: lens {:?} weights {:?} cap {}",
            i,
            lens,
            weights,
            cap
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// [`check_fixed_point`] on random shards, reads and duplicate
    /// runs.
    #[test]
    fn maintain_reaches_a_fixed_point_of_the_calibrator_rule(
        lens in prop::collection::vec(0u16..700, 2..12),
        reads in prop::collection::vec(0u16..1500, 12..13),
        dups in prop::collection::vec((0i64..12_000, 1u16..400), 0..4),
        targets in 1usize..7,
        backstop in 0usize..3000,
        scan_oriented in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check_fixed_point(&lens, &reads, &dups, targets, backstop, scan_oriented, seed);
    }
}

/// Case 7 848 of the fixed-point proptest (seed
/// `0xa0761d6445ed642f`): a heavy duplicate run beside a sliver of
/// mass. A cut counted up from `⌈mass / target⌉` pieces leaves the
/// sliver under ρ₁ in a window one step may drain, where one piece
/// holds the whole window under the capacity.
#[test]
fn a_lump_beside_a_sliver_reaches_the_fixed_point() {
    check_fixed_point(
        &[510, 0, 200, 156, 330, 119, 233, 246],
        &[
            50, 1464, 1108, 1255, 153, 1349, 1488, 472, 723, 1104, 569, 1463,
        ],
        &[(6127, 324), (1279, 350), (6131, 397)],
        6,
        2168,
        true,
        0x5eb5_b2a8_a711_d52f,
    );
}
