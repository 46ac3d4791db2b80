//! Bytes per element of a bulk-loaded store, by the program's own
//! counter and by the kernel's. One `#[test]`, so this file's process
//! runs nothing else and its `RssShmem` is the store's pages alone
//! (run it optimised and by itself: `cargo test --release --test
//! footprint`).

use rma_repro::rewiring::rewiring_available;
use rma_repro::shard::{ShardConfig, ShardedRma};
use rma_repro::workloads::SplitMix64;

/// Resident shared-memory bytes of this process — memfd pages mapped
/// into it — as the kernel counts them.
fn rss_shmem() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("RssShmem:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib << 10)
}

fn bytes_per_elem(s: &ShardedRma) -> f64 {
    s.memory_footprint() as f64 / s.len() as f64
}

/// Slots of every shard's array.
fn capacities(s: &ShardedRma) -> Vec<usize> {
    let shards = s.stats_snapshot().shards;
    shards.iter().map(|shard| shard.capacity).collect()
}

/// Loads `n` pairs into 8 shards, checks the store costs at most
/// `bound` bytes per element and that the kernel agrees with the
/// counter, then again after `inserts` uniform inserts.
fn load_and_measure(n: usize, bound: f64, inserts: usize) {
    const SHARDS: usize = 8;
    let cfg = ShardConfig {
        num_shards: SHARDS,
        ..Default::default()
    };
    let page_bytes = match cfg.rma.rewiring {
        rma_repro::rma::RewiringMode::Enabled { page_bytes } => page_bytes,
        rma_repro::rma::RewiringMode::Disabled => panic!("default config rewires"),
    };
    let memfd = rewiring_available();
    let rss_before = rss_shmem();

    let batch: Vec<(i64, i64)> = (0..n as i64).map(|i| (i * 4, i)).collect();
    let s = ShardedRma::load_bulk(cfg, &batch);
    drop(batch);
    assert_eq!(s.len(), n);
    assert_eq!(s.num_shards(), SHARDS);
    println!("2^{} after load: {} B/elem", n.ilog2(), bytes_per_elem(&s));
    assert!(bytes_per_elem(&s) <= bound);

    // Two columns of whole pages a shard, and not a page more — the
    // kernel's count against ours.
    let loaded = capacities(&s);
    let wired: usize = loaded
        .iter()
        .map(|slots| 2 * (slots * 8).next_multiple_of(page_bytes))
        .sum();
    assert!(s.memory_footprint() >= wired);
    let check_rss = |when: &str| {
        let (Some(before), Some(now), true) = (rss_before, rss_shmem(), memfd) else {
            return; // heap fallback or no procfs: nothing to compare
        };
        let delta = now.saturating_sub(before);
        println!("{when}: RssShmem grew {delta} B for {wired} B wired");
        assert!(
            delta.abs_diff(wired) * 10 <= wired,
            "{when}: kernel holds {delta} B of shared memory for {wired} B wired"
        );
    };
    check_rss("after load");

    // Uniform inserts that stay under τ_h, so no shard grows: any
    // page-sized rebalance they cause wires its buffer pages and
    // gives them back.
    let mut rng = SplitMix64::new(17);
    for i in 0..inserts as i64 {
        s.insert((rng.next_u64() % (4 * n as u64)) as i64, -i);
    }
    assert_eq!(s.len(), n + inserts);
    assert_eq!(capacities(&s), loaded, "no shard grew");
    println!("after inserts: {} B/elem", bytes_per_elem(&s));
    assert!(bytes_per_elem(&s) <= bound);
    check_rss("after inserts");
    s.check_invariants();
}

#[test]
fn bulk_loaded_store_costs_its_array_and_little_more() {
    // 2^17 pairs a shard sit on the one-page floor: 2^18 slots, 2 MiB
    // a column — 32 B of array at density 0.5, an eighth of that in
    // spare pages at most, detector, index and cardinalities on top.
    load_and_measure(1 << 20, 36.0, 1 << 18);
    // 2^19 pairs a shard are sized by τ_h: 3 pages a column where the
    // next power of two is 4 — 24 B of array at density 0.667.
    load_and_measure(1 << 22, 27.0, 1 << 18);
}
