//! Bytes per element of a bulk-loaded store, by the program's own
//! counter and by the kernel's. One `#[test]`, so this file's process
//! runs nothing else and its `RssShmem` is the store's pages alone
//! (run it optimised and by itself: `cargo test --release --test
//! footprint`).

use rma_repro::rma::BackendKind;
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

/// True when every shard's columns are memfd pages; otherwise asserts
/// that the heap shards never counted a rewired commit.
fn all_on_memfd(s: &ShardedRma) -> bool {
    let shards = s.stats_snapshot().shards;
    for shard in shards.iter().filter(|f| f.backend == BackendKind::Heap) {
        assert_eq!(shard.rewired_commits, 0, "{shard:?}");
    }
    shards.iter().all(|f| f.backend == BackendKind::Mmap)
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
    let rss_before = rss_shmem();

    let batch: Vec<(i64, i64)> = (0..n as i64).map(|i| (i * 4, i)).collect();
    let s = ShardedRma::load_bulk(cfg, &batch);
    drop(batch);
    assert_eq!(s.len(), n);
    assert_eq!(s.num_shards(), SHARDS);
    println!("2^{} after load: {} B/elem", n.ilog2(), bytes_per_elem(&s));
    assert!(bytes_per_elem(&s) <= bound);

    // Two columns of whole pages a shard from a page of slots up, and
    // not a page more — the kernel's count against ours. An array
    // below a page is an exactly sized `Vec` and wires none. Only
    // memfd columns are wired in pages; a heap column (no memfd here)
    // is a `Vec` that never rewires.
    let memfd = all_on_memfd(&s);
    let loaded = capacities(&s);
    let wired: usize = (loaded.iter().map(|slots| slots * 8))
        .filter(|&bytes| bytes >= page_bytes)
        .map(|bytes| 2 * bytes.next_multiple_of(page_bytes))
        .sum();
    assert!(!memfd || s.memory_footprint() >= wired);
    let check_rss = |when: &str| {
        let (Some(before), Some(now), true) = (rss_before, rss_shmem(), memfd) else {
            return; // heap columns or no procfs: nothing to compare
        };
        let delta = now.saturating_sub(before);
        println!("{when}: RssShmem grew {delta} B for {wired} B wired");
        assert!(
            delta.abs_diff(wired) < (wired / 10).max(page_bytes),
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
    assert_eq!(all_on_memfd(&s), memfd);
    check_rss("after inserts");
    s.check_invariants();
}

#[test]
fn bulk_loaded_store_costs_its_array_and_little_more() {
    // 2^14 pairs a shard fill 2^15 slots, 256 KiB a column: below one
    // page, so each column is a heap array of exactly that — 32 B at
    // density 0.5 plus index, cardinalities and detector, 33.26 B in
    // all after the load, and no shared memory at all. The bound fails
    // a store that wires a 2 MiB page a column for them (257.26 B)
    // more than six times over.
    load_and_measure(1 << 17, 40.0, 1 << 15);
    // 2^17 pairs a shard fill exactly one page: 2^18 slots, 2 MiB
    // a column — 32 B of array at density 0.5, no spare page, and
    // detector, index and cardinalities on top.
    // The counter reads 33.26 B after the load: the detector's 64-byte
    // line a segment is 1 B of it.
    load_and_measure(1 << 20, 33.5, 1 << 18);
    // 2^19 pairs a shard are sized by τ_h: 3 pages a column where the
    // next power of two is 4 — 24 B of array at density 0.667; 24.97 B
    // in all after the load.
    load_and_measure(1 << 22, 25.0, 1 << 18);
}
