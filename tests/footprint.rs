//! Bytes per element of a bulk-loaded store, by the program's own
//! counter and by the kernel's. One `#[test]`, so this file's process
//! runs nothing else and its `RssShmem` is the store's pages alone
//! (run it optimised and by itself: `cargo test --release --test
//! footprint`).

use rma_repro::rewiring::rewiring_available;
use rma_repro::shard::{ShardConfig, ShardedRma};
use rma_repro::workloads::SplitMix64;

/// Bytes per element the loaded store may cost: 32 B of array (16-byte
/// pairs at density 0.5), an eighth of that in spare pages at most,
/// detector, index and cardinalities on top.
const BOUND: f64 = 36.0;

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

#[test]
fn bulk_loaded_store_costs_its_array_and_little_more() {
    const SHARDS: usize = 8;
    const N: usize = 1 << 20;
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

    let batch: Vec<(i64, i64)> = (0..N as i64).map(|i| (i * 4, i)).collect();
    let s = ShardedRma::load_bulk(cfg, &batch);
    assert_eq!(s.len(), N);
    assert_eq!(s.num_shards(), SHARDS);
    println!("after load: {} B/elem", bytes_per_elem(&s));
    assert!(bytes_per_elem(&s) <= BOUND);

    // 2^17 pairs a shard land in 2^18 slots: 2 MiB a column, and not
    // a page more — the kernel's count against ours.
    let slots_per_shard = (N / SHARDS * 2).next_power_of_two();
    let wired = SHARDS * 2 * (slots_per_shard * 8).next_multiple_of(page_bytes);
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

    // Uniform inserts, to density 0.625: any page-sized rebalance
    // they cause wires its buffer pages and gives them back.
    let mut rng = SplitMix64::new(17);
    for i in 0..(N as i64 / 4) {
        s.insert((rng.next_u64() % (4 * N as u64)) as i64, -i);
    }
    assert_eq!(s.len(), N + N / 4);
    println!("after inserts: {} B/elem", bytes_per_elem(&s));
    assert!(bytes_per_elem(&s) <= BOUND);
    check_rss("after inserts");
    s.check_invariants();
}
