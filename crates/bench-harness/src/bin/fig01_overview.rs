//! Figure 1 — the motivating overview.
//!
//! Inserts N key/value pairs per insertion pattern (uniform,
//! Zipf α=1, Zipf α=1.5, sequential) into every structure of Fig. 1,
//! then performs random contiguous scans of 1% of the content.
//! Prints insertion and scan throughput plus the speedup w.r.t. the
//! TPMA baseline (first row), i.e. the numbers on the Fig. 1 bars.
//!
//! Structure lineup: TPMA baseline, the PM14 design point (Fig. 1a
//! substitutes, see DESIGN.md), (a,b)-trees with B ∈ {64,128,256,512}
//! (Fig. 1b), RMA with B ∈ {128,256} and a static dense array
//! (Fig. 1c).

use bench_harness::stores::{
    abtree_factory, dense_from_pairs, filled, rma_factory, tpma_factory, StoreFactory,
};
use bench_harness::{median_of, random_start_key, throughput, time, zipf_beta, Cli};
use pma_baseline::TpmaConfig;
use workloads::{KeyStream, Pattern, SplitMix64};

fn main() {
    let cli = Cli::parse();
    let n = cli.scale;
    let beta = zipf_beta(n);
    let patterns = [
        Pattern::Uniform,
        Pattern::Zipf { alpha: 1.0, beta },
        Pattern::Zipf { alpha: 1.5, beta },
        Pattern::Sequential,
    ];
    let lineup: Vec<(&str, StoreFactory)> = vec![
        ("Baseline (TPMA)", tpma_factory(TpmaConfig::traditional())),
        ("PM14 (no index)", tpma_factory(TpmaConfig::pm14())),
        ("(a,b)-tree B=64", abtree_factory(64)),
        ("(a,b)-tree B=128", abtree_factory(128)),
        ("(a,b)-tree B=256", abtree_factory(256)),
        ("(a,b)-tree B=512", abtree_factory(512)),
        ("RMA B=128", rma_factory(128, true, true)),
        ("RMA B=256", rma_factory(256, true, true)),
    ];

    println!(
        "# Fig. 1 overview — N={n}, reps={}, rewiring available: {}",
        cli.reps,
        rewiring::rewiring_available()
    );
    println!(
        "{:<18} {:>14} {:>14} {:>9} {:>9}",
        "structure", "inserts/s", "scan elems/s", "ins. spd", "scan spd"
    );
    for pattern in patterns {
        println!("\n## pattern: {}", pattern.label());
        let mut base_ins = None;
        let mut base_scan = None;
        for (name, factory) in &lineup {
            let ins = median_of(cli.reps, || {
                throughput(n, filled(factory, pattern, n, cli.seed).1)
            });
            // Build once more for the scan phase.
            let (s, _) = filled(factory, pattern, n, cli.seed);
            let count = (n / 100).max(1);
            let scans = 32usize;
            let scan = median_of(cli.reps, || {
                let mut rng = SplitMix64::new(cli.seed ^ 0x5CA11u64);
                let (visited, secs) = time(|| {
                    let mut visited = 0usize;
                    let mut checksum = 0i64;
                    for _ in 0..scans {
                        let start = random_start_key(pattern, &mut rng);
                        let (n, sum) = s.sum_range(start, count);
                        visited += n;
                        checksum = checksum.wrapping_add(sum);
                    }
                    std::hint::black_box(checksum);
                    visited
                });
                throughput(visited.max(1), secs)
            });
            let ins_spd = *base_ins.get_or_insert(ins);
            let scan_spd = *base_scan.get_or_insert(scan);
            println!(
                "{:<18} {:>14.3e} {:>14.3e} {:>8.2}x {:>8.2}x",
                name,
                ins,
                scan,
                ins / ins_spd,
                scan / scan_spd
            );
        }
        // Dense-array scan roofline for this pattern (Fig. 1c "Static
        // Array" bar).
        let mut stream = KeyStream::new(pattern, cli.seed);
        let pairs = stream.take_pairs(n);
        let dense = dense_from_pairs(&pairs);
        let count = (n / 100).max(1);
        let scan = median_of(cli.reps, || {
            let mut rng = SplitMix64::new(cli.seed ^ 0x5CA11u64);
            let (visited, secs) = time(|| {
                let mut visited = 0usize;
                let mut checksum = 0i64;
                for _ in 0..32 {
                    let start = random_start_key(pattern, &mut rng);
                    let (n, sum) = dense.sum_range(start, count);
                    visited += n;
                    checksum = checksum.wrapping_add(sum);
                }
                std::hint::black_box(checksum);
                visited
            });
            throughput(visited.max(1), secs)
        });
        println!(
            "{:<18} {:>14} {:>14.3e} {:>9} {:>8.2}x",
            "Static array",
            "-",
            scan,
            "-",
            scan / base_scan.unwrap_or(scan)
        );
    }
}
