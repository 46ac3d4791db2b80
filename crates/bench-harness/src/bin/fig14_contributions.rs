//! Figure 14 — cumulative contribution of the RMA's design features.
//!
//! The feature ladder, measured on the four insertion patterns plus a
//! scan workload, each row reporting the cumulative speedup over the
//! TPMA baseline:
//!
//! 1. `Baseline`      — TPMA: interleaved gaps, log²-sized segments;
//! 2. `+Clustering`   — packed segments + cards array;
//! 3. `+Fixed segs`   — block-sized segments (B);
//! 4. `+Static index` — the RMA with rewiring and adaptive off;
//! 5. `+Rewiring`     — memfd columns whose resizes to a page or more
//!    are rewired; window rebalances copy on this rung as on the one
//!    before (rewiring windows did not pay: see the workspace README's
//!    "Rewiring"), so it differs from `+Static index` in its resizes
//!    and in where a column's pages live;
//! 6. `+Adaptive`     — adaptive rebalancing (full RMA).

use bench_harness::stores::{rma_factory, tpma_factory, StoreFactory};
use bench_harness::{median_of, random_start_key, throughput, time, zipf_beta, Cli};
use pma_baseline::TpmaConfig;
use workloads::{KeyStream, Pattern, SplitMix64};

fn main() {
    let cli = Cli::parse();
    let n = cli.scale;
    let beta = zipf_beta(n);
    let b = cli.seg;
    let patterns = [
        Pattern::Uniform,
        Pattern::Zipf { alpha: 1.0, beta },
        Pattern::Zipf { alpha: 1.5, beta },
        Pattern::Sequential,
    ];
    let ladder: Vec<(&str, StoreFactory)> = vec![
        ("Baseline", tpma_factory(TpmaConfig::traditional())),
        ("+Clustering", tpma_factory(TpmaConfig::clustered())),
        ("+Fixed segs", tpma_factory(TpmaConfig::fixed_segments(b))),
        ("+Static index", rma_factory(b, false, false)),
        ("+Rewiring", rma_factory(b, true, false)),
        ("+Adaptive", rma_factory(b, true, true)),
    ];

    println!("# Fig. 14 — N={n}, B={b}, reps={}", cli.reps);
    print!("{:<14}", "feature");
    for p in patterns {
        print!(" {:>11}", p.label());
    }
    println!(" {:>11}", "scans");

    let mut base: Option<Vec<f64>> = None;
    for (name, factory) in &ladder {
        let mut row: Vec<f64> = Vec::new();
        for pattern in patterns {
            let tput = median_of(cli.reps, || {
                let mut s = factory();
                let mut stream = KeyStream::new(pattern, cli.seed);
                let (_, secs) = time(|| {
                    for _ in 0..n {
                        let (k, v) = stream.next_pair();
                        s.insert(k, v);
                    }
                });
                throughput(n, secs)
            });
            row.push(tput);
        }
        // Scan column: uniform content, random 1% scans.
        let mut s = factory();
        let mut stream = KeyStream::new(Pattern::Uniform, cli.seed);
        for _ in 0..n {
            let (k, v) = stream.next_pair();
            s.insert(k, v);
        }
        let count = (n / 100).max(1);
        let scan = median_of(cli.reps, || {
            let mut rng = SplitMix64::new(cli.seed ^ 0x5CA3);
            let (visited, secs) = time(|| {
                let mut visited = 0usize;
                let mut checksum = 0i64;
                for _ in 0..32 {
                    let start = random_start_key(Pattern::Uniform, &mut rng);
                    let (n, sum) = s.sum_range(start, count);
                    visited += n;
                    checksum = checksum.wrapping_add(sum);
                }
                std::hint::black_box(checksum);
                visited
            });
            throughput(visited.max(1), secs)
        });
        row.push(scan);
        let base_row = base.get_or_insert_with(|| row.clone());
        print!("{name:<14}");
        for (v, b0) in row.iter().zip(base_row.iter()) {
            print!(" {:>10.2}x", v / b0);
        }
        println!();
    }
    println!("\n(values are cumulative speedups w.r.t. the TPMA baseline, as on the Fig. 14 bars)");
}
