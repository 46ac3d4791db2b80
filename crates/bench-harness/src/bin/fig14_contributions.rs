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
//!
//! Each cell is the median of `--reps` paired runs of the rung and the
//! baseline that alternate which runs first ([`paired`]); the IQR of
//! the per-pair ratios and the pairs the rung won follow it.

use bench_harness::stores::{filled, rma_factory, tpma_factory, Store, StoreFactory};
use bench_harness::{paired, random_start_key, throughput, time, zipf_beta, Cli, Paired};
use pma_baseline::TpmaConfig;
use workloads::{Pattern, SplitMix64};

/// 32 random scans of `n / 100` elements each. Returns elements per
/// second.
fn scan_rate(s: &dyn Store, n: usize, seed: u64) -> f64 {
    let count = (n / 100).max(1);
    let mut rng = SplitMix64::new(seed ^ 0x5CA3);
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
}

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
        print!(" {:>20}", p.label());
    }
    println!(" {:>20}", "scans");

    let (base, rungs) = ladder.split_first().expect("a baseline");
    let (base_scans, _) = filled(&base.1, Pattern::Uniform, n, cli.seed);
    println!(
        "{:<14}{}",
        base.0,
        format!(" {:>20}", "1.00x").repeat(patterns.len() + 1)
    );
    for (name, factory) in rungs {
        let mut cells: Vec<Paired> = patterns
            .iter()
            .map(|&pattern| {
                paired(
                    cli.reps,
                    || throughput(n, filled(&base.1, pattern, n, cli.seed).1),
                    || throughput(n, filled(factory, pattern, n, cli.seed).1),
                )
            })
            .collect();
        let (scans, _) = filled(factory, Pattern::Uniform, n, cli.seed);
        cells.push(paired(
            cli.reps,
            || scan_rate(base_scans.as_ref(), n, cli.seed),
            || scan_rate(scans.as_ref(), n, cli.seed),
        ));
        print!("{name:<14}");
        for p in &cells {
            let cell = format!("{:.2}x ±{:.2} {}/{}", p.median, p.iqr, p.wins, p.pairs());
            print!(" {cell:>20}");
        }
        println!();
    }
    println!(
        "\n(cumulative speedups w.r.t. the TPMA baseline, as on the Fig. 14 bars: \
         median of paired ratios, ± their IQR, pairs won)"
    );
}
