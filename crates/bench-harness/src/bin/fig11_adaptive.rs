//! Figure 11 — adaptive rebalancing under skew.
//!
//! a) insert-only: N elements drawn uniform / Zipf(α) for α ∈
//!    {0.5 … 3.0}; structures: ART, RMA with even rebalancing, RMA
//!    with adaptive rebalancing, TPMA with the APMA rebalancer.
//! b) mixed: the structure is loaded to N, then γ = 1024 contiguous
//!    insertions alternate with γ deletions (independent seeds), and
//!    the update throughput over N further operations is reported.
//!    APMA does not support deletions (as in the paper) and is
//!    omitted from (b).
//!
//! Even and adaptive rebalancing run in `--reps` pairs that alternate
//! which runs first ([`paired`]); under each table a row gives the
//! median adaptive ÷ even ratio of the pairs, ± its IQR, and the pairs
//! adaptive won. ART and APMA report the median of `--reps` runs.

use bench_harness::stores::{art_factory, filled, rma_factory, tpma_factory, StoreFactory};
use bench_harness::{median, median_of, paired, throughput, time, zipf_beta, Cli, Paired};
use pma_baseline::TpmaConfig;
use workloads::{MixedWorkload, Op, Pattern};

fn alphas() -> Vec<Option<f64>> {
    vec![
        None,
        Some(0.5),
        Some(1.0),
        Some(1.5),
        Some(2.0),
        Some(2.5),
        Some(3.0),
    ]
}

fn pattern_for(alpha: Option<f64>, beta: u64) -> Pattern {
    match alpha {
        None => Pattern::Uniform,
        Some(a) => Pattern::Zipf { alpha: a, beta },
    }
}

/// One insert-only run: `n` keys of `pattern` into a fresh store.
/// Returns elements per second.
fn insert_only(factory: &StoreFactory, pattern: Pattern, n: usize, seed: u64) -> f64 {
    throughput(n, filled(factory, pattern, n, seed).1)
}

/// One mixed run: load `n` keys, then time `n` updates in γ = 1024
/// rounds of insertions and deletions. Returns updates per second.
fn mixed(factory: &StoreFactory, pattern: Pattern, n: usize, seed: u64) -> f64 {
    let (mut s, _) = filled(factory, pattern, n, seed);
    let mut mixed = MixedWorkload::new(pattern, 1024, seed ^ 0xA, seed ^ 0xB);
    let (_, secs) = time(|| {
        for _ in 0..n {
            match mixed.next_op() {
                Op::Insert(k, v) => s.insert(k, v),
                Op::DeleteSuccessor(k) => {
                    s.remove_successor(k);
                }
            }
        }
    });
    throughput(n, secs)
}

type Run = fn(&StoreFactory, Pattern, usize, u64) -> f64;

/// One table: a row per structure of `lineup` — ART, even, adaptive,
/// then any other — and a column per α, then the paired adaptive ÷
/// even row. `skip` picks the cells not run.
fn table(
    cli: &Cli,
    lineup: &[(&str, StoreFactory)],
    run: Run,
    skip: fn(&str, Option<f64>) -> bool,
) {
    let (n, beta) = (cli.scale, zipf_beta(cli.scale));
    print!("{:<16}", "structure");
    for a in alphas() {
        print!(" {:>11}", a.map_or("unif".into(), |a| format!("a={a}")));
    }
    println!();
    let (even, adaptive) = (&lineup[1].1, &lineup[2].1);
    let pairs: Vec<Paired> = alphas()
        .into_iter()
        .map(|alpha| {
            let pattern = pattern_for(alpha, beta);
            let at = |f| move || run(f, pattern, n, cli.seed);
            paired(cli.reps, at(even), at(adaptive))
        })
        .collect();
    for (i, (name, factory)) in lineup.iter().enumerate() {
        print!("{name:<16}");
        for (alpha, p) in alphas().into_iter().zip(&pairs) {
            let tput = match i {
                _ if skip(name, alpha) => {
                    print!(" {:>11}", "skip(dup)");
                    continue;
                }
                1 => median(p.a.clone()),
                2 => median(p.b.clone()),
                _ => median_of(cli.reps, || {
                    run(factory, pattern_for(alpha, beta), n, cli.seed)
                }),
            };
            print!(" {tput:>11.3e}");
        }
        println!();
    }
    print!("{:<16}", "adaptive/even");
    for p in &pairs {
        print!(" {:>11}", format!("{:.2}x±{:.2}", p.median, p.iqr));
    }
    print!("\n{:<16}", "  pairs won");
    for p in &pairs {
        print!(" {:>11}", format!("{}/{}", p.wins, p.pairs()));
    }
    println!();
}

fn main() {
    let cli = Cli::parse();
    let b = cli.seg;
    let lineup: Vec<(&str, StoreFactory)> = vec![
        ("ART", art_factory(b)),
        ("Even rebal.", rma_factory(b, true, false)),
        ("Adaptive rebal.", rma_factory(b, true, true)),
        ("APMA", tpma_factory(TpmaConfig::apma())),
    ];

    println!(
        "# Fig. 11 — N={}, B={b}, beta={}, reps={}",
        cli.scale,
        zipf_beta(cli.scale),
        cli.reps
    );

    println!("\n## a) insert only — throughput [elts/s]");
    table(&cli, &lineup, insert_only, |_, _| false);

    println!("\n## b) mixed (gamma=1024 ins/del rounds at fixed cardinality)");
    // APMA has no deletion support, as in the paper.
    table(&cli, &lineup[..3], mixed, |name, alpha| {
        // Known artifact: the min-key leaf index degrades to O(run/B)
        // walks on extreme duplicate runs (see EXPERIMENTS.md); cells
        // would take hours.
        name == "ART" && alpha.is_some_and(|a| a > 1.0)
    });
}
