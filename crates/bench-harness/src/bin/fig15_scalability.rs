//! Figure 15 (beyond the paper) — thread scalability of the sharded
//! concurrent front-end.
//!
//! Pre-loads a sharded [`rma_db::Db`] with N elements, then drives an
//! aggregate of N mixed operations (alternating insert / point
//! lookup) from 1, 2, 4 and 8 client threads, for the uniform and
//! Zipf(1.0) key patterns. Reports aggregate ops/s per thread count
//! and writes a machine-readable `BENCH_shard_scaling.json` next to
//! the working directory so later PRs can track the scaling
//! trajectory.
//!
//! Shard count is fixed (4× the largest thread count) across all
//! runs, so the sweep varies exactly one thing: client parallelism.

use bench_harness::{
    fixed, fmt_throughput, hw_threads, json, median_of, rows, throughput, time, zipf_beta, Cli,
};
use rma_core::RmaConfig;
use rma_db::Db;
use workloads::{KeyStream, Pattern};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SHARDS: usize = 32;

struct Row {
    pattern: String,
    threads: usize,
    ops_per_sec: f64,
}

fn run_one(pattern: Pattern, threads: usize, cli: &Cli) -> f64 {
    let n = cli.scale;
    median_of(cli.reps, || {
        let mut base = KeyStream::new(pattern, cli.seed).take_pairs(n);
        base.sort_unstable();
        let index = Db::builder()
            .shards(SHARDS)
            .rma(RmaConfig::with_segment_size(cli.seg))
            .build_bulk(&base)
            .expect("static driver config is valid");
        let per_thread = n / threads;
        let (_, secs) = time(|| {
            std::thread::scope(|sc| {
                for tid in 0..threads {
                    let index = &index;
                    sc.spawn(move || {
                        // Per-thread streams: disjoint seeds so threads
                        // do not serialise on identical hot keys.
                        let mut ops =
                            KeyStream::new(pattern, cli.seed ^ (0xA5A5_0000 + tid as u64));
                        let mut checksum = 0i64;
                        for i in 0..per_thread {
                            let (k, v) = ops.next_pair();
                            if i % 2 == 0 {
                                index.insert(k, v);
                            } else {
                                checksum = checksum.wrapping_add(index.get(k).unwrap_or_default());
                            }
                        }
                        std::hint::black_box(checksum);
                    });
                }
            });
        });
        throughput(per_thread * threads, secs)
    })
}

fn write_json(table: &[Row], speedups: &[f64], cli: &Cli, hw: usize) {
    let results = table.iter().map(|r| {
        json! { "pattern": r.pattern.as_str(), "threads": r.threads, "ops_per_sec": fixed(r.ops_per_sec, 1) }
    });
    json! {
        "bench": "shard_scaling", "scale": cli.scale, "shards": SHARDS, "segment_size": cli.seg,
        "seed": cli.seed, "reps": cli.reps, "hw_threads": hw,
        "results": rows(results),
        "speedup_uniform_4t": fixed(speedups[0], 3), "speedup_zipf_4t": fixed(speedups[1], 3),
    }
    .write("BENCH_shard_scaling.json");
}

fn main() {
    let cli = Cli::parse();
    let hw = hw_threads();
    println!(
        "# Fig. 15 — sharded front-end scalability: N={} preloaded, N mixed ops (insert/lookup), {} shards, B={}, {} hw threads",
        cli.scale, SHARDS, cli.seg, hw
    );
    let patterns = [
        Pattern::Uniform,
        Pattern::Zipf {
            alpha: 1.0,
            beta: zipf_beta(cli.scale),
        },
    ];

    print!("{:<12}", "pattern");
    for t in THREAD_COUNTS {
        print!(" {:>10}", format!("{t} thr"));
    }
    println!(" {:>9}", "x @4thr");

    let mut rows = Vec::new();
    // The 4-thread speedup over 1 thread, per pattern.
    let mut speedups = Vec::new();
    for pattern in patterns {
        print!("{:<12}", pattern.label());
        let (mut one, mut four) = (0.0, 0.0);
        for t in THREAD_COUNTS {
            let rate = run_one(pattern, t, &cli);
            match t {
                1 => one = rate,
                4 => four = rate,
                _ => {}
            }
            print!(" {:>10}", fmt_throughput(rate as usize, 1.0).trim());
            rows.push(Row {
                pattern: pattern.label(),
                threads: t,
                ops_per_sec: rate,
            });
        }
        speedups.push(four / f64::max(one, 1e-9));
        println!(" {:>8.2}x", speedups.last().expect("just pushed"));
    }
    write_json(&rows, &speedups, &cli, hw);
}
