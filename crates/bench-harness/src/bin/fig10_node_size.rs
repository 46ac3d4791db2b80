//! Figure 10 — node/segment size sweep: ART vs RMA vs dense array.
//!
//! a) insertion throughput while the structure grows (checkpoints at
//!    N/64, N/16, N/4, N);
//! b) point-lookup throughput for random *existing* keys;
//! c) scan throughput per element for intervals from 0.1% to 100%.
//!
//! Sweeps B ∈ {32, 128, 512, 2048} for both ART and RMA, exactly as
//! the paper's legend.

use bench_harness::stores::{art_factory, dense_from_pairs, filled, rma_factory, StoreFactory};
use bench_harness::{median_of, throughput, time, Cli};
use workloads::{KeyStream, Pattern, SplitMix64};

fn main() {
    let cli = Cli::parse();
    let n = cli.scale;
    let sizes = [32usize, 128, 512, 2048];
    let lineup: Vec<(String, StoreFactory)> = sizes
        .iter()
        .flat_map(|&b| {
            [
                (format!("ART B={b}"), art_factory(b)),
                (format!("RMA B={b}"), rma_factory(b, true, true)),
            ]
        })
        .collect();
    let checkpoints: Vec<usize> = vec![n / 64, n / 16, n / 4, n];

    println!("# Fig. 10 — N={n}, uniform inserts, reps={}", cli.reps);

    // ---- a) insertion throughput at increasing sizes --------------
    println!("\n## a) insertion throughput [elts/s] at size checkpoints");
    print!("{:<14}", "structure");
    for c in &checkpoints {
        print!(" {:>12}", format!("@{c}"));
    }
    println!();
    for (name, factory) in &lineup {
        let mut s = factory();
        let mut stream = KeyStream::new(Pattern::Uniform, cli.seed);
        print!("{name:<14}");
        let mut done = 0usize;
        for &c in &checkpoints {
            let batch = c - done;
            let (_, secs) = time(|| {
                for _ in 0..batch {
                    let (k, v) = stream.next_pair();
                    s.insert(k, v);
                }
            });
            done = c;
            print!(" {:>12.3e}", throughput(batch, secs));
        }
        println!();
    }

    // ---- b) point lookups ------------------------------------------
    println!("\n## b) lookup throughput [elts/s], random existing keys");
    let lookups = (n / 4).max(1);
    for (name, factory) in &lineup {
        let mut s = factory();
        let mut stream = KeyStream::new(Pattern::Uniform, cli.seed);
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            let (k, v) = stream.next_pair();
            s.insert(k, v);
            keys.push(k);
        }
        let tput = median_of(cli.reps, || {
            let mut rng = SplitMix64::new(cli.seed ^ 0x100C);
            let (hits, secs) = time(|| {
                let mut hits = 0usize;
                for _ in 0..lookups {
                    let k = keys[rng.next_below(keys.len() as u64) as usize];
                    hits += usize::from(s.get(k).is_some());
                }
                hits
            });
            assert_eq!(hits, lookups, "{name}: lookups must all hit");
            throughput(lookups, secs)
        });
        println!("{name:<14} {tput:>12.3e}");
    }

    // ---- c) scans at growing intervals ------------------------------
    println!("\n## c) scan throughput [elts/s] per interval fraction");
    let fractions = [0.001, 0.01, 0.05, 0.25, 1.0];
    print!("{:<14}", "structure");
    for f in fractions {
        print!(" {:>12}", format!("{}%", f * 100.0));
    }
    println!();
    let mut dense_pairs = Vec::new();
    for (name, factory) in &lineup {
        let (s, _) = filled(factory, Pattern::Uniform, n, cli.seed);
        if dense_pairs.is_empty() {
            let mut st = KeyStream::new(Pattern::Uniform, cli.seed);
            dense_pairs = st.take_pairs(n);
        }
        print!("{name:<14}");
        for f in fractions {
            let count = ((n as f64 * f) as usize).max(1);
            let scans = (8.0 / f).clamp(1.0, 64.0) as usize;
            let tput = median_of(cli.reps, || {
                let mut rng = SplitMix64::new(cli.seed ^ 0x5CA2);
                let (visited, secs) = time(|| {
                    let mut visited = 0usize;
                    let mut checksum = 0i64;
                    for _ in 0..scans {
                        let start = (rng.next_u64() >> 2) as i64;
                        let (n, sum) = s.sum_range(start, count);
                        visited += n;
                        checksum = checksum.wrapping_add(sum);
                    }
                    std::hint::black_box(checksum);
                    visited
                });
                throughput(visited.max(1), secs)
            });
            print!(" {tput:>12.3e}");
        }
        println!();
    }
    // Dense roofline.
    let dense = dense_from_pairs(&dense_pairs);
    print!("{:<14}", "Dense array");
    for f in fractions {
        let count = ((n as f64 * f) as usize).max(1);
        let scans = (8.0 / f).clamp(1.0, 64.0) as usize;
        let tput = median_of(cli.reps, || {
            let mut rng = SplitMix64::new(cli.seed ^ 0x5CA2);
            let (visited, secs) = time(|| {
                let mut visited = 0usize;
                let mut checksum = 0i64;
                for _ in 0..scans {
                    let start = (rng.next_u64() >> 2) as i64;
                    let (n, sum) = dense.sum_range(start, count);
                    visited += n;
                    checksum = checksum.wrapping_add(sum);
                }
                std::hint::black_box(checksum);
                visited
            });
            throughput(visited.max(1), secs)
        });
        print!(" {tput:>12.3e}");
    }
    println!();
}
