//! Measurement utilities shared by the experiment drivers.
//!
//! One binary per figure of "Packed Memory Arrays – Rewired" lives in
//! `src/bin/`; each prints the rows/series of its figure in plain
//! text. This library provides the shared plumbing: wall-clock
//! timing, median-of-repetitions, throughput formatting, latency
//! percentiles, and a tiny CLI argument parser so every driver accepts
//! `--scale`, `--reps`, `--seed` and `--seg` without a dependency.

use std::time::Instant;

/// Times `f`, returning (result, seconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f` `reps` times and returns the median of the sampled
/// values, matching the paper's statistic ("the reported results
/// refer to the median").
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    assert!(reps >= 1);
    median((0..reps).map(|_| f()).collect())
}

/// The upper median of `xs`, which must not be empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    xs[xs.len() / 2]
}

/// Elements per second, as "3.25M/s"-style text.
pub fn fmt_throughput(elements: usize, seconds: f64) -> String {
    let eps = elements as f64 / seconds.max(1e-12);
    if eps >= 1e9 {
        format!("{:7.2}G/s", eps / 1e9)
    } else if eps >= 1e6 {
        format!("{:7.2}M/s", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:7.2}K/s", eps / 1e3)
    } else {
        format!("{eps:7.0}/s")
    }
}

/// Raw elements/second.
pub fn throughput(elements: usize, seconds: f64) -> f64 {
    elements as f64 / seconds.max(1e-12)
}

/// Bytes as a human-readable quantity.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut x = bytes as f64;
    let mut u = 0;
    while x >= 1024.0 && u < UNITS.len() - 1 {
        x /= 1024.0;
        u += 1;
    }
    format!("{:.2} {}", x, UNITS[u])
}

/// Streaming latency reservoir: per-op durations in nanoseconds go
/// into the shared [`rma_obs::Histogram`] and come back out as
/// percentiles (§V "costs of rebalances") — the same quantile
/// implementation `Db::metrics()` reports, so driver output and
/// production metrics agree. Quantiles carry the histogram's ≤ 1/16
/// relative bucket error; `max` stays exact. O(1) memory regardless
/// of sample count.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    hist: rma_obs::Histogram,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample in nanoseconds.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.hist.record(nanos);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.hist.count() as usize
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds.
    pub fn quantile(&mut self, q: f64) -> u64 {
        assert!(!self.is_empty());
        self.hist.snapshot().quantile(q)
    }

    /// The maximum sample in nanoseconds (exact).
    pub fn max(&self) -> u64 {
        self.hist.snapshot().max()
    }
}

/// Minimal CLI options shared by every driver.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Number of elements for the main phase (paper: 2^30; default
    /// here: 2^20 so a full figure regenerates in minutes — override
    /// with `--scale`).
    pub scale: usize,
    /// Repetitions per measurement (median reported).
    pub reps: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Segment/leaf capacity `B` where the driver does not sweep it.
    pub seg: usize,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: 1 << 20,
            reps: 3,
            seed: 42,
            seg: 128,
        }
    }
}

impl Cli {
    /// Parses `--scale N`, `--reps N`, `--seed N`, `--seg N` from the
    /// process arguments. Accepts suffixes `k`/`m`/`g` on `--scale`.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut grab = || {
                it.next()
                    .unwrap_or_else(|| panic!("missing value after {arg}"))
            };
            match arg.as_str() {
                "--scale" => cli.scale = parse_scale(&grab()),
                "--reps" => cli.reps = grab().parse().expect("bad --reps"),
                "--seed" => cli.seed = grab().parse().expect("bad --seed"),
                "--seg" => cli.seg = grab().parse().expect("bad --seg"),
                "--help" | "-h" => {
                    eprintln!("options: --scale N[k|m|g]  --reps N  --seed N  --seg N");
                    std::process::exit(0);
                }
                other => panic!("unknown option {other}"),
            }
        }
        cli
    }
}

/// Parses "4m", "512k", "1g" or plain integers.
pub fn parse_scale(s: &str) -> usize {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match lower.as_bytes()[lower.len() - 1] {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mult)
        }
        None => (lower.as_str(), 1),
    };
    digits.parse::<usize>().expect("bad scale") * mult
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_suffixes() {
        assert_eq!(parse_scale("1k"), 1024);
        assert_eq!(parse_scale("4m"), 4 << 20);
        assert_eq!(parse_scale("1g"), 1 << 30);
        assert_eq!(parse_scale("12345"), 12345);
    }

    #[test]
    fn cli_parses_options() {
        let cli = Cli::parse_from(
            [
                "--scale", "2m", "--reps", "5", "--seed", "7", "--seg", "256",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(cli.scale, 2 << 20);
        assert_eq!(cli.reps, 5);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.seg, 256);
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut vals = vec![5.0, 1.0, 3.0].into_iter();
        let m = median_of(3, || vals.next().unwrap());
        assert_eq!(m, 3.0);
    }

    #[test]
    fn latency_percentiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(i);
        }
        assert_eq!(r.quantile(0.0), 1);
        assert_eq!(r.quantile(1.0), 100, "top quantile is the exact max");
        // Interior quantiles carry the histogram's bucket error.
        let p99 = r.quantile(0.99);
        assert!((93..=99).contains(&p99), "p99 {p99} off by > 1/16");
        assert_eq!(r.max(), 100);
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn formatting_is_stable() {
        assert!(fmt_throughput(1_000_000, 1.0).contains("M/s"));
        assert!(fmt_bytes(3 << 20).contains("MiB"));
        assert!(throughput(100, 2.0) - 50.0 < 1e-9);
    }
}

pub mod stores;

/// Random scan-start key for a pattern's key domain.
pub fn random_start_key(pattern: workloads::Pattern, rng: &mut workloads::SplitMix64) -> i64 {
    match pattern {
        workloads::Pattern::Uniform => (rng.next_u64() >> 2) as i64,
        workloads::Pattern::Zipf { beta, .. } => rng.next_range(1, beta + 1) as i64,
        workloads::Pattern::Sequential => rng.next_u64() as i64 & i64::MAX,
    }
}

/// Zipf range β scaled like the paper (β = 2^27 at N = 2^30).
pub fn zipf_beta(scale: usize) -> u64 {
    ((scale / 8).max(1024)) as u64
}
