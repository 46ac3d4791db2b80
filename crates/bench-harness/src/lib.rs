//! Measurement utilities shared by the experiment drivers.
//!
//! One binary per figure of "Packed Memory Arrays – Rewired" lives in
//! `src/bin/`; each prints the rows/series of its figure in plain
//! text. This library provides the shared plumbing: wall-clock
//! timing, median-of-repetitions, paired runs for every ratio a
//! driver reports, throughput formatting, pipelined session drives,
//! the JSON writer of the `BENCH_*.json` files, and a tiny CLI argument
//! parser so every driver accepts `--scale`, `--reps`, `--seed` and
//! `--seg` without a dependency.

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
    sort(&mut xs);
    xs[xs.len() / 2]
}

fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
}

/// The `q`-quantile of sorted, non-empty `xs`, interpolated linearly
/// between the closest ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let x = q * (xs.len() - 1) as f64;
    let lo = x.floor() as usize;
    xs[lo] + (xs[x.ceil() as usize] - xs[lo]) * (x - lo as f64)
}

/// What [`paired`] measured: `b` against `a`, pair by pair.
#[derive(Debug)]
pub struct Paired {
    /// `a`'s figure in each pair, in run order.
    pub a: Vec<f64>,
    /// `b`'s figure in each pair.
    pub b: Vec<f64>,
    /// `b / a` in each pair.
    pub ratios: Vec<f64>,
    /// The median of `ratios` (the upper one of an even count, as
    /// [`median`]).
    pub median: f64,
    /// The interquartile range of `ratios`.
    pub iqr: f64,
    /// The pairs in which `b` beat `a`: its figure was the higher.
    pub wins: usize,
}

impl Paired {
    /// Derives the ratios and their statistics from the two sides'
    /// figures, one per pair.
    fn new(a: Vec<f64>, b: Vec<f64>) -> Self {
        assert!(
            !a.is_empty() && a.len() == b.len(),
            "one figure a side per pair"
        );
        let ratios: Vec<f64> = a.iter().zip(&b).map(|(x, y)| y / x).collect();
        let mut sorted = ratios.clone();
        sort(&mut sorted);
        Paired {
            median: sorted[sorted.len() / 2],
            iqr: quantile(&sorted, 0.75) - quantile(&sorted, 0.25),
            wins: a.iter().zip(&b).filter(|(x, y)| y > x).count(),
            a,
            b,
            ratios,
        }
    }

    /// The number of pairs.
    pub fn pairs(&self) -> usize {
        self.ratios.len()
    }
}

/// Runs `a` and `b` `reps` times each, in pairs: `a` first in even
/// pairs, `b` first in odd ones, so neither side always runs on the
/// colder or the warmer host. Each call returns one figure where
/// higher is better (ops per second); a driver that pairs latencies
/// negates them, which leaves `b / a` as it is and makes the lower
/// latency the win.
///
/// One run a side cannot resolve a change that host noise moves by
/// a quarter; the median of per-pair ratios can, and its spread and
/// win count say how far to trust it.
pub fn paired(reps: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Paired {
    assert!(reps >= 1);
    let (mut xs, mut ys) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for pair in 0..reps {
        let (x, y) = if pair % 2 == 0 {
            let x = a();
            (x, b())
        } else {
            let y = b();
            (a(), y)
        };
        xs.push(x);
        ys.push(y);
    }
    Paired::new(xs, ys)
}

/// A value a [`Json`] field holds: a string, an integer, a boolean, a
/// nested [`Json`] object (on one line), or [`Raw`] text from
/// [`fixed`] or [`rows`].
pub trait Value {
    /// The value as JSON text.
    fn render(self) -> String;
}

impl Value for &str {
    fn render(self) -> String {
        quote(self)
    }
}

macro_rules! plain {
    ($($t:ty)*) => { $(impl Value for $t { fn render(self) -> String { self.to_string() } })* };
}
plain!(bool u64 usize i32);

impl Value for Json {
    fn render(self) -> String {
        self.line()
    }
}

/// JSON text, written as it is.
pub struct Raw(String);

impl Value for Raw {
    fn render(self) -> String {
        self.0
    }
}

/// `v` written with `places` decimals.
pub fn fixed(v: f64, places: usize) -> Raw {
    Raw(format!("{v:.places$}"))
}

/// The objects of `rows` as an array laid out one per line, for a
/// file's top level.
pub fn rows(rows: impl IntoIterator<Item = Json>) -> Raw {
    let rows: Vec<String> = rows.into_iter().map(|r| r.line()).collect();
    Raw(if rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    })
}

/// One JSON object, its fields in insertion order: the writer of every
/// `BENCH_*.json`, built with [`json!`]. A file is an object laid out
/// one field per line at two spaces ([`write`](Self::write)).
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

/// Builds a [`Json`] object: `json! { "key": value, ... }`, each value
/// a [`Value`]. A key is a string literal or a parenthesised
/// expression for a computed one.
#[macro_export]
macro_rules! json {
    ($($key:tt: $value:expr),* $(,)?) => {{
        let json = $crate::Json::new();
        $(
            // A computed key comes in parentheses.
            #[allow(unused_parens)]
            let json = json.set($key, $value);
        )*
        json
    }};
}

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the field `key: v`.
    pub fn set(mut self, key: impl AsRef<str>, v: impl Value) -> Self {
        self.fields.push((quote(key.as_ref()), v.render()));
        self
    }

    /// The object on one line.
    pub fn line(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}: {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The object one field per line, as a file holds it.
    pub fn pretty(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  {k}: {v}"))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Writes [`pretty`](Self::pretty) to `path` in the working
    /// directory and says on the console whether it could.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.pretty()) {
            Ok(()) => println!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

/// Cuts `ops` operations drawn from `next` into submission batches of
/// `batch`, ahead of a timed region that replays them.
pub fn batches(
    ops: usize,
    batch: usize,
    mut next: impl FnMut() -> rma_db::Op,
) -> Vec<Vec<rma_db::Op>> {
    let mut out = Vec::with_capacity(ops.div_ceil(batch));
    let mut remaining = ops;
    while remaining > 0 {
        let n = remaining.min(batch);
        out.push((0..n).map(|_| next()).collect());
        remaining -= n;
    }
    out
}

/// Times one pipelined pass of pre-cut `batches` through one session
/// that keeps `depth` tickets open before waiting the oldest. Returns
/// ops per second.
pub fn drive(db: &rma_db::Db, batches: &[Vec<rma_db::Op>], depth: usize) -> f64 {
    let ops: usize = batches.iter().map(Vec::len).sum();
    let (_, secs) = time(|| {
        let mut session = db.session();
        let mut in_flight = std::collections::VecDeque::new();
        for batch in batches {
            in_flight.push_back(session.submit(batch));
            if in_flight.len() >= depth {
                let ticket: rma_db::Ticket = in_flight.pop_front().expect("non-empty");
                std::hint::black_box(ticket.wait().len());
            }
        }
        for ticket in in_flight {
            std::hint::black_box(ticket.wait().len());
        }
    });
    throughput(ops, secs)
}

/// Host parallelism, as every `BENCH_*.json` records it.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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

    /// The scaling drivers' preload: `scale` keys drawn uniformly
    /// from `[0, 2^62)` under the seed, each valued by its draw index,
    /// sorted by key.
    pub fn preload(&self) -> Vec<(i64, i64)> {
        let mut rng = workloads::SplitMix64::new(self.seed ^ 0xB00B_5EED);
        let mut base: Vec<(i64, i64)> = (0..self.scale)
            .map(|i| ((rng.next_u64() >> 2) as i64, i as i64))
            .collect();
        base.sort_unstable();
        base
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
    fn paired_alternates_which_side_runs_first() {
        let order = std::cell::RefCell::new(String::new());
        let p = paired(
            4,
            || {
                order.borrow_mut().push('a');
                1.0
            },
            || {
                order.borrow_mut().push('b');
                2.0
            },
        );
        assert_eq!(order.into_inner(), "abbaabba");
        assert_eq!((p.a, p.b), (vec![1.0; 4], vec![2.0; 4]));
    }

    #[test]
    fn paired_statistics_on_fixed_figures() {
        let p = Paired::new(vec![2.0, 4.0, 1.0, 5.0, 2.0], vec![1.0, 6.0, 3.0, 5.0, 4.0]);
        assert_eq!(p.ratios, [0.5, 1.5, 3.0, 1.0, 2.0]);
        assert_eq!(p.median, 1.5);
        // Quartiles of 0.5, 1, 1.5, 2, 3 at ranks 1 and 3.
        assert_eq!(p.iqr, 1.0);
        assert_eq!(p.wins, 3, "a tie is no win");
        assert_eq!(p.pairs(), 5);
        // An even count: the upper median, quartiles interpolated.
        let p = Paired::new(vec![1.0; 4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((p.median, p.iqr, p.wins), (3.0, 1.5, 3));
        // Negated latencies: the ratio stands, the lower one wins.
        let p = Paired::new(vec![-100.0], vec![-80.0]);
        assert_eq!((p.median, p.wins), (0.8, 1));
    }

    #[test]
    fn json_escapes_strings() {
        let j = json! { "say \"hi\"": "a\\b\n\t\u{1}é" };
        assert_eq!(j.line(), r#"{"say \"hi\"": "a\\b\u000a\u0009\u0001é"}"#);
    }

    #[test]
    fn json_fixed_decimals() {
        let j = json! {
            "a": fixed(0.9, 1), "b": fixed(2.0, 4), "c": fixed(1.23456, 4),
            "d": fixed(5.0, 0), "e": fixed(2502466.84, 1),
        };
        assert_eq!(
            j.line(),
            r#"{"a": 0.9, "b": 2.0000, "c": 1.2346, "d": 5, "e": 2502466.8}"#
        );
    }

    #[test]
    fn json_lays_out_a_file() {
        let row = |mode: &str, phase: u64, before: f64| {
            json! {
                "mode": mode, "phase": phase, "imbalance_before": fixed(before, 4),
                "imbalance_after": fixed(7.3396, 4), "splits": 0, "merges": 0, "shards": 8,
            }
        };
        let key = "imbalance_ratio".to_string();
        let file = json! {
            "bench": "splitter_relearning",
            "results": rows([row("static", 0, 7.3321), row("static", 1, 4.5727)]),
            "recovery": json! { "elements": 3usize, "ok": true },
            "none": rows([]),
            (&key): fixed(0.2919, 4),
        };
        assert_eq!(
            file.pretty(),
            r#"{
  "bench": "splitter_relearning",
  "results": [
    {"mode": "static", "phase": 0, "imbalance_before": 7.3321, "imbalance_after": 7.3396, "splits": 0, "merges": 0, "shards": 8},
    {"mode": "static", "phase": 1, "imbalance_before": 4.5727, "imbalance_after": 7.3396, "splits": 0, "merges": 0, "shards": 8}
  ],
  "recovery": {"elements": 3, "ok": true},
  "none": [],
  "imbalance_ratio": 0.2919
}
"#
        );
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
