//! Figure 20 (beyond the paper) — the cost of always-on
//! observability.
//!
//! PR 6 instruments the whole stack: sessions time a sampled 1-in-N
//! of operations (default N=16, a monotonic clock-read pair around
//! each sampled op) into log₂-bucketed latency histograms and record
//! batch sizes, tickets record batch wall time, and the maintenance
//! engine journals every structural
//! step. All of it defaults to **on** — which is only tenable if the
//! overhead is noise. This driver measures an identical pipelined-session
//! workload against one preloaded `Db` with observability `on`
//! (default [`ObsConfig`]) and `off` (`enabled: false` — no clock
//! reads, no histogram writes, no journal), across two mixes:
//!
//! * `uniform` — 90/10 get/insert over uniformly random keys (the
//!   throughput-friendly shape: maximal op rate, maximal relative
//!   cost of any per-op bookkeeping);
//! * `hotspot` — the same 90/10 coin over a shifting hot band
//!   ([`ShiftingHotspot`]), concentrating traffic the way skewed
//!   production workloads do.
//!
//! Methodology: run-to-run throughput on a small host drifts by more
//! than the effect being measured, so the comparison is *paired* as
//! tightly as possible. Per mix, one `on` and one `off` database are
//! built once from the same bulk load; the op stream is then cut into
//! many short pre-generated segments, and each segment is timed
//! against both handles back to back ([`paired`], one discarded
//! warm-up segment first) — pure pipelined submission, no generation
//! or build cost in the timed region. Both databases see the same
//! total op stream, so their contents evolve identically; host jitter
//! lands on both sides of most adjacent pairs and cancels. The
//! reported ratio is the median of the per-segment-pair ratios; the
//! throughput columns are the medians of the individual timed
//! segments.
//!
//! The repository's acceptance bar: instrumented throughput ≥
//! **0.9×** uninstrumented on both mixes. An A/A row pairs the uniform
//! mix's `off` database against a second `off` one built the same
//! way: the spread of a ratio that should read 1.0.
//!
//! Writes `BENCH_obs_overhead.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{
    batches, drive, fixed, fmt_throughput, hw_threads, json, median, paired, rows, Cli, Paired,
};
use rma_core::RmaConfig;
use rma_db::{Db, ObsConfig, Op};
use workloads::{HotspotConfig, MixOp, ReadWriteMix, ShiftingHotspot, SplitMix64};

const SHARDS: usize = 8;
/// Ops per submitted batch (amortizes a submit's fixed cost).
const BATCH: usize = 1024;
/// Tickets each session keeps in flight before collecting.
const DEPTH: usize = 4;
const READ_FRACTION: f64 = 0.9;
const RATIO_BAR: f64 = 0.9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    Uniform,
    Hotspot,
}

impl Mix {
    fn label(self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::Hotspot => "hotspot",
        }
    }
}

fn preloaded(cli: &Cli, obs_on: bool) -> Db {
    Db::builder()
        .shards(SHARDS)
        .rma(RmaConfig::with_segment_size(cli.seg))
        .observability(ObsConfig { enabled: obs_on })
        .build_bulk(&cli.preload())
        .expect("static driver config is valid")
}

/// A 90/10 get/insert mix over the chosen key distribution.
fn mix_for(cli: &Cli, mix: Mix) -> ReadWriteMix<Box<dyn FnMut() -> i64>> {
    let keys: Box<dyn FnMut() -> i64> = match mix {
        Mix::Uniform => {
            let mut rng = SplitMix64::new(cli.seed ^ 0x5E55_0001);
            Box::new(move || (rng.next_u64() >> 2) as i64)
        }
        Mix::Hotspot => {
            let mut hs = ShiftingHotspot::new(HotspotConfig::default(), cli.seed ^ 0x5E55_0002);
            Box::new(move || hs.next_key())
        }
    };
    ReadWriteMix::new(keys, READ_FRACTION, cli.seed ^ 0xC01D_0001)
}

/// Pre-generates one segment of `ops` mixed operations, so generation
/// cost stays outside the timed region and both databases replay the
/// identical stream.
fn make_segment(source: &mut ReadWriteMix<Box<dyn FnMut() -> i64>>, ops: usize) -> Vec<Vec<Op>> {
    batches(ops, BATCH, || match source.next_op() {
        MixOp::Read(k) => Op::Get(k),
        MixOp::Write(k, v) => Op::Insert(k, v),
    })
}

/// Paired segments per repetition. Short adjacent segments interleave
/// the two configurations at ~tens-of-milliseconds granularity, so
/// host jitter (scheduler ticks, frequency steps) lands on both sides
/// of most pairs and the median over `reps × PAIRS_PER_REP` ratios
/// converges where a handful of long runs does not.
const PAIRS_PER_REP: usize = 8;

/// Segments timed per mix and the ops in each.
fn segments(cli: &Cli) -> (usize, usize) {
    let pairs = cli.reps.max(1) * PAIRS_PER_REP;
    (pairs, (cli.scale / pairs).max(BATCH * DEPTH * 2))
}

/// Measures one mix: `b` with observability `b_on` against `a`
/// uninstrumented, paired per segment over two identically built
/// databases (see the module docs).
fn run_mix(cli: &Cli, mix: Mix, b_on: bool) -> Paired {
    let db_on = preloaded(cli, b_on);
    let db_off = preloaded(cli, false);
    let mut source = mix_for(cli, mix);
    let (pairs, seg_ops) = segments(cli);

    let warm = make_segment(&mut source, seg_ops);
    std::hint::black_box(drive(&db_on, &warm, DEPTH));
    std::hint::black_box(drive(&db_off, &warm, DEPTH));

    let segs: Vec<_> = (0..pairs)
        .map(|_| make_segment(&mut source, seg_ops))
        .collect();
    let (mut off_segs, mut on_segs) = (segs.iter(), segs.iter());
    paired(
        pairs,
        || drive(&db_off, off_segs.next().expect("one segment a pair"), DEPTH),
        || drive(&db_on, on_segs.next().expect("one segment a pair"), DEPTH),
    )
}

fn write_json(results: &[(Mix, Paired)], aa: &Paired, cli: &Cli, hw: usize) {
    let (pairs, seg_ops) = segments(cli);
    let results_rows = results.iter().flat_map(|(mix, p)| {
        [(true, &p.b), (false, &p.a)].map(|(obs, rates)| {
            json! { "mix": mix.label(), "obs": obs, "ops_per_sec": fixed(median(rates.clone()), 1) }
        })
    });
    let mut json = json! {
        "bench": "obs_overhead", "scale": cli.scale, "paired_segments": pairs,
        "ops_per_segment": seg_ops, "batch": BATCH, "depth": DEPTH,
        "read_fraction": fixed(READ_FRACTION, 1), "shards": SHARDS, "router_workers": 0,
        "seed": cli.seed, "segment_size": cli.seg, "reps": cli.reps, "hw_threads": hw,
        "results": rows(results_rows),
        "pairs": pairs,
    };
    for (mix, p) in results {
        let mix = mix.label();
        json = json
            .set(
                format!("ratio_instrumented_vs_off_{mix}"),
                fixed(p.median, 4),
            )
            .set(format!("iqr_{mix}"), fixed(p.iqr, 4))
            .set(format!("wins_{mix}"), p.wins);
    }
    json.set("ratio_bar", fixed(RATIO_BAR, 1))
        .set("aa_ratio_uniform", fixed(aa.median, 4))
        .set("aa_iqr_uniform", fixed(aa.iqr, 4))
        .set("aa_wins_uniform", aa.wins)
        .write("BENCH_obs_overhead.json");
}

fn main() {
    let cli = Cli::parse();
    let hw = hw_threads();
    println!(
        "# Fig. 20 — observability overhead: N={} preloaded, N mixed ops ({} reads), {SHARDS} shards, batch {BATCH}, depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, READ_FRACTION, cli.seg
    );
    println!(
        "{:<9} {:>14} {:>14} {:>8} {:>8} {:>5}",
        "mix", "obs on", "obs off", "ratio", "iqr", "wins"
    );

    let row = |label: &str, p: &Paired| {
        println!(
            "{:<9} {:>14} {:>14} {:>8.3} {:>8.3} {:>3}/{}",
            label,
            fmt_throughput(median(p.b.clone()) as usize, 1.0).trim(),
            fmt_throughput(median(p.a.clone()) as usize, 1.0).trim(),
            p.median,
            p.iqr,
            p.wins,
            p.pairs()
        )
    };
    let mut results = Vec::new();
    for mix in [Mix::Uniform, Mix::Hotspot] {
        let p = run_mix(&cli, mix, true);
        row(mix.label(), &p);
        results.push((mix, p));
    }
    // The A/A control: `off` against `off`, the spread this host reads
    // where nothing differs.
    let aa = run_mix(&cli, Mix::Uniform, false);
    row("A/A", &aa);
    println!(
        "# bar: instrumented/off >= {RATIO_BAR} on both mixes (median of paired per-segment ratios)"
    );

    // Demonstrate what the instrumented run actually buys: one small
    // run with observability on, reported through `Db::metrics()`.
    let db = preloaded(
        &Cli {
            scale: (cli.scale / 8).max(1024),
            ..cli.clone()
        },
        true,
    );
    let mut source = mix_for(&cli, Mix::Uniform);
    let mut session = db.session();
    let ops: Vec<Op> = (0..4096)
        .map(|_| match source.next_op() {
            MixOp::Read(k) => Op::Get(k),
            MixOp::Write(k, v) => Op::Insert(k, v),
        })
        .collect();
    for chunk in ops.chunks(BATCH) {
        std::hint::black_box(session.submit(chunk).wait().len());
    }
    print!("{}", db.metrics().render_text());

    write_json(&results, &aa, &cli, hw);
}
