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
//! against both handles back to back (order alternating, one
//! discarded warm-up segment first) — pure pipelined submission, no
//! generation or build cost in the timed region. Both databases see
//! the same total op stream, so their contents evolve identically;
//! host jitter lands on both sides of most adjacent pairs and
//! cancels. The reported ratio is the median of the per-segment-pair
//! ratios; the throughput columns are the medians of the individual
//! timed segments.
//!
//! The repository's acceptance bar: instrumented throughput ≥
//! **0.9×** uninstrumented on both mixes.
//!
//! Writes `BENCH_obs_overhead.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{fmt_throughput, median_of, throughput, time, Cli};
use rma_core::RmaConfig;
use rma_db::{Db, ObsConfig, Op, Ticket};
use std::collections::VecDeque;
use workloads::{HotspotConfig, MixOp, ReadWriteMix, ShiftingHotspot, SplitMix64};

const SHARDS: usize = 8;
/// Ops per submitted batch (amortizes the channel hop).
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
    let mut base: Vec<(i64, i64)> = {
        let mut rng = SplitMix64::new(cli.seed ^ 0xB00B_5EED);
        (0..cli.scale)
            .map(|i| ((rng.next_u64() >> 2) as i64, i as i64))
            .collect()
    };
    base.sort_unstable();
    Db::builder()
        .shards(SHARDS)
        .rma(RmaConfig::with_segment_size(cli.seg))
        .observability(ObsConfig { enabled: obs_on })
        .build_bulk(&base)
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

/// Pre-generates one segment of `ops` mixed operations, already cut
/// into submission batches, so generation cost stays outside the
/// timed region and both databases replay the identical stream.
fn make_segment(source: &mut ReadWriteMix<Box<dyn FnMut() -> i64>>, ops: usize) -> Vec<Vec<Op>> {
    let mut batches = Vec::with_capacity(ops.div_ceil(BATCH));
    let mut remaining = ops;
    while remaining > 0 {
        let n = remaining.min(BATCH);
        batches.push(
            (0..n)
                .map(|_| match source.next_op() {
                    MixOp::Read(k) => Op::Get(k),
                    MixOp::Write(k, v) => Op::Insert(k, v),
                })
                .collect(),
        );
        remaining -= n;
    }
    batches
}

/// Times one pipelined pass of a pre-generated segment. Returns
/// ops/second.
fn drive(db: &Db, segment: &[Vec<Op>]) -> f64 {
    let ops: usize = segment.iter().map(Vec::len).sum();
    let (_, secs) = time(|| {
        let mut session = db.session();
        let mut in_flight: VecDeque<Ticket> = VecDeque::new();
        for batch in segment {
            in_flight.push_back(session.submit(batch));
            if in_flight.len() >= DEPTH {
                let replies = in_flight.pop_front().expect("non-empty").wait();
                std::hint::black_box(replies.len());
            }
        }
        for ticket in in_flight {
            std::hint::black_box(ticket.wait().len());
        }
    });
    throughput(ops, secs)
}

/// Median throughput for each configuration plus the median of the
/// per-repetition paired ratios.
struct MixResult {
    on: f64,
    off: f64,
    ratio: f64,
}

/// Paired segments per repetition. Short adjacent segments interleave
/// the two configurations at ~tens-of-milliseconds granularity, so
/// host jitter (scheduler ticks, frequency steps) lands on both sides
/// of most pairs and the median over `reps × PAIRS_PER_REP` ratios
/// converges where a handful of long runs does not.
const PAIRS_PER_REP: usize = 8;

/// Measures one mix with tightly paired repetitions over two
/// identically built databases (see the module docs).
fn run_mix(cli: &Cli, mix: Mix) -> MixResult {
    let db_on = preloaded(cli, true);
    let db_off = preloaded(cli, false);
    let mut source = mix_for(cli, mix);
    let pairs = cli.reps.max(1) * PAIRS_PER_REP;
    let seg_ops = (cli.scale / pairs).max(BATCH * DEPTH * 2);

    let warm = make_segment(&mut source, seg_ops);
    std::hint::black_box(drive(&db_on, &warm));
    std::hint::black_box(drive(&db_off, &warm));

    let mut ons = Vec::with_capacity(pairs);
    let mut offs = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let segment = make_segment(&mut source, seg_ops);
        let on_first = pair % 2 == 0;
        let (on, off) = if on_first {
            let a = drive(&db_on, &segment);
            (a, drive(&db_off, &segment))
        } else {
            let b = drive(&db_off, &segment);
            (drive(&db_on, &segment), b)
        };
        ons.push(on);
        offs.push(off);
        ratios.push(on / off);
    }
    let med = |xs: Vec<f64>| {
        let n = xs.len();
        median_of(n, {
            let mut it = xs.into_iter();
            move || it.next().expect("one value per rep")
        })
    };
    MixResult {
        on: med(ons),
        off: med(offs),
        ratio: med(ratios),
    }
}

fn write_json(
    path: &str,
    results: &[(Mix, MixResult)],
    cli: &Cli,
    hw: usize,
) -> std::io::Result<()> {
    let mut json = String::from("{\n");
    let pairs = cli.reps.max(1) * PAIRS_PER_REP;
    let seg_ops = (cli.scale / pairs).max(BATCH * DEPTH * 2);
    json.push_str("  \"bench\": \"obs_overhead\",\n");
    json.push_str(&format!(
        "  \"scale\": {},\n  \"paired_segments\": {pairs},\n  \"ops_per_segment\": {seg_ops},\n  \"batch\": {BATCH},\n  \"depth\": {DEPTH},\n",
        cli.scale
    ));
    json.push_str(&format!(
        "  \"read_fraction\": {READ_FRACTION},\n  \"shards\": {SHARDS},\n  \"router_workers\": 0,\n"
    ));
    json.push_str(&format!(
        "  \"seed\": {},\n  \"segment_size\": {},\n  \"reps\": {},\n  \"hw_threads\": {hw},\n",
        cli.seed, cli.seg, cli.reps
    ));
    json.push_str("  \"results\": [\n");
    for (i, (mix, r)) in results.iter().enumerate() {
        for (obs, rate) in [(true, r.on), (false, r.off)] {
            let last = i + 1 == results.len() && !obs;
            json.push_str(&format!(
                "    {{\"mix\": \"{}\", \"obs\": {obs}, \"ops_per_sec\": {rate:.1}}}{}\n",
                mix.label(),
                if last { "" } else { "," }
            ));
        }
    }
    json.push_str("  ],\n");
    for (mix, r) in results {
        json.push_str(&format!(
            "  \"ratio_instrumented_vs_off_{}\": {:.4},\n",
            mix.label(),
            r.ratio
        ));
    }
    json.push_str(&format!("  \"ratio_bar\": {RATIO_BAR}\n}}\n"));
    std::fs::write(path, json)
}

fn main() {
    let cli = Cli::parse();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# Fig. 20 — observability overhead: N={} preloaded, N mixed ops ({} reads), {SHARDS} shards, batch {BATCH}, depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, READ_FRACTION, cli.seg
    );
    println!(
        "{:<9} {:>14} {:>14} {:>8}",
        "mix", "obs on", "obs off", "ratio"
    );

    let mut results = Vec::new();
    for mix in [Mix::Uniform, Mix::Hotspot] {
        let r = run_mix(&cli, mix);
        println!(
            "{:<9} {:>14} {:>14} {:>8.3}",
            mix.label(),
            fmt_throughput(r.on as usize, 1.0).trim(),
            fmt_throughput(r.off as usize, 1.0).trim(),
            r.ratio
        );
        results.push((mix, r));
    }
    println!(
        "# bar: instrumented/off >= {RATIO_BAR} on both mixes (median of paired per-rep ratios)"
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

    let path = "BENCH_obs_overhead.json";
    match write_json(path, &results, &cli, hw) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
