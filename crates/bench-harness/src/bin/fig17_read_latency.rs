//! Figure 17 (beyond the paper) — read tail latency under index
//! maintenance.
//!
//! The point of the lock-free read path (pin-then-check shard reads +
//! epoch topology) is that shard splits and merges no longer stall
//! readers. This driver measures it: a
//! 90/10 read/write mix runs against a preloaded [`rma_shard::ShardedRma`]
//! under three maintenance regimes over the same operation stream —
//!
//! * `off` — maintenance never runs (the latency floor);
//! * `inline` — the serving thread calls `maintain()` synchronously
//!   on a fixed cadence (the PR-2 deployment style); the pause is
//!   charged to the next request, which is what a caller queued
//!   behind inline maintenance would observe;
//! * `background` — a [`Maintainer`](rma_shard::Maintainer) thread
//!   plans every few thousand ops and runs maintenance
//!   concurrently; readers proceed optimistically.
//!
//! Two key distributions: `uniform` (maintenance stays idle — a
//! sanity baseline) and `hotspot` ([`workloads::ShiftingHotspot`],
//! whose jumping hot band forces splits mid-measurement).
//!
//! Every run builds its own database. Each ratio is the median of
//! `--reps` pairs of runs that alternate which mode runs first
//! ([`paired`]): `background` against `off` per distribution, and
//! `inline` against `background` under the hotspot. Each reported row
//! is the run of its `(dist, mode)` with the median read p99.
//!
//! Writes `BENCH_read_latency.json`; the acceptance bar tracked by
//! the repository is `p99_ratio_background_vs_off_* ≤ 2.0` (the
//! background-maintenance read p99 stays within 2× the
//! maintenance-off floor). Schema in `crates/bench-harness/README.md`.

use bench_harness::{fixed, hw_threads, json, paired, rows, Cli, Paired};
use rma_core::RmaConfig;
use rma_db::Db;
use rma_shard::{MaintainerConfig, ShardConfig};
use std::cell::RefCell;
use std::time::Instant;
use workloads::{
    drive_recorded, summarize, HotspotConfig, HotspotMotion, LatencySummary, ReadWriteMix,
    ShiftingHotspot, SplitMix64,
};

const SHARDS: usize = 8;
const READ_FRACTION: f64 = 0.9;
/// Hot-band phases across the measurement window (matches fig16).
const PHASES: u64 = 6;
/// Inline mode calls `maintain()` this many times per measurement
/// (twice per hotspot phase, mirroring fig16's cadence).
const INLINE_MAINTS: u64 = 2 * PHASES;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Dist {
    Uniform,
    Hotspot,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Inline,
    Background,
}

impl Dist {
    fn label(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Hotspot => "hotspot",
        }
    }
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Inline => "inline",
            Mode::Background => "background",
        }
    }
}

struct Row {
    dist: Dist,
    mode: Mode,
    reads: LatencySummary,
    writes: LatencySummary,
    maintain_runs: u64,
    /// Maintenance steps executed (splits and merges).
    steps: u64,
    shards_after: usize,
}

fn preloaded(cli: &Cli, mode: Mode) -> Db {
    let cfg = ShardConfig {
        num_shards: SHARDS,
        rma: RmaConfig::with_segment_size(cli.seg),
        ..Default::default()
    };
    let mut builder = Db::builder().shard_config(cfg);
    if mode == Mode::Background {
        // The facade owns the maintainer: it starts with the handle
        // and is stopped deterministically before the row is read.
        builder = builder.maintenance(MaintainerConfig);
    }
    builder
        .build_bulk(&cli.preload())
        .expect("static driver config is valid")
}

/// Key source for one run: a boxed closure so both distributions fit
/// one driver loop.
fn key_source(cli: &Cli, dist: Dist, ops: u64) -> Box<dyn FnMut() -> i64> {
    match dist {
        Dist::Uniform => {
            let mut rng = SplitMix64::new(cli.seed ^ 0x5EED_1234);
            Box::new(move || (rng.next_u64() >> 2) as i64)
        }
        Dist::Hotspot => {
            let mut hs = ShiftingHotspot::new(
                HotspotConfig {
                    phase_len: (ops / PHASES).max(1),
                    motion: HotspotMotion::Jump,
                    ..Default::default()
                },
                cli.seed,
            );
            Box::new(move || hs.next_key())
        }
    }
}

fn run(cli: &Cli, dist: Dist, mode: Mode) -> Row {
    let db = preloaded(cli, mode);
    let ops = cli.scale as u64;
    let mut mix = ReadWriteMix::new(
        key_source(cli, dist, ops),
        READ_FRACTION,
        cli.seed ^ 0xC01D_C0FE,
    );

    let maint_every = (ops / INLINE_MAINTS).max(1);
    let mut inline_runs = 0u64;
    let mut inline_steps = 0u64;
    let idx = db.engine();
    let log = drive_recorded(
        ops,
        &mut mix,
        |k| {
            std::hint::black_box(idx.get(k));
        },
        |k, v| idx.insert(k, v),
        |i| {
            if mode == Mode::Inline && i > 0 && i % maint_every == 0 {
                let t = Instant::now();
                let report = idx.maintain();
                inline_runs += 1;
                inline_steps += report.executed() as u64;
                t.elapsed().as_nanos() as u64
            } else {
                0
            }
        },
    );

    // Quiesce the background maintainer (no-op in the other modes)
    // so the row reports final counters over a stable topology.
    let (maintain_runs, steps) = match db.stop_maintenance() {
        Some(_) => {
            let ledger = idx.maintenance_stats();
            (ledger.plans, ledger.steps_executed)
        }
        None => (inline_runs, inline_steps),
    };
    idx.check_invariants();
    Row {
        dist,
        mode,
        reads: summarize(&log.reads),
        writes: summarize(&log.writes),
        maintain_runs,
        steps,
        shards_after: idx.num_shards(),
    }
}

/// The three paired ratios, in the JSON's order: the key of each, the
/// suffix of its `iqr` / `wins` keys, and the pairs.
type Ratios<'a> = [(&'a str, &'a str, Paired); 3];

fn write_json(table: &[&Row], ratios: &Ratios, cli: &Cli, hw: usize) {
    let results = table.iter().map(|r| {
        let (rd, wr) = (&r.reads, &r.writes);
        json! {
            "dist": r.dist.label(), "mode": r.mode.label(),
            "read_p50_ns": rd.p50, "read_p99_ns": rd.p99, "read_p999_ns": rd.p999,
            "read_max_ns": rd.max, "read_mean_ns": fixed(rd.mean, 1), "reads": rd.samples,
            "write_p50_ns": wr.p50, "write_p99_ns": wr.p99, "write_p999_ns": wr.p999,
            "write_max_ns": wr.max, "writes": wr.samples,
            "maintain_runs": r.maintain_runs, "steps": r.steps, "shards_after": r.shards_after,
        }
    });
    let mut json = json! {
        "bench": "read_latency", "scale": cli.scale, "ops": cli.scale,
        "read_fraction": fixed(READ_FRACTION, 1), "shards": SHARDS, "phases": PHASES,
        "seed": cli.seed, "segment_size": cli.seg, "hw_threads": hw,
        "results": rows(results),
        "pairs": cli.reps.max(1),
    };
    for (key, suffix, p) in ratios {
        json = json
            .set(*key, fixed(p.median, 4))
            .set(format!("iqr{suffix}"), fixed(p.iqr, 4))
            .set(format!("wins{suffix}"), p.wins);
    }
    json.write("BENCH_read_latency.json");
}

fn main() {
    let cli = Cli::parse();
    let hw = hw_threads();
    let reps = cli.reps.max(1);
    println!(
        "# Fig. 17 — get tail latency under maintenance: N={} preloaded, {} ops, {READ_FRACTION} reads, {SHARDS} shards, B={}, hw_threads={hw}",
        cli.scale, cli.scale, cli.seg
    );
    // Every run keeps its row; a pairing sees one read percentile,
    // negated so that the lower one wins (see `paired`).
    let runs = RefCell::new(Vec::new());
    let rep = |dist: Dist, mode: Mode, pick: fn(&LatencySummary) -> u64| {
        let row = run(&cli, dist, mode);
        let x = pick(&row.reads);
        runs.borrow_mut().push(row);
        -(x as f64)
    };
    let p99: fn(&LatencySummary) -> u64 = |l| l.p99;
    let p999: fn(&LatencySummary) -> u64 = |l| l.p999;
    let ratios: Ratios = [
        (
            "p99_ratio_background_vs_off_uniform",
            "_p99_uniform",
            paired(
                reps,
                || rep(Dist::Uniform, Mode::Off, p99),
                || rep(Dist::Uniform, Mode::Background, p99),
            ),
        ),
        (
            "p99_ratio_background_vs_off_hotspot",
            "_p99_hotspot",
            paired(
                reps,
                || rep(Dist::Hotspot, Mode::Off, p99),
                || rep(Dist::Hotspot, Mode::Background, p99),
            ),
        ),
        (
            "p999_ratio_inline_vs_background_hotspot",
            "_p999_hotspot",
            paired(
                reps,
                || rep(Dist::Hotspot, Mode::Background, p999),
                || rep(Dist::Hotspot, Mode::Inline, p999),
            ),
        ),
    ];
    // The uniform inline row pairs with nothing.
    for _ in 0..reps {
        rep(Dist::Uniform, Mode::Inline, p99);
    }

    let mut runs = runs.into_inner();
    runs.sort_by_key(|r| (r.dist as u8, r.mode as u8, r.reads.p99));
    let rows: Vec<&Row> = runs
        .chunk_by(|a, b| (a.dist, a.mode) == (b.dist, b.mode))
        .map(|reps| &reps[reps.len() / 2])
        .collect();
    println!(
        "{:<9} {:<11} {:>9} {:>9} {:>10} {:>11} {:>7} {:>6}",
        "dist", "mode", "p50(ns)", "p99(ns)", "p999(ns)", "max(ns)", "maint", "shards"
    );
    for row in &rows {
        println!(
            "{:<9} {:<11} {:>9} {:>9} {:>10} {:>11} {:>7} {:>6}",
            row.dist.label(),
            row.mode.label(),
            row.reads.p50,
            row.reads.p99,
            row.reads.p999,
            row.reads.max,
            row.maintain_runs,
            row.shards_after
        );
    }
    for (key, _, p) in &ratios {
        println!(
            "# {key}: {:.3} (iqr {:.3}, lower in {} of {} pairs)",
            p.median,
            p.iqr,
            p.wins,
            p.pairs()
        );
    }
    println!("# bar: p99_ratio_background_vs_off_hotspot <= 2.0");
    write_json(&rows, &ratios, &cli, hw);
}
