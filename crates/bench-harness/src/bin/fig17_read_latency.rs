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
//! Writes `BENCH_read_latency.json`; the acceptance bar tracked by
//! the repository is `p99_ratio_background_vs_off_* ≤ 2.0` (the
//! background-maintenance read p99 stays within 2× the
//! maintenance-off floor). Schema in `crates/bench-harness/README.md`.

use bench_harness::Cli;
use rma_core::RmaConfig;
use rma_db::Db;
use rma_shard::{MaintainerConfig, ShardConfig};
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
    let mut base: Vec<(i64, i64)> = {
        let mut rng = SplitMix64::new(cli.seed ^ 0xB00B_5EED);
        (0..cli.scale)
            .map(|i| ((rng.next_u64() >> 2) as i64, i as i64))
            .collect()
    };
    base.sort_unstable();
    let mut builder = Db::builder().shard_config(cfg);
    if mode == Mode::Background {
        // The facade owns the maintainer: it starts with the handle
        // and is stopped deterministically before the row is read.
        builder = builder.maintenance(MaintainerConfig);
    }
    builder
        .build_bulk(&base)
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

fn write_json(path: &str, rows: &[Row], cli: &Cli, hw: usize) -> std::io::Result<()> {
    let p99_of = |dist: Dist, mode: Mode| {
        rows.iter()
            .find(|r| r.dist == dist && r.mode == mode)
            .map(|r| r.reads.p99 as f64)
            .unwrap_or(f64::NAN)
    };
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"read_latency\",\n");
    json.push_str(&format!(
        "  \"scale\": {},\n  \"ops\": {},\n  \"read_fraction\": {READ_FRACTION},\n",
        cli.scale, cli.scale
    ));
    json.push_str(&format!(
        "  \"shards\": {SHARDS},\n  \"phases\": {PHASES},\n  \"seed\": {},\n  \"segment_size\": {},\n  \"hw_threads\": {hw},\n",
        cli.seed, cli.seg
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dist\": \"{}\", \"mode\": \"{}\", \"read_p50_ns\": {}, \"read_p99_ns\": {}, \
             \"read_p999_ns\": {}, \"read_max_ns\": {}, \"read_mean_ns\": {:.1}, \
             \"reads\": {}, \"write_p50_ns\": {}, \"write_p99_ns\": {}, \"write_p999_ns\": {}, \
             \"write_max_ns\": {}, \"writes\": {}, \"maintain_runs\": {}, \"steps\": {}, \
             \"shards_after\": {}}}{}\n",
            r.dist.label(),
            r.mode.label(),
            r.reads.p50,
            r.reads.p99,
            r.reads.p999,
            r.reads.max,
            r.reads.mean,
            r.reads.samples,
            r.writes.p50,
            r.writes.p99,
            r.writes.p999,
            r.writes.max,
            r.writes.samples,
            r.maintain_runs,
            r.steps,
            r.shards_after,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"p99_ratio_background_vs_off_uniform\": {:.4},\n",
        p99_of(Dist::Uniform, Mode::Background) / p99_of(Dist::Uniform, Mode::Off).max(1.0)
    ));
    json.push_str(&format!(
        "  \"p99_ratio_background_vs_off_hotspot\": {:.4},\n",
        p99_of(Dist::Hotspot, Mode::Background) / p99_of(Dist::Hotspot, Mode::Off).max(1.0)
    ));
    json.push_str(&format!(
        "  \"p999_ratio_inline_vs_background_hotspot\": {:.4}\n}}\n",
        rows.iter()
            .find(|r| r.dist == Dist::Hotspot && r.mode == Mode::Inline)
            .map(|r| r.reads.p999 as f64)
            .unwrap_or(f64::NAN)
            / rows
                .iter()
                .find(|r| r.dist == Dist::Hotspot && r.mode == Mode::Background)
                .map(|r| r.reads.p999 as f64)
                .unwrap_or(f64::NAN)
                .max(1.0)
    ));
    std::fs::write(path, json)
}

fn main() {
    let cli = Cli::parse();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# Fig. 17 — get tail latency under maintenance: N={} preloaded, {} ops, {READ_FRACTION} reads, {SHARDS} shards, B={}, hw_threads={hw}",
        cli.scale, cli.scale, cli.seg
    );
    println!(
        "{:<9} {:<11} {:>9} {:>9} {:>10} {:>11} {:>7} {:>6}",
        "dist", "mode", "p50(ns)", "p99(ns)", "p999(ns)", "max(ns)", "maint", "shards"
    );
    let mut rows = Vec::new();
    for dist in [Dist::Uniform, Dist::Hotspot] {
        for mode in [Mode::Off, Mode::Inline, Mode::Background] {
            let row = run(&cli, dist, mode);
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
            rows.push(row);
        }
    }
    let p99 = |d: Dist, m: Mode| {
        rows.iter()
            .find(|r| r.dist == d && r.mode == m)
            .map(|r| r.reads.p99)
            .unwrap_or(0)
    };
    println!(
        "# background/off read p99 ratio: uniform {:.3}, hotspot {:.3} (bar: <= 2.0)",
        p99(Dist::Uniform, Mode::Background) as f64 / p99(Dist::Uniform, Mode::Off).max(1) as f64,
        p99(Dist::Hotspot, Mode::Background) as f64 / p99(Dist::Hotspot, Mode::Off).max(1) as f64,
    );

    let path = "BENCH_read_latency.json";
    match write_json(path, &rows, &cli, hw) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
