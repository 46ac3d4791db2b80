//! Figure 18 (beyond the paper) — **insert tail latency under
//! background shard maintenance**: does restructuring stall the
//! write path?
//!
//! Readers are immune to maintenance; a writer is not, if a step holds
//! its shard's write lock. The maintenance engine restructures in
//! bounded steps, each publishing its own copy-on-write topology, so
//! a writer waits out at most the one step touching its shard. This
//! driver measures exactly that: an insert-only shifting-hotspot
//! stream (whose jumping hot band forces splits mid-measurement) runs
//! against a preloaded [`rma_shard::ShardedRma`] under two
//! maintenance regimes over the same operation stream —
//!
//! * `off` — maintenance never runs (the latency floor);
//! * `incremental` — a background [`Maintainer`](rma_shard::Maintainer),
//!   woken by the op clock, draining the split/merge plans' bounded
//!   steps 500 µs apart.
//!
//! Each mode runs `--reps` times and the reported row is the rep
//! with the **median worst-insert** — the paper's median-of-
//! repetitions convention, which matters here because single-digit
//! millisecond kernel hiccups (page-fault/mmap-lock noise on a
//! 1-core host, visible in the maintenance-off floor's own `max`)
//! would otherwise dominate a one-in-a-million statistic.
//!
//! Writes `BENCH_write_stall.json`. The acceptance bars tracked by
//! the repository: with background maintenance active, insert p99
//! ≤ 5× the maintenance-off floor and the worst single insert stall
//! ≤ 10 ms at 2^20 scale. Schema in
//! `crates/bench-harness/README.md`.

use bench_harness::Cli;
use rma_core::RmaConfig;
use rma_db::Db;
use rma_shard::{MaintainerConfig, ShardConfig};
use workloads::{
    drive_recorded, summarize, HotspotConfig, HotspotMotion, LatencySummary, ReadWriteMix,
    ShiftingHotspot, SplitMix64,
};

const SHARDS: usize = 32;
/// Hot-band phases across the measurement window (matches fig16/17).
const PHASES: u64 = 6;
/// The repository's stall acceptance bar, in nanoseconds.
const STALL_BAR_NS: u64 = 10_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Incremental,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Incremental => "incremental",
        }
    }
}

struct Row {
    mode: Mode,
    writes: LatencySummary,
    maintain_runs: u64,
    steps_executed: u64,
    keys_migrated: u64,
    max_step_wall_ns: u64,
    topologies_published: u64,
    shards_after: usize,
}

fn preloaded(cli: &Cli, mode: Mode) -> Db {
    let cfg = ShardConfig {
        num_shards: SHARDS,
        // Per-shard reservations sized for a sharded deployment. The
        // size costs no time: reserving 256 MiB or the 8 GiB default
        // takes microseconds (a `PROT_NONE` mapping touches no page
        // table). A fresh shard's milliseconds are its first page's
        // `MAP_POPULATE`, which the step executor pays before it
        // takes the locks.
        rma: RmaConfig {
            reserve_bytes: 1 << 28,
            ..RmaConfig::with_segment_size(cli.seg)
        },
        // Step budget for a 10 ms stall SLO on a single-core host: a
        // step's locked window costs ~its residents' bulk-load time,
        // and a saturated 1-CPU box roughly doubles the wall clock a
        // blocked writer observes, so one step must stay ~2 ms of
        // CPU. Smaller steps simply mean more of them — the plan
        // engine's point. The shard-length backstop bounds every
        // merge and keeps every shard small enough that even the
        // (unbounded) split that shrinks a hot shard fits the budget.
        max_shard_len: Some(1 << 15),
    };
    let mut base: Vec<(i64, i64)> = {
        let mut rng = SplitMix64::new(cli.seed ^ 0xB00B_5EED);
        (0..cli.scale)
            .map(|i| ((rng.next_u64() >> 2) as i64, i as i64))
            .collect()
    };
    base.sort_unstable();
    let mut builder = Db::builder().shard_config(cfg);
    if mode == Mode::Incremental {
        builder = builder.maintenance(MaintainerConfig);
    }
    builder
        .build_bulk(&base)
        .expect("static driver config is valid")
}

fn run(cli: &Cli, mode: Mode) -> Row {
    let db = preloaded(cli, mode);
    let ops = cli.scale as u64;
    // Insert-only mix over the jumping hot band: every op is a write,
    // so the recorded distribution *is* the insert tail.
    let mut hs = ShiftingHotspot::new(
        HotspotConfig {
            phase_len: (ops / PHASES).max(1),
            motion: HotspotMotion::Jump,
            ..Default::default()
        },
        cli.seed,
    );
    let mut mix = ReadWriteMix::new(move || hs.next_key(), 0.0, cli.seed ^ 0xC01D_C0FE);

    let idx = db.engine();
    let log = drive_recorded(ops, &mut mix, |_| {}, |k, v| idx.insert(k, v), |_| 0);
    db.stop_maintenance();
    idx.check_invariants();
    let mstats = idx.maintenance_stats();
    Row {
        mode,
        writes: summarize(&log.writes),
        maintain_runs: mstats.plans,
        steps_executed: mstats.steps_executed,
        keys_migrated: mstats.keys_migrated,
        max_step_wall_ns: mstats.max_step_wall_ns,
        topologies_published: mstats.topologies_published,
        shards_after: idx.num_shards(),
    }
}

fn write_json(path: &str, rows: &[Row], cli: &Cli, hw: usize) -> std::io::Result<()> {
    let of = |mode: Mode| rows.iter().find(|r| r.mode == mode).expect("mode row");
    let p99 = |mode: Mode| of(mode).writes.p99 as f64;
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"write_stall\",\n");
    json.push_str(&format!(
        "  \"scale\": {},\n  \"ops\": {},\n  \"shards\": {SHARDS},\n  \"phases\": {PHASES},\n",
        cli.scale, cli.scale
    ));
    json.push_str(&format!(
        "  \"seed\": {},\n  \"segment_size\": {},\n  \"hw_threads\": {hw},\n",
        cli.seed, cli.seg
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"write_p50_ns\": {}, \"write_p99_ns\": {}, \
             \"write_p999_ns\": {}, \"write_max_ns\": {}, \"write_mean_ns\": {:.1}, \
             \"writes\": {}, \"maintain_runs\": {}, \"steps_executed\": {}, \
             \"keys_migrated\": {}, \"max_step_wall_ns\": {}, \"topologies_published\": {}, \
             \"shards_after\": {}}}{}\n",
            r.mode.label(),
            r.writes.p50,
            r.writes.p99,
            r.writes.p999,
            r.writes.max,
            r.writes.mean,
            r.writes.samples,
            r.maintain_runs,
            r.steps_executed,
            r.keys_migrated,
            r.max_step_wall_ns,
            r.topologies_published,
            r.shards_after,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"p99_ratio_incremental_vs_off\": {:.4},\n",
        p99(Mode::Incremental) / p99(Mode::Off).max(1.0)
    ));
    json.push_str(&format!(
        "  \"max_stall_off_ns\": {},\n  \"max_stall_incremental_ns\": {},\n",
        of(Mode::Off).writes.max,
        of(Mode::Incremental).writes.max
    ));
    json.push_str(&format!("  \"stall_bar_ns\": {STALL_BAR_NS}\n}}\n"));
    std::fs::write(path, json)
}

fn main() {
    let cli = Cli::parse();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# Fig. 18 — insert tail latency under background maintenance: N={} preloaded, {} inserts, {SHARDS} shards, B={}, steps 500 us apart, hw_threads={hw}",
        cli.scale, cli.scale, cli.seg
    );
    println!(
        "{:<12} {:>9} {:>9} {:>10} {:>12} {:>6} {:>7} {:>12} {:>6}",
        "mode",
        "p50(ns)",
        "p99(ns)",
        "p999(ns)",
        "max(ns)",
        "maint",
        "steps",
        "maxstep(ns)",
        "shards"
    );
    let mut rows = Vec::new();
    for mode in [Mode::Off, Mode::Incremental] {
        // Median-of-reps by worst insert (see module docs).
        let mut reps: Vec<Row> = (0..cli.reps.max(1)).map(|_| run(&cli, mode)).collect();
        reps.sort_by_key(|r| r.writes.max);
        let row = reps.remove(reps.len() / 2);
        println!(
            "{:<12} {:>9} {:>9} {:>10} {:>12} {:>6} {:>7} {:>12} {:>6}",
            row.mode.label(),
            row.writes.p50,
            row.writes.p99,
            row.writes.p999,
            row.writes.max,
            row.maintain_runs,
            row.steps_executed,
            row.max_step_wall_ns,
            row.shards_after
        );
        rows.push(row);
    }
    let of = |mode: Mode| rows.iter().find(|r| r.mode == mode).expect("mode row");
    println!(
        "# insert p99 ratio vs off: incremental {:.3} (bar: <= 5.0)",
        of(Mode::Incremental).writes.p99 as f64 / of(Mode::Off).writes.p99.max(1) as f64,
    );
    println!(
        "# worst single insert: off {} ns, incremental {} ns (bar: <= {} ns incremental)",
        of(Mode::Off).writes.max,
        of(Mode::Incremental).writes.max,
        STALL_BAR_NS
    );

    let path = "BENCH_write_stall.json";
    match write_json(path, &rows, &cli, hw) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
