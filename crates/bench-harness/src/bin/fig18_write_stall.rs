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
//! The two modes run in `--reps` pairs that alternate which runs
//! first ([`paired`]); the p99 ratio is the median of the per-pair
//! ratios. Each mode's reported row is its rep with the **median
//! worst-insert** — the paper's median-of-repetitions convention,
//! which matters here because single-digit millisecond kernel hiccups
//! (page-fault/mmap-lock noise on a 1-core host, visible in the
//! maintenance-off floor's own `max`) would otherwise dominate a
//! one-in-a-million statistic.
//!
//! Writes `BENCH_write_stall.json`. The acceptance bars tracked by
//! the repository: with background maintenance active, insert p99
//! ≤ 5× the maintenance-off floor and the worst single insert stall
//! ≤ 10 ms at 2^20 scale. Schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{fixed, hw_threads, json, paired, rows, Cli, Paired};
use rma_core::RmaConfig;
use rma_db::Db;
use rma_shard::{MaintainerConfig, ShardConfig};
use workloads::{
    drive_recorded, summarize, HotspotConfig, HotspotMotion, LatencySummary, ReadWriteMix,
    ShiftingHotspot,
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
    let mut builder = Db::builder().shard_config(cfg);
    if mode == Mode::Incremental {
        builder = builder.maintenance(MaintainerConfig);
    }
    builder
        .build_bulk(&cli.preload())
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

fn write_json(table: &[Row], p: &Paired, cli: &Cli, hw: usize) {
    let of = |mode: Mode| table.iter().find(|r| r.mode == mode).expect("mode row");
    let results = table.iter().map(|r| {
        let w = &r.writes;
        json! {
            "mode": r.mode.label(), "write_p50_ns": w.p50, "write_p99_ns": w.p99,
            "write_p999_ns": w.p999, "write_max_ns": w.max, "write_mean_ns": fixed(w.mean, 1),
            "writes": w.samples, "maintain_runs": r.maintain_runs,
            "steps_executed": r.steps_executed, "keys_migrated": r.keys_migrated,
            "max_step_wall_ns": r.max_step_wall_ns,
            "topologies_published": r.topologies_published, "shards_after": r.shards_after,
        }
    });
    json! {
        "bench": "write_stall", "scale": cli.scale, "ops": cli.scale, "shards": SHARDS,
        "phases": PHASES, "seed": cli.seed, "segment_size": cli.seg, "hw_threads": hw,
        "results": rows(results),
        "pairs": p.pairs(), "p99_ratio_incremental_vs_off": fixed(p.median, 4),
        "iqr": fixed(p.iqr, 4), "wins": p.wins,
        "max_stall_off_ns": of(Mode::Off).writes.max,
        "max_stall_incremental_ns": of(Mode::Incremental).writes.max,
        "stall_bar_ns": STALL_BAR_NS,
    }
    .write("BENCH_write_stall.json");
}

fn main() {
    let cli = Cli::parse();
    let hw = hw_threads();
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
    // Each run keeps its row; the pairing sees the insert p99, negated
    // so that the lower one wins (see `paired`).
    let (mut offs, mut incs) = (Vec::new(), Vec::new());
    let rep = |mode: Mode, reps: &mut Vec<Row>| {
        let row = run(&cli, mode);
        let p99 = row.writes.p99 as f64;
        reps.push(row);
        -p99
    };
    let p = paired(
        cli.reps.max(1),
        || rep(Mode::Off, &mut offs),
        || rep(Mode::Incremental, &mut incs),
    );
    let mut rows = Vec::new();
    for mut reps in [offs, incs] {
        // Median-of-reps by worst insert (see module docs).
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
        "# insert p99 ratio vs off: incremental {:.3} (iqr {:.3}, lower in {} of {} pairs; bar: <= 5.0)",
        p.median,
        p.iqr,
        p.wins,
        p.pairs()
    );
    println!(
        "# worst single insert: off {} ns, incremental {} ns (bar: <= {} ns incremental)",
        of(Mode::Off).writes.max,
        of(Mode::Incremental).writes.max,
        STALL_BAR_NS
    );
    write_json(&rows, &p, &cli, hw);
}
