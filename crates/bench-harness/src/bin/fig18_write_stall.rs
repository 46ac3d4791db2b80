//! Figure 18 (beyond the paper) — **insert tail latency under
//! background splitter re-learning**: does restructuring stall the
//! write path?
//!
//! PR 3 made readers immune to maintenance, but a monolithic
//! `relearn_splitters()` still drained every shard under its write
//! lock — a writer landing mid-rebuild stalled for the whole rebuild
//! (~100 ms at 2^20 scale). The incremental maintenance engine
//! replaces that with bounded steps, each publishing its own
//! copy-on-write topology; a writer now waits out at most the one
//! step touching its shard. This driver measures exactly that: an
//! insert-only shifting-hotspot stream (whose jumping hot band forces
//! re-learning mid-measurement) runs against a preloaded
//! [`rma_shard::ShardedRma`] under three maintenance regimes over the same
//! operation stream —
//!
//! * `off` — maintenance never runs (the latency floor);
//! * `monolithic` — a polling thread of this driver answers the
//!   maintainer's trigger with
//!   [`relearn_splitters_monolithic`](ShardedRma::relearn_splitters_monolithic):
//!   re-learning holds every shard's write lock for the whole
//!   single-swap rebuild;
//! * `incremental` — a background [`Maintainer`](rma_shard::Maintainer)
//!   on the same trigger, draining the plan engine's bounded steps
//!   ([`STEPS_PER_TICK`] a tick, inter-step pauses).
//!
//! Each mode runs `--reps` times and the reported row is the rep
//! with the **median worst-insert** — the paper's median-of-
//! repetitions convention, which matters here because single-digit
//! millisecond kernel hiccups (page-fault/mmap-lock noise on a
//! 1-core host, visible in the maintenance-off floor's own `max`)
//! would otherwise dominate a one-in-a-million statistic.
//!
//! Writes `BENCH_write_stall.json`. The acceptance bars tracked by
//! the repository: with incremental background re-learning active,
//! insert p99 ≤ 5× the maintenance-off floor and the worst single
//! insert stall ≤ 10 ms at 2^20 scale — with the monolithic column
//! retained to show the delta. Schema in
//! `crates/bench-harness/README.md`.

use bench_harness::Cli;
use rma_core::RmaConfig;
use rma_db::Db;
use rma_shard::maintainer::STEPS_PER_TICK;
use rma_shard::{MaintainerConfig, ShardConfig, ShardedRma};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Duration;
use workloads::{
    drive_recorded, summarize, HotspotConfig, HotspotMotion, LatencySummary, ReadWriteMix,
    ShiftingHotspot, SplitMix64,
};

const SHARDS: usize = 32;
/// Hot-band phases across the measurement window (matches fig16/17).
const PHASES: u64 = 6;
/// The repository's stall acceptance bar, in nanoseconds.
const STALL_BAR_NS: u64 = 10_000_000;
/// The maintenance trigger both background regimes share: polled this
/// often, skew at or past this max/mean, this many ops since the last
/// run. React and drain quickly: the shorter the window between runs,
/// the less a jumped hot band can pile into one shard before the
/// split that shrinks it runs.
const POLL: Duration = Duration::from_millis(2);
const IMBALANCE_TRIGGER: f64 = 1.5;
const MIN_OPS_BETWEEN: u64 = 2048;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Monolithic,
    Incremental,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Monolithic => "monolithic",
            Mode::Incremental => "incremental",
        }
    }
}

struct Row {
    mode: Mode,
    writes: LatencySummary,
    maintain_runs: u64,
    relearns: u64,
    steps_executed: u64,
    keys_migrated: u64,
    max_step_wall_ns: u64,
    topologies_published: u64,
    shards_after: usize,
}

fn preloaded(cli: &Cli, mode: Mode) -> Db {
    let cfg = ShardConfig {
        num_shards: SHARDS,
        // Per-shard reservations sized for a sharded deployment: the
        // global default (8 GiB per RMA) makes every fresh shard
        // build pay a multi-ms page-table setup, which would charge
        // maintenance fixed costs to the measured stall.
        rma: RmaConfig {
            reserve_bytes: 1 << 28,
            // No MADV_HUGEPAGE: this host compacts synchronously on
            // fault for hinted regions (`defrag=madvise`), and shard
            // maintenance churns fresh reservations — a first-touch
            // fault mid-compaction stalls an insert for tens of
            // milliseconds, swamping the signal this driver measures.
            huge_pages: false,
            ..RmaConfig::with_segment_size(cli.seg)
        },
        min_split_len: 256,
        // Step budget for a 10 ms stall SLO on a single-core host: a
        // step's locked window costs ~its residents' bulk-load time,
        // and a saturated 1-CPU box roughly doubles the wall clock a
        // blocked writer observes, so one step must stay ~2 ms of
        // CPU. Smaller steps simply mean more of them — the plan
        // engine's point. The shard-length backstop keeps every
        // shard small enough that even the (uncapped) split that
        // shrinks a hot shard fits the budget.
        max_step_elems: 1 << 15,
        max_shard_len: Some(1 << 15),
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
    if mode == Mode::Incremental {
        builder = builder.maintenance(MaintainerConfig {
            poll_interval: POLL,
            imbalance_trigger: IMBALANCE_TRIGGER,
            // Per-step work is capped, so the fast cadence costs only
            // more (bounded) steps.
            min_ops_between: MIN_OPS_BETWEEN,
            // Generous pauses between steps: a writer queued behind
            // the previous step always drains fully before the next
            // one can lock anything.
            step_pause: Duration::from_millis(2),
            ..Default::default()
        });
    }
    builder
        .build_bulk(&base)
        .expect("static driver config is valid")
}

/// The `monolithic` regime: the maintainer's trigger (skew after
/// enough ops, or a shard past the length backstop — that one
/// unthrottled unless the last run found nothing to do), answered by
/// the single-swap re-learn and a synchronous split/merge pass.
/// Returns `(runs, relearns)`.
fn monolithic_maintainer(idx: &ShardedRma, stop: &AtomicBool) -> (u64, u64) {
    let backstop = idx.config().max_shard_len.expect("set by `preloaded`");
    let (mut runs, mut relearns) = (0, 0);
    let mut last_ops = idx.op_count();
    let mut last_run_idle = false;
    while !stop.load(Relaxed) {
        std::thread::sleep(POLL);
        let enough_ops = idx.op_count().saturating_sub(last_ops) >= MIN_OPS_BETWEEN;
        let skewed = enough_ops && idx.access_imbalance() >= IMBALANCE_TRIGGER;
        let oversized = (enough_ops || !last_run_idle) && idx.max_shard_len() > backstop;
        if skewed || oversized {
            let relearn = idx.relearn_splitters_monolithic();
            let rebalance = idx.rebalance_shards();
            runs += 1;
            relearns += u64::from(relearn.relearned);
            last_run_idle = !relearn.relearned && rebalance.splits + rebalance.merges == 0;
            last_ops = idx.op_count();
        }
    }
    (runs, relearns)
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
    let stop = AtomicBool::new(false);
    let (log, polled) = std::thread::scope(|sc| {
        let poller =
            (mode == Mode::Monolithic).then(|| sc.spawn(|| monolithic_maintainer(idx, &stop)));
        let log = drive_recorded(ops, &mut mix, |_| {}, |k, v| idx.insert(k, v), |_| 0);
        stop.store(true, Relaxed);
        (log, poller.map(|p| p.join().expect("monolithic poller")))
    });
    let (maintain_runs, relearns) = polled
        .or_else(|| db.stop_maintenance().map(|s| (s.runs, s.relearns)))
        .unwrap_or((0, 0));
    idx.check_invariants();
    let mstats = idx.maintenance_stats();
    Row {
        mode,
        writes: summarize(&log.writes),
        maintain_runs,
        relearns,
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
             \"writes\": {}, \"maintain_runs\": {}, \"relearns\": {}, \"steps_executed\": {}, \
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
            r.relearns,
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
        "  \"p99_ratio_monolithic_vs_off\": {:.4},\n",
        p99(Mode::Monolithic) / p99(Mode::Off).max(1.0)
    ));
    json.push_str(&format!(
        "  \"p99_ratio_incremental_vs_off\": {:.4},\n",
        p99(Mode::Incremental) / p99(Mode::Off).max(1.0)
    ));
    json.push_str(&format!(
        "  \"max_stall_off_ns\": {},\n  \"max_stall_monolithic_ns\": {},\n  \"max_stall_incremental_ns\": {},\n",
        of(Mode::Off).writes.max,
        of(Mode::Monolithic).writes.max,
        of(Mode::Incremental).writes.max
    ));
    json.push_str(&format!("  \"stall_bar_ns\": {STALL_BAR_NS}\n}}\n"));
    std::fs::write(path, json)
}

fn main() {
    let cli = Cli::parse();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# Fig. 18 — insert tail latency under background re-learning: N={} preloaded, {} inserts, {SHARDS} shards, B={}, {STEPS_PER_TICK} steps a tick, hw_threads={hw}",
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
    for mode in [Mode::Off, Mode::Monolithic, Mode::Incremental] {
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
        "# insert p99 ratio vs off: monolithic {:.3}, incremental {:.3} (bar: <= 5.0)",
        of(Mode::Monolithic).writes.p99 as f64 / of(Mode::Off).writes.p99.max(1) as f64,
        of(Mode::Incremental).writes.p99 as f64 / of(Mode::Off).writes.p99.max(1) as f64,
    );
    println!(
        "# worst single insert: off {} ns, monolithic {} ns, incremental {} ns (bar: <= {} ns incremental)",
        of(Mode::Off).writes.max,
        of(Mode::Monolithic).writes.max,
        of(Mode::Incremental).writes.max,
        STALL_BAR_NS
    );

    let path = "BENCH_write_stall.json";
    match write_json(path, &rows, &cli, hw) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
