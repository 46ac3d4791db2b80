//! Figure 21 (beyond the paper) — the price of durability.
//!
//! The durability subsystem: one group-committed write-ahead log (one
//! LSN sequence, one write and one fsync per commit barrier) behind
//! [`rma_db::DbBuilder::durability`], checkpoints sealed one unit per
//! shard, and parallel crash recovery.
//! This driver answers the two questions that decide whether anyone
//! turns it on:
//!
//! 1. **What does durable ingest cost?** An identical pipelined
//!    insert stream (uniform random keys over the full 62-bit domain,
//!    so every shard carries traffic) is driven against two
//!    configurations of the same preloaded database (a durable
//!    preload is sealed as a checkpoint, not logged): `off` (no WAL)
//!    and `group_commit` (a ticket's wait runs the barrier only for
//!    writes no earlier barrier covered, so one fsync round serves
//!    every batch submitted ahead of it in the pipeline, the classic
//!    group commit). Each segment is timed against both back to back
//!    ([`paired`]), so host jitter cancels in the per-segment ratios
//!    (the methodology of `fig20_obs_overhead`). `log_bytes_per_op`
//!    is what they added to the log files per op (33 at a frame an op).
//! 2. **How fast is recovery?** After the measured run, the
//!    group-commit database seals a checkpoint (one unit per shard),
//!    ingests a log tail of 65 536 more inserts, and is dropped
//!    mid-flight; the timed region is `DbBuilder::recover()` —
//!    manifest read, parallel per-unit checkpoint load, bulk rebuild,
//!    one scan of the log, and each unit's committed tail replayed in
//!    parallel — verified to reproduce the exact element count. The
//!    seal's longest and summed unit lock times are reported beside it.
//!
//! The repository's acceptance bars: group-committed durable ingest ≥
//! **0.5×** durability-off at the default scale (2^20), and full
//! recovery ≤ **5 s** at 2^20.
//!
//! Writes `BENCH_durability.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{
    batches, drive, fixed, fmt_throughput, hw_threads, json, median, paired, rows, time, Cli,
};
use rma_core::RmaConfig;
use rma_db::{Db, DurabilityConfig, Op};
use std::path::{Path, PathBuf};
use workloads::SplitMix64;

const SHARDS: usize = 8;
/// Ops per submitted batch.
const BATCH: usize = 1024;
/// Tickets each session keeps open before waiting the oldest. Deep on
/// purpose: a wait's barrier commits every batch submitted before it,
/// so durable ingest costs about one fsync round per `DEPTH` batches.
const DEPTH: usize = 32;
const RATIO_BAR: f64 = 0.5;
const RECOVERY_BAR_SECS: f64 = 5.0;
/// Log tail replayed by the timed recovery.
const TAIL_OPS: usize = 1 << 16;
/// Paired segments per repetition.
const SEGS_PER_REP: usize = 6;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rma-fig21-{}-{}-{tag}",
        std::process::id(),
        rewiring::monotonic_ns()
    ))
}

/// Builds one preloaded database, durable in `dir` when given one; a
/// durable `build_bulk` seals the preload as a checkpoint, one unit
/// per shard, so the handle starts in the state a real durable
/// deployment would.
fn preloaded(cli: &Cli, dir: Option<&Path>) -> Db {
    let mut base: Vec<(i64, i64)> = {
        let mut rng = SplitMix64::new(cli.seed ^ 0xD07A_B1E5);
        (0..cli.scale)
            .map(|i| ((rng.next_u64() >> 2) as i64, i as i64))
            .collect()
    };
    base.sort_unstable();
    let mut builder = Db::builder()
        .shards(SHARDS)
        .rma(RmaConfig::with_segment_size(cli.seg));
    if let Some(dir) = dir {
        builder = builder.durability(DurabilityConfig::new(dir));
    }
    builder
        .build_bulk(&base)
        .expect("static driver config is valid")
}

/// Bytes of every log file in `dir`.
fn log_bytes(dir: &Path) -> u64 {
    (std::fs::read_dir(dir).expect("the WAL directory").flatten())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal_"))
        .map(|e| e.metadata().expect("a log file").len())
        .sum()
}

/// Pre-generates one insert segment, so generation cost stays outside
/// the timed region and both databases replay the identical stream.
fn make_segment(rng: &mut SplitMix64, ops: usize) -> Vec<Vec<Op>> {
    let mut v = 0i64;
    batches(ops, BATCH, || {
        v += 1;
        Op::Insert((rng.next_u64() >> 2) as i64, v)
    })
}

fn main() {
    let cli = Cli::parse();
    let hw = hw_threads();
    let dir = scratch("group_commit");
    let off = preloaded(&cli, None);
    let group = preloaded(&cli, Some(&dir));

    println!(
        "# Fig. 21 — durability: N={} preloaded, N durable inserts, {SHARDS} shards, \
         checkpoint units = shards, batch {BATCH}, \
         depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, cli.seg
    );

    // Paired segments: every segment is driven against both databases
    // back to back, so frequency steps and scheduler noise land on
    // both sides of most pairs and the median per-segment ratio
    // isolates the WAL's cost.
    let mut rng = SplitMix64::new(cli.seed ^ 0x05EC_04D5);
    let segs = cli.reps.max(1) * SEGS_PER_REP;
    let seg_ops = (cli.scale / segs).max(BATCH * DEPTH * 2);

    let warm = make_segment(&mut rng, seg_ops);
    for db in [&off, &group] {
        std::hint::black_box(drive(db, &warm, DEPTH));
    }
    let segments: Vec<_> = (0..segs).map(|_| make_segment(&mut rng, seg_ops)).collect();
    let logged_before = log_bytes(&dir);
    let (mut off_segs, mut group_segs) = (segments.iter(), segments.iter());
    let p = paired(
        segs,
        || drive(&off, off_segs.next().expect("one segment a pair"), DEPTH),
        || {
            drive(
                &group,
                group_segs.next().expect("one segment a pair"),
                DEPTH,
            )
        },
    );
    let (off_rate, group_rate) = (median(p.a.clone()), median(p.b.clone()));
    let logged_ops: usize = segments.iter().flatten().map(Vec::len).sum();
    let log_bytes_per_op = (log_bytes(&dir) - logged_before) as f64 / logged_ops as f64;
    println!("{:<14} {:>14} {:>10}", "policy", "inserts", "vs off");
    println!(
        "{:<14} {:>14} {:>10.3}",
        "off",
        fmt_throughput(off_rate as usize, 1.0).trim(),
        1.0
    );
    println!(
        "{:<14} {:>14} {:>10.3} (iqr {:.3}, faster in {} of {} pairs)",
        "group_commit",
        fmt_throughput(group_rate as usize, 1.0).trim(),
        p.median,
        p.iqr,
        p.wins,
        p.pairs()
    );
    println!("# bar: group_commit/off >= {RATIO_BAR} (median of per-segment ratios)");
    println!("# log: {log_bytes_per_op:.2} B an op");

    // ------------------------------------------------- recovery ----
    // Seal a checkpoint on the group-commit database, ingest a log
    // tail past it, crash (drop), and time the full reopen.
    let sealed = group.engine().checkpoint();
    // The seal journals one `checkpoint` event per unit, last.
    let (max_unit_lock_ms, seal_lock_ms) = (group.metrics().journal.iter().rev())
        .filter(|e| e.kind.name() == "checkpoint")
        .take(sealed)
        .map(|e| e.dur_ns as f64 / 1e6)
        .fold((0f64, 0f64), |(max, sum), ms| (max.max(ms), sum + ms));
    let tail = make_segment(&mut rng, TAIL_OPS);
    std::hint::black_box(drive(&group, &tail, DEPTH));
    let elements = group.len();
    print!("{}", group.metrics().render_text());

    drop((off, group));
    let (recovered, seconds) = time(|| {
        Db::builder()
            .shards(SHARDS)
            .rma(RmaConfig::with_segment_size(cli.seg))
            .durability(DurabilityConfig::new(dir.clone()))
            .recover()
            .expect("recovery of a cleanly dropped WAL")
    });
    assert_eq!(
        recovered.len(),
        elements,
        "recovery must reproduce the exact element count"
    );
    println!(
        "# recovery: {elements} elements ({sealed} checkpoint units sealed, {TAIL_OPS} tail ops) \
         in {seconds:.3} s (bar <= {RECOVERY_BAR_SECS} s at 2^20); the seal locked \
         one unit for {max_unit_lock_ms:.3} ms at most, {seal_lock_ms:.3} ms in all"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();

    let results = [
        ("off", off_rate, 1.0),
        ("group_commit", group_rate, p.median),
    ]
    .map(|(policy, rate, ratio)| {
        json! { "policy": policy, "ops_per_sec": fixed(rate, 1), "ratio_vs_off": fixed(ratio, 4) }
    });
    json! {
        "bench": "durability", "scale": cli.scale, "paired_segments": segs,
        "ops_per_segment": seg_ops, "batch": BATCH, "depth": DEPTH, "partitions": sealed,
        "shards": SHARDS, "router_workers": 0, "seed": cli.seed, "segment_size": cli.seg,
        "reps": cli.reps, "hw_threads": hw,
        "results": rows(results),
        "pairs": p.pairs(), "ratio_group_commit_vs_off": fixed(p.median, 4),
        "iqr": fixed(p.iqr, 4), "wins": p.wins,
        "ratio_bar": fixed(RATIO_BAR, 1), "log_bytes_per_op": fixed(log_bytes_per_op, 2),
        "recovery": json! {
            "elements": elements, "tail_ops": TAIL_OPS, "checkpoint_seals": sealed,
            "seconds": fixed(seconds, 4), "max_unit_lock_ms": fixed(max_unit_lock_ms, 3),
            "seal_lock_ms": fixed(seal_lock_ms, 3),
        },
        "recovery_bar_seconds": fixed(RECOVERY_BAR_SECS, 0),
    }
    .write("BENCH_durability.json");
}
