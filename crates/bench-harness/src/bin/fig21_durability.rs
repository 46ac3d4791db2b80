//! Figure 21 (beyond the paper) — the price of durability.
//!
//! The durability subsystem: one group-committed write-ahead log (one
//! LSN sequence, one fsync per commit barrier) behind
//! [`rma_db::DbBuilder::durability`], checkpoints sealed one unit per
//! shard, and parallel crash recovery.
//! This driver answers the two questions that decide whether anyone
//! turns it on:
//!
//! 1. **What does durable ingest cost?** An identical pipelined
//!    insert stream (uniform random keys over the full 62-bit domain,
//!    so every shard carries traffic) is driven
//!    against three configurations of the same preloaded database
//!    (a durable preload is sealed as a checkpoint, not logged):
//!    `off` (no WAL), `group_commit` ([`CommitPolicy::Always`] — a
//!    ticket's wait runs the barrier only for writes no earlier
//!    barrier covered, so one fsync round serves every batch submitted
//!    ahead of it in the pipeline, the classic group commit), and
//!    `every_4096`
//!    ([`CommitPolicy::EveryN`] — fsync deferred until ≥ 4096 records
//!    since the last sync; bounded-loss on OS crash). Segments are
//!    measured back to back in rotating order so host jitter cancels
//!    in the per-segment ratios (same pairing methodology as
//!    `fig20_obs_overhead`).
//! 2. **How fast is recovery?** After the measured run, the
//!    group-commit database seals a checkpoint (one unit per shard),
//!    ingests a log tail of 65 536 more inserts, and is dropped
//!    mid-flight; the timed region is `DbBuilder::recover()` —
//!    manifest read, parallel per-unit checkpoint load, bulk rebuild,
//!    one scan of the log, and each unit's committed tail replayed in
//!    parallel — verified to reproduce the exact element count.
//!
//! The repository's acceptance bars: group-committed durable ingest ≥
//! **0.5×** durability-off at the default scale (2^20), and full
//! recovery ≤ **5 s** at 2^20.
//!
//! Writes `BENCH_durability.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{fmt_throughput, median_of, throughput, time, Cli};
use rma_core::RmaConfig;
use rma_db::{CommitPolicy, Db, DurabilityConfig, Op, Ticket};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use workloads::SplitMix64;

const SHARDS: usize = 8;
/// Ops per submitted batch.
const BATCH: usize = 1024;
/// Tickets each session keeps open before waiting the oldest. Deep on
/// purpose: a wait's barrier commits every batch submitted before it,
/// so `Always` costs about one fsync round per `DEPTH` batches.
const DEPTH: usize = 32;
const EVERY_N: u64 = 4096;
const RATIO_BAR: f64 = 0.5;
const RECOVERY_BAR_SECS: f64 = 5.0;
/// Log tail replayed by the timed recovery.
const TAIL_OPS: usize = 1 << 16;
/// Measured segments per repetition (rotating-order pairing).
const SEGS_PER_REP: usize = 6;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Off,
    GroupCommit,
    EveryN,
}

impl Policy {
    fn label(self) -> &'static str {
        match self {
            Policy::Off => "off",
            Policy::GroupCommit => "group_commit",
            Policy::EveryN => "every_4096",
        }
    }

    fn commit(self) -> Option<CommitPolicy> {
        match self {
            Policy::Off => None,
            Policy::GroupCommit => Some(CommitPolicy::Always),
            Policy::EveryN => Some(CommitPolicy::EveryN(EVERY_N)),
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rma-fig21-{}-{}-{tag}",
        std::process::id(),
        rewiring::monotonic_ns()
    ))
}

/// Builds one preloaded database under the given policy; a durable
/// `build_bulk` seals the preload as a checkpoint, one unit per shard,
/// so the handle starts in the state a real durable deployment would.
fn preloaded(cli: &Cli, policy: Policy, dir: &Path) -> Db {
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
    if let Some(commit) = policy.commit() {
        builder = builder.durability(DurabilityConfig::new(dir).policy(commit));
    }
    builder
        .build_bulk(&base)
        .expect("static driver config is valid")
}

/// Pre-generates one insert segment, already cut into submission
/// batches, so generation cost stays outside the timed region and
/// every policy replays the identical stream.
fn make_segment(rng: &mut SplitMix64, ops: usize) -> Vec<Vec<Op>> {
    let mut batches = Vec::with_capacity(ops.div_ceil(BATCH));
    let mut remaining = ops;
    let mut v = 0i64;
    while remaining > 0 {
        let n = remaining.min(BATCH);
        batches.push(
            (0..n)
                .map(|_| {
                    v += 1;
                    Op::Insert((rng.next_u64() >> 2) as i64, v)
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

struct PolicyResult {
    rate: f64,
    ratio_vs_off: f64,
}

struct Recovery {
    elements: usize,
    seconds: f64,
    /// Units (shards) the one checkpoint sealed.
    checkpoints: usize,
}

fn main() {
    let cli = Cli::parse();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let policies = [Policy::Off, Policy::GroupCommit, Policy::EveryN];

    let dirs: Vec<PathBuf> = policies.iter().map(|p| scratch(p.label())).collect();
    let dbs: Vec<Db> = policies
        .iter()
        .zip(&dirs)
        .map(|(&p, dir)| preloaded(&cli, p, dir))
        .collect();

    println!(
        "# Fig. 21 — durability: N={} preloaded, N durable inserts, {SHARDS} shards, \
         checkpoint units = shards, batch {BATCH}, \
         depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, cli.seg
    );
    println!("{:<14} {:>14} {:>10}", "policy", "inserts", "vs off");

    // Rotating-order paired segments: every segment is driven against
    // all three databases back to back, so frequency steps and
    // scheduler noise land on every side of most triples and the
    // median per-segment ratio isolates the WAL's cost.
    let mut rng = SplitMix64::new(cli.seed ^ 0x05EC_04D5);
    let segs = cli.reps.max(1) * SEGS_PER_REP;
    let seg_ops = (cli.scale / segs).max(BATCH * DEPTH * 2);

    let warm = make_segment(&mut rng, seg_ops);
    for db in &dbs {
        std::hint::black_box(drive(db, &warm));
    }

    let mut rates: Vec<Vec<f64>> = vec![Vec::with_capacity(segs); policies.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(segs); policies.len()];
    for seg in 0..segs {
        let segment = make_segment(&mut rng, seg_ops);
        let mut measured = [0.0f64; 3];
        for lane in 0..policies.len() {
            // Rotate the visit order so no policy always runs first.
            let i = (seg + lane) % policies.len();
            measured[i] = drive(&dbs[i], &segment);
        }
        for (i, &rate) in measured.iter().enumerate() {
            rates[i].push(rate);
            ratios[i].push(rate / measured[0]);
        }
    }
    let med = |xs: &[f64]| {
        let mut it = xs.iter().copied();
        median_of(xs.len(), move || it.next().expect("one value per seg"))
    };
    let results: Vec<(Policy, PolicyResult)> = policies
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let r = PolicyResult {
                rate: med(&rates[i]),
                ratio_vs_off: med(&ratios[i]),
            };
            println!(
                "{:<14} {:>14} {:>10.3}",
                p.label(),
                fmt_throughput(r.rate as usize, 1.0).trim(),
                r.ratio_vs_off
            );
            (p, r)
        })
        .collect();
    println!("# bar: group_commit/off >= {RATIO_BAR} (median of per-segment ratios)");

    // ------------------------------------------------- recovery ----
    // Seal a checkpoint on the group-commit database, ingest a log
    // tail past it, crash (drop), and time the full reopen.
    let group_db = &dbs[1];
    let sealed = group_db.engine().checkpoint();
    let tail = make_segment(&mut rng, TAIL_OPS);
    std::hint::black_box(drive(group_db, &tail));
    let expected_len = group_db.len();
    print!("{}", group_db.metrics().render_text());

    let dirs_to_drop = dirs.clone();
    drop(dbs);
    let group_dir = dirs_to_drop[1].clone();
    let (recovered, secs) = time(|| {
        Db::builder()
            .shards(SHARDS)
            .rma(RmaConfig::with_segment_size(cli.seg))
            .durability(DurabilityConfig::new(group_dir.clone()).policy(CommitPolicy::Always))
            .recover()
            .expect("recovery of a cleanly dropped WAL")
    });
    assert_eq!(
        recovered.len(),
        expected_len,
        "recovery must reproduce the exact element count"
    );
    let recovery = Recovery {
        elements: expected_len,
        seconds: secs,
        checkpoints: sealed,
    };
    println!(
        "# recovery: {} elements ({} checkpoint units sealed, {TAIL_OPS} tail ops) in {:.3} s \
         (bar <= {RECOVERY_BAR_SECS} s at 2^20)",
        recovery.elements, recovery.checkpoints, recovery.seconds
    );
    drop(recovered);
    for dir in &dirs_to_drop {
        std::fs::remove_dir_all(dir).ok();
    }

    let path = "BENCH_durability.json";
    match write_json(path, &results, &recovery, &cli, hw, segs, seg_ops) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}

fn write_json(
    path: &str,
    results: &[(Policy, PolicyResult)],
    recovery: &Recovery,
    cli: &Cli,
    hw: usize,
    segs: usize,
    seg_ops: usize,
) -> std::io::Result<()> {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"durability\",\n");
    json.push_str(&format!(
        "  \"scale\": {},\n  \"paired_segments\": {segs},\n  \"ops_per_segment\": {seg_ops},\n  \"batch\": {BATCH},\n  \"depth\": {DEPTH},\n",
        cli.scale
    ));
    json.push_str(&format!(
        "  \"partitions\": {},\n  \"every_n\": {EVERY_N},\n  \"shards\": {SHARDS},\n  \"router_workers\": 0,\n",
        recovery.checkpoints
    ));
    json.push_str(&format!(
        "  \"seed\": {},\n  \"segment_size\": {},\n  \"reps\": {},\n  \"hw_threads\": {hw},\n",
        cli.seed, cli.seg, cli.reps
    ));
    json.push_str("  \"results\": [\n");
    for (i, (policy, r)) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"ops_per_sec\": {:.1}, \"ratio_vs_off\": {:.4}}}{}\n",
            policy.label(),
            r.rate,
            r.ratio_vs_off,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"ratio_group_commit_vs_off\": {:.4},\n  \"ratio_every_4096_vs_off\": {:.4},\n  \"ratio_bar\": {RATIO_BAR},\n",
        results[1].1.ratio_vs_off, results[2].1.ratio_vs_off
    ));
    json.push_str(&format!(
        "  \"recovery\": {{\"elements\": {}, \"tail_ops\": {TAIL_OPS}, \"checkpoint_seals\": {}, \"seconds\": {:.4}}},\n",
        recovery.elements, recovery.checkpoints
    , recovery.seconds));
    json.push_str(&format!(
        "  \"recovery_bar_seconds\": {RECOVERY_BAR_SECS}\n}}\n"
    ));
    std::fs::write(path, json)
}
