//! Figure 22 (beyond the paper) — shard compaction after a
//! phased-hotspot burst.
//!
//! Demonstrates that maintenance does not ratchet the shard count. A
//! jump-motion shifting hotspot (the fig. 16 workload) hammers one
//! narrow band per phase while synchronous maintenance follows it, so
//! the live shard count moves with the band. The driver builds this
//! accreted topology twice from the seed — the two splitter sets must
//! be identical — and then, over a quiet period, starts the
//! background maintainer on one twin. Starting it runs one
//! [`maintain`](rma_shard::ShardedRma::maintain) on the caller's
//! thread — there is no idle gate — and the calibrator rule
//! ([`rma_shard::ShardedRma::plan_maintenance`]) merges, round after
//! round, the shards whose access mass fell under the leaf bound.
//!
//! Recorded per run:
//!
//! * the shard-count / splitter-array-bytes trajectory across the
//!   accretion phases;
//! * routed-op throughput (90% point gets, 10% scans of 128) over the
//!   bloated twin (*before*) and the compacted one (*after*), timed in
//!   `--reps` pairs that alternate which twin runs first, so neither
//!   side always runs on a colder or warmer host — the payoff of the
//!   smaller splitter array and the restored shard locality;
//! * how many merges starting the maintainer ran, and how many shards
//!   they merged away;
//! * an A/A row: the bloated twin's throughput paired against itself,
//!   the spread of a ratio that should read 1.0.
//!
//! Writes `BENCH_shard_compaction.json`; the schema is documented in
//! `crates/bench-harness/README.md`.

use std::sync::Arc;
use std::time::Instant;

use bench_harness::{
    fixed, fmt_throughput, hw_threads, json, median, paired, rows, throughput, time, Cli,
};
use rma_core::RmaConfig;
use rma_shard::{ShardConfig, ShardedRma};
use workloads::{HotspotConfig, HotspotMotion, ShiftingHotspot, SplitMix64};

const SHARDS: usize = 8;
const PHASES: u64 = 6;
const SCAN_LEN: usize = 128;

#[derive(Clone, Copy)]
struct TrajectoryRow {
    phase: u64,
    shards: usize,
    splitter_bytes: usize,
}

#[derive(Clone, Copy)]
struct Measurement {
    shards: usize,
    splitter_bytes: usize,
    ops_per_sec: f64,
}

fn shard_config(cli: &Cli) -> ShardConfig {
    ShardConfig {
        num_shards: SHARDS,
        rma: RmaConfig::with_segment_size(cli.seg),
        ..Default::default()
    }
}

/// 90% point gets / 10% short scans over the whole key domain —
/// every op pays the splitter-array route. Returns ops/s.
fn routed_throughput(index: &ShardedRma, ops: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let (_, secs) = time(|| {
        for i in 0..ops {
            let k = (rng.next_u64() >> 2) as i64;
            if i % 10 == 0 {
                let mut sink = 0i64;
                index.scan(k, SCAN_LEN, |_, v| sink ^= v);
                std::hint::black_box(sink);
            } else {
                std::hint::black_box(index.get(k));
            }
        }
    });
    throughput(ops, secs)
}

fn measure(index: &ShardedRma, ops_per_sec: f64) -> Measurement {
    let engine = index.stats_snapshot();
    Measurement {
        shards: engine.num_shards,
        splitter_bytes: engine.splitter_bytes,
        ops_per_sec,
    }
}

/// Pre-loads `cli.scale` uniform keys and runs the phased hotspot
/// with synchronous maintenance. Single-threaded and seeded: the same
/// `cli` builds the same topology.
fn accrete(cli: &Cli) -> (Arc<ShardedRma>, Vec<TrajectoryRow>) {
    // Splitters at the preload quantiles, so every shard starts with
    // an equal resident share, and each shard bulk-loaded.
    let index = Arc::new(ShardedRma::load_bulk(shard_config(cli), &cli.preload()));

    let phase_ops = cli.scale as u64;
    let mut ops = ShiftingHotspot::new(
        HotspotConfig {
            phase_len: phase_ops,
            motion: HotspotMotion::Jump,
            ..Default::default()
        },
        cli.seed,
    );
    let mut trajectory = Vec::new();
    let half = (phase_ops / 2).max(1);
    for phase in 0..PHASES {
        index.reset_access_stats();
        let mut run_half = |n: u64| {
            for i in 0..n {
                let (k, v) = ops.next_pair();
                if i % 2 == 0 {
                    index.insert(k, v);
                } else {
                    std::hint::black_box(index.get(k));
                }
            }
        };
        run_half(half);
        index.maintain();
        run_half(phase_ops - half);
        while ops.emitted() < (phase + 1) * phase_ops {
            ops.next_key();
        }
        let engine = index.stats_snapshot();
        trajectory.push(TrajectoryRow {
            phase,
            shards: engine.num_shards,
            splitter_bytes: engine.splitter_bytes,
        });
    }
    (index, trajectory)
}

fn main() {
    let cli = Cli::parse();
    println!(
        "# Fig. 22 — shard compaction after a phased hotspot: N={} preloaded, {} ops/phase, {PHASES} phases, {SHARDS} shards, B={}",
        cli.scale, cli.scale, cli.seg
    );

    // --- accretion, twice: phased hotspot, synchronous maintenance ---
    let (index, trajectory) = accrete(&cli);
    for r in &trajectory {
        println!(
            "# phase {}: {} shards, {} splitter bytes",
            r.phase, r.shards, r.splitter_bytes
        );
    }
    let (bloated, _) = accrete(&cli);
    assert_eq!(
        index.splitters(),
        bloated.splitters(),
        "the same seed must accrete the same topology"
    );
    // Each twin first serves one untimed pass of the routed stream:
    // the quiet period then plans over the masses that uniform load
    // leaves (the last hot band's has decayed away), and neither twin
    // is timed cold.
    let meas_ops = cli.scale.max(1024);
    let seed = cli.seed ^ 0xFEED;
    for twin in [&index, &bloated] {
        routed_throughput(twin, meas_ops, seed);
    }

    // --- quiet period: starting the maintainer walks one twin down in
    // one `maintain()` before it returns. No ops arrive, so no mark of
    // the op clock wakes the thread after its first plan.
    let merged_before = index.maintenance_stats().merges;
    let quiet_start = Instant::now();
    let maintainer = index.start_maintainer();
    let quiet_ms = quiet_start.elapsed().as_millis() as u64;
    let compact_merges = maintainer.startup.retired;
    maintainer.stop();
    let background_consolidations = index.maintenance_stats().merges - merged_before;
    index.check_invariants();
    println!(
        "# quiet period: {quiet_ms} ms, {background_consolidations} merges merged {compact_merges} shards away"
    );

    // --- routed throughput, bloated twin vs compacted twin, paired --
    // Each pair times both twins on the same op stream.
    let p = paired(
        cli.reps,
        || routed_throughput(&bloated, meas_ops, seed),
        || routed_throughput(&index, meas_ops, seed),
    );
    let before = measure(&bloated, median(p.a.clone()));
    let after = measure(&index, median(p.b.clone()));
    println!(
        "# before compaction: {} shards, {} routed ops/s",
        before.shards,
        fmt_throughput(meas_ops, meas_ops as f64 / before.ops_per_sec.max(1e-12))
    );
    println!(
        "# after compaction: {} shards, {} routed ops/s (median pair ratio {:.3}, iqr {:.3}, \
         faster in {} of {} pairs)",
        after.shards,
        fmt_throughput(meas_ops, meas_ops as f64 / after.ops_per_sec.max(1e-12)),
        p.median,
        p.iqr,
        p.wins,
        p.pairs()
    );

    // The A/A control: the bloated twin against itself, the spread
    // this host reads where nothing differs.
    let aa = paired(
        cli.reps,
        || routed_throughput(&bloated, meas_ops, seed),
        || routed_throughput(&bloated, meas_ops, seed),
    );
    println!(
        "# A/A, bloated twin against itself: median pair ratio {:.3}, iqr {:.3}, faster in {} of {} pairs",
        aa.median,
        aa.iqr,
        aa.wins,
        aa.pairs()
    );

    let twin = |m: Measurement| {
        json! { "shards": m.shards, "splitter_bytes": m.splitter_bytes, "ops_per_sec": fixed(m.ops_per_sec, 1) }
    };
    let trajectory = trajectory.iter().map(|r| {
        json! { "phase": r.phase, "shards": r.shards, "splitter_bytes": r.splitter_bytes }
    });
    json! {
        "bench": "shard_compaction", "scale": cli.scale, "phases": PHASES, "shards": SHARDS,
        "seed": cli.seed, "segment_size": cli.seg, "reps": cli.reps, "hw_threads": hw_threads(),
        "quiet_ms": quiet_ms,
        "trajectory": rows(trajectory),
        "before": twin(before), "after": twin(after),
        "background_consolidations": background_consolidations,
        "compact_merges": compact_merges,
        "pairs": p.pairs(), "throughput_ratio_after_vs_before": fixed(p.median, 4),
        "iqr": fixed(p.iqr, 4), "wins": p.wins,
        "shards_after_compaction": after.shards,
        "aa_ratio": fixed(aa.median, 4), "aa_iqr": fixed(aa.iqr, 4), "aa_wins": aa.wins,
    }
    .write("BENCH_shard_compaction.json");
}
