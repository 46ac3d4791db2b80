//! Figure 22 (beyond the paper) — idle-time shard compaction after a
//! phased-hotspot burst.
//!
//! Demonstrates the anti-ratchet half of the cost-based maintenance
//! scheduler. A jump-motion shifting hotspot (the fig. 16 workload)
//! hammers one narrow band per phase; access-driven maintenance
//! splits the hot shard every phase, so the live shard count ratchets
//! well past the configured target while the retired bands' shards
//! linger. The driver then goes quiet and starts the background
//! maintainer: its op-rate estimate drops below
//! [`MaintainerConfig::idle_ops_threshold`], the idle gate engages,
//! and the consolidation chain
//! ([`rma_shard::ShardedRma::plan_consolidation`]) merges the coldest
//! neighbour pairs until the count is back at
//! [`COMPACT_TARGET_FACTOR`]` x num_shards`.
//!
//! Recorded per run:
//!
//! * the shard-count / splitter-array-bytes trajectory across the
//!   accretion phases;
//! * routed-op throughput (90% point gets, 10% scans of 128) over the
//!   bloated topology *before* the quiet period and again *after*
//!   compaction — the payoff of the smaller splitter array and the
//!   restored shard locality;
//! * how many consolidation merges the background maintainer ran on
//!   its own before the deterministic
//!   [`compact`](rma_shard::ShardedRma::compact) backstop finished
//!   the job.
//!
//! Writes `BENCH_shard_compaction.json`; the schema is documented in
//! `crates/bench-harness/README.md`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::{fmt_throughput, median_of, throughput, time, Cli};
use rma_core::RmaConfig;
use rma_shard::maintainer::COMPACT_TARGET_FACTOR;
use rma_shard::{
    BalancePolicy, MaintainerConfig, RelearnStrategy, ShardConfig, ShardedRma, Splitters,
};
use workloads::{HotspotConfig, HotspotMotion, ShiftingHotspot, SplitMix64};

const SHARDS: usize = 8;
const PHASES: u64 = 6;
const SCAN_LEN: usize = 128;
/// How long the driver is willing to sit in the quiet period waiting
/// for the background maintainer before the synchronous backstop.
const QUIET_BUDGET: Duration = Duration::from_millis(1500);

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
        min_split_len: 256,
        relearn: true,
        balance: BalancePolicy::ByAccess,
        relearn_strategy: RelearnStrategy::Incremental,
        ..Default::default()
    }
}

/// Background maintainer tuned for the quiet period: fast poll, the
/// imbalance trigger parked out of reach (accretion already happened
/// synchronously), the idle gate armed.
fn maintainer_config() -> MaintainerConfig {
    MaintainerConfig {
        poll_interval: Duration::from_millis(2),
        imbalance_trigger: 1e9,
        idle_ops_threshold: 1000.0,
        ..Default::default()
    }
}

/// 90% point gets / 10% short scans over the whole key domain —
/// every op pays the splitter-array route. Returns ops/s.
fn routed_throughput(index: &ShardedRma, ops: usize, reps: usize, seed: u64) -> f64 {
    median_of(reps, || {
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
    })
}

fn measure(index: &ShardedRma, ops: usize, reps: usize, seed: u64) -> Measurement {
    let engine = index.stats_snapshot();
    Measurement {
        shards: engine.num_shards,
        splitter_bytes: engine.splitter_bytes,
        ops_per_sec: routed_throughput(index, ops, reps, seed),
    }
}

/// What the quiet period accomplished, for the JSON report.
struct QuietOutcome {
    background_consolidations: u64,
    compact_merges: usize,
    quiet_ms: u64,
}

fn write_json(
    path: &str,
    cli: &Cli,
    trajectory: &[TrajectoryRow],
    before: Measurement,
    after: Measurement,
    quiet: &QuietOutcome,
) -> std::io::Result<()> {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"shard_compaction\",\n");
    json.push_str(&format!(
        "  \"scale\": {},\n  \"phases\": {PHASES},\n  \"shards\": {SHARDS},\n",
        cli.scale
    ));
    json.push_str(&format!(
        "  \"seed\": {},\n  \"segment_size\": {},\n  \"reps\": {},\n  \"hw_threads\": {},\n",
        cli.seed,
        cli.seg,
        cli.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(&format!(
        "  \"compact_target_factor\": {COMPACT_TARGET_FACTOR},\n  \"quiet_ms\": {},\n",
        quiet.quiet_ms
    ));
    json.push_str("  \"trajectory\": [\n");
    for (i, r) in trajectory.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"phase\": {}, \"shards\": {}, \"splitter_bytes\": {}}}{}\n",
            r.phase,
            r.shards,
            r.splitter_bytes,
            if i + 1 < trajectory.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let emit = |label: &str, m: Measurement| {
        format!(
            "  \"{label}\": {{\"shards\": {}, \"splitter_bytes\": {}, \"ops_per_sec\": {:.1}}},\n",
            m.shards, m.splitter_bytes, m.ops_per_sec
        )
    };
    json.push_str(&emit("before", before));
    json.push_str(&emit("after", after));
    json.push_str(&format!(
        "  \"background_consolidations\": {},\n",
        quiet.background_consolidations
    ));
    json.push_str(&format!(
        "  \"compact_merges\": {},\n",
        quiet.compact_merges
    ));
    json.push_str(&format!(
        "  \"throughput_ratio_after_vs_before\": {:.4},\n",
        after.ops_per_sec / before.ops_per_sec.max(1e-12)
    ));
    json.push_str(&format!(
        "  \"shards_after_compaction\": {}\n}}\n",
        after.shards
    ));
    std::fs::write(path, json)
}

fn main() {
    let cli = Cli::parse();
    println!(
        "# Fig. 22 — idle-time shard compaction: N={} preloaded, {} ops/phase, {PHASES} phases, {SHARDS} shards, B={}",
        cli.scale, cli.scale, cli.seg
    );

    // Pre-load with uniform keys, splitters at the preload quantiles
    // so every shard starts with an equal resident share.
    let mut base: Vec<(i64, i64)> = {
        let mut rng = SplitMix64::new(cli.seed ^ 0xB00B_5EED);
        (0..cli.scale)
            .map(|i| ((rng.next_u64() >> 2) as i64, i as i64))
            .collect()
    };
    base.sort_unstable();
    let quantiles: Vec<i64> = (1..SHARDS)
        .map(|i| base[i * base.len() / SHARDS].0)
        .collect();
    let index = Arc::new(ShardedRma::with_splitters(
        shard_config(&cli),
        Splitters::new(quantiles),
    ));
    index.apply_batch(&base, &[]);

    // --- accretion: phased hotspot, synchronous maintenance ---------
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
        println!(
            "# phase {phase}: {} shards, {} splitter bytes",
            engine.num_shards, engine.splitter_bytes
        );
    }

    // --- before: routed throughput over the bloated topology --------
    let meas_ops = cli.scale.max(1024);
    let before = measure(&index, meas_ops, cli.reps, cli.seed ^ 0xFEED);
    println!(
        "# before compaction: {} shards, {} routed ops/s",
        before.shards,
        fmt_throughput(meas_ops, meas_ops as f64 / before.ops_per_sec.max(1e-12))
    );

    // --- quiet period: the idle gate does the work ------------------
    let maintainer = index.start_maintainer(maintainer_config());
    // The target the committed gate asserts.
    let target = (COMPACT_TARGET_FACTOR * SHARDS as f64).ceil() as usize;
    let quiet_start = Instant::now();
    while index.num_shards() > target && quiet_start.elapsed() < QUIET_BUDGET {
        std::thread::sleep(Duration::from_millis(5));
    }
    let quiet_ms = quiet_start.elapsed().as_millis() as u64;
    let stats = maintainer.stop();
    let background_consolidations = stats.consolidations();
    // Deterministic backstop: whatever the background maintainer left
    // behind (a slow box, an unlucky poll cadence) is finished
    // synchronously so the committed gate does not race a thread.
    let compact_merges = index.compact();
    index.check_invariants();
    println!(
        "# quiet period: {quiet_ms} ms, {background_consolidations} background consolidation merges, {compact_merges} backstop merges"
    );

    // --- after: routed throughput over the compacted topology -------
    let after = measure(&index, meas_ops, cli.reps, cli.seed ^ 0xFEED);
    println!(
        "# after compaction: {} shards, {} routed ops/s (ratio {:.3})",
        after.shards,
        fmt_throughput(meas_ops, meas_ops as f64 / after.ops_per_sec.max(1e-12)),
        after.ops_per_sec / before.ops_per_sec.max(1e-12)
    );

    let path = "BENCH_shard_compaction.json";
    let quiet = QuietOutcome {
        background_consolidations,
        compact_merges,
        quiet_ms,
    };
    match write_json(path, &cli, &trajectory, before, after, &quiet) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
