//! The benchmark's fixed contract: the four workloads with their
//! frozen sizes, and the metric names, units, directions and bounds
//! that `BENCHMARK.json` publishes. `BENCHMARK.json` is generated from
//! this file ([`benchmark_json`]) and the schema test compares the two,
//! so a name exists in exactly one place.

use std::fmt::Write as _;

/// Logical connections every stream is generated for. The load
/// generator drives `min(LOGICAL_CONNS, nproc)` of them, so a stream
/// (and every count derived from it) does not depend on the host.
pub const LOGICAL_CONNS: usize = 2;
/// Shards of every `Db` (the builder default, stated).
pub const SHARDS: usize = 8;
/// Untimed warm-up: this share of the measured ops is replayed first.
pub const WARMUP_DIV: usize = 20;
/// Equal-op segments the measured phase is cut into per connection.
pub const SEGMENTS: usize = 10;
/// The traced run's front-door phase is this share of a full one.
pub const TRACED_FRONT_DIV: usize = 4;
/// Paired ABBA segments of the ladder.
pub const LADDER_SEGMENTS: usize = 8;
/// A common multiple of both segment counts.
pub const FRAME_MULTIPLE: usize = 40;
/// Times the set-up is repeated in an untraced run; the median is
/// reported.
pub const SETUP_REPS: usize = 7;
/// Direct calls at the `core` and `shard` rungs are timed 1-in-this.
pub const SPAN_SAMPLE: usize = 16;
/// Spans written per rung to the trace file (all are kept in memory
/// and summarised; the file is capped so it stays readable).
pub const SPANS_WRITTEN_PER_RUNG: usize = 4096;
/// Acknowledged inserts read back after `ingest-durable`'s reopen.
pub const REOPEN_SAMPLE: usize = 4096;
/// Seconds the frozen op counts below are sized for.
pub const NOMINAL_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointSmall,
    IngestDurable,
    ScanStream,
    MixedHotspot,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// log2 of the preloaded key count.
    pub preload_log2: u32,
    pub ops_per_frame: usize,
    /// Frames each connection keeps in flight.
    pub depth: usize,
    /// Ops each connection sends in a measured phase of
    /// [`NOMINAL_SECONDS`]: calibrated once on the reference host
    /// (see the README), then frozen.
    pub ops_per_conn: usize,
    /// The ladder replays a stream of `1/ladder_div` of that length:
    /// short where a single client's round trips are slow, long where
    /// the store has to grow before `rma-core` rebalances at all.
    pub ladder_div: usize,
    /// `DurabilityConfig::new(dir)`: `CommitPolicy::Always`, 4 partitions.
    pub durable: bool,
    /// Background maintainer with `MaintainerConfig::default()`.
    pub maintainer: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::PointSmall,
        name: "point-small",
        why: "4-op frames at depth 8 over 2^22 keys: per-frame cost of rma-net (syscalls, framing, CRC, merge, backpressure) and rma-db (ticket, channel hop) rules; rma-core does 4 lookups a frame",
        preload_log2: 22,
        ops_per_frame: 4,
        depth: 8,
        ops_per_conn: 1_000_000,
        ladder_div: 8,
        durable: false,
        maintainer: false,
    },
    Workload {
        kind: Kind::IngestDurable,
        name: "ingest-durable",
        why: "256-insert frames acked only when durable: rma-wal group commit and fsync and the rma-core write path (rebalances, grows, rewired commits) do the work; the wire is amortised over 256 ops",
        preload_log2: 20,
        ops_per_frame: 256,
        depth: 4,
        ops_per_conn: 1_200_000,
        ladder_div: 2,
        durable: true,
        maintainer: false,
    },
    Workload {
        kind: Kind::ScanStream,
        name: "scan-stream",
        why: "16384-element sums and 4096-entry scans: rma-core and rma-shard as readers at dense-array speed, rma-net per byte (64 KiB chunked replies, write-buffer backpressure) instead of per frame",
        preload_log2: 22,
        ops_per_frame: 2,
        depth: 4,
        ops_per_conn: 16_000,
        ladder_div: 8,
        durable: false,
        maintainer: false,
    },
    Workload {
        kind: Kind::MixedHotspot,
        name: "mixed-hotspot",
        why: "1024-op frames, 90% of ops in a jumping 1/64 band that fits in cache, maintainer on: rma-shard routing, optimistic reads beside writers and re-learning work; a per-frame wire win must not move it",
        preload_log2: 22,
        ops_per_frame: 1024,
        depth: 4,
        ops_per_conn: 3_000_000,
        ladder_div: 16,
        durable: false,
        maintainer: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How far a run is scaled away from the frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured seconds the run is sized for (`--seconds`).
    pub seconds: u32,
    /// Divides op counts and preload alike (`--smoke` is 64).
    pub div: usize,
}

impl Scale {
    pub fn preload(&self, w: &Workload) -> usize {
        ((1usize << w.preload_log2) / self.div).max(1 << 12)
    }

    /// Measured frames per connection for `1/share_div` of the frozen
    /// op count, rounded up so that both the front door's segments and
    /// the ladder's hold equal ops.
    pub fn frames_per_conn(&self, w: &Workload, share_div: usize) -> usize {
        let ops = w.ops_per_conn as u128 * self.seconds as u128
            / NOMINAL_SECONDS as u128
            / self.div as u128
            / share_div as u128;
        let frames = (ops as usize / w.ops_per_frame).max(1);
        frames.div_ceil(FRAME_MULTIPLE) * FRAME_MULTIPLE
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Workloads a metric is reported on, as a bit per [`Kind`].
pub const POINT: u8 = 1;
pub const INGEST: u8 = 2;
pub const SCAN: u8 = 4;
pub const MIXED: u8 = 8;
pub const ALL: u8 = POINT | INGEST | SCAN | MIXED;

pub fn kind_bit(kind: Kind) -> u8 {
    match kind {
        Kind::PointSmall => POINT,
        Kind::IngestDurable => INGEST,
        Kind::ScanStream => SCAN,
        Kind::MixedHotspot => MIXED,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (0) for per-layer metrics.
    pub bound: f64,
    /// Workloads it applies to; elsewhere it is absent from the
    /// result (and reads 0 in the driver's JSON line, which wants
    /// every name on every run).
    pub on: u8,
    /// Counted on a single-threaded rung over a fixed stream: repeats
    /// exactly for a seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        on: ALL,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, on: u8) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        on,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, on: u8) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        on,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Gated metrics, measured at the `WireClient` with tracing off.
/// Bounds come from the calibration table in the README.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("user_cpu_ns_per_op", "ns", Lower, 0.25),
    e2e("mem_bytes_per_elem", "B", Lower, 0.15),
];

const WRITES: u8 = POINT | INGEST | MIXED;
const READS: u8 = POINT | MIXED;
const RANGES: u8 = SCAN | MIXED;

/// Ungated metrics of single layers (prefix = crate), reported by the
/// traced run. The end-to-end candidates that did not repeat within a
/// tenth on this host sit at the end under their own names.
pub const PER_LAYER: &[Metric] = &[
    // rma-net
    layer("net.added_ns_per_op", "ns", Lower, ALL),
    layer("net.added_cpu_ns_per_op", "ns", Lower, ALL),
    layer("net.sys_cpu_ns_per_op", "ns", Lower, ALL),
    layer("net.codec_ns_per_op", "ns", Lower, ALL),
    layer("net.crc_ns_per_kib", "ns", Lower, ALL),
    layer("net.frames_in", "count", Lower, ALL),
    layer("net.frames_out", "count", Lower, ALL),
    layer("net.bytes_per_op", "B", Lower, ALL),
    layer("net.merged_submits", "count", Higher, ALL),
    layer("net.merge_ratio", "ratio", Higher, ALL),
    layer("net.backpressure_pauses", "count", Lower, ALL),
    layer("net.scan_chunks", "count", Lower, ALL),
    layer("net.peak_conn_write_buf", "B", Lower, ALL),
    layer("net.frame_service_p50_us", "us", Lower, ALL),
    layer("net.frame_service_p99_us", "us", Lower, ALL),
    layer("net.client_minus_server_p50_us", "us", Lower, ALL),
    layer("net.send_self_p50_us", "us", Lower, ALL),
    layer("net.recv_wait_p50_us", "us", Lower, ALL),
    // rma-db
    layer("db.added_ns_per_op", "ns", Lower, ALL),
    layer("db.added_cpu_ns_per_op", "ns", Lower, ALL),
    layer("db.batches_submitted", "count", Lower, ALL),
    layer("db.ops_executed", "count", Higher, ALL),
    layer("db.batch_size_p50", "count", Higher, ALL),
    layer("db.queue_depth_p99", "count", Lower, ALL),
    layer("db.ticket_wait_p50_us", "us", Lower, ALL),
    layer("db.ticket_wait_p99_us", "us", Lower, ALL),
    layer("db.svc_get_p50_ns", "ns", Lower, READS),
    layer("db.svc_insert_p50_ns", "ns", Lower, WRITES),
    layer("db.svc_insert_p99_ns", "ns", Lower, WRITES),
    layer("db.svc_remove_p50_ns", "ns", Lower, MIXED),
    layer("db.svc_sum_p50_ns", "ns", Lower, RANGES),
    layer("db.svc_scan_p50_ns", "ns", Lower, SCAN),
    // rma-wal
    layer("wal.added_ns_per_op", "ns", Lower, INGEST),
    layer("wal.added_cpu_ns_per_op", "ns", Lower, INGEST),
    layer("wal.commits", "count", Lower, INGEST),
    layer("wal.fsyncs", "count", Lower, INGEST),
    layer("wal.ops_per_fsync", "count", Higher, INGEST),
    layer("wal.commit_p50_us", "us", Lower, INGEST),
    layer("wal.commit_p99_us", "us", Lower, INGEST),
    layer("wal.fsync_p50_us", "us", Lower, INGEST),
    layer("wal.fsync_p99_us", "us", Lower, INGEST),
    layer("wal.fsync_busy_frac", "ratio", Lower, INGEST),
    layer("wal.bytes_per_op", "B", Lower, INGEST),
    layer("wal.checkpoints", "count", Higher, INGEST),
    layer("wal.replay_p50_us", "us", Lower, INGEST),
    layer("wal.recovered_elems", "count", Higher, INGEST),
    // rma-shard
    layer("shard.added_ns_per_op", "ns", Lower, ALL),
    layer("shard.added_cpu_ns_per_op", "ns", Lower, ALL),
    layer("shard.num_shards_end", "count", Lower, ALL),
    layer("shard.access_imbalance_end", "ratio", Lower, ALL),
    layer("shard.read_locks", "count", Lower, ALL),
    layer("shard.write_locks", "count", Lower, ALL),
    layer("shard.seqlock_retries", "count", Lower, ALL),
    layer("shard.optimistic_hit_frac", "ratio", Higher, READS | SCAN),
    layer("shard.maint_steps_executed", "count", Lower, ALL),
    layer("shard.maint_steps_dropped", "count", Lower, ALL),
    layer("shard.keys_migrated", "count", Lower, ALL),
    layer("shard.max_step_ms", "ms", Lower, ALL),
    layer("shard.maint_busy_frac", "ratio", Lower, ALL),
    layer("shard.write_reroutes", "count", Lower, ALL),
    layer("shard.splitter_bytes", "B", Lower, ALL),
    // rma-core
    layer("core.ns_per_op", "ns", Lower, ALL),
    layer("core.cpu_ns_per_op", "ns", Lower, ALL),
    layer("core.insert_ns", "ns", Lower, WRITES),
    layer("core.get_ns", "ns", Lower, READS),
    layer("core.remove_ns", "ns", Lower, MIXED),
    layer("core.scan_ns_per_elem", "ns", Lower, RANGES),
    exact("core.rebalances", "count", Lower, ALL),
    exact("core.adaptive_rebalances", "count", Lower, ALL),
    exact("core.grows", "count", Lower, ALL),
    exact("core.shrinks", "count", Lower, ALL),
    exact("core.elements_moved_per_insert", "count", Lower, WRITES),
    exact("core.rewired_commits", "count", Higher, ALL),
    exact("core.copied_commits", "count", Lower, ALL),
    exact("core.num_segments", "count", Lower, ALL),
    exact("core.density_end", "ratio", Higher, ALL),
    exact("core.bytes_per_elem", "B", Lower, ALL),
    layer("core.insert_x_vs_tpma", "ratio", Higher, INGEST),
    layer("core.scan_x_vs_dense", "ratio", Higher, SCAN),
    // rewiring
    layer("rewiring.backend_is_memfd", "count", Higher, ALL),
    exact("rewiring.rewired_frac", "ratio", Higher, WRITES),
    layer("rewiring.insert_x_rewired_vs_copy", "ratio", Higher, INGEST),
    // rma-obs
    layer("obs.added_ns_per_op", "ns", Lower, MIXED),
    layer("obs.added_cpu_ns_per_op", "ns", Lower, MIXED),
    layer("obs.journal_events", "count", Lower, ALL),
    // harness
    layer("lat_tail_us", "us", Lower, ALL),
    layer("lat_tail_pct", "%", Higher, ALL),
    layer("lat_samples", "count", Higher, ALL),
    layer("trace.overhead_frac", "ratio", Lower, ALL),
    exact("gen.stream_hash", "count", Higher, ALL),
    layer("gen.pregen_s", "s", Lower, ALL),
    // end-to-end candidates that are reported but not gated
    layer("ops_per_s", "ops/s", Higher, ALL),
    layer("lat_p50_us", "us", Lower, ALL),
    layer("lat_p99_us", "us", Lower, ALL),
    layer("failed_frac", "ratio", Lower, ALL),
    layer("recover_s", "s", Lower, INGEST),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |b: Better| match b {
        Lower => "lower",
        Higher => "higher",
    };
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    s.push_str("  \"paths\": [\"bench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {NOMINAL_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}
