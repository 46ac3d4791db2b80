//! From what a run observed to the published metrics: the end-to-end
//! numbers of a front-door phase, and the per-layer numbers of the
//! traced run (the ladder's rung differences, the spans, and the
//! public snapshots `NetServer::stats`, `Db::metrics` and `Rma::stats`).

use crate::check::expected_reply;
use crate::frontdoor::{Pass, Phase};
use crate::gen::{Base, Stream};
use crate::host::now_ns;
use crate::ladder::{Ladder, Pair, Rung};
use crate::report::{median, quantile, Metrics};
use crate::spec::{Kind, Workload};
use rma_net::wire::{self, Frame};
use std::hint::black_box;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The three estimators of throughput the README's calibration
/// compares: pooled over the phase, and the median and the best of the
/// equal-op segments (each connection's own, summed over connections).
pub struct Throughput {
    pub pooled: f64,
    pub median_seg: f64,
    pub best_seg: f64,
}

pub fn throughput(phase: &Phase) -> Throughput {
    let per_conn = |f: &dyn Fn(&[f64]) -> f64| phase.seg_rates.iter().map(|r| f(r)).sum();
    Throughput {
        pooled: phase.ops as f64 / (phase.wall_ns.max(1) as f64 / 1e9),
        median_seg: per_conn(&median),
        best_seg: per_conn(&|r| r.iter().copied().fold(0.0, f64::max)),
    }
}

/// What a client of the front door sees, from one measured phase.
pub fn front_door(w: &Workload, phase: &Phase, m: &mut Metrics) {
    let ops = phase.ops as f64;
    // The steadiest of the three estimators on the reference host.
    m.put("ops_per_s", throughput(phase).best_seg);
    m.put("lat_p50_us", us(quantile(&phase.lat_sorted_ns, 0.50)));
    m.put("lat_p99_us", us(quantile(&phase.lat_sorted_ns, 0.99)));
    m.put("user_cpu_ns_per_op", phase.cpu.user_ns as f64 / ops);
    m.put("mem_bytes_per_elem", median(&phase.seg_mem));
    m.put(
        "failed_frac",
        phase.tally.failed as f64 / phase.tally.attempted.max(1) as f64,
    );
    if let (Kind::IngestDurable, Some(r)) = (w.kind, &phase.recover) {
        m.put("recover_s", (r.end_ns - r.start_ns) as f64 / 1e9);
    }
}

/// Wall and process-CPU nanoseconds per op the upper rung of a pair
/// adds to the lower.
fn added(m: &mut Metrics, wall: &'static str, cpu: &'static str, pair: &Pair) {
    let (upper, lower) = (&pair.upper, &pair.lower);
    m.put(wall, upper.wall_ns_per_op() - lower.wall_ns_per_op());
    m.put(cpu, upper.cpu_ns_per_op() - lower.cpu_ns_per_op());
}

/// Nanoseconds per op the wire codec spends on this workload's own
/// frames (request and response, both directions), and the CRC's
/// nanoseconds per KiB; timed offline, single-threaded.
fn codec_cost(stream: &Stream, base: &Base) -> (f64, f64) {
    let frames = stream.frames().min((1 << 16) / stream.per_frame).max(1);
    let (mut buf, mut ns, mut ops) = (Vec::new(), 0u64, 0u64);
    for f in 0..frames {
        let (frame_ops, expect) = stream.frame(f);
        let items: Vec<_> = frame_ops
            .iter()
            .zip(expect)
            .enumerate()
            .map(|(i, (op, ex))| (i as u16, expected_reply(op, *ex, base)))
            .collect();
        let t0 = now_ns();
        for request in [true, false] {
            buf.clear();
            match request {
                true => wire::encode_request(&mut buf, f as u32, frame_ops),
                false => wire::encode_response(&mut buf, f as u32, true, &items),
            }
            let Ok(Frame::Payload { payload, .. }) = wire::split_frame(&buf) else {
                panic!("a frame this codec encoded does not split");
            };
            match request {
                true => drop(black_box(wire::decode_request(payload))),
                false => drop(black_box(wire::decode_response(payload))),
            }
        }
        ns += now_ns() - t0;
        ops += frame_ops.len() as u64;
    }
    let block = vec![0xA5u8; 64 << 10];
    let t0 = now_ns();
    let rounds = 64;
    for _ in 0..rounds {
        black_box(wire::crc32(black_box(&block)));
    }
    let crc_ns_per_kib = (now_ns() - t0) as f64 / (rounds * 64) as f64;
    (ns as f64 / ops as f64, crc_ns_per_kib)
}

/// Every per-layer metric of the traced run: `pass` is its front-door
/// phase (full client count, untraced), `ladder` its single-client
/// rungs.
pub fn per_layer(w: &Workload, pass: &Pass, phase: &Phase, ladder: &Ladder, m: &mut Metrics) {
    let (stream, base) = (&ladder.inputs.streams[0], &ladder.inputs.base);
    let pair =
        |lower: &str, upper: &str| ladder.pair(lower, upper).expect("the ladder has this pair");
    let core = &pair("core", "shard").lower;
    let net = &pair("net-untraced", "net").upper;
    let ops = phase.ops as f64;
    let wall_ns = phase.wall_ns.max(1) as f64;
    let snap = &phase.metrics;

    // rma-net
    let below_net = if w.durable { "wal" } else { "db" };
    added(
        m,
        "net.added_ns_per_op",
        "net.added_cpu_ns_per_op",
        pair(below_net, "net"),
    );
    m.put("net.sys_cpu_ns_per_op", phase.cpu.sys_ns as f64 / ops);
    let (codec, crc) = codec_cost(stream, base);
    m.put("net.codec_ns_per_op", codec);
    m.put("net.crc_ns_per_kib", crc);
    let n = &phase.net;
    m.put("net.frames_in", n.frames_in as f64);
    m.put("net.frames_out", n.frames_out as f64);
    m.put(
        "net.bytes_per_op",
        (n.bytes_in + n.bytes_out) as f64 / phase.ops_with_warmup as f64,
    );
    m.put("net.merged_submits", n.merged_submits as f64);
    m.put(
        "net.merge_ratio",
        n.merged_requests as f64 / n.frames_in.max(1) as f64,
    );
    m.put("net.backpressure_pauses", n.backpressure_pauses as f64);
    m.put("net.scan_chunks", n.scan_chunks as f64);
    m.put("net.peak_conn_write_buf", n.peak_conn_write_buf as f64);
    m.put("net.frame_service_p50_us", us(n.frame_service_ns.p50()));
    m.put("net.frame_service_p99_us", us(n.frame_service_ns.p99()));
    let mut lat = net.lat_ns.clone();
    lat.sort_unstable();
    let served = net.net.as_ref().expect("the net rung has a server");
    m.put(
        "net.client_minus_server_p50_us",
        us(quantile(&lat, 0.5)) - us(served.frame_service_ns.p50()),
    );
    m.put(
        "net.send_self_p50_us",
        us(quantile(&net.rec.durations("WireClient::send"), 0.5)),
    );
    m.put(
        "net.recv_wait_p50_us",
        us(quantile(&net.rec.durations("WireClient::recv"), 0.5)),
    );

    // rma-db
    added(
        m,
        "db.added_ns_per_op",
        "db.added_cpu_ns_per_op",
        pair("shard", "db"),
    );
    m.put(
        "db.batches_submitted",
        snap.db.router.batches_submitted as f64,
    );
    m.put("db.ops_executed", snap.db.router.ops_executed as f64);
    m.put("db.batch_size_p50", snap.batch_size.p50() as f64);
    m.put("db.queue_depth_p99", snap.queue_depth.p99() as f64);
    m.put("db.ticket_wait_p50_us", us(snap.ticket_wait.p50()));
    m.put("db.ticket_wait_p99_us", us(snap.ticket_wait.p99()));
    for (name, kind, q) in [
        ("db.svc_get_p50_ns", 0, 0.5),
        ("db.svc_insert_p50_ns", 1, 0.5),
        ("db.svc_insert_p99_ns", 1, 0.99),
        ("db.svc_remove_p50_ns", 2, 0.5),
        ("db.svc_sum_p50_ns", 3, 0.5),
        ("db.svc_scan_p50_ns", 5, 0.5),
    ] {
        let h = &snap.op_latency[kind];
        if h.count() > 0 {
            m.put(name, h.quantile(q) as f64);
        }
    }

    // rma-wal: absent, not zero, on the workloads that do not log.
    if let (Some(wal), Some(recover)) = (&snap.wal, &phase.recover) {
        added(
            m,
            "wal.added_ns_per_op",
            "wal.added_cpu_ns_per_op",
            pair("db", "wal"),
        );
        m.put("wal.commits", wal.commit.count() as f64);
        m.put("wal.fsyncs", wal.fsync.count() as f64);
        m.put(
            "wal.ops_per_fsync",
            phase.tally.inserted as f64 / wal.fsync.count().max(1) as f64,
        );
        m.put("wal.commit_p50_us", us(wal.commit.p50()));
        m.put("wal.commit_p99_us", us(wal.commit.p99()));
        m.put("wal.fsync_p50_us", us(wal.fsync.p50()));
        m.put("wal.fsync_p99_us", us(wal.fsync.p99()));
        m.put("wal.fsync_busy_frac", wal.fsync.sum() as f64 / wall_ns);
        m.put(
            "wal.bytes_per_op",
            phase.wal_bytes as f64 / (phase.ops - phase.read_ops).max(1) as f64,
        );
        m.put(
            "wal.checkpoints",
            snap.db.maintainer.map_or(0, |s| s.checkpoints) as f64,
        );
        m.put("wal.replay_p50_us", us(recover.replay.p50()));
        m.put("wal.recovered_elems", recover.elems as f64);
    }

    // rma-shard
    added(
        m,
        "shard.added_ns_per_op",
        "shard.added_cpu_ns_per_op",
        pair("core", "shard"),
    );
    let (e0, e1) = (&phase.engine_before, &snap.db.engine);
    m.put("shard.num_shards_end", e1.num_shards as f64);
    m.put("shard.access_imbalance_end", e1.access_imbalance);
    let read_locks = (e1.read_locks - e0.read_locks) as f64;
    m.put("shard.read_locks", read_locks);
    m.put(
        "shard.write_locks",
        (e1.write_locks - e0.write_locks) as f64,
    );
    m.put(
        "shard.seqlock_retries",
        (e1.seqlock_retries - e0.seqlock_retries) as f64,
    );
    if phase.read_ops > 0 {
        m.put(
            "shard.optimistic_hit_frac",
            (1.0 - read_locks / phase.read_ops as f64).clamp(0.0, 1.0),
        );
    }
    let maint = &e1.maintenance;
    m.put("shard.maint_steps_executed", maint.steps_executed as f64);
    m.put("shard.maint_steps_dropped", maint.steps_dropped as f64);
    m.put("shard.keys_migrated", maint.keys_migrated as f64);
    m.put("shard.max_step_ms", maint.max_step_wall_ns as f64 / 1e6);
    m.put(
        "shard.maint_busy_frac",
        snap.step_duration.sum() as f64 / wall_ns,
    );
    m.put("shard.write_reroutes", maint.write_reroutes as f64);
    m.put("shard.splitter_bytes", e1.splitter_bytes as f64);

    // rma-core and rewiring
    m.put("core.ns_per_op", core.wall_ns_per_op());
    m.put("core.cpu_ns_per_op", core.cpu_ns_per_op());
    for (name, kind) in [
        ("core.get_ns", 0),
        ("core.insert_ns", 1),
        ("core.remove_ns", 2),
    ] {
        if let Some(ns) = core.kind_ns(kind) {
            m.put(name, ns);
        }
    }
    let per_elem = |r: &Rung, kinds: &[usize]| {
        let (ns, elems) = kinds.iter().fold((0, 0), |(ns, el), &k| {
            (ns + r.kinds[k].ns, el + r.kinds[k].elems)
        });
        (elems > 0).then(|| ns as f64 / elems as f64)
    };
    if let Some(ns) = per_elem(core, &[3, 5]) {
        m.put("core.scan_ns_per_elem", ns);
    }
    let c = core.core.expect("the core rung counts");
    let inserts = core.kinds[1].calls > 0;
    m.put("core.rebalances", c.stats.rebalances as f64);
    m.put(
        "core.adaptive_rebalances",
        c.stats.adaptive_rebalances as f64,
    );
    m.put("core.grows", c.stats.grows as f64);
    m.put("core.shrinks", c.stats.shrinks as f64);
    if inserts {
        let inserted = stream.ops[stream.warm_frames * stream.per_frame..]
            .iter()
            .filter(|op| matches!(op, rma_db::Op::Insert(..)))
            .count();
        m.put(
            "core.elements_moved_per_insert",
            c.stats.elements_moved as f64 / inserted.max(1) as f64,
        );
    }
    m.put("core.rewired_commits", c.stats.rewired_commits as f64);
    m.put("core.copied_commits", c.stats.copied_commits as f64);
    m.put("core.num_segments", c.num_segments as f64);
    m.put("core.density_end", c.len as f64 / c.capacity.max(1) as f64);
    m.put(
        "core.bytes_per_elem",
        c.memory_footprint as f64 / c.len.max(1) as f64,
    );
    m.put("rewiring.backend_is_memfd", f64::from(u8::from(c.memfd)));
    if inserts {
        let commits = c.stats.rewired_commits + c.stats.copied_commits;
        m.put(
            "rewiring.rewired_frac",
            c.stats.rewired_commits as f64 / commits.max(1) as f64,
        );
    }
    // Side rungs: each ratio is taken within its own pair.
    let insert_ratio = |other: &str| {
        let p = ladder.pair("core", other)?;
        Some(p.upper.kind_ns(1)? / p.lower.kind_ns(1)?)
    };
    if let Some(x) = insert_ratio("tpma") {
        m.put("core.insert_x_vs_tpma", x);
    }
    if let Some(x) = insert_ratio("core-copy") {
        m.put("rewiring.insert_x_rewired_vs_copy", x);
    }
    if let Some(p) = ladder.pair("dense", "core") {
        if let (Some(d), Some(r)) = (per_elem(&p.lower, &[3]), per_elem(&p.upper, &[3])) {
            m.put("core.scan_x_vs_dense", d / r);
        }
    }

    // rma-obs
    if let Some(p) = ladder.pair("db-noobs", "db") {
        added(m, "obs.added_ns_per_op", "obs.added_cpu_ns_per_op", p);
    }
    m.put("obs.journal_events", phase.journal_events as f64);

    // the harness itself
    let lat = &phase.lat_sorted_ns;
    if lat.len() > 10 {
        m.put("lat_tail_us", us(lat[lat.len() - 11]));
        m.put(
            "lat_tail_pct",
            100.0 * (lat.len() - 10) as f64 / lat.len() as f64,
        );
    }
    m.put("lat_samples", lat.len() as f64);
    let untraced = pair("net-untraced", "net").lower.cpu_ns_per_op();
    m.put(
        "trace.overhead_frac",
        (net.cpu_ns_per_op() - untraced) / untraced,
    );
    // 53 bits, so that the JSON number is exact.
    m.put("gen.stream_hash", (ladder.inputs.stream_hash >> 11) as f64);
    m.put("gen.pregen_s", pass.pregen_s);
}
