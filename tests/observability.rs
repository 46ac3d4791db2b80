//! End-to-end observability tests: the `Db::metrics()` snapshot and
//! its Prometheus-style text exposition against forced maintenance.
//!
//! The structural scenarios drive maintenance *synchronously* through
//! `Db::engine()` (no background thread), so every assertion on the
//! journal is deterministic: a shard pushed past the `max_shard_len`
//! backstop must split, cold interior shards must merge, and the
//! journal must record the whole cycle in order with timing attached.

use rma_repro::db::{Db, DbBuilder, ObsConfig, Op, Reply};
use rma_repro::obs::{Event, EventKind};
use rma_repro::rma::{RewiringMode, RmaConfig};
use rma_repro::shard::ShardConfig;

fn small() -> DbBuilder {
    Db::builder()
        .shard_config(ShardConfig {
            num_shards: 4,
            rma: RmaConfig {
                segment_size: 8,
                rewiring: RewiringMode::Disabled,
                reserve_bytes: 1 << 24,
                ..Default::default()
            },
            min_split_len: 64,
            ..Default::default()
        })
        .router_workers(2)
}

/// 16 explicit shards, one of them overstuffed past the length
/// backstop, fourteen of them cold: one synchronous rebalance pass
/// must split the hot shard and merge the cold ones, and the journal
/// must capture the full cycle — splits before merges (the planner
/// emits them in that order), a topology publication per executed
/// step, timestamps monotone, migration counts attached.
#[test]
fn journal_captures_forced_split_merge_cycle() {
    let splitters: Vec<i64> = (1..16).map(|i| i * 100).collect();
    let db = small()
        .splitter_keys(splitters)
        .max_shard_len(256)
        .build()
        .expect("valid");
    for k in -2000..100i64 {
        db.insert(k, k); // shard 0: 2100 elems, far past the backstop
    }
    for k in 1500..1600i64 {
        db.insert(k, k); // last shard: modest load
    }
    let report = db.engine().rebalance_shards();
    assert!(report.splits >= 1, "backstop must force splits: {report:?}");
    assert!(report.merges >= 1, "cold shards must merge: {report:?}");

    let metrics = db.metrics();
    let journal = &metrics.journal;
    let splits: Vec<usize> = positions(journal, EventKind::Split);
    let merges: Vec<usize> = positions(journal, EventKind::Merge);
    let publishes: Vec<usize> = positions(journal, EventKind::TopologyPublish);
    assert_eq!(splits.len(), report.splits, "one journal event per split");
    assert_eq!(merges.len(), report.merges, "one journal event per merge");
    assert_eq!(
        publishes.len(),
        report.splits + report.merges,
        "every executed step publishes a topology"
    );
    assert!(
        splits[0] < merges[0],
        "the plan executes splits before merges"
    );
    assert!(
        journal.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "journal timestamps must be monotone"
    );
    for &i in &splits {
        let ev = journal[i];
        assert!(ev.keys > 0, "a split of a full shard migrates keys: {ev:?}");
        assert_ne!(ev.shard, Event::NO_SHARD, "splits are shard-scoped");
    }
    for &i in &publishes {
        assert!(journal[i].keys >= 2, "publish records the new shard count");
    }
    assert_eq!(
        metrics.step_duration.count(),
        (report.splits + report.merges) as u64,
        "every executed step lands in the duration histogram"
    );

    // The same cycle must survive the text exposition.
    let text = metrics.render_text();
    assert!(text.contains("# TYPE rma_maintenance_step_ns summary"));
    // A worst-case is a gauge; the counts beside it are counters.
    assert!(text.contains("# TYPE rma_max_step_wall_ns gauge"));
    assert!(text.contains("# TYPE rma_maintenance_steps_executed_total counter"));
    assert!(text.contains("kind=split"));
    assert!(text.contains("kind=merge"));
    assert!(text.contains("kind=topology_publish"));
    let steps = (report.splits + report.merges) as u64;
    assert!(text.contains(&format!("rma_maintenance_steps_executed_total {steps}")));
}

fn positions(journal: &[Event], kind: EventKind) -> Vec<usize> {
    journal
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == kind)
        .map(|(i, _)| i)
        .collect()
}

/// A 16-event journal retains only the 16 newest events (oldest
/// evicted first) no matter how many maintenance steps run.
#[test]
fn journal_capacity_evicts_oldest_first() {
    let db = small()
        .observability(ObsConfig {
            enabled: true,
            journal_capacity: 16,
            ..Default::default()
        })
        .max_shard_len(128)
        .build()
        .expect("valid");
    for k in 0..4000i64 {
        db.insert(k, k);
    }
    let report = db.engine().rebalance_shards();
    // Each split journals two events (the step and its publication).
    assert!(report.splits >= 9, "need > 16 events: {report:?}");
    let journal = db.metrics().journal;
    assert_eq!(journal.len(), 16, "capacity bounds the retained tail");
    let total = db.engine().obs().journal().total_recorded();
    assert!(total > 16, "older events were recorded then evicted");
    assert!(journal.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
}

/// The session path populates every router-side distribution: per-op
/// service latency by type, batch sizes, queue depth and batch wall
/// time — and the exposition names each op even when idle.
/// `sample_every: 1` times every op, so the counts are exact.
#[test]
fn session_traffic_populates_per_op_histograms() {
    let db = small()
        .observability(ObsConfig {
            sample_every: 1,
            ..Default::default()
        })
        .build()
        .expect("valid");
    let mut s = db.session();
    let inserts: Vec<Op> = (0..300).map(|k| Op::Insert(k, k)).collect();
    s.submit(&inserts).wait();
    let reads: Vec<Op> = (0..100).map(Op::Get).collect();
    s.submit(&reads).wait();
    let replies = s
        .submit(&[
            Op::Remove(7),
            Op::SumRange {
                start: 0,
                count: 50,
            },
            Op::FirstGe(250),
            Op::Scan {
                start: 290,
                count: 5,
            },
        ])
        .wait();
    assert_eq!(replies.len(), 4);
    assert_eq!(replies[0], Reply::Removed(Some(7)));

    let m = db.metrics();
    let by_name: std::collections::HashMap<&str, u64> = rma_repro::db::OP_LATENCY_NAMES
        .iter()
        .zip(&m.op_latency)
        .map(|(&n, h)| (n, h.count()))
        .collect();
    assert_eq!(by_name["insert"], 300);
    assert_eq!(by_name["get"], 100);
    assert_eq!(by_name["remove"], 1);
    assert_eq!(by_name["sum_range"], 1);
    assert_eq!(by_name["first_ge"], 1);
    assert_eq!(by_name["scan"], 1);
    assert_eq!(m.batch_size.count(), 3, "one sample per submitted batch");
    assert_eq!(m.batch_size.max(), 300);
    assert_eq!(m.ticket_wait.count(), 3, "one wall-time sample per batch");
    assert!(m.queue_depth.count() >= 3);

    let text = m.render_text();
    for op in rma_repro::db::OP_LATENCY_NAMES {
        assert!(
            text.contains(&format!(
                "rma_op_latency_ns{{op=\"{op}\",quantile=\"0.99\"}}"
            )),
            "schema must name every op type: missing {op}"
        );
    }
    assert!(text.contains("rma_ops_executed_total 404"));
    // The human-readable report renders without panicking and leads
    // with the engine line.
    assert!(m.to_string().starts_with("engine: "));
}

/// With the default-style sampled timing, a single worker records
/// exactly one latency sample per `sample_every` operations — the
/// countdown starts at 1 (short workloads still get a sample) and
/// carries across batches.
#[test]
fn op_latency_sampling_records_one_in_n() {
    let db = small()
        .router_workers(1)
        .observability(ObsConfig {
            sample_every: 4,
            ..Default::default()
        })
        .build()
        .expect("valid");
    let mut s = db.session();
    let inserts: Vec<Op> = (0..300).map(|k| Op::Insert(k, k)).collect();
    s.submit(&inserts).wait();
    let reads: Vec<Op> = (0..99).map(Op::Get).collect();
    s.submit(&reads).wait();

    let m = db.metrics();
    let sampled: u64 = m.op_latency.iter().map(|h| h.count()).sum();
    // 399 ops, first sampled then every 4th: ceil(399 / 4) = 100.
    assert_eq!(sampled, 100, "one timing sample per 4 ops");
    // The 99 `Get`s ran as one `get_many` call, timed once: every
    // expiry of the countdown inside the run still counts (ops 301,
    // 305, …, 397), each recording the run's mean.
    assert_eq!(m.op_latency[0].count(), 25, "samples of the Get run");
    // Batch-granular series are never sampled.
    assert_eq!(m.batch_size.count(), 2);
    assert_eq!(m.ticket_wait.count(), 2);
    assert_eq!(
        m.db.router.ops_executed, 399,
        "execution itself is untouched"
    );
}

/// Disabled observability records nothing — no histogram samples, no
/// journal events — while the counter snapshot, the exposition and
/// the Display report keep working.
#[test]
fn disabled_observability_records_nothing_but_renders() {
    let db = small()
        .observability(ObsConfig {
            enabled: false,
            journal_capacity: 64,
            ..Default::default()
        })
        .max_shard_len(128)
        .build()
        .expect("valid");
    let mut s = db.session();
    let ops: Vec<Op> = (0..2000).map(|k| Op::Insert(k, k)).collect();
    s.submit(&ops).wait();
    let report = db.engine().rebalance_shards();
    assert!(report.splits >= 1, "maintenance still runs: {report:?}");

    let m = db.metrics();
    assert!(m.journal.is_empty(), "no journal events when disabled");
    assert_eq!(m.step_duration.count(), 0);
    assert_eq!(m.batch_size.count(), 0);
    assert_eq!(m.ticket_wait.count(), 0);
    assert!(m.op_latency.iter().all(|h| h.count() == 0));
    // Counters are part of the always-on stats path, not the switch.
    assert_eq!(m.db.router.ops_executed, 2000);
    let text = m.render_text();
    assert!(text.contains("rma_ops_executed_total 2000"));
    assert!(text.contains("rma_op_latency_ns_count{op=\"insert\"} 0"));
    assert!(m.to_string().starts_with("engine: "));
}

/// Metrics snapshots taken after `stop_maintenance()` still carry the
/// maintainer's final counters, its tick-duration histogram and the
/// journal, and still render both ways.
#[test]
fn snapshots_render_after_stop_maintenance() {
    let db = small()
        .maintenance(rma_repro::shard::MaintainerConfig {
            poll_interval: std::time::Duration::from_millis(1),
            ..Default::default()
        })
        .build()
        .expect("valid");
    for k in 0..2000i64 {
        db.insert(k % 64, k);
    }
    // The maintainer records one tick-duration sample per poll; wait
    // until at least one landed so the histogram assertion below is
    // deterministic, then stop.
    for _ in 0..2000 {
        if db.metrics().maint_tick.count() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let final_stats = db.stop_maintenance().expect("was running");
    assert!(final_stats.polls > 0);

    let m = db.metrics();
    assert!(m.maint_tick.count() > 0, "tick durations survive the stop");
    assert_eq!(m.db.maintainer, Some(final_stats));
    let text = m.render_text();
    assert!(text.contains(&format!("rma_maintainer_polls_total {}", final_stats.polls)));
    assert!(text.contains("# TYPE rma_maintainer_tick_ns summary"));
    assert!(m.to_string().contains("maintainer: "));
}

/// A bulk-loaded store is sized by its data: every shard of a fresh
/// 8-shard load reports its length, capacity and wired bytes, at a
/// density just under `τ_h` = 0.75 (a power-of-two batch would sit at
/// 0.5 if capacities were rounded to powers of two), and the
/// exposition carries the three gauges once per shard.
#[test]
fn a_fresh_bulk_load_reports_per_shard_density_under_tau_h() {
    let batch: Vec<(i64, i64)> = (0..1 << 16).map(|i| (i * 3, i)).collect();
    let db = Db::builder()
        .shards(8)
        .rma(RmaConfig {
            segment_size: 64,
            rewiring: RewiringMode::Enabled { page_bytes: 4096 },
            reserve_bytes: 1 << 24,
            ..Default::default()
        })
        .router_workers(1)
        .build_bulk(&batch)
        .expect("valid");

    let m = db.metrics();
    let e = &m.db.engine;
    assert_eq!(e.shards.len(), 8);
    assert_eq!(e.len, batch.len());
    assert_eq!(e.shards.iter().map(|s| s.len).sum::<usize>(), e.len);
    assert_eq!(
        e.shards.iter().map(|s| s.wired_bytes).sum::<usize>(),
        e.memory_footprint
    );
    for (i, s) in e.shards.iter().enumerate() {
        assert_eq!(s.len, batch.len() / 8, "quantile splitters balance");
        assert!(
            s.density() > 0.6 && s.density() <= 0.75,
            "shard {i}: {} in {} slots",
            s.len,
            s.capacity
        );
        // Two 8-byte columns of whole 4 KiB pages, and a little
        // beside them.
        assert_eq!(s.capacity % 512, 0, "shard {i} is whole pages");
        assert!(s.wired_bytes >= 16 * s.capacity && s.wired_bytes < 20 * s.capacity);
    }
    let text = m.render_text();
    for family in [
        "rma_shard_len",
        "rma_shard_capacity",
        "rma_shard_wired_bytes",
    ] {
        assert_eq!(text.matches(&format!("# TYPE {family} gauge")).count(), 1);
        assert_eq!(text.matches(&format!("{family}{{shard=")).count(), 8);
    }
    let last = e.shards[7];
    assert!(text.contains(&format!(
        "rma_shard_capacity{{shard=\"7\"}} {}",
        last.capacity
    )));
}
