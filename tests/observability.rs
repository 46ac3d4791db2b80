//! End-to-end observability tests: the `Db::metrics()` snapshot and
//! its Prometheus-style text exposition against forced maintenance.
//!
//! The structural scenarios drive maintenance *synchronously* through
//! `Db::engine()` (no background thread), so every assertion on the
//! journal is deterministic: a shard pushed past the `max_shard_len`
//! backstop must split, cold interior shards must merge, and the
//! journal must record the whole cycle in order with timing attached.

use rma_repro::db::{
    Db, DbBuilder, DbSnapshot, DurabilityConfig, MaintainerSnapshot, ObsConfig, Op, Reply,
    RouterSnapshot,
};
use rma_repro::obs::{Event, EventKind};
use rma_repro::rma::{BackendKind, RewiringMode, RmaConfig};
use rma_repro::shard::{
    EngineSnapshot, MaintainerConfig, MaintenanceStats, ShardConfig, ShardStats,
};
use rma_repro::workloads::SplitMix64;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashSet;
use std::time::Duration;

fn small_shards() -> ShardConfig {
    ShardConfig {
        num_shards: 4,
        rma: RmaConfig {
            segment_size: 8,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn small() -> DbBuilder {
    Db::builder().shard_config(small_shards())
}

/// [`small`] with a shard-length backstop of `n` elements.
fn small_with_backstop(n: usize) -> DbBuilder {
    small().shard_config(ShardConfig {
        max_shard_len: Some(n),
        ..small_shards()
    })
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
    let db = small_with_backstop(256)
        .splitter_keys(splitters)
        .build()
        .expect("valid");
    for k in -2000..100i64 {
        db.insert(k, k); // shard 0: 2100 elems, far past the backstop
    }
    for k in 1500..1600i64 {
        db.insert(k, k); // last shard: modest load
    }
    let before = db.engine().maintenance_stats();
    let report = db.engine().maintain();
    assert!(report.splits >= 1, "backstop must force splits: {report:?}");
    assert!(report.merges >= 1, "cold shards must merge: {report:?}");

    // The engine's ledger is the one count: it filed each step the
    // drain reported, by kind, and its executed steps are their sum.
    let ledger = db.engine().maintenance_stats();
    assert_eq!(
        [
            ledger.splits - before.splits,
            ledger.merges - before.merges,
            ledger.steps_skipped - before.steps_skipped,
        ],
        [report.splits, report.merges, report.skipped].map(|n| n as u64),
        "{ledger:?} vs {report:?}"
    );
    assert_eq!(ledger.splits + ledger.merges, ledger.steps_executed);

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

/// The session path populates every session-side distribution: per-op
/// service latency by type, batch sizes and batch wall time, and
/// leaves the queue depth empty — and the exposition names each op
/// even when idle. A session times ops 0, 16, 32, … of each kind, so
/// the counts are exact.
#[test]
fn session_traffic_populates_per_op_histograms() {
    let db = small().build().expect("valid");
    let mut s = db.session();
    // Inserts 0..320: samples at 0, 16, …, 304.
    let inserts: Vec<Op> = (0..320).map(|k| Op::Insert(k, k)).collect();
    s.submit(&inserts).wait();
    // Gets 0..96: samples at 0, 16, …, 80.
    let reads: Vec<Op> = (0..96).map(Op::Get).collect();
    s.submit(&reads).wait();
    // The first of each other kind, each followed by 15 `Get`s: gets
    // 96..156, samples at 96, 112, 128, 144.
    let specials = [
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
    ];
    let mixed: Vec<Op> = specials
        .iter()
        .flat_map(|&op| std::iter::once(op).chain((0..15).map(Op::Get)))
        .collect();
    let replies = s.submit(&mixed).wait();
    assert_eq!(replies.len(), 64);
    assert_eq!(replies[0], Reply::Removed(Some(7)));

    let m = db.metrics();
    let by_name: std::collections::HashMap<&str, u64> = rma_repro::db::OP_LATENCY_NAMES
        .iter()
        .zip(&m.op_latency)
        .map(|(&n, h)| (n, h.count()))
        .collect();
    assert_eq!(by_name["insert"], 20);
    assert_eq!(by_name["get"], 10);
    assert_eq!(by_name["remove"], 1);
    assert_eq!(by_name["sum_range"], 1);
    assert_eq!(by_name["first_ge"], 1);
    assert_eq!(by_name["scan"], 1);
    assert_eq!(m.batch_size.count(), 3, "one sample per submitted batch");
    assert_eq!(m.batch_size.max(), 320);
    assert_eq!(m.ticket_wait.count(), 3, "one wall-time sample per batch");
    assert_eq!(
        m.queue_depth.count(),
        0,
        "a session runs inline: nothing queues"
    );

    let text = m.render_text();
    for op in rma_repro::db::OP_LATENCY_NAMES {
        assert!(
            text.contains(&format!(
                "rma_op_latency_ns{{op=\"{op}\",quantile=\"0.99\"}}"
            )),
            "schema must name every op type: missing {op}"
        );
    }
    assert!(text.contains("rma_ops_executed_total 480"));
}

/// A session records exactly one latency sample per 16 operations of
/// each kind — each kind's countdown starts at 1 (short workloads still
/// get a sample) and carries across batches, and a stream that
/// alternates two kinds still samples both.
#[test]
fn op_latency_sampling_records_one_in_n() {
    let db = small().build().expect("valid");
    let mut s = db.session();
    let inserts: Vec<Op> = (0..300).map(|k| Op::Insert(k, k)).collect();
    s.submit(&inserts).wait();
    let reads: Vec<Op> = (0..99).map(Op::Get).collect();
    s.submit(&reads).wait();
    // 32 frames of one sum and one scan, the shape of a scan stream.
    let pair = [
        Op::SumRange {
            start: 0,
            count: 10,
        },
        Op::Scan {
            start: 0,
            count: 10,
        },
    ];
    for _ in 0..32 {
        s.submit(&pair).wait();
    }

    let m = db.metrics();
    let sampled: u64 = m.op_latency.iter().map(|h| h.count()).sum();
    // Per kind, first sampled then every 16th: ceil(300 / 16) = 19,
    // ceil(99 / 16) = 7, ceil(32 / 16) = 2 and 2.
    assert_eq!(sampled, 30, "one timing sample per 16 ops of a kind");
    // Each point submit ran as one `apply_ops` call, timed once: every
    // expiry inside a run still counts, each recording the run's mean.
    assert_eq!(m.op_latency[1].count(), 19, "samples of the Insert run");
    assert_eq!(m.op_latency[0].count(), 7, "samples of the Get run");
    assert_eq!(m.op_latency[3].count(), 2, "sums of the alternating pairs");
    assert_eq!(m.op_latency[5].count(), 2, "scans of the alternating pairs");
    // Batch-granular series are never sampled.
    assert_eq!(m.batch_size.count(), 34);
    assert_eq!(m.ticket_wait.count(), 34);
    assert_eq!(
        m.db.router.ops_executed, 463,
        "execution itself is untouched"
    );
}

/// Disabled observability records nothing — no histogram samples, no
/// journal events — while the counter snapshot and the exposition
/// keep working.
#[test]
fn disabled_observability_records_nothing_but_renders() {
    let db = small_with_backstop(128)
        .observability(ObsConfig { enabled: false })
        .build()
        .expect("valid");
    let mut s = db.session();
    let ops: Vec<Op> = (0..2000).map(|k| Op::Insert(k, k)).collect();
    s.submit(&ops).wait();
    let report = db.engine().maintain();
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
    assert!(text.contains(&format!("rma_shards {}", m.db.engine.num_shards)));
}

/// Metrics snapshots taken after `stop_maintenance()` still carry the
/// maintainer's final counters, its tick-duration histogram and the
/// journal, and still render.
#[test]
fn snapshots_render_after_stop_maintenance() {
    let db = small()
        .maintenance(MaintainerConfig)
        .build()
        .expect("valid");
    for k in 0..2000i64 {
        db.insert(k % 64, k);
    }
    // The maintainer records one tick-duration sample per wake; wait
    // until at least one landed so the histogram assertion below is
    // deterministic, then stop.
    for _ in 0..2000 {
        if db.metrics().maint_tick.count() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let final_stats = db.stop_maintenance().expect("was running");
    assert!(final_stats.polls > 0);

    let m = db.metrics();
    assert!(m.maint_tick.count() > 0, "tick durations survive the stop");
    assert_eq!(m.db.maintainer, Some(final_stats));
    let text = m.render_text();
    assert!(text.contains(&format!("rma_maintainer_polls_total {}", final_stats.polls)));
    assert!(text.contains("# TYPE rma_maintainer_tick_ns summary"));

    // Each maintenance fact has one counter: the thread reports only
    // what it alone knows, the engine's ledger everything its plans
    // did, once.
    let counters = |prefix: &str| -> Vec<&str> {
        (text.lines())
            .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
            .filter(|name| name.starts_with(prefix))
            .collect()
    };
    assert_eq!(
        counters("rma_maintainer_"),
        [
            "rma_maintainer_polls_total",
            "rma_maintainer_checkpoints_total"
        ]
    );
    let ledger = counters("rma_maintenance_");
    for kind in ["splits", "merges"] {
        assert!(ledger.contains(&format!("rma_maintenance_{kind}_total").as_str()));
    }
    let mut once = ledger.clone();
    once.sort_unstable();
    once.dedup();
    assert_eq!(once.len(), ledger.len(), "{ledger:?}");
}

/// A bulk-loaded store is sized by its data: every shard of a fresh
/// 8-shard load reports its length, capacity and wired bytes, at a
/// density just under `τ_h` = 0.75 (a power-of-two batch would sit at
/// 0.5 if capacities were rounded to powers of two), and its backend
/// with no rebalance and no commit of either kind — the load wrote
/// each array in place. The exposition carries the eight gauges once
/// per shard, and inserts into one shard show up as its rebalances.
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
        assert_eq!(s.backend, e.shards[0].backend, "one host, one backend");
        assert_eq!((s.rewired_commits, s.copied_commits), (0, 0), "shard {i}");
        assert_eq!(s.rebalances, 0, "shard {i}");
    }
    let text = m.render_text();
    for family in [
        "rma_shard_len",
        "rma_shard_capacity",
        "rma_shard_wired_bytes",
        "rma_shard_backend",
        "rma_shard_rebalances",
        "rma_shard_elements_moved",
        "rma_shard_rewired_commits",
        "rma_shard_copied_commits",
    ] {
        assert_eq!(text.matches(&format!("# TYPE {family} gauge")).count(), 1);
        assert_eq!(text.matches(&format!("{family}{{shard=")).count(), 8);
    }
    let last = e.shards[7];
    assert!(text.contains(&format!(
        "rma_shard_capacity{{shard=\"7\"}} {}",
        last.capacity
    )));
    let name = match last.backend {
        BackendKind::Mmap => "memfd",
        BackendKind::Heap => "heap",
    };
    assert!(text.contains(&format!(
        "rma_shard_backend{{shard=\"7\",backend=\"{name}\"}} 1"
    )));
    assert!(text.contains("rma_shard_copied_commits{shard=\"7\"} 0"));

    // Inserts between the loaded keys of shard 0 fill its segments
    // until they rebalance.
    for i in 0..2000 {
        db.insert(i * 3 + 1, i);
    }
    let first = db.metrics().db.engine.shards[0];
    assert!(
        first.rebalances > 0 && first.elements_moved > 0,
        "{first:?}"
    );
}

/// A shard that cannot get its memfd reservation still works, copies
/// every commit and says so. `reserve_bytes` of 2^62 is more than any
/// address space holds, so `mmap` refuses it on every host and each
/// column is a plain `Vec`, with no knob to force it. The store must
/// answer like a `BTreeMap` over inserts, removes, gets and scans on
/// the direct and the session paths; every shard must report `Heap`,
/// no commit may count as rewired while some count as copied, and the
/// exposition and the report must show it.
#[test]
fn a_store_without_memfd_copies_every_commit_and_says_so() {
    const SHARDS: usize = 4;
    let db = Db::builder()
        .shards(SHARDS)
        .rma(RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Enabled { page_bytes: 4096 },
            reserve_bytes: 1 << 62,
            ..Default::default()
        })
        .build()
        .expect("valid");
    let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
    let mut rng = SplitMix64::new(0x5EED);
    let key_space = 1u64 << 14;
    let scan = |oracle: &BTreeMap<i64, i64>, k: i64| -> Vec<(i64, i64)> {
        oracle.range(k..).take(24).map(|(&k, &v)| (k, v)).collect()
    };

    // Direct path. Keys stay distinct (an insert of a stored key reads
    // it instead), so the map is an exact oracle.
    for step in 0..20_000i64 {
        let k = (rng.next_u64() % key_space) as i64;
        match rng.next_u64() % 8 {
            0..=3 if !oracle.contains_key(&k) => {
                db.insert(k, step);
                oracle.insert(k, step);
            }
            4 | 5 => assert_eq!(db.remove(k), oracle.remove(&k), "remove {k}"),
            6 => {
                let mut got = Vec::new();
                db.scan(k, 24, |k, v| got.push((k, v)));
                assert_eq!(got, scan(&oracle, k), "scan from {k}");
            }
            _ => assert_eq!(db.get(k), oracle.get(&k).copied(), "get {k}"),
        }
    }

    // Session path: a batch of writes to distinct keys, then a batch of
    // reads of what they left.
    let mut s = db.session();
    for round in 0..40i64 {
        let mut writes = Vec::new();
        let mut want = Vec::new();
        let mut touched = std::collections::HashSet::new();
        for i in 0..256i64 {
            let k = (rng.next_u64() % key_space) as i64;
            if !touched.insert(k) {
                continue;
            }
            match oracle.entry(k) {
                Entry::Occupied(e) if rng.next_u64().is_multiple_of(2) => {
                    writes.push(Op::Remove(k));
                    want.push(Reply::Removed(Some(e.remove())));
                }
                Entry::Occupied(_) => {}
                Entry::Vacant(e) => {
                    writes.push(Op::Insert(k, round * 1000 + i));
                    want.push(Reply::Inserted);
                    e.insert(round * 1000 + i);
                }
            }
        }
        assert_eq!(s.submit(&writes).wait(), want, "round {round} writes");
        let reads: Vec<i64> = (0..64)
            .map(|_| (rng.next_u64() % key_space) as i64)
            .collect();
        let ops: Vec<Op> = (reads.iter())
            .flat_map(|&k| {
                [
                    Op::Get(k),
                    Op::Scan {
                        start: k,
                        count: 24,
                    },
                ]
            })
            .collect();
        let want: Vec<Reply> = (reads.iter())
            .flat_map(|&k| {
                let got = Reply::Found(oracle.get(&k).copied());
                [got, Reply::Entries(scan(&oracle, k))]
            })
            .collect();
        assert_eq!(s.submit(&ops).wait(), want, "round {round} reads");
    }
    db.engine().check_invariants();
    let mut all = Vec::new();
    db.scan(i64::MIN, usize::MAX, |k, v| all.push((k, v)));
    assert!(all.iter().copied().eq(oracle.iter().map(|(&k, &v)| (k, v))));

    let m = db.metrics();
    let shards = &m.db.engine.shards;
    assert_eq!(shards.len(), SHARDS);
    let copied: u64 = shards.iter().map(|s| s.copied_commits).sum();
    assert!(copied > 0, "{shards:?}");
    let text = m.render_text();
    assert!(!text.contains("backend=\"memfd\""));
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(s.backend, BackendKind::Heap, "shard {i}");
        assert_eq!(s.rewired_commits, 0, "shard {i}");
        for line in [
            format!("rma_shard_backend{{shard=\"{i}\",backend=\"heap\"}} 1"),
            format!("rma_shard_rewired_commits{{shard=\"{i}\"}} 0"),
            format!(
                "rma_shard_copied_commits{{shard=\"{i}\"}} {}",
                s.copied_commits
            ),
        ] {
            assert!(text.contains(&line), "missing {line}");
        }
    }
    assert!(text.contains(&format!("\nrma_shards {SHARDS}\n")));
}

/// The one exposition carries every counter of the snapshot it
/// renders: each `DbSnapshot` number — the engine's, its maintenance
/// ledger's, the maintainer's, the router's — and every shard's
/// backend label has a line of `render_text` holding its value. The
/// snapshot structs are taken apart without `..`, so a counter added
/// to one of them stops this test compiling until it is listed here,
/// with its line or as not exported.
#[test]
fn the_exposition_carries_every_counter() {
    let dir = std::env::temp_dir().join(format!(
        "rma-observability-{}-{}",
        std::process::id(),
        rma_repro::rewiring::monotonic_ns()
    ));
    let db = small_with_backstop(512)
        .durability(DurabilityConfig::new(&dir))
        .maintenance(MaintainerConfig)
        .build()
        .expect("valid durable config");
    let mut s = db.session();
    let mut rng = SplitMix64::new(40);
    for _ in 0..8 {
        let writes: Vec<Op> = (0..512)
            .map(|_| {
                let k = (rng.next_u64() % 8192) as i64;
                match rng.next_u64() % 4 {
                    0 => Op::Remove(k),
                    _ => Op::Insert(k, k),
                }
            })
            .collect();
        s.submit(&writes).wait();
        let reads = [
            Op::Get(7),
            Op::SumRange {
                start: 0,
                count: 100,
            },
            Op::Scan {
                start: 0,
                count: 16,
            },
        ];
        s.submit(&reads).wait();
    }
    drop(s);
    db.stop_maintenance().expect("was running");
    // Stopped first, so no re-cut lands between the seal and the count.
    assert_eq!(db.engine().checkpoint(), db.engine().num_shards());
    db.engine().maintain();

    let m = db.metrics();
    let text = m.render_text();
    let lines: HashSet<&str> = text.lines().collect();
    let DbSnapshot {
        engine,
        maintainer,
        router,
    } = &m.db;
    let EngineSnapshot {
        len,
        num_shards,
        memory_footprint,
        splitter_bytes,
        op_count,
        access_imbalance,
        read_locks,
        write_locks,
        seqlock_retries,
        maintenance,
        shards,
    } = engine;
    let MaintenanceStats {
        plans,
        plan_ns,
        steps_planned,
        steps_executed,
        steps_skipped,
        steps_dropped,
        keys_migrated,
        splits,
        merges,
        topologies_published,
        max_step_wall_ns,
        write_reroutes,
    } = maintenance;
    let MaintainerSnapshot { polls, checkpoints } = maintainer.expect("maintainer on");
    let RouterSnapshot {
        workers,
        sessions_opened,
        batches_submitted,
        ops_submitted,
        ops_executed,
    } = router;
    let mut want = vec![
        format!("rma_len {len}"),
        format!("rma_shards {num_shards}"),
        format!("rma_memory_bytes {memory_footprint}"),
        format!("rma_splitter_bytes {splitter_bytes}"),
        format!("rma_op_clock_total {op_count}"),
        format!("rma_access_imbalance {access_imbalance}"),
        format!("rma_read_locks_total {read_locks}"),
        format!("rma_write_locks_total {write_locks}"),
        format!("rma_seqlock_retries_total {seqlock_retries}"),
        format!("rma_maintenance_plans_total {plans}"),
        format!("rma_maintenance_plan_ns_total {plan_ns}"),
        format!("rma_maintenance_steps_planned_total {steps_planned}"),
        format!("rma_maintenance_steps_executed_total {steps_executed}"),
        format!("rma_maintenance_steps_skipped_total {steps_skipped}"),
        format!("rma_maintenance_steps_dropped_total {steps_dropped}"),
        format!("rma_maintenance_keys_migrated_total {keys_migrated}"),
        format!("rma_maintenance_splits_total {splits}"),
        format!("rma_maintenance_merges_total {merges}"),
        format!("rma_topologies_published_total {topologies_published}"),
        format!("rma_max_step_wall_ns {max_step_wall_ns}"),
        format!("rma_write_reroutes_total {write_reroutes}"),
        format!("rma_maintainer_polls_total {polls}"),
        format!("rma_maintainer_checkpoints_total {checkpoints}"),
        format!("rma_router_workers {workers}"),
        format!("rma_sessions_opened_total {sessions_opened}"),
        format!("rma_batches_submitted_total {batches_submitted}"),
        format!("rma_ops_submitted_total {ops_submitted}"),
        format!("rma_ops_executed_total {ops_executed}"),
    ];
    for (i, shard) in shards.iter().enumerate() {
        let ShardStats {
            len,
            capacity,
            wired_bytes,
            backend,
            rebalances,
            elements_moved,
            rewired_commits,
            copied_commits,
            // Not exported: the key range, the segment count and the
            // access counters the splitter learns from.
            lower_bound: _,
            upper_bound: _,
            segments: _,
            reads: _,
            writes: _,
            access_mass: _,
        } = shard;
        let backend = match backend {
            BackendKind::Mmap => "memfd",
            BackendKind::Heap => "heap",
        };
        want.extend([
            format!("rma_shard_len{{shard=\"{i}\"}} {len}"),
            format!("rma_shard_capacity{{shard=\"{i}\"}} {capacity}"),
            format!("rma_shard_wired_bytes{{shard=\"{i}\"}} {wired_bytes}"),
            format!("rma_shard_backend{{shard=\"{i}\",backend=\"{backend}\"}} 1"),
            format!("rma_shard_rebalances{{shard=\"{i}\"}} {rebalances}"),
            format!("rma_shard_elements_moved{{shard=\"{i}\"}} {elements_moved}"),
            format!("rma_shard_rewired_commits{{shard=\"{i}\"}} {rewired_commits}"),
            format!("rma_shard_copied_commits{{shard=\"{i}\"}} {copied_commits}"),
        ]);
    }
    for line in &want {
        assert!(lines.contains(line.as_str()), "no line `{line}` in\n{text}");
    }
    // The load reached every part of the snapshot but the
    // maintainer's seal count, which the seal above leaves at 0.
    assert!(*steps_executed > 0 && *ops_executed > 0);
    assert_eq!(checkpoints, 0, "the maintainer seals nothing");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
