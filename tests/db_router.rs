//! Differential tests for the `rma-db` facade: pipelined sessions
//! must behave exactly like direct engine calls — under concurrency,
//! under background maintenance, and for arbitrary operation
//! sequences.
//!
//! The strong checks lean on the session ordering contract:
//! operations on one key inside one submitted batch execute in
//! submission order, and a submit has run when it returns, so a
//! batch's expected replies are computable from an oracle at build
//! time. Concurrent sessions own disjoint key ranges.

use proptest::prelude::*;
use rma_repro::db::{Db, Op, Reply, Ticket};
use rma_repro::rma::{RewiringMode, RmaConfig};
use rma_repro::shard::{MaintainerConfig, ShardConfig};
use rma_repro::workloads::SplitMix64;
use std::collections::{BTreeMap, VecDeque};

fn small_cfg(shards: usize) -> ShardConfig {
    ShardConfig {
        num_shards: shards,
        rma: RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Concurrent pipelined sessions against per-session `BTreeMap`
/// oracles while the background maintainer restructures the topology
/// underneath. Each session owns a disjoint key range and hammers a
/// narrow band of it (so the maintainer has real imbalance to react
/// to); every ticket's replies are checked against the oracle's
/// prediction, and the quiesced content must match the union of the
/// oracles exactly.
#[test]
fn concurrent_sessions_match_oracle_under_maintenance() {
    const SESSIONS: usize = 3;
    const RANGE: i64 = 100_000;
    const BATCHES: usize = 150;
    const OPS_PER_BATCH: usize = 64;
    const DEPTH: usize = 2;

    let db = Db::builder()
        .shard_config(small_cfg(8))
        .maintenance(MaintainerConfig)
        .build()
        .expect("valid test config");

    let oracles: Vec<BTreeMap<i64, i64>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|t| {
                let db = &db;
                sc.spawn(move || {
                    let lo = t as i64 * RANGE;
                    let mut rng = SplitMix64::new(0xD8 + t as u64);
                    let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
                    let mut session = db.session();
                    let mut in_flight: VecDeque<(Ticket, Vec<Reply>, usize)> = VecDeque::new();
                    for b in 0..BATCHES {
                        // Consecutive batches alternate between the
                        // halves of the range.
                        let half_lo = lo + if b % 2 == 0 { 0 } else { RANGE / 2 };
                        let mut ops = Vec::with_capacity(OPS_PER_BATCH);
                        let mut expected = Vec::with_capacity(OPS_PER_BATCH);
                        for _ in 0..OPS_PER_BATCH {
                            // Mostly a narrow hot band (drives the
                            // maintainer), sometimes the whole half.
                            let k = half_lo
                                + if rng.next_below(8) < 6 {
                                    rng.next_below(512) as i64
                                } else {
                                    rng.next_below(RANGE as u64 / 2) as i64
                                };
                            match oracle.get(&k).copied() {
                                Some(v) => {
                                    if rng.next_below(2) == 0 {
                                        ops.push(Op::Get(k));
                                        expected.push(Reply::Found(Some(v)));
                                    } else {
                                        ops.push(Op::Remove(k));
                                        expected.push(Reply::Removed(Some(v)));
                                        oracle.remove(&k);
                                    }
                                }
                                None => {
                                    if rng.next_below(4) == 0 {
                                        ops.push(Op::Get(k));
                                        expected.push(Reply::Found(None));
                                    } else {
                                        let v = k ^ 0x5A5A;
                                        ops.push(Op::Insert(k, v));
                                        expected.push(Reply::Inserted);
                                        oracle.insert(k, v);
                                    }
                                }
                            }
                        }
                        in_flight.push_back((session.submit(&ops), expected, b));
                        if in_flight.len() >= DEPTH {
                            let (ticket, want, at) = in_flight.pop_front().expect("non-empty");
                            assert_eq!(ticket.wait(), want, "session {t} batch {at}");
                        }
                    }
                    for (ticket, want, at) in in_flight {
                        assert_eq!(ticket.wait(), want, "session {t} final batch {at}");
                    }
                    // Cross-range probes through the same session:
                    // weakly checked (neighbouring sessions' keys are
                    // invisible to this oracle), but they must stitch
                    // sanely mid-maintenance.
                    let probes = session
                        .submit(&[
                            Op::SumRange {
                                start: lo,
                                count: 50,
                            },
                            Op::FirstGe(lo),
                            Op::Scan {
                                start: lo,
                                count: 40,
                            },
                        ])
                        .wait();
                    match &probes[0] {
                        Reply::Sum { visited, .. } => assert!(*visited <= 50),
                        other => panic!("wrong reply kind: {other:?}"),
                    }
                    match &probes[1] {
                        Reply::Entry(hit) => {
                            if let Some((k, _)) = hit {
                                assert!(*k >= lo, "first_ge went backwards");
                            }
                        }
                        other => panic!("wrong reply kind: {other:?}"),
                    }
                    match &probes[2] {
                        Reply::Entries(es) => {
                            assert!(es.len() <= 40);
                            assert!(
                                es.windows(2).all(|w| w[0].0 <= w[1].0),
                                "scan not in key order"
                            );
                            assert!(es.first().is_none_or(|e| e.0 >= lo));
                        }
                        other => panic!("wrong reply kind: {other:?}"),
                    }
                    oracle
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });

    let polls = db.stop_maintenance().expect("maintainer was running").polls;
    db.engine().check_invariants();
    let total: usize = oracles.iter().map(|o| o.len()).sum();
    assert_eq!(db.len(), total, "content diverged from the oracle union");
    for oracle in &oracles {
        for (&k, &v) in oracle {
            assert_eq!(db.get(k), Some(v), "key {k} diverged after quiesce");
        }
    }
    // Surface (not assert — timing-dependent on 1-cpu hosts) that the
    // maintainer really ran underneath the differential.
    let ledger = db.engine().maintenance_stats();
    eprintln!(
        "maintainer during differential: polls={polls} plans={} steps={}",
        ledger.plans, ledger.steps_executed
    );
    let snap = db.stats();
    assert_eq!(snap.router.sessions_opened as usize, SESSIONS);
    assert_eq!(snap.router.ops_submitted, snap.router.ops_executed);
}

/// Strategy for one arbitrary router operation over a small keyspace
/// (collisions and duplicates very likely — the interesting cases).
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..600).prop_map(Op::Get),
        4 => (0i64..600, -1000i64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0i64..600).prop_map(Op::Remove),
        1 => (-50i64..700, 0usize..200).prop_map(|(start, count)| Op::SumRange { start, count }),
        1 => (-50i64..700).prop_map(Op::FirstGe),
        1 => (-50i64..700, 0usize..100).prop_map(|(start, count)| Op::Scan { start, count }),
    ]
}

/// A stretch of ops over sixteen keys spread across the four shards:
/// a long run of `Get`s, or one write of a key those runs read. A
/// session runs every run of point ops as one `apply_ops` call, which
/// groups it by shard, so a stream of these has reads right before
/// and right after a write of one of their own keys, over and over: a
/// group that let a read slip across the write answers with the wrong
/// side of it.
fn get_run_or_write() -> impl Strategy<Value = Vec<Op>> {
    let key = || (0i64..16).prop_map(|i| i * 37);
    prop_oneof![
        2 => prop::collection::vec(key().prop_map(Op::Get), 2..40),
        2 => (key(), 0i64..1_000_000).prop_map(|(k, v)| vec![Op::Insert(k, v)]),
        1 => key().prop_map(|k| vec![Op::Remove(k)]),
    ]
}

/// Executes `op` through the direct-call surface — the reference the
/// session path is differenced against.
fn exec_direct(db: &Db, op: Op) -> Reply {
    match op {
        Op::Get(k) => Reply::Found(db.get(k)),
        Op::Insert(k, v) => {
            db.insert(k, v);
            Reply::Inserted
        }
        Op::Remove(k) => Reply::Removed(db.remove(k)),
        Op::SumRange { start, count } => {
            let (visited, sum) = db.sum_range(start, count);
            Reply::Sum { visited, sum }
        }
        Op::FirstGe(k) => Reply::Entry(db.first_ge(k)),
        Op::Scan { start, count } => {
            let mut out = Vec::new();
            db.scan(start, count, |k, v| out.push((k, v)));
            Reply::Entries(out)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any operation sequence submitted through a session in batches
    /// produces exactly the replies of the same sequence executed
    /// through direct engine calls on an identically configured
    /// database. Every range op is a barrier between the runs of point
    /// ops around it, so even order-sensitive sequences
    /// (insert-then-scan of one key range inside one batch) must agree
    /// bit for bit.
    #[test]
    fn batched_router_ops_match_direct_calls(
        ops in prop::collection::vec(op_strategy(), 1..120),
        batch_len in 1usize..20,
    ) {
        let routed_db = Db::builder()
            .shard_config(small_cfg(4))
            .splitter_keys(vec![150, 300, 450])
            .build()
            .expect("valid test config");
        let direct_db = Db::builder()
            .shard_config(small_cfg(4))
            .splitter_keys(vec![150, 300, 450])
            .build()
            .expect("valid test config");
        let mut session = routed_db.session();
        for batch in ops.chunks(batch_len) {
            let got = session.submit(batch).wait();
            let want: Vec<Reply> = batch.iter().map(|&op| exec_direct(&direct_db, op)).collect();
            prop_assert_eq!(got, want);
        }
        routed_db.engine().check_invariants();
        prop_assert_eq!(routed_db.len(), direct_db.len());
        prop_assert_eq!(
            routed_db.engine().collect_all(),
            direct_db.engine().collect_all()
        );
    }

    /// `Get` runs keep their place between the writes around them.
    /// Point ops only, so the replies depend on nothing but each
    /// shard's own op order — which `apply_ops` keeps when it groups a
    /// run by shard.
    #[test]
    fn get_runs_never_cross_a_write_of_their_keys(
        stretches in prop::collection::vec(get_run_or_write(), 1..40),
        batch_len in 1usize..90,
    ) {
        let routed_db = Db::builder()
            .shard_config(small_cfg(4))
            .splitter_keys(vec![150, 300, 450])
            .build()
            .expect("valid test config");
        let direct_db = Db::builder()
            .shard_config(small_cfg(4))
            .splitter_keys(vec![150, 300, 450])
            .build()
            .expect("valid test config");
        let ops: Vec<Op> = stretches.into_iter().flatten().collect();
        let mut session = routed_db.session();
        for batch in ops.chunks(batch_len) {
            let got = session.submit(batch).wait();
            let want: Vec<Reply> = batch.iter().map(|&op| exec_direct(&direct_db, op)).collect();
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(
            routed_db.engine().collect_all(),
            direct_db.engine().collect_all()
        );
    }

    /// The same equivalence one op per ticket: a submit of a single
    /// op of any kind agrees with the direct path on any sequence.
    #[test]
    fn serialized_router_ops_match_direct_calls(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let routed_db = Db::builder()
            .shard_config(small_cfg(4))
            .splitter_keys(vec![150, 300, 450])
            .build()
            .expect("valid test config");
        let direct_db = Db::builder()
            .shard_config(small_cfg(4))
            .splitter_keys(vec![150, 300, 450])
            .build()
            .expect("valid test config");
        let mut session = routed_db.session();
        for &op in &ops {
            let got = session.submit(&[op]).wait();
            prop_assert_eq!(got, vec![exec_direct(&direct_db, op)]);
        }
        prop_assert_eq!(
            routed_db.engine().collect_all(),
            direct_db.engine().collect_all()
        );
    }
}

/// A submit has run when it returns, so a session's second submit sees
/// its first one whatever shards the two touch: an insert into the
/// last shard, then — with no wait in between — a scan that starts in
/// the first shard and crosses the inserted key.
#[test]
fn a_later_submit_sees_an_earlier_one_across_shards() {
    let db = Db::builder()
        .shard_config(small_cfg(4))
        .splitter_keys(vec![150, 300, 450])
        .build()
        .expect("valid test config");
    db.apply_batch(&(0..600).map(|k| (k * 10, k)).collect::<Vec<_>>(), &[]);
    let mut session = db.session();
    let (k, v) = (5_555, -1);
    assert!(db.engine().splitters().route(k) == 3 && db.engine().splitters().route(0) == 0);
    let insert = session.submit(&[Op::Insert(k, v)]);
    let scan = session.submit(&[Op::Scan {
        start: 0,
        count: 1_000,
    }]);
    assert_eq!(insert.wait(), [Reply::Inserted]);
    let Reply::Entries(entries) = &scan.wait()[0] else {
        panic!("a scan answers with entries")
    };
    assert!(
        entries.contains(&(k, v)),
        "the scan missed the insert submitted before it"
    );
    assert_eq!(entries.len(), 601);
}
