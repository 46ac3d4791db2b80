//! The key contract, end to end: a key's members form a stack.
//!
//! * `insert` pushes onto its front;
//! * `get`, `first_ge` and scans see the front first;
//! * `remove`, a batch delete and the core's `remove_successor` pop
//!   the front;
//! * one batch's members of a key land at the front, in batch order.
//!
//! A stack oracle (`BTreeMap<Key, Vec<Value>>`, the newest member
//! first) is driven by the duplicate-heavy generator — Zipf keys with
//! `α = 1.5` over `[1, 64]`, whose values are distinct ranks, so every
//! answer names its member — and every path to the engine must answer
//! exactly what the oracle does: the `Rma` itself, `ShardedRma::apply_ops`
//! across a split and a merge, `apply_batch`, a `Db` session, a
//! `WireClient`, and a `Db` reopened from its log and its checkpoint.
//! Every engine write is an `apply_ops` group, so those paths are all
//! its write paths; a successor removal is the core `Rma`'s alone.

use proptest::prelude::*;
use rma_repro::db::{Db, DurabilityConfig, Op, Reply};
use rma_repro::net::{NetConfig, NetServer, WireClient};
use rma_repro::rma::{Key, RewiringMode, Rma, RmaConfig, Value};
use rma_repro::shard::{MaintenanceStep, PointOp, ShardConfig, ShardedRma, Splitters};
use rma_repro::workloads::{KeyStream, Pattern, SplitMix64};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Segments of 8: a hot key's stack spans many segments.
fn small_rma() -> RmaConfig {
    RmaConfig {
        segment_size: 8,
        rewiring: RewiringMode::Disabled,
        reserve_bytes: 1 << 24,
        ..Default::default()
    }
}

fn small_shards() -> ShardConfig {
    ShardConfig {
        num_shards: 4,
        rma: small_rma(),
        ..Default::default()
    }
}

/// The oracle: each key's values, the newest member first.
#[derive(Default)]
struct Stacks(BTreeMap<Key, Vec<Value>>);

impl Stacks {
    fn insert(&mut self, k: Key, v: Value) {
        self.0.entry(k).or_default().insert(0, v);
    }

    fn get(&self, k: Key) -> Option<Value> {
        self.0.get(&k).map(|vals| vals[0])
    }

    fn remove(&mut self, k: Key) -> Option<Value> {
        let vals = self.0.get_mut(&k)?;
        let v = vals.remove(0);
        if vals.is_empty() {
            self.0.remove(&k);
        }
        Some(v)
    }

    fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        self.0.range(k..).next().map(|(&k, vals)| (k, vals[0]))
    }

    fn remove_successor(&mut self, k: Key) -> Option<(Key, Value)> {
        let succ = self.0.range(k..).next().or_else(|| self.0.last_key_value());
        let k = *succ?.0;
        self.remove(k).map(|v| (k, v))
    }

    fn scan(&self, start: Key, count: usize) -> Vec<(Key, Value)> {
        (self.0.range(start..))
            .flat_map(|(&k, vals)| vals.iter().map(move |&v| (k, v)))
            .take(count)
            .collect()
    }

    /// Deletes pop, in order; then the inserts land at the front in
    /// batch order — what pushing them in reverse leaves.
    fn apply_batch(&mut self, inserts: &[(Key, Value)], deletes: &[Key]) -> usize {
        let deleted = deletes
            .iter()
            .filter(|&&k| self.remove(k).is_some())
            .count();
        for &(k, v) in inserts.iter().rev() {
            self.insert(k, v);
        }
        deleted
    }

    fn all(&self) -> Vec<(Key, Value)> {
        self.scan(Key::MIN, usize::MAX)
    }

    /// Each stored key and one past the largest: what a whole-state
    /// comparison probes with `get`.
    fn probes(&self) -> Vec<Key> {
        let past = self.0.keys().next_back().map_or(0, |&k| k + 1);
        self.0.keys().copied().chain([0, past]).collect()
    }

    /// The oracle's answer to `op`, applied.
    fn answer(&mut self, op: Op) -> Reply {
        match op {
            Op::Get(k) => Reply::Found(self.get(k)),
            Op::Insert(k, v) => {
                self.insert(k, v);
                Reply::Inserted
            }
            Op::Remove(k) => Reply::Removed(self.remove(k)),
            Op::FirstGe(k) => Reply::Entry(self.first_ge(k)),
            Op::Scan { start, count } => Reply::Entries(self.scan(start, count)),
            Op::SumRange { start, count } => {
                let vals = self.scan(start, count);
                let sum = vals.iter().fold(0i64, |s, &(_, v)| s.wrapping_add(v));
                Reply::Sum {
                    visited: vals.len(),
                    sum,
                }
            }
        }
    }
}

/// One scripted step. Point ops and range reads are `Op`s; a batch is
/// not a session op, and a successor removal is the core `Rma`'s only:
/// the engine's legs skip it.
#[derive(Debug, Clone)]
enum Step {
    Op(Op),
    RemoveSuccessor(Key),
    Batch(Vec<(Key, Value)>, Vec<Key>),
}

/// The script: Zipf keys (`α = 1.5` over `[1, 64]`), values their
/// distinct ranks, an op mix that grows the stacks, probes past the
/// stored keys for misses and the maximum fallback, and, when
/// `batches`, a mixed batch now and then (inserts sorted by key with
/// equal keys in stream order, deletes in stream order).
fn script(seed: u64, steps: usize, batches: bool) -> Vec<Step> {
    let mut keys = KeyStream::new(
        Pattern::Zipf {
            alpha: 1.5,
            beta: 64,
        },
        seed,
    );
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (k, v) = keys.next_pair();
        // A probe: mostly a drawn key, sometimes a miss between or past them.
        let probe = match rng.next_below(8) {
            0 => k * 100,
            1 => 0,
            _ => k,
        };
        let step = match rng.next_below(32) {
            0..=13 => Step::Op(Op::Insert(k, v)),
            14..=18 => Step::Op(Op::Get(probe)),
            19..=22 => Step::Op(Op::Remove(k)),
            23..=24 => Step::Op(Op::FirstGe(probe)),
            25..=26 => Step::RemoveSuccessor(probe),
            27..=29 => Step::Op(Op::Scan {
                start: probe,
                count: 1 + rng.next_below(12) as usize,
            }),
            30 => Step::Op(Op::SumRange {
                start: probe,
                count: 1 + rng.next_below(40) as usize,
            }),
            _ if batches => {
                let mut inserts = keys.take_pairs(rng.next_below(24) as usize);
                inserts.sort_by_key(|p| p.0); // stable: equal keys keep stream order
                let deletes = (0..rng.next_below(6)).map(|_| keys.next_key()).collect();
                Step::Batch(inserts, deletes)
            }
            _ => Step::Op(Op::Insert(k, v)),
        };
        out.push(step);
    }
    out
}

/// The direct path's answer to `op`, as a session would reply.
fn rma_answer(r: &mut Rma, op: Op) -> Reply {
    match op {
        Op::Get(k) => Reply::Found(r.get(k)),
        Op::Insert(k, v) => {
            r.insert(k, v);
            Reply::Inserted
        }
        Op::Remove(k) => Reply::Removed(r.remove(k)),
        Op::FirstGe(k) => Reply::Entry(r.first_ge(k)),
        Op::Scan { start, count } => {
            let mut out = Vec::new();
            r.scan_into(start, count, &mut out);
            Reply::Entries(out)
        }
        Op::SumRange { start, count } => {
            let (visited, sum) = r.sum_range(start, count);
            Reply::Sum { visited, sum }
        }
    }
}

#[test]
fn direct_rma_answers_as_a_stack() {
    for seed in [1, 2, 3] {
        let mut r = Rma::new(small_rma());
        let mut oracle = Stacks::default();
        for (i, step) in script(seed, 20_000, true).into_iter().enumerate() {
            match step {
                Step::Op(op) => {
                    let want = oracle.answer(op);
                    assert_eq!(rma_answer(&mut r, op), want, "seed {seed} step {i}: {op:?}");
                }
                Step::RemoveSuccessor(k) => {
                    let want = oracle.remove_successor(k);
                    assert_eq!(
                        r.remove_successor(k),
                        want,
                        "seed {seed} step {i}: successor {k}"
                    );
                }
                Step::Batch(ins, dels) => {
                    let want = oracle.apply_batch(&ins, &dels);
                    assert_eq!(
                        r.apply_batch(&ins, &dels),
                        want,
                        "seed {seed} step {i}: batch"
                    );
                }
            }
        }
        r.check_invariants();
        let got: Vec<(Key, Value)> = r.iter().collect();
        assert_eq!(got, oracle.all(), "seed {seed}: scan order");
        let mut probes = oracle.probes();
        probes.push(65);
        let mut batch = vec![Some(Value::MIN); probes.len()];
        r.get_batch(&probes, &mut batch);
        for (&k, got) in probes.iter().zip(batch) {
            assert_eq!(got, oracle.get(k), "seed {seed}: get_batch({k})");
        }
    }
}

/// A read step or a batch on the engine, checked.
fn engine_step(s: &ShardedRma, oracle: &mut Stacks, step: &Step, at: &str) {
    match *step {
        Step::Op(Op::FirstGe(k)) => assert_eq!(s.first_ge(k), oracle.first_ge(k), "{at}"),
        Step::Op(Op::Scan { start, count }) => {
            let mut out = Vec::new();
            s.scan_into(start, count, &mut out);
            assert_eq!(out, oracle.scan(start, count), "{at}");
        }
        Step::Op(Op::SumRange { start, count }) => {
            let want = match oracle.answer(Op::SumRange { start, count }) {
                Reply::Sum { visited, sum } => (visited, sum),
                other => unreachable!("{other:?}"),
            };
            assert_eq!(s.sum_range(start, count), want, "{at}");
        }
        Step::RemoveSuccessor(_) => {}
        Step::Batch(ref ins, ref dels) => {
            assert_eq!(
                s.apply_batch(ins, dels),
                oracle.apply_batch(ins, dels),
                "{at}"
            )
        }
        Step::Op(op) => unreachable!("point op {op:?} outside a run"),
    }
}

fn point(op: Op) -> Option<PointOp> {
    match op {
        Op::Get(k) => Some(PointOp::Get(k)),
        Op::Insert(k, v) => Some(PointOp::Insert(k, v)),
        Op::Remove(k) => Some(PointOp::Remove(k)),
        _ => None,
    }
}

/// Checks `apply_ops`' answers to `run` against the oracle, in op
/// order, and applies the run to it.
fn check_run(oracle: &mut Stacks, run: &[PointOp], got: &[Option<Value>], at: &str) {
    assert_eq!(run.len(), got.len(), "{at}");
    for (&op, &got) in run.iter().zip(got) {
        let want = match op {
            PointOp::Get(k) => oracle.get(k),
            PointOp::Insert(k, v) => {
                oracle.insert(k, v);
                None
            }
            PointOp::Remove(k) => oracle.remove(k),
        };
        assert_eq!(got, want, "{at}: {op:?}");
    }
}

/// Point ops go through `apply_ops` in runs; between runs the engine
/// rebalances its shards — the hot low keys split their shard, the
/// cold high shards merge — and reads and (in the batch leg) batches
/// run on their own.
fn drive_engine(s: &ShardedRma, steps: &[Step], seed: u64) -> Stacks {
    let mut oracle = Stacks::default();
    let mut run: Vec<PointOp> = Vec::new();
    let mut runs = 0;
    let mut flush = |run: &mut Vec<PointOp>, oracle: &mut Stacks, at: usize| {
        if run.is_empty() {
            return;
        }
        let mut got = vec![Some(Value::MIN); run.len()];
        s.apply_ops(run, &mut got);
        check_run(
            oracle,
            run,
            &got,
            &format!("seed {seed} run ending at step {at}"),
        );
        run.clear();
        runs += 1;
        if runs % 8 == 0 {
            s.maintain();
            s.check_invariants();
        }
    };
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Op(op) if point(*op).is_some() => run.extend(point(*op)),
            _ => {
                flush(&mut run, &mut oracle, i);
                engine_step(
                    s,
                    &mut oracle,
                    step,
                    &format!("seed {seed} step {i}: {step:?}"),
                );
            }
        }
    }
    flush(&mut run, &mut oracle, steps.len());
    oracle
}

fn engine() -> ShardedRma {
    ShardedRma::with_splitters(small_shards(), Splitters::new(vec![16, 32, 48]))
}

fn assert_same_content(s: &ShardedRma, oracle: &Stacks, at: &str) {
    s.check_invariants();
    assert_eq!(s.collect_all(), oracle.all(), "{at}: scan order");
    let probes = oracle.probes();
    let mut got = vec![Some(Value::MIN); probes.len()];
    s.get_many(&probes, &mut got);
    for (&k, got) in probes.iter().zip(got) {
        assert_eq!(got, oracle.get(k), "{at}: get_many({k})");
    }
}

#[test]
fn apply_ops_answers_as_a_stack_across_splits_and_merges() {
    for seed in [11, 12] {
        let s = engine();
        let oracle = drive_engine(&s, &script(seed, 20_000, false), seed);
        assert_same_content(&s, &oracle, &format!("seed {seed}"));
        let ledger = s.maintenance_stats();
        assert!(
            ledger.splits > 0 && ledger.merges > 0,
            "seed {seed}: a split and a merge between runs: {ledger:?}"
        );
    }
}

#[test]
fn apply_batch_lands_at_the_front_in_batch_order() {
    for seed in [21, 22] {
        let s = engine();
        let oracle = drive_engine(&s, &script(seed, 20_000, true), seed);
        assert_same_content(&s, &oracle, &format!("seed {seed}"));
    }
    // The rule by itself: a stored member, then a batch of two.
    let s = engine();
    s.insert(5, 1);
    s.apply_batch(&[(5, 2), (5, 3), (6, 4)], &[]);
    assert_eq!(s.get(5), Some(2));
    assert_eq!(s.collect_all(), [(5, 2), (5, 3), (5, 1), (6, 4)]);
    assert_eq!(s.apply_batch(&[], &[5]), 1);
    assert_eq!(s.first_ge(5), Some((5, 3)));
}

/// The splitters a `Recut` leaves on `keys`, or `None` when the step
/// is stale there: an edge that is no boundary, an empty range, cuts
/// that do not ascend strictly inside the range, or cuts that are its
/// inner boundaries already.
fn recut_oracle(keys: &[Key], step: &MaintenanceStep) -> Option<Vec<Key>> {
    let MaintenanceStep::Recut { lo, hi, cuts } = step;
    let boundary = |edge: &Option<Key>| edge.is_none_or(|e| keys.contains(&e));
    let inside = |k: &Key| lo.is_none_or(|l| l < *k) && hi.is_none_or(|h| *k < h);
    let inner: Vec<Key> = keys.iter().copied().filter(inside).collect();
    let live = boundary(lo)
        && boundary(hi)
        && lo.zip(*hi).is_none_or(|(l, h)| l < h)
        && cuts.windows(2).all(|w| w[0] < w[1])
        && cuts.iter().all(inside)
        && inner != *cuts;
    live.then(|| {
        let below = keys.iter().copied().filter(|&k| lo.is_some_and(|l| k <= l));
        let above = keys.iter().copied().filter(|&k| hi.is_some_and(|h| k >= h));
        below.chain(cuts.iter().copied()).chain(above).collect()
    })
}

/// A `Recut` over shards `first..first + width` of `keys` (clamped to
/// the last shard), cut at those of `cuts` inside the range, then
/// `warp`ed: `0` moves the lower edge off its boundary, `1` reverses
/// the cuts, `2` makes them the range's inner boundaries, anything
/// else leaves the step as drawn.
fn recut_step(keys: &[Key], first: usize, width: usize, cuts: &[Key], warp: u8) -> MaintenanceStep {
    let splitters = Splitters::new(keys.to_vec());
    let n = splitters.num_shards();
    let first = first % n;
    let last = (first + width - 1).min(n - 1);
    let (mut lo, hi) = (splitters.range_of(first).0, splitters.range_of(last).1);
    let inside = |k: &Key| lo.is_none_or(|l| l < *k) && hi.is_none_or(|h| *k < h);
    let mut cuts: Vec<Key> = cuts.iter().copied().filter(inside).collect();
    cuts.sort_unstable();
    cuts.dedup();
    match warp {
        0 => lo = Some(lo.map_or(Key::MIN, |l| l + 1)),
        1 => cuts.reverse(),
        2 => cuts = keys.iter().copied().filter(inside).collect(),
        _ => {}
    }
    MaintenanceStep::Recut { lo, hi, cuts }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One step, `Recut`, differentially: random windows of one to
    /// four whole shards, zero to three cuts, and stale keys — edges
    /// off their boundaries, cuts out of order or already in place,
    /// windows drawn on the topology before the previous step — run
    /// one at a time while a writer drives `apply_ops` on the same
    /// shards. Each step executes exactly when `recut_oracle` says it
    /// is live, leaves the splitters it says, builds and drains the
    /// shards it names, and is filed once: a split when it built more
    /// shards than it took, a merge otherwise, skipped when stale. The
    /// writer's every answer, and the content left behind, is what the
    /// stack oracle says.
    #[test]
    fn recut_steps_keep_every_stack_under_concurrent_apply_ops(
        seed in 0u64..1 << 20,
        steps in prop::collection::vec(
            (0usize..16, 1usize..5, prop::collection::vec(-8i64..72, 0..4), 0u8..12),
            1..12,
        ),
    ) {
        let s = ShardedRma::with_splitters(small_shards(), Splitters::new((1..8).map(|i| i * 8).collect()));
        let ops: Vec<PointOp> = (script(seed, 4000, false).into_iter())
            .filter_map(|step| match step {
                Step::Op(op) => point(op),
                _ => None,
            })
            .collect();
        let (head, tail) = ops.split_at(ops.len() / 2);
        let mut oracle = Stacks::default();
        let mut got = vec![Some(Value::MIN); head.len()];
        s.apply_ops(head, &mut got);
        check_run(&mut oracle, head, &got, &format!("seed {seed} head"));
        let runs: Vec<&[PointOp]> = tail.chunks(32).collect();
        let done = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let writer = sc.spawn(|| {
                let mut replies = Vec::new();
                for run in &runs {
                    let mut got = vec![Some(Value::MIN); run.len()];
                    s.apply_ops(run, &mut got);
                    replies.extend(got);
                    done.fetch_add(1, Relaxed);
                }
                replies
            });
            let mut prev = s.splitters().keys().to_vec();
            for (i, (first, width, cuts, draw)) in steps.iter().enumerate() {
                // Spread the steps over the writer's runs.
                while done.load(Relaxed) < i * runs.len() / steps.len() {
                    std::thread::yield_now();
                }
                let keys = s.splitters().keys().to_vec();
                // Half the windows are drawn on the topology before the
                // previous step.
                let drawn_on = if draw % 2 == 1 { &prev } else { &keys };
                let step = recut_step(drawn_on, *first, *width, cuts, draw / 2);
                let want = recut_oracle(&keys, &step);
                let before = s.maintenance_stats();
                let report = s.execute_step(&mut s.plan_of(vec![step.clone()])).expect("one step planned");
                let after = s.maintenance_stats();
                let at = format!("seed {seed} step {i}: {step:?} on {keys:?}");
                prop_assert_eq!(report.executed, want.is_some(), "{}", at);
                prop_assert_eq!(after.topologies_published - before.topologies_published, u64::from(report.executed), "{}", at);
                match want {
                    Some(want) => {
                        let MaintenanceStep::Recut { cuts, .. } = &step;
                        let built = cuts.len() + 1;
                        let taken = keys.len() + built - want.len();
                        prop_assert_eq!(s.splitters().keys(), &want[..], "{}", at);
                        prop_assert_eq!((report.taken, report.built), (taken, built), "{}", at);
                        let split = u64::from(built > taken);
                        prop_assert_eq!(
                            (after.splits - before.splits, after.merges - before.merges),
                            (split, 1 - split),
                            "{}", at
                        );
                    }
                    None => {
                        prop_assert_eq!(s.splitters().keys(), &keys[..], "{}", at);
                        prop_assert_eq!((report.migrated, report.taken, report.built), (0, 0, 0), "{}", at);
                        prop_assert_eq!(after.steps_skipped - before.steps_skipped, 1, "{}", at);
                    }
                }
                prev = keys;
            }
            let replies = writer.join().expect("writer");
            check_run(&mut oracle, tail, &replies, &format!("seed {seed} tail"));
        });
        assert_same_content(&s, &oracle, &format!("seed {seed}"));
    }
}

/// A remote or in-process client: `call` submits `ops` and waits.
trait Client {
    fn call(&mut self, ops: &[Op]) -> Vec<Reply>;
}

impl Client for rma_repro::db::Session<'_> {
    fn call(&mut self, ops: &[Op]) -> Vec<Reply> {
        self.submit(ops).wait()
    }
}

impl Client for WireClient {
    fn call(&mut self, ops: &[Op]) -> Vec<Reply> {
        WireClient::call(self, ops).expect("wire call")
    }
}

/// Drives `steps` through `client` in submits of up to 64 ops. A read
/// of a range goes in a submit of its own after the writes before it
/// are answered, so it sees all of them however they ran; batches go
/// to `db` directly.
fn drive_client(db: &Db, client: &mut impl Client, steps: &[Step], oracle: &mut Stacks) {
    let mut pending: Vec<Op> = Vec::new();
    let mut send = |ops: &mut Vec<Op>, oracle: &mut Stacks| {
        if ops.is_empty() {
            return;
        }
        let got = client.call(ops);
        let want: Vec<Reply> = ops.iter().map(|&op| oracle.answer(op)).collect();
        assert_eq!(got, want, "submit {ops:?}");
        ops.clear();
    };
    for step in steps {
        match step {
            Step::Op(op) if point(*op).is_some() => {
                pending.push(*op);
                if pending.len() == 64 {
                    send(&mut pending, oracle);
                }
            }
            Step::Op(op) => {
                send(&mut pending, oracle);
                send(&mut vec![*op], oracle);
            }
            Step::RemoveSuccessor(_) => {}
            Step::Batch(ins, dels) => {
                send(&mut pending, oracle);
                assert_eq!(db.apply_batch(ins, dels), oracle.apply_batch(ins, dels));
            }
        }
    }
    send(&mut pending, oracle);
}

fn assert_db_matches(db: &Db, oracle: &Stacks, at: &str) {
    let mut all = Vec::new();
    db.scan(Key::MIN, usize::MAX, |k, v| all.push((k, v)));
    assert_eq!(all, oracle.all(), "{at}: scan order");
    for k in oracle.probes() {
        assert_eq!(db.get(k), oracle.get(k), "{at}: get({k})");
        assert_eq!(db.first_ge(k), oracle.first_ge(k), "{at}: first_ge({k})");
    }
}

fn db() -> Db {
    Db::builder()
        .shard_config(small_shards())
        .splitter_keys(vec![16, 32, 48])
        .build()
        .expect("valid config")
}

#[test]
fn a_session_answers_as_a_stack() {
    let db = db();
    let mut oracle = Stacks::default();
    let mut session = db.session();
    for (round, seed) in [31, 32].into_iter().enumerate() {
        drive_client(&db, &mut session, &script(seed, 10_000, true), &mut oracle);
        assert_db_matches(&db, &oracle, &format!("round {round}"));
        db.engine().maintain();
    }
}

#[test]
fn a_wire_client_answers_as_a_stack() {
    let db = Arc::new(db());
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut client = WireClient::connect(srv.port()).expect("connect");
    let mut oracle = Stacks::default();
    drive_client(&db, &mut client, &script(41, 10_000, true), &mut oracle);
    assert_db_matches(&db, &oracle, "over the wire");
}

#[test]
fn a_reopened_db_keeps_every_stack() {
    let dir = std::env::temp_dir().join(format!(
        "rma-key-contract-{}-{}",
        std::process::id(),
        rma_repro::rewiring::monotonic_ns()
    ));
    let db = Db::builder()
        .shard_config(small_shards())
        .splitter_keys(vec![16, 32, 48])
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("valid durable config");
    let mut oracle = Stacks::default();
    drive_client(
        &db,
        &mut db.session(),
        &script(51, 10_000, true),
        &mut oracle,
    );
    assert_db_matches(&db, &oracle, "before the drop");
    drop(db);
    // Replay of the whole log, then a checkpoint and more writes, then
    // the checkpoint loaded and the tail after it replayed.
    let db = Db::open(&dir).expect("reopen replays the log");
    assert_db_matches(&db, &oracle, "after replay");
    assert_eq!(db.engine().checkpoint(), db.engine().num_shards());
    drive_client(
        &db,
        &mut db.session(),
        &script(52, 4_000, true),
        &mut oracle,
    );
    drop(db);
    let db = Db::open(&dir).expect("reopen loads the checkpoint");
    assert_db_matches(&db, &oracle, "after checkpoint and tail");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
