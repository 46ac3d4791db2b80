//! Crash-recovery differential tests: a seeded kill-point sweep over
//! the WAL's entire I/O surface (appends, fsyncs, checkpoint seals,
//! manifest renames), each crash recovered and compared bit-for-bit
//! against a `BTreeMap` oracle of the *acknowledged* operations.
//!
//! The durability contract under test:
//!
//! * **no acknowledged write is ever lost** — recovery after a kill
//!   always yields at least the state after every `Ok`-returned
//!   operation;
//! * **no unacknowledged write half-applies** — recovery yields the
//!   oracle state after the acknowledged operations, possibly plus
//!   the single in-flight op whose log record reached the file
//!   before the crash — never a gap, a reorder, or invented data;
//! * **silent corruption is caught** — a bit flipped in a committed
//!   record, checkpoint segment, or manifest is detected by the
//!   checksum layer at recovery (or confined to a legal torn-tail
//!   truncation), never served back as fabricated data;
//! * **replay is idempotent** — recovering the same directory
//!   repeatedly yields bit-identical state (proptest below).

use rma_repro::db::{Db, DbError, DurabilityConfig, FaultInjector, FaultMode, IoClass, Op, Reply};
use rma_repro::obs::EventKind;
use rma_repro::rma::{RewiringMode, RmaConfig};
use rma_repro::shard::ShardConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rma-durability-{}-{}-{name}",
        std::process::id(),
        rma_repro::rewiring::monotonic_ns()
    ))
}

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

/// Deterministic split-mix style generator: same seed, same workload.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One scripted operation. Keys are kept unique in the engine (an
/// insert of a present key is issued as a remove instead), so a
/// `BTreeMap` is an exact oracle despite the engine keeping
/// duplicates in general.
#[derive(Debug, Clone, Copy)]
enum Scripted {
    Insert(i64, i64),
    Remove(i64),
}

fn apply_to_oracle(oracle: &mut BTreeMap<i64, i64>, op: Scripted) {
    match op {
        Scripted::Insert(k, v) => {
            oracle.insert(k, v);
        }
        Scripted::Remove(k) => {
            oracle.remove(&k);
        }
    }
}

fn dump(db: &Db) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    db.scan(i64::MIN, usize::MAX, |k, v| out.push((k, v)));
    out
}

fn oracle_pairs(oracle: &BTreeMap<i64, i64>) -> Vec<(i64, i64)> {
    oracle.iter().map(|(&k, &v)| (k, v)).collect()
}

/// What one scripted crash run left behind.
struct CrashRun {
    /// Operations acknowledged (`Ok`) before the crash, in order.
    acked: Vec<Scripted>,
    /// The single op in flight when the WAL degraded, if any.
    pending: Option<Scripted>,
    /// The I/O class the armed fault fired on, if it fired.
    fired: Option<IoClass>,
}

impl CrashRun {
    fn oracle(&self) -> BTreeMap<i64, i64> {
        let mut m = BTreeMap::new();
        for &op in &self.acked {
            apply_to_oracle(&mut m, op);
        }
        m
    }
}

/// Drives a deterministic workload against a durable `Db` with a
/// fault armed at `fire_after`, stopping at the first refused write.
/// A synchronous checkpoint (one unit per shard) runs after every
/// `ckpt_every` ops.
fn run_until_crash(
    dir: &Path,
    inj: Arc<FaultInjector>,
    total: usize,
    ckpt_every: usize,
) -> CrashRun {
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(dir).fault(inj.clone()))
        .build()
        .expect("valid durable config");

    let mut gen = Gen(0xda7a_ba5e ^ total as u64);
    let mut oracle = BTreeMap::new();
    let mut run = CrashRun {
        acked: Vec::new(),
        pending: None,
        fired: None,
    };
    for i in 0..total {
        // Spread the 512-key working set across the whole 62-bit
        // positive domain so every shard, and so every checkpoint
        // unit, sees traffic (the four uniform shards split at
        // multiples of 2^60; a compact 0..512 range would all land in
        // shard 0).
        let k = ((gen.next() % 512) as i64) << 53;
        let op = if oracle.contains_key(&k) {
            Scripted::Remove(k)
        } else {
            Scripted::Insert(k, i as i64)
        };
        let res = match op {
            Scripted::Insert(k, v) => db.try_insert(k, v),
            Scripted::Remove(k) => db.try_remove(k).map(|_| ()),
        };
        match res {
            Ok(()) => {
                apply_to_oracle(&mut oracle, op);
                run.acked.push(op);
            }
            Err(DbError::ReadOnly) => {
                // The in-flight op is durable only if its log record
                // reached the file before the crash point; recovery
                // may legally surface either state.
                run.pending = Some(op);
                assert!(db.is_read_only(), "refusal implies the degraded latch");
                break;
            }
        }
        if (i + 1) % ckpt_every == 0 {
            // On-demand checkpoint. A seal killed mid-I/O degrades
            // the WAL; the next write above observes it.
            db.engine().checkpoint();
        }
    }
    run.fired = inj.fired();
    run
}

/// Recovers `dir` and returns the recovered key/value pairs.
fn recover_pairs(dir: &Path) -> Vec<(i64, i64)> {
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(dir))
        .recover()
        .expect("recovery after a crash must succeed");
    assert!(!db.is_read_only(), "a recovered handle starts healthy");
    dump(&db)
}

/// The tentpole differential: 120 seeded kill-points swept across
/// every instrumented I/O site. Each crash recovers to the oracle of
/// acknowledged ops (possibly plus the one in-flight op) — never
/// less, never anything else.
#[test]
fn kill_point_sweep_never_loses_acknowledged_writes() {
    let mut classes_hit = Vec::new();
    let mut fired_count = 0u32;
    for seed in 1..=120u64 {
        let dir = scratch(&format!("kill-{seed}"));
        let run = run_until_crash(&dir, FaultInjector::new(seed, FaultMode::Kill), 400, 24);
        let got = recover_pairs(&dir);

        let oracle = run.oracle();
        let acked = oracle_pairs(&oracle);
        let ok = if got == acked {
            true
        } else if let Some(op) = run.pending {
            let mut with_pending = oracle.clone();
            apply_to_oracle(&mut with_pending, op);
            got == oracle_pairs(&with_pending)
        } else {
            false
        };
        assert!(
            ok,
            "seed {seed} (fired on {:?}): recovered state is neither the \
             acknowledged oracle ({} pairs) nor acknowledged+in-flight \
             (got {} pairs)",
            run.fired,
            acked.len(),
            got.len()
        );
        if let Some(class) = run.fired {
            fired_count += 1;
            if !classes_hit.contains(&class) {
                classes_hit.push(class);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        fired_count >= 100,
        "the sweep must actually exercise ≥100 kill-points (got {fired_count})"
    );
    for class in [
        IoClass::AppendWrite,
        IoClass::Fsync,
        IoClass::SealWrite,
        IoClass::ManifestRename,
    ] {
        assert!(
            classes_hit.contains(&class),
            "sweep never landed a kill on {class:?} — widen the seed range"
        );
    }
}

/// Bit flips are silent at write time but must never surface as
/// fabricated data. A flip that lands in state still live at
/// recovery (the final checkpoint segments, the manifest, a
/// non-tail log record) is *detected* by the checksum layer; a flip
/// confined to a replayable log tail may legally be chopped off as a
/// torn tail. In every `Ok` recovery, each surviving pair must be
/// one the workload actually acknowledged — bit-for-bit.
///
/// The workload shape pins the final checkpoint wave late (one wave
/// at op 50 of 60) so flip seeds land in artifacts that survive to
/// recovery instead of being rewritten by later waves.
#[test]
fn bit_flips_are_caught_by_checksums() {
    let mut detected = 0u32;
    let mut fired_total = 0u32;
    for seed in 1..=160u64 {
        let dir = scratch(&format!("flip-{seed}"));
        let run = run_until_crash(&dir, FaultInjector::new(seed, FaultMode::BitFlip), 60, 50);
        if run.fired.is_none() {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        fired_total += 1;
        // Every pair the run ever acknowledged as inserted; values
        // are unique per op index, so any recovered pair outside
        // this set is fabricated data leaking through a checksum.
        let ever_acked: BTreeSet<(i64, i64)> = run
            .acked
            .iter()
            .filter_map(|op| match op {
                Scripted::Insert(k, v) => Some((*k, *v)),
                Scripted::Remove(_) => None,
            })
            .collect();
        let recovered = Db::builder()
            .shard_config(small_shards())
            .durability(DurabilityConfig::new(&dir))
            .recover();
        match recovered {
            // Detected: the checksum layer refused the corrupt bytes.
            Err(e) => {
                detected += 1;
                let msg = e.to_string();
                assert!(
                    msg.contains("durability"),
                    "corruption surfaces as a durability error, got: {msg}"
                );
            }
            // Recovered cleanly: the flip was harmless (an fsync, or
            // a record a later checkpoint obsoleted) or a legal
            // tail truncation. Either way, nothing fabricated.
            Ok(db) => {
                let got = dump(&db);
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "seed {seed}: recovered keys must be sorted and unique"
                );
                for pair in &got {
                    assert!(
                        ever_acked.contains(pair),
                        "seed {seed}: recovered pair {pair:?} was never \
                         acknowledged — corruption leaked through"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        fired_total >= 100,
        "flip sweep barely fired ({fired_total})"
    );
    assert!(
        detected >= 4,
        "at least some flips must corrupt durable state and be detected \
         (got {detected}/{fired_total})"
    );
}

/// A clean shutdown (no fault at all) recovers to exactly the full
/// oracle, and the recovered handle keeps serving durable writes —
/// also one whose ticket was dropped unwaited: dropping the `Db` runs
/// the barrier no wait ran.
#[test]
fn clean_shutdown_recovers_exactly_and_stays_writable() {
    let dir = scratch("clean");
    let run = run_until_crash(&dir, FaultInjector::new(u64::MAX, FaultMode::Kill), 400, 24);
    assert!(run.fired.is_none() && run.pending.is_none());
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir))
        .recover()
        .expect("clean recovery");
    assert_eq!(dump(&db), oracle_pairs(&run.oracle()));
    // The recovered handle is a full citizen: sessions route writes,
    // writes commit, and a second recovery sees them.
    let mut s = db.session();
    let replies = s.submit(&[Op::Insert(100_000, 1), Op::Get(100_000)]).wait();
    assert_eq!(replies, vec![Reply::Inserted, Reply::Found(Some(1))]);
    drop(s.submit(&[Op::Insert(100_001, 2)]));
    drop(s);
    drop(db);
    let db = Db::open(&dir).expect("open routes to recovery");
    assert_eq!(db.get(100_000), Some(1));
    assert_eq!(db.get(100_001), Some(2), "the last barrier ran at drop");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint is what keeps crash recovery from replaying the whole
/// log: writes, one explicit seal, more writes — recovery replays
/// exactly the writes after the seal, and matches the oracle.
#[test]
fn a_checkpoint_shortens_the_replayed_tail() {
    const OPS: usize = 600;
    const SEALED: usize = 250;
    let dir = scratch("tail");
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("valid durable config");
    // Unique keys (7919 is odd, so `i -> 7919 i mod 4096` is a
    // bijection) spread over all four shards.
    let pairs: Vec<(i64, i64)> = (0..OPS as i64)
        .map(|i| ((i * 7919 % 4096) << 50, i))
        .collect();
    let mut session = db.session();
    let mut write = |frame: &[(i64, i64)]| {
        let ops: Vec<Op> = frame.iter().map(|&(k, v)| Op::Insert(k, v)).collect();
        let replies = session.submit(&ops).wait();
        assert!(replies.iter().all(|r| *r == Reply::Inserted), "{replies:?}");
    };
    pairs[..SEALED].chunks(50).for_each(&mut write);
    assert_eq!(db.engine().checkpoint(), db.engine().num_shards());
    pairs[SEALED..].chunks(50).for_each(&mut write);
    drop(session);
    drop(db);
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir))
        .recover()
        .expect("recovery");
    let oracle: BTreeMap<i64, i64> = pairs.into_iter().collect();
    assert_eq!(dump(&db), oracle_pairs(&oracle));
    let journal = db.metrics().journal;
    let recovery = journal.iter().find(|e| e.kind == EventKind::Recovery);
    let replayed = recovery.expect("recovery is journaled").keys;
    assert_eq!(
        replayed,
        (OPS - SEALED) as u64,
        "only the writes after the seal"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint is not a maintenance step: it seals every shard and
/// journals one `checkpoint` event per shard, whose elements add up to
/// the content, while the maintenance ledger and the step-duration
/// histogram stay where they were.
#[test]
fn a_checkpoint_is_not_a_maintenance_step() {
    let dir = scratch("not-a-step");
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("valid durable config");
    // Unique keys over all four shards, as in the tail test.
    for i in 0..1000i64 {
        db.insert((i * 7919 % 4096) << 50, i);
    }
    let ledger = db.engine().maintenance_stats();
    let steps = db.metrics().step_duration.count();
    let shards = db.engine().num_shards();
    assert_eq!(db.engine().checkpoint(), shards);
    assert_eq!(
        db.engine().maintenance_stats(),
        ledger,
        "a seal moves no maintenance counter"
    );
    let m = db.metrics();
    assert_eq!(m.step_duration.count(), steps, "a seal is not a step");
    let seals: Vec<_> = (m.journal.iter())
        .filter(|e| e.kind == EventKind::Checkpoint)
        .collect();
    assert_eq!(
        seals.iter().map(|e| e.shard as usize).collect::<Vec<_>>(),
        (0..shards).collect::<Vec<_>>(),
        "one event per shard, in shard order"
    );
    assert_eq!(seals.iter().map(|e| e.keys).sum::<u64>(), 1000);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint's units are the live shards: over 2^16 sequential
/// keys bulk-loaded into 8 shards, `checkpoint()` seals one unit per
/// shard, journals one `checkpoint` event per shard in shard order,
/// and no event carries more than the largest shard — where a fixed
/// partitioning of the whole key domain would put every key in one
/// unit and lock every shard to copy it.
#[test]
fn a_checkpoint_seals_one_unit_per_shard() {
    let dir = scratch("per-shard");
    let batch: Vec<(i64, i64)> = (0..1i64 << 16).map(|i| (i, i)).collect();
    let db = Db::builder()
        .shard_config(ShardConfig {
            num_shards: 8,
            ..small_shards()
        })
        .durability(DurabilityConfig::new(&dir))
        .build_bulk(&batch)
        .expect("durable bulk load");
    let seals = |db: &Db| -> Vec<(usize, u64)> {
        (db.metrics().journal.iter())
            .filter(|e| e.kind == EventKind::Checkpoint)
            .map(|e| (e.shard as usize, e.keys))
            .collect()
    };
    let shards = db.engine().num_shards();
    assert_eq!(shards, 8);
    let before = seals(&db).len();
    assert_eq!(db.engine().checkpoint(), shards);
    let events = seals(&db).split_off(before);
    assert_eq!(
        events.iter().map(|&(j, _)| j).collect::<Vec<_>>(),
        (0..shards).collect::<Vec<_>>(),
        "one event per shard, in shard order"
    );
    let snapshot = db.engine().stats_snapshot();
    let largest = snapshot.shards.iter().map(|s| s.len as u64).max();
    assert!(
        events.iter().all(|&(_, n)| Some(n) <= largest),
        "{events:?}"
    );
    assert_eq!(events.iter().map(|&(_, n)| n).sum::<u64>(), db.len() as u64);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Maintenance may re-cut the shards without a single log record, so
/// a second checkpoint can draw the very cuts of the first over a new
/// topology. Killed at each of that checkpoint's I/O sites in turn, it
/// never damages the committed one: every kill recovers exactly the
/// acknowledged writes.
#[test]
fn a_checkpoint_after_a_recut_survives_a_kill_at_each_io_site() {
    let keys: Vec<Op> = (0..1024i64).map(|k| Op::Insert(k, -k)).collect();
    let oracle: Vec<(i64, i64)> = (0..1024i64).map(|k| (k, -k)).collect();
    let (mut kills, mut units) = (0, 0);
    for k in 1.. {
        let dir = scratch(&format!("recut-kill-{k}"));
        let inj = FaultInjector::new(k, FaultMode::Kill);
        let db = Db::builder()
            .shard_config(ShardConfig {
                max_shard_len: Some(256),
                ..small_shards()
            })
            .durability(DurabilityConfig::new(&dir).fault(Arc::clone(&inj)))
            .build()
            .expect("valid durable config");
        db.session().submit(&keys).wait();
        let before = db.engine().num_shards();
        let first = db.engine().checkpoint();
        if inj.fired().is_some() {
            // The kill landed before the re-cut: the sweep above
            // covers those sites.
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        assert_eq!(first, before);
        db.engine().maintain();
        let after = db.engine().num_shards();
        assert_ne!(after, before, "maintenance re-cut nothing");
        let second = db.engine().checkpoint();
        let fired = inj.fired();
        drop(db);
        let got = recover_pairs(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(got, oracle, "kill {k} ({fired:?})");
        if fired.is_none() {
            assert_eq!(second, after);
            units = after;
            break;
        }
        assert_eq!(second, 0, "a killed seal reports failure");
        kills += 1;
    }
    // Each unit's segment: write, fsync, rename; one directory sync
    // for all the renames; then the manifest's four. The rotation has
    // no record to sync: none was appended since the first
    // checkpoint's.
    assert_eq!(kills, 3 * units + 5);
}

/// `Insert k`, `Remove k`, `Insert k` and a duplicate `Insert k` in
/// one submit run as one shard group, staged with one append: the log
/// holds them as one frame under consecutive LSNs in op order, and a reopen
/// restores the same stack, the newest member in front.
#[test]
fn one_keys_ops_in_one_submit_log_consecutive_lsns_in_op_order() {
    const K: i64 = 4242;
    let dir = scratch("one-key-run");
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("valid durable config");
    let ops = [
        Op::Insert(K, 1),
        Op::Remove(K),
        Op::Insert(K, 2),
        Op::Insert(K, 3),
    ];
    let replies = db.session().submit(&ops).wait();
    let want = [
        Reply::Inserted,
        Reply::Removed(Some(1)),
        Reply::Inserted,
        Reply::Inserted,
    ];
    assert_eq!(replies, want);
    assert_eq!((db.get(K), dump(&db)), (Some(3), vec![(K, 3), (K, 2)]));
    drop(db);
    // The group is one frame: an 8-byte header, the first LSN, then
    // `kind u8 · key i64 · value i64` an op, little-endian (kind 0
    // inserts, 1 removes); the ops take consecutive LSNs from it.
    let log = std::fs::read(dir.join("wal_1.log")).expect("the log");
    assert_eq!(log.len(), 8 + 8 + 4 * 17, "one frame of four ops");
    let field = |at: usize| i64::from_le_bytes(log[at..at + 8].try_into().expect("8 bytes"));
    assert_eq!(field(8), 1, "the group's first LSN");
    let records: Vec<(u8, i64, i64)> = (0..4)
        .map(|i| 16 + 17 * i)
        .map(|at| (log[at], field(at + 1), field(at + 9)))
        .collect();
    assert_eq!(records, [(0, K, 1), (1, K, 0), (0, K, 2), (0, K, 3)]);
    let db = Db::open(&dir).expect("reopen recovers");
    assert_eq!((db.get(K), dump(&db)), (Some(3), vec![(K, 3), (K, 2)]));
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn group vanishes whole: two submits, each of three keys in one
/// shard, log one frame each; a crash that tears the second frame
/// leaves every op of the first group and none of the second.
#[test]
fn a_torn_group_vanishes_whole() {
    let dir = scratch("torn-group");
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("valid durable config");
    let mut s = db.session();
    for group in [[1, 2, 3], [4, 5, 6]] {
        let ops = group.map(|k| Op::Insert(k, -k));
        assert_eq!(s.submit(&ops).wait(), [(); 3].map(|_| Reply::Inserted));
    }
    drop(s);
    drop(db);
    let path = dir.join("wal_1.log");
    let frame = 8 + 8 + 3 * 17;
    let log = std::fs::read(&path).expect("the log");
    assert_eq!(log.len(), 2 * frame, "one frame a group");
    std::fs::write(&path, &log[..frame + frame / 2]).expect("tear the second frame");
    assert_eq!(recover_pairs(&dir), [(1, -1), (2, -2), (3, -3)]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch lays its members of a key on the front of the key's stack,
/// in batch order; its log records replay one push at a time into the
/// same stack, and so does a checkpoint of it.
#[test]
fn a_batch_and_its_replay_leave_the_same_stack() {
    const K: i64 = 4242;
    let dir = scratch("batch-stack");
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("valid durable config");
    db.insert(K, 1);
    db.apply_batch(&[(K, 2), (K, 3)], &[]);
    let before = (db.get(K), dump(&db));
    assert_eq!(before, (Some(2), vec![(K, 2), (K, 3), (K, 1)]));
    drop(db);
    let db = Db::open(&dir).expect("reopen replays the log");
    assert_eq!((db.get(K), dump(&db)), before, "after replay");
    assert_eq!(db.engine().checkpoint(), db.engine().num_shards());
    drop(db);
    let db = Db::open(&dir).expect("reopen loads the checkpoint");
    assert_eq!((db.get(K), dump(&db)), before, "after a checkpoint");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A durable bulk load is a checkpoint: the reopen loads the batch
/// from the segments and replays no record, and one more insert
/// replays as exactly one.
#[test]
fn a_durable_bulk_load_reopens_with_nothing_to_replay() {
    let dir = scratch("bulk");
    let batch: Vec<(i64, i64)> = (0..4096i64).map(|i| (i << 50, i)).collect();
    let replayed = |db: &Db| {
        let journal = db.metrics().journal;
        let recovery = journal.iter().find(|e| e.kind == EventKind::Recovery);
        recovery.expect("recovery is journaled").keys
    };
    let build = || {
        Db::builder()
            .shard_config(small_shards())
            .durability(DurabilityConfig::new(&dir))
    };
    drop(build().build_bulk(&batch).expect("durable bulk load"));
    let db = build().recover().expect("reopen");
    assert_eq!((replayed(&db), dump(&db)), (0, batch.clone()));
    db.insert(-1, -1);
    drop(db);
    let db = build().recover().expect("second reopen");
    assert_eq!(
        (replayed(&db), db.len(), db.get(-1)),
        (1, batch.len() + 1, Some(-1))
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// `Db::open` on a fresh directory creates; on an existing WAL it
/// recovers — the round trip preserves data with zero configuration.
#[test]
fn open_creates_then_reopens() {
    let dir = scratch("open");
    let db = Db::open(&dir).expect("fresh open creates");
    db.insert(7, 700);
    db.insert(-3, 30);
    drop(db);
    let db = Db::open(&dir).expect("second open recovers");
    assert_eq!(db.get(7), Some(700));
    assert_eq!(db.get(-3), Some(30));
    assert_eq!(db.len(), 2);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// After a crash, the router path refuses writes (typed `Refused`
/// replies) while reads keep serving, and the journal carries the
/// one-time `degraded_mode` event.
#[test]
fn degraded_mode_refuses_writes_serves_reads_and_journals() {
    let dir = scratch("degraded");
    let inj = FaultInjector::new(9, FaultMode::Kill);
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&dir).fault(inj.clone()))
        .build()
        .expect("valid");
    let mut s = db.session();
    let mut degraded_seen = false;
    for k in 0..32i64 {
        let replies = s.submit(&[Op::Insert(k, k)]).wait();
        match replies[0] {
            Reply::Inserted => {}
            Reply::Refused => {
                degraded_seen = true;
                break;
            }
            ref other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(degraded_seen, "the armed kill must refuse some write");
    assert!(db.is_read_only());
    // Reads still serve from memory.
    let replies = s.submit(&[Op::Get(0)]).wait();
    assert_eq!(replies[0], Reply::Found(Some(0)));
    // Direct writes report the degradation through the checked
    // variants instead of panicking.
    assert_eq!(db.try_insert(999, 1), Err(DbError::ReadOnly));
    // The transition was journaled exactly once.
    let metrics = db.metrics();
    let degraded_events = metrics
        .journal
        .iter()
        .filter(|e| e.kind.name() == "degraded_mode")
        .count();
    assert_eq!(degraded_events, 1, "one degraded_mode event");
    assert!(metrics.wal.expect("wal metrics present").degraded);
    drop(s);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A pipeline of waits shares one barrier: the first wait commits the
/// 32 insert batches submitted before it, and the other 31 find their
/// writes covered. A failed barrier refuses every write it was to make
/// durable — its own ticket's and those of every ticket behind it — and
/// leaves the database read-only.
#[test]
fn a_pipeline_shares_one_barrier_and_a_failed_one_refuses_what_it_covered() {
    for fail in [false, true] {
        let dir = scratch("pipeline");
        let mut cfg = DurabilityConfig::new(&dir);
        // Every key sits in partition 0, so the first barrier is one
        // log write and then the first fsync.
        let inj = FaultInjector::new(2, FaultMode::Error);
        if fail {
            cfg = cfg.fault(Arc::clone(&inj));
        }
        let db = Db::builder()
            .shard_config(small_shards())
            .durability(cfg)
            .build()
            .expect("valid durable config");
        let commits = || db.metrics().wal.expect("durable").commit.count();
        let before = commits();
        let mut s = db.session();
        let tickets: Vec<_> = (0..32i64)
            .map(|b| s.submit(&(0..8).map(|i| Op::Insert(b * 8 + i, i)).collect::<Vec<_>>()))
            .collect();
        let want = if fail {
            Reply::Refused
        } else {
            Reply::Inserted
        };
        for (b, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), [(); 8].map(|_| want.clone()), "batch {b}");
        }
        if fail {
            assert_eq!(inj.fired(), Some(IoClass::Fsync));
            assert!(db.is_read_only());
            assert_eq!(commits(), before, "a failed barrier records no commit");
        } else {
            assert_eq!(commits(), before + 1, "32 waits, one barrier");
            assert!(!db.is_read_only());
        }
        drop(s);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The files the parent of the shared-checksum change left behind
/// after: three inserts, one checkpoint wave, one more insert, clean
/// drop — one partition, `small_shards()`. Byte literals, not
/// regenerated: they pin the checksum *values* on disk.
const FIXTURE_MANIFEST: &[u8] =
    b"rma-wal v1\npartitions=1\nsplitters=\nckpt=0,3,ckpt_0_3.seg,3,07d8cebf\ncrc=0ef16e49\n";
const FIXTURE_SEGMENT: &[u8] = &[
    0xd6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbc, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
];
/// One framed log record: lsn 4, `Insert(123, 456)`.
const FIXTURE_LOG: &[u8] = &[
    0x19, 0x00, 0x00, 0x00, 0xe6, 0x8b, 0xfb, 0x98, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x7b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc8, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00,
];

/// On-disk formats are value-compatible across checksum kernels: the
/// same operations re-encode the older version's unit-0 files
/// bit-for-bit, and those files recover. A fresh database checkpoints
/// one unit per shard (four) where the fixture has one, and names its
/// segments `ckpt_<generation>_<unit>.seg`, so only the manifest's
/// unit-0 line re-encodes — naming `ckpt_0_0.seg` where the fixture,
/// written under `ckpt_<partition>_<cut>.seg` names, has
/// `ckpt_0_3.seg`; its whole-file `crc=` value is checked by
/// recovering the fixture.
#[test]
fn files_written_by_an_earlier_version_reencode_and_recover() {
    let files = [
        ("MANIFEST", FIXTURE_MANIFEST),
        ("ckpt_0_3.seg", FIXTURE_SEGMENT),
        ("wal_4.log", FIXTURE_LOG),
    ];
    let pairs = [(-42i64, 99i64), (7, 700), (123, 456), (1 << 53, -1)];

    let fresh = scratch("fixture-fresh");
    let db = Db::builder()
        .shard_config(small_shards())
        .durability(DurabilityConfig::new(&fresh))
        .build()
        .expect("valid durable config");
    for (k, v) in [pairs[0], pairs[1], pairs[3]] {
        db.try_insert(k, v).expect("healthy");
    }
    assert_eq!(db.engine().checkpoint(), 4);
    db.try_insert(pairs[2].0, pairs[2].1).expect("healthy");
    drop(db);
    let mut left: Vec<String> = std::fs::read_dir(&fresh)
        .expect("wal dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    left.sort();
    let segments = [
        "ckpt_0_0.seg",
        "ckpt_0_1.seg",
        "ckpt_0_2.seg",
        "ckpt_0_3.seg",
    ];
    assert_eq!(
        left,
        [["MANIFEST"].as_slice(), &segments, &["wal_4.log"]].concat()
    );
    let manifest = std::fs::read_to_string(fresh.join("MANIFEST")).expect("readable");
    assert!(
        manifest.contains("\nckpt=0,3,ckpt_0_0.seg,3,07d8cebf\n"),
        "{manifest}"
    );
    for (name, bytes) in [
        ("ckpt_0_0.seg", FIXTURE_SEGMENT),
        ("wal_4.log", FIXTURE_LOG),
    ] {
        assert_eq!(
            std::fs::read(fresh.join(name)).expect("readable"),
            bytes,
            "{name} differs from the earlier version's bytes"
        );
    }
    for name in &segments[1..] {
        let empty = std::fs::read(fresh.join(name)).expect("readable");
        assert!(empty.is_empty(), "{name}: the other shards hold nothing");
    }
    std::fs::remove_dir_all(&fresh).ok();

    let old = scratch("fixture-old");
    std::fs::create_dir_all(&old).expect("scratch dir");
    for (name, bytes) in files {
        std::fs::write(old.join(name), bytes).expect("writable");
    }
    assert_eq!(recover_pairs(&old), pairs);
    std::fs::remove_dir_all(&old).ok();
}

mod replay_idempotence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Recovering the same directory repeatedly is idempotent:
        /// a recovery itself truncates torn tails and heals debris,
        /// so the second and third recoveries must yield
        /// bit-identical state — replaying the log tail twice must
        /// not double-apply a single record.
        #[test]
        fn recovery_is_idempotent(
            seed in 1u64..200,
            keys in prop::collection::vec(0i64..256, 1..120),
        ) {
            let dir = scratch(&format!("idem-{seed}"));
            let inj = FaultInjector::new(seed, FaultMode::Kill);
            let db = Db::builder()
                .shard_config(small_shards())
                .durability(
                    DurabilityConfig::new(&dir)
                        .fault(inj),
                )
                .build()
                .expect("valid");
            for (i, &k) in keys.iter().enumerate() {
                let r = if i % 3 == 2 {
                    db.try_remove(k).map(|_| ())
                } else {
                    db.try_insert(k, i as i64)
                };
                if r.is_err() {
                    break;
                }
                if (i + 1) % 16 == 0 {
                    db.engine().checkpoint();
                }
            }
            drop(db);
            let first = recover_pairs(&dir);
            let second = recover_pairs(&dir);
            prop_assert_eq!(&first, &second, "second recovery diverged");
            let third = recover_pairs(&dir);
            prop_assert_eq!(&first, &third, "third recovery diverged");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
