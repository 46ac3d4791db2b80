//! Concurrent stress: readers hammer the optimistic path while a
//! maintenance loop restructures the topology underneath them.
//!
//! Every value stored is its own key, so a torn or stale-pointer read
//! is detectable from a single sample: any `get(k)` returning
//! something other than `Some(k)`/`None`, or a scan visiting `(k, v)`
//! with `v != k`, is a protocol violation. After the threads quiesce
//! the index must agree with a `BTreeMap` oracle rebuilt from the
//! deterministic insert schedule.
//!
//! Iteration counts honour `STRESS_OPS` (per reader thread) so CI can
//! bound the run; the default keeps the test under a few seconds.

use rma_core::{RewiringMode, RmaConfig};
use rma_db::Db;
use rma_shard::{MaintainerConfig, ShardConfig};
use std::sync::atomic::{
    AtomicBool, AtomicI64, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Barrier;
use std::time::Duration;
use workloads::SplitMix64;

use proptest::prelude::*;

fn stress_ops() -> u64 {
    std::env::var("STRESS_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000)
}

fn stress_cfg(shards: usize) -> ShardConfig {
    ShardConfig {
        num_shards: shards,
        rma: RmaConfig {
            segment_size: 16,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 24,
            ..Default::default()
        },
        min_split_len: 128,
        decay_every: 1024,
        ..Default::default()
    }
}

/// Readers (gets + scans) race a writer that alternates inserts with
/// full `maintain()` passes. No reader may ever observe a torn value,
/// and the quiesced index must match the oracle exactly.
#[test]
fn readers_vs_maintenance_stress() {
    const PRELOADED: i64 = 20_000;
    const WRITER_BASE: i64 = 1_000_000; // disjoint from the preload
    let ops = stress_ops();

    let base: Vec<(i64, i64)> = (0..PRELOADED).map(|k| (k, k)).collect();
    let db = Db::builder()
        .router_workers(1) // engine-only stress: no session traffic
        .shard_config(stress_cfg(8))
        .build_bulk(&base)
        .expect("valid stress config");
    let index = db.engine();
    let stop = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let inserted = AtomicU64::new(0);

    std::thread::scope(|sc| {
        let (index, stop, torn, inserted) = (index, &stop, &torn, &inserted);
        for t in 0..2u64 {
            sc.spawn(move || {
                let mut rng = SplitMix64::new(0xD00D + t);
                for i in 0..ops {
                    let k = rng.next_below(PRELOADED as u64) as i64;
                    match index.get(k) {
                        Some(v) if v == k => {}
                        Some(v) => {
                            eprintln!("torn get: key {k} value {v}");
                            torn.fetch_add(1, Relaxed);
                        }
                        // Preloaded keys are never removed.
                        None => {
                            eprintln!("lost key {k}");
                            torn.fetch_add(1, Relaxed);
                        }
                    }
                    if i % 64 == 0 {
                        // Stitched scan: keys monotone, values identity.
                        let start = rng.next_below(PRELOADED as u64) as i64;
                        let mut prev = i64::MIN;
                        index.scan(start, 50, |k, v| {
                            if v != k || k < start || k < prev {
                                eprintln!("torn scan visit: ({k}, {v}) start {start}");
                                torn.fetch_add(1, Relaxed);
                            }
                            prev = k;
                        });
                        // Optimistic sum over identity values within the
                        // preload is bounded by the key range sum.
                        let (n, _) = index.sum_range(start, 10);
                        assert!(n <= 10);
                    }
                }
                stop.store(true, Relaxed);
            });
        }
        sc.spawn(move || {
            // Writer: grow a disjoint key range (hammering one region
            // so re-learning has a reason to fire) and run maintenance
            // inline between bursts.
            let mut next = WRITER_BASE;
            while !stop.load(Relaxed) {
                for _ in 0..256 {
                    index.insert(next, next);
                    next += 1;
                }
                inserted.store((next - WRITER_BASE) as u64, Relaxed);
                let _ = index.maintain();
            }
        });
    });

    assert_eq!(torn.load(Relaxed), 0, "torn/lost reads observed");
    index.check_invariants();
    // Quiesced content must equal the oracle exactly.
    let n_inserted = inserted.load(Relaxed) as i64;
    let mut oracle: Vec<(i64, i64)> = (0..PRELOADED).map(|k| (k, k)).collect();
    // The writer may have raced past its last published count by a
    // partial burst; recompute from the index tail instead of trusting
    // the counter for the final elements.
    let actual = index.collect_all();
    let writer_elems: Vec<(i64, i64)> = actual
        .iter()
        .copied()
        .filter(|&(k, _)| k >= WRITER_BASE)
        .collect();
    assert!(writer_elems.len() as i64 >= n_inserted);
    for (i, &(k, v)) in writer_elems.iter().enumerate() {
        assert_eq!(k, WRITER_BASE + i as i64, "writer keys must be dense");
        assert_eq!(v, k);
    }
    oracle.extend(writer_elems);
    assert_eq!(actual, oracle, "quiesced index diverges from oracle");
}

/// The background maintainer thread races readers; same detection
/// scheme, with the maintainer (not an inline loop) doing the churn.
#[test]
fn readers_vs_background_maintainer_stress() {
    const PRELOADED: i64 = 20_000;
    let ops = stress_ops();
    let base: Vec<(i64, i64)> = (0..PRELOADED).map(|k| (k, k)).collect();
    let db = Db::builder()
        .router_workers(1) // engine-only stress: no session traffic
        .shard_config(stress_cfg(8))
        .maintenance(MaintainerConfig {
            poll_interval: Duration::from_millis(1),
            imbalance_trigger: 1.1,
            min_ops_between: 256,
            step_pause: Duration::from_micros(100),
            ..Default::default()
        })
        .build_bulk(&base)
        .expect("valid stress config");
    let index = db.engine();

    std::thread::scope(|sc| {
        for t in 0..2u64 {
            let index = &index;
            sc.spawn(move || {
                let mut rng = SplitMix64::new(0xFEED + t);
                for _ in 0..ops {
                    // Hammer a narrow band so the maintainer has a
                    // real imbalance to react to.
                    let k = if rng.next_below(10) < 9 {
                        rng.next_below(1000) as i64
                    } else {
                        rng.next_below(PRELOADED as u64) as i64
                    };
                    assert_eq!(index.get(k), Some(k), "reader saw a wrong value");
                }
            });
        }
    });
    let stats = db.stop_maintenance().expect("maintainer was running");
    index.check_invariants();
    assert_eq!(index.len(), PRELOADED as usize);
    assert_eq!(
        index.collect_all(),
        (0..PRELOADED).map(|k| (k, k)).collect::<Vec<_>>()
    );
    // Not asserted (timing-dependent on 1-cpu hosts), but usually > 0;
    // surface it for debugging.
    eprintln!(
        "maintainer: polls={} runs={} relearns={} splits={} merges={} shards={}",
        stats.polls,
        stats.runs,
        stats.relearns,
        stats.splits,
        stats.merges,
        index.num_shards()
    );
}

/// Mixed batched writes race maintenance; the retry/re-route path for
/// retired shards must neither lose nor duplicate sub-batches.
#[test]
fn apply_batch_vs_maintenance_stress() {
    let rounds = (stress_ops() / 1000).clamp(8, 64);
    let db = Db::builder()
        .router_workers(1) // engine-only stress: no session traffic
        .shard_config(stress_cfg(4))
        .splitter_keys(vec![2500, 5000, 7500])
        .build()
        .expect("valid stress config");
    let index = db.engine();
    let stop = AtomicBool::new(false);
    std::thread::scope(|sc| {
        let (index, stop) = (index, &stop);
        sc.spawn(move || {
            while !stop.load(Relaxed) {
                let _ = index.maintain();
                std::thread::yield_now();
            }
        });
        sc.spawn(move || {
            for r in 0..rounds {
                let lo = r as i64 * 1000;
                let batch: Vec<(i64, i64)> = (lo..lo + 1000).map(|k| (k, k)).collect();
                let deleted = index.apply_batch(&batch, &[]);
                assert_eq!(deleted, 0);
            }
            // Delete every odd key batched, again racing maintenance.
            let dels: Vec<i64> = (0..rounds as i64 * 1000).filter(|k| k % 2 == 1).collect();
            let deleted = index.apply_batch(&[], &dels);
            assert_eq!(deleted, dels.len());
            stop.store(true, Relaxed);
        });
    });
    index.check_invariants();
    let want: Vec<(i64, i64)> = (0..rounds as i64 * 1000)
        .filter(|k| k % 2 == 0)
        .map(|k| (k, k))
        .collect();
    assert_eq!(index.collect_all(), want);
}

/// Writer progress while an incremental maintenance plan drains: no
/// insert may block across more than one executed step. An insert
/// that begins while step `k` holds its shard can at worst finish
/// while step `k + 1` runs (it re-routes after `k` publishes), so the
/// number of steps completed during any single insert is bounded by
/// 2 — if a writer ever waited out the whole plan (the monolithic
/// failure mode), the delta would be the plan length.
#[test]
fn writer_progress_during_incremental_drain() {
    let base: Vec<(i64, i64)> = (0..40_000).map(|k| (k, k)).collect();
    let db = Db::builder()
        .router_workers(1) // engine-only stress: no session traffic
        .shard_config(stress_cfg(8))
        .build_bulk(&base)
        .expect("valid stress config");
    let index = db.engine();
    // Build a real multi-step plan: hammer a narrow band so the
    // re-learn planner produces a shard-by-shard rebuild sequence.
    for _ in 0..40 {
        for k in 0..400i64 {
            let _ = index.get(k);
        }
    }
    let mut plan = index.plan_maintenance();
    assert!(
        plan.len() >= 2,
        "hot band must yield a multi-step plan, got {plan:?}"
    );

    let ops = stress_ops();
    let done = AtomicBool::new(false);
    let violations = AtomicU64::new(0);
    std::thread::scope(|sc| {
        let (index, done, violations) = (index, &done, &violations);
        let writer = sc.spawn(move || {
            let mut rng = SplitMix64::new(0xAB5E11);
            let mut inserts = 0u64;
            while !done.load(Relaxed) && inserts < ops {
                // Mostly hot-band keys: the interesting case is an
                // insert aimed at the shard being restructured.
                let k = if rng.next_below(4) < 3 {
                    rng.next_below(400) as i64
                } else {
                    rng.next_below(40_000) as i64
                };
                let before = index.maintenance_stats().steps_executed;
                index.insert(k, k);
                let after = index.maintenance_stats().steps_executed;
                if after - before > 2 {
                    violations.fetch_add(1, Relaxed);
                }
                inserts += 1;
            }
            inserts
        });
        // Drain the plan step by step with pauses, like the
        // background maintainer's tick budget. The pauses also make
        // the steps-spanned assertion scheduler-robust on a 1-core
        // host: with only these two threads alive, the writer is the
        // sole runnable thread during every pause and completes its
        // in-flight insert then, so an insert can overlap at most the
        // step that blocked it plus the next one — observing three or
        // more executed steps within one insert requires the insert
        // to have actually waited across them.
        while index.execute_step(&mut plan).is_some() {
            std::thread::sleep(Duration::from_micros(500));
        }
        done.store(true, Relaxed);
        assert!(writer.join().unwrap() > 0, "writer made no progress");
    });
    assert_eq!(
        violations.load(Relaxed),
        0,
        "an insert overlapped more than one executed maintenance step"
    );
    let stats = index.maintenance_stats();
    assert!(
        stats.steps_executed + stats.steps_skipped > 0,
        "the plan never drained: {stats:?}"
    );
    index.check_invariants();
}

/// `get_many` beside writers and the background maintainer, on the
/// unique-key scheme of the proptest below: writer `w` stores version
/// `v` under a key of its own and publishes `v` (Release) only after
/// that insert has returned, so a reader that loads the published
/// versions (Acquire) must get `Some(v)` for every version up to them
/// — from one `get_many` call whose keys span every shard, several
/// routing blocks and, as the ascending inserts keep the last shard
/// hot, the shards the maintainer is splitting at that moment. A
/// group read from a torn or retired-and-stale shard surfaces as
/// `None` or as a foreign value.
#[test]
fn get_many_sees_every_published_version_under_writers_and_maintainer() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    let writes = (stress_ops() / 8).max(64) as i64;
    // Versions on even keys, interleaved between the writers; churn
    // on the odd keys in between.
    let slot = |w: usize, v: i64| 2 * (v * WRITERS as i64 + w as i64);
    let db = Db::builder()
        .router_workers(1) // engine-only stress: no session traffic
        .shard_config(stress_cfg(8))
        .splitter_keys((1..8).map(|i| i * writes / 2).collect())
        .maintenance(MaintainerConfig {
            poll_interval: Duration::from_millis(1),
            imbalance_trigger: 1.1,
            min_ops_between: 256,
            step_pause: Duration::from_micros(100),
            ..Default::default()
        })
        .build()
        .expect("valid stress config");
    let index = db.engine();
    for w in 0..WRITERS {
        index.insert(slot(w, 0), 0);
    }
    let published: [AtomicI64; WRITERS] = std::array::from_fn(|_| AtomicI64::new(0));
    let start = Barrier::new(WRITERS + READERS);
    let calls = AtomicU64::new(0);
    std::thread::scope(|sc| {
        let (published, start, calls) = (&published, &start, &calls);
        for r in 0..READERS {
            sc.spawn(move || {
                let mut rng = SplitMix64::new(0x6E7 + r as u64);
                let mut keys = Vec::new();
                let mut want = Vec::new();
                let mut got = Vec::new();
                start.wait();
                loop {
                    // Pairs with the writers' Release stores: every
                    // insert up to `p[w]` happened before these loads.
                    let p: [i64; WRITERS] = std::array::from_fn(|w| published[w].load(Acquire));
                    keys.clear();
                    want.clear();
                    for (w, &p) in p.iter().enumerate() {
                        // The newest versions (where the writer and
                        // the maintainer are), and a sample of the old.
                        let newest = (p - 24).max(0)..=p;
                        let sample = (0..100).map(|_| rng.next_below(p as u64 + 1) as i64);
                        for v in newest.chain(sample) {
                            keys.push(slot(w, v));
                            want.push(Some(v));
                        }
                    }
                    // A short run every other pass: the two-key groups
                    // of a small-request workload.
                    if calls.fetch_add(1, Relaxed) % 2 == 1 {
                        keys.truncate(3);
                        want.truncate(3);
                    }
                    got.clear();
                    got.resize(keys.len(), None);
                    index.get_many(&keys, &mut got);
                    assert_eq!(got, want, "with {p:?} published, keys {keys:?}");
                    if p.iter().all(|&p| p == writes) {
                        break;
                    }
                }
            });
        }
        for (w, published) in published.iter().enumerate() {
            let index = &index;
            sc.spawn(move || {
                let mut rng = SplitMix64::new(0xC0DE + w as u64);
                start.wait();
                for v in 1..=writes {
                    index.insert(slot(w, v), v);
                    published.store(v, Release);
                    // Churn around the versions so their segments
                    // shift and rebalance under the readers' feet.
                    index.insert(slot(w, rng.next_below(v as u64) as i64) + 1, -v);
                }
            });
        }
    });
    let stats = db.stop_maintenance().expect("maintainer was running");
    index.check_invariants();
    assert_eq!(index.len(), WRITERS * (2 * writes as usize + 1));
    // Not asserted (timing-dependent on 1-cpu hosts); surfaced for
    // debugging.
    eprintln!(
        "get_many stress: calls={} maintainer runs={} steps={} shards={}",
        calls.load(Relaxed),
        stats.runs,
        stats.steps,
        index.num_shards()
    );
}

/// `scan_into` beside writers and the background maintainer, on the
/// unique-key scheme of the `get_many` test above: versions on even
/// keys, published (Release) only after their insert returned, churn
/// with negative values on the odd keys between them. The entries go
/// straight from the optimistic section into the reader's vector, so
/// this is where a pass that failed validation would show if anything
/// of it stayed behind: every result must be in key order, hold each
/// version key at most once and with its own value, hold *every*
/// version published before the call (when it ran to the end) or
/// exactly `count` entries (when it did not), and leave what the
/// vector held before the call untouched in front.
#[test]
fn scan_into_is_whole_and_sorted_under_writers_and_maintainer() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const HELD: [(i64, i64); 2] = [(i64::MAX, 1), (i64::MIN, 2)];
    let writes = (stress_ops() / 8).max(64) as i64;
    let slot = |w: usize, v: i64| 2 * (v * WRITERS as i64 + w as i64);
    let db = Db::builder()
        .router_workers(1) // engine-only stress: no session traffic
        .shard_config(stress_cfg(8))
        .splitter_keys((1..8).map(|i| i * writes / 2).collect())
        .maintenance(MaintainerConfig {
            poll_interval: Duration::from_millis(1),
            imbalance_trigger: 1.1,
            min_ops_between: 256,
            step_pause: Duration::from_micros(100),
            ..Default::default()
        })
        .build()
        .expect("valid stress config");
    let index = db.engine();
    for w in 0..WRITERS {
        index.insert(slot(w, 0), 0);
    }
    let published: [AtomicI64; WRITERS] = std::array::from_fn(|_| AtomicI64::new(0));
    let start = Barrier::new(WRITERS + READERS);
    let calls = AtomicU64::new(0);
    std::thread::scope(|sc| {
        let (published, start, calls) = (&published, &start, &calls);
        for r in 0..READERS {
            sc.spawn(move || {
                let mut rng = SplitMix64::new(0x5CA + r as u64);
                let mut out = Vec::new();
                start.wait();
                loop {
                    // Pairs with the writers' Release stores: every
                    // insert up to `p[w]` happened before these loads.
                    let p: [i64; WRITERS] = std::array::from_fn(|w| published[w].load(Acquire));
                    let newest = slot(0, *p.iter().min().expect("writers"));
                    let from = rng.next_below(newest as u64 + 1) as i64;
                    // To the end every other pass, a window otherwise.
                    let count = if calls.fetch_add(1, Relaxed) % 2 == 0 {
                        usize::MAX
                    } else {
                        1 + rng.next_below(600) as usize
                    };
                    out.clear();
                    out.extend_from_slice(&HELD);
                    let n = index.scan_into(from, count, &mut out);
                    assert_eq!(out[..HELD.len()], HELD, "entries below the scan moved");
                    let got = &out[HELD.len()..];
                    assert_eq!(got.len(), n);
                    assert!(n <= count);
                    assert!(got.first().is_none_or(|&(k, _)| k >= from));
                    // Ascending, and strictly so into a version key
                    // (even); churn keys (odd) may repeat.
                    assert!(
                        got.windows(2).all(|w| w[0].0 < w[1].0 + (w[1].0 & 1)),
                        "out of order, or a version twice, from {from}: {got:?}"
                    );
                    let mut versions = 0;
                    for &(k, v) in got {
                        if k % 2 == 0 {
                            assert_eq!(v, k / 2 / WRITERS as i64, "key {k}");
                            versions += 1;
                        } else {
                            assert!(v < 0, "churn key {k} holds {v}");
                        }
                    }
                    if n < count {
                        // Ran off the end: nothing published is missing.
                        let due: i64 = (0..WRITERS)
                            .map(|w| (0..=p[w]).filter(|&v| slot(w, v) >= from).count() as i64)
                            .sum();
                        assert!(versions >= due, "{versions} of {due} versions from {from}");
                    } else {
                        assert_eq!(n, count, "more was there: {p:?} published, from {from}");
                    }
                    if p.iter().all(|&p| p == writes) {
                        break;
                    }
                }
            });
        }
        for (w, published) in published.iter().enumerate() {
            let index = &index;
            sc.spawn(move || {
                let mut rng = SplitMix64::new(0xC0DE + w as u64);
                start.wait();
                for v in 1..=writes {
                    index.insert(slot(w, v), v);
                    published.store(v, Release);
                    index.insert(slot(w, rng.next_below(v as u64) as i64) + 1, -v);
                }
            });
        }
    });
    db.stop_maintenance().expect("maintainer was running");
    index.check_invariants();
    assert_eq!(index.len(), WRITERS * (2 * writes as usize + 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seqlock protocol, observed from outside, on *unique* keys:
    /// version `v` lives under its own key and the writer publishes
    /// `v` (Release) only after that insert has returned. A lock-free
    /// reader that loads the published version (Acquire) must find
    /// every version up to it — a lost or stale-snapshot read surfaces
    /// as `None`, a torn one as a foreign value — and the number of
    /// elements a scan visits from the first version on must never
    /// shrink, since nothing is ever removed. (Which member of a
    /// duplicate run `get` returns is deliberately not exercised: that
    /// contract is still open.) The reader must also keep terminating:
    /// optimistic retries are bounded, the lock fallback completes.
    #[test]
    fn optimistic_reads_are_monotone_under_mutation(
        writes in 64i64..512,
        key in 0i64..1000,
        filler in 1i64..100_000,
    ) {
        const STRIDE: i64 = 3;
        // Versions sit on even keys, churn on the odd keys in between.
        let slot = |v: i64| 2 * (key + v * STRIDE);
        let db = Db::builder()
            .router_workers(1) // engine-only stress: no session traffic
            .shard_config(stress_cfg(2))
            .splitter_keys(vec![500_000])
            .build()
            .expect("valid stress config");
        let index = db.engine();
        index.insert(slot(0), 0);
        let published = AtomicI64::new(0);
        let start = Barrier::new(2);
        std::thread::scope(|sc| {
            let (index, published, start) = (index, &published, &start);
            let reader = sc.spawn(move || {
                start.wait();
                let mut floor = 0usize;
                loop {
                    // Pairs with the writer's Release store: every
                    // insert up to `p` happened before this load.
                    let p = published.load(Acquire);
                    for v in 0..=p {
                        assert_eq!(
                            index.get(slot(v)),
                            Some(v),
                            "version {v} unreadable with {p} published"
                        );
                    }
                    let (visited, _) = index.sum_range(slot(0), usize::MAX);
                    assert!(visited as i64 > p, "scan saw {visited} elements, {p} published");
                    assert!(visited >= floor, "scan shrank: {visited} after {floor}");
                    floor = visited;
                    if p == writes {
                        break;
                    }
                }
            });
            start.wait();
            for v in 1..=writes {
                index.insert(slot(v), v);
                published.store(v, Release);
                // Churn between the versions so their segments shift
                // and rebalance under the reader's feet.
                index.insert(2 * (key + (v * filler) % (writes * STRIDE)) + 1, -v);
            }
            reader.join().unwrap();
        });
        prop_assert_eq!(index.get(slot(writes)), Some(writes));
    }
}
