//! Deterministic workload-replay harness for access-driven shard
//! maintenance.
//!
//! Replays the seeded shifting-hotspot workload through two
//! [`ShardedRma`] regimes over the *identical* operation stream:
//!
//! * `static` — the bulk-loaded topology, never maintained;
//! * `maintained` — the split/merge pass ([`ShardedRma::maintain`])
//!   at every phase midpoint;
//!
//! and asserts, with zero timing dependence:
//!
//! 1. every run ends with exactly the contents of a `BTreeMap`
//!    multiset oracle (and therefore with each other's contents);
//! 2. the post-maintenance access imbalance (max/mean shard access
//!    mass over each phase's second half) under maintenance is at
//!    most **half** the static topology's on the jumping band;
//! 3. a quiesce-time `compact()` undoes the split accretion;
//! 4. a uniform workload triggers zero topology churn (and plans
//!    zero steps);
//! 5. the steps the replays journal match a recorded fixture.

use rma_repro::db::Db;
use rma_repro::obs::EventKind;
use rma_repro::rma::{RewiringMode, RmaConfig};
use rma_repro::shard::{ShardConfig, ShardedRma};
use rma_repro::workloads::{
    HotspotConfig, HotspotMotion, KeyStream, Pattern, ShiftingHotspot, SplitMix64,
};
use std::collections::BTreeMap;

const SHARDS: usize = 8;
const PHASES: u64 = 4;
const PHASE_OPS: u64 = 8192;
const SEED: u64 = 20260730;

fn replay_config(shards: usize) -> ShardConfig {
    ShardConfig {
        num_shards: shards,
        rma: RmaConfig {
            segment_size: 32,
            rewiring: RewiringMode::Disabled,
            reserve_bytes: 1 << 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Multiset oracle bookkeeping.
fn oracle_insert(o: &mut BTreeMap<i64, usize>, k: i64) {
    *o.entry(k).or_insert(0) += 1;
}

fn oracle_remove(o: &mut BTreeMap<i64, usize>, k: i64) -> bool {
    match o.get_mut(&k) {
        Some(c) => {
            *c -= 1;
            if *c == 0 {
                o.remove(&k);
            }
            true
        }
        None => false,
    }
}

/// Drift step matching `fig16_relearning`: half a hot-band width per
/// phase, so the band slides incrementally instead of jumping.
fn drift_motion() -> HotspotMotion {
    HotspotMotion::Drift {
        step: HotspotConfig::default().hot_width / 2,
    }
}

/// Replays the seeded hotspot workload, calling
/// [`ShardedRma::maintain`] at every phase midpoint when `maintained`;
/// returns the per-phase post-maintenance imbalances and the final
/// index (content already verified against the oracle step by step).
/// The second half of each phase is measured cold, so the statistic
/// stays comparable across regimes.
fn run_replay(maintained: bool, motion: HotspotMotion, shards: usize) -> (Vec<f64>, Db) {
    let mut ops = ShiftingHotspot::new(
        HotspotConfig {
            phase_len: PHASE_OPS,
            motion,
            ..Default::default()
        },
        SEED,
    );
    let mut base: Vec<(i64, i64)> = {
        let mut rng = SplitMix64::new(SEED ^ 0xFACE);
        (0..8192)
            .map(|i| ((rng.next_u64() >> 2) as i64, i))
            .collect()
    };
    base.sort_unstable();
    let db = Db::builder()
        .shard_config(replay_config(shards))
        .build_bulk(&base)
        .expect("valid replay config");
    let index = db.engine();
    let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
    for &(k, _) in &base {
        oracle_insert(&mut oracle, k);
    }

    let mut imbalances = Vec::new();
    let half = PHASE_OPS / 2;
    for _phase in 0..PHASES {
        let mut run_half = |n: u64, index: &ShardedRma, oracle: &mut BTreeMap<i64, usize>| {
            for i in 0..n {
                let (k, v) = ops.next_pair();
                match i % 8 {
                    7 => {
                        // Remove an exact (mostly hot) key; both the
                        // index and the oracle may miss.
                        let got = index.remove(k).is_some();
                        let want = oracle_remove(oracle, k);
                        assert_eq!(got, want, "remove({k}) divergence");
                    }
                    i if i % 2 == 0 => {
                        index.insert(k, v);
                        oracle_insert(oracle, k);
                    }
                    _ => {
                        let got = index.get(k).is_some();
                        let want = oracle.contains_key(&k);
                        assert_eq!(got, want, "get({k}) divergence");
                    }
                }
            }
        };
        index.reset_access_stats();
        run_half(half, index, &mut oracle);
        if maintained {
            index.maintain();
        }
        index.check_invariants();
        index.reset_access_stats();
        run_half(PHASE_OPS - half, index, &mut oracle);
        imbalances.push(index.access_imbalance());
    }

    // Final content must equal the oracle multiset exactly.
    let got: Vec<i64> = index.collect_all().iter().map(|p| p.0).collect();
    let want: Vec<i64> = oracle
        .iter()
        .flat_map(|(&k, &c)| std::iter::repeat_n(k, c))
        .collect();
    assert_eq!(got, want, "replay content diverged from the oracle");
    (imbalances, db)
}

/// The executed steps the engine journalled, in order, each as
/// `kind@shard:keys` (timestamps and durations left out).
fn step_events(index: &ShardedRma) -> Vec<String> {
    let journal = index.obs().journal();
    assert!(
        journal.total_recorded() <= journal.capacity() as u64,
        "the journal wrapped: the step order is incomplete"
    );
    (journal.snapshot().iter())
        .filter(|e| matches!(e.kind, EventKind::Split | EventKind::Merge))
        .map(|e| format!("{}@{}:{}", e.kind.name(), e.shard, e.keys))
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[test]
fn maintenance_halves_hotspot_imbalance_deterministically() {
    let (fixed, fixed_index) = run_replay(false, HotspotMotion::Jump, SHARDS);
    let (maintained, maintained_index) = run_replay(true, HotspotMotion::Jump, SHARDS);

    // (a) Identical op stream + oracle-checked: both runs must agree
    // with each other too.
    assert_eq!(
        fixed_index.engine().collect_all(),
        maintained_index.engine().collect_all(),
        "maintenance must never change content"
    );

    // (b) Post-phase access imbalance under maintenance is at most
    // half the static topology's.
    let (ms, mm) = (mean(&fixed), mean(&maintained));
    assert!(
        mm <= 0.5 * ms,
        "maintenance too weak: static {ms:.2}, maintained {mm:.2} (ratio {:.3})",
        mm / ms
    );
    // The maintained topology must actually differ from the bulk-loaded
    // start (it adapted), and hold more than one shard.
    assert_ne!(
        maintained_index.engine().splitters(),
        fixed_index.engine().splitters()
    );
    assert!(maintained_index.engine().num_shards() > 1);
}

/// Anti-ratchet acceptance bar: after the jumping-band replay (which
/// accretes hot-shard splits phase over phase), a quiesce-time
/// [`Db::compact`] must bring the live shard count back to at most
/// 2× the configured target without touching content.
#[test]
fn post_quiesce_compaction_restores_the_shard_target() {
    let (_, db) = run_replay(true, HotspotMotion::Jump, SHARDS);
    let index = db.engine();
    let before_content = index.collect_all();
    let accreted = index.num_shards();
    let merges = db.compact();
    index.check_invariants();
    assert!(
        index.num_shards() <= 2 * SHARDS,
        "compaction left {} shards (accreted {accreted}, target {SHARDS})",
        index.num_shards()
    );
    assert_eq!(
        merges,
        accreted - index.num_shards(),
        "every merge must retire exactly one shard"
    );
    assert_eq!(
        index.collect_all(),
        before_content,
        "compaction must not change content"
    );
    // Idempotent at the target: a second pass has nothing to do.
    assert_eq!(db.compact(), 0, "second compact must be a no-op");
}

#[test]
fn uniform_workload_triggers_zero_topology_churn() {
    let mut base: Vec<(i64, i64)> = KeyStream::new(Pattern::Uniform, SEED).take_pairs(8192);
    base.sort_unstable();
    let db = Db::builder()
        .shard_config(replay_config(SHARDS))
        .build_bulk(&base)
        .expect("valid replay config");
    let index = db.engine();
    let splitters_start = index.splitters();

    let mut ops = KeyStream::new(Pattern::Uniform, SEED ^ 1);
    for round in 0..4 {
        for i in 0..4096u64 {
            let (k, v) = ops.next_pair();
            if i % 2 == 0 {
                index.insert(k, v);
            } else {
                let _ = index.get(k);
            }
        }
        let rebalance = index.maintain();
        assert_eq!(
            (rebalance.splits, rebalance.merges),
            (0, 0),
            "round {round}: uniform load must not churn topology"
        );
    }
    assert_eq!(
        index.splitters(),
        splitters_start,
        "splitters moved under uniform load"
    );
    assert_eq!(
        index.maintenance_stats().steps_planned,
        0,
        "uniform load must plan zero steps"
    );
    index.check_invariants();
}

/// Sixty-four narrow shards over a target of sixteen with the reads
/// in one eighth of the key space: `compact()` merges the coldest runs
/// down to the target; then the reads move to a narrow band, and one
/// `maintain()` cuts the shard holding it and merges the runs of cold
/// shards, each merge under a bound of 1 024 elements.
fn fragmented_then_compacted() -> Db {
    let cfg = ShardConfig {
        max_shard_len: Some(1024),
        ..replay_config(16)
    };
    let db = Db::builder()
        .shard_config(cfg)
        .splitter_keys((1..64).map(|i| i * 1000).collect())
        .build()
        .expect("valid replay config");
    let index = db.engine();
    let mut rng = SplitMix64::new(SEED ^ 0xF4A6);
    for i in 0..4096i64 {
        index.insert((rng.next_u64() % 64_000) as i64, i);
    }
    // Three reads in four land in `[lo, lo + width)`.
    let mut read_band = |lo: u64, width: u64| {
        index.reset_access_stats();
        for _ in 0..8192 {
            let r = rng.next_u64();
            let k = if r % 4 < 3 {
                lo + (r >> 8) % width
            } else {
                (r >> 8) % 64_000
            };
            let _ = index.get(k as i64);
        }
    };
    read_band(20_000, 8_000);
    assert_eq!(db.compact(), 48, "64 shards must walk down to 16");
    read_band(50_000, 2_000);
    index.maintain();
    index.check_invariants();
    db
}

/// The order in which steps execute is the order the planners emit
/// them in, and these tables are what the replays journalled when
/// every step became one `Recut` of a key range: the same replays
/// must journal the same steps, on the same shards, moving the same
/// number of elements, in the same order.
#[test]
fn step_order_matches_the_recorded_fixture() {
    let jump = HotspotMotion::Jump;
    let replays = [
        ("jumping band", run_replay(true, jump, SHARDS).1, JUMP_STEPS),
        (
            "drifting band",
            run_replay(true, drift_motion(), SHARDS).1,
            DRIFT_STEPS,
        ),
        ("compacted", fragmented_then_compacted(), COMPACT_STEPS),
    ];
    for (name, db, want) in replays {
        let got = step_events(db.engine());
        let want: Vec<&str> = want.split_whitespace().collect();
        assert_eq!(
            got,
            want,
            "{name}: step order changed; journalled:\n{}",
            got.join(" ")
        );
    }
}

const JUMP_STEPS: &str = "\
    split@6:2907 merge@4:2103 merge@0:4185 split@0:6235 merge@8:8101 \
    split@7:5889 merge@0:4233 split@9:10369 merge@0:9004";

const DRIFT_STEPS: &str = "\
    split@1:2441 merge@5:5242 split@4:2904 merge@0:2767 split@5:3128 \
    merge@0:7090 split@5:2848 merge@0:10324";

const COMPACT_STEPS: &str = "\
    merge@29:320 merge@12:549 merge@23:742 merge@0:795 merge@13:1013 \
    split@13:1013 merge@20:125 merge@2:552 merge@2:872";
