//! Deterministic workload-replay harness for access-driven shard
//! maintenance.
//!
//! Replays the seeded shifting-hotspot workload through two
//! [`ShardedRma`] regimes over the *identical* operation stream:
//!
//! * `static` — the bulk-loaded topology, never maintained;
//! * `maintained` — the calibrator rule ([`ShardedRma::maintain`])
//!   at every phase midpoint;
//!
//! and asserts, with zero timing dependence:
//!
//! 1. every run ends with exactly the contents of a `BTreeMap`
//!    multiset oracle (and therefore with each other's contents);
//! 2. the post-maintenance access imbalance (max/mean shard access
//!    mass over each phase's second half) under maintenance is at
//!    most **half** the static topology's on the jumping band;
//! 3. a quiesce-time `maintain()` undoes the split accretion;
//! 4. the shard count settles over eight phases of the jumping band,
//!    at a fixed point of the rule;
//! 5. a uniform workload triggers zero topology churn (and plans
//!    zero steps);
//! 6. the steps the replays journal match a recorded fixture — one
//!    replay over 2^18 keys, more than one step may drain, so the
//!    fixture pins which window below the root a shard takes.

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
/// Keys preloaded before a replay: few enough that one step may drain
/// the whole index.
const PRELOAD: usize = 8192;
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

/// Replays `phases` phases of the seeded hotspot workload over
/// `preload` bulk-loaded keys, calling
/// [`ShardedRma::maintain`] at every phase midpoint when `maintained`;
/// returns the per-phase post-maintenance imbalances, the shard count
/// at the end of each phase and the final index (content already
/// verified against the oracle step by step). The second half of each
/// phase is measured cold, so the statistic stays comparable across
/// regimes.
fn run_replay(
    maintained: bool,
    motion: HotspotMotion,
    shards: usize,
    phases: u64,
    preload: usize,
) -> (Vec<f64>, Vec<usize>, Db) {
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
        (0..preload as i64)
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

    let (mut imbalances, mut counts) = (Vec::new(), Vec::new());
    let half = PHASE_OPS / 2;
    for _phase in 0..phases {
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
        counts.push(index.num_shards());
    }

    // Final content must equal the oracle multiset exactly.
    let got: Vec<i64> = index.collect_all().iter().map(|p| p.0).collect();
    let want: Vec<i64> = oracle
        .iter()
        .flat_map(|(&k, &c)| std::iter::repeat_n(k, c))
        .collect();
    assert_eq!(got, want, "replay content diverged from the oracle");
    (imbalances, counts, db)
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
    let (fixed, _, fixed_index) = run_replay(false, HotspotMotion::Jump, SHARDS, PHASES, PRELOAD);
    let (maintained, _, maintained_index) =
        run_replay(true, HotspotMotion::Jump, SHARDS, PHASES, PRELOAD);

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
/// [`ShardedRma::maintain`] must bring the live shard count back to at
/// most 2× the configured target without touching content.
#[test]
fn post_quiesce_compaction_restores_the_shard_target() {
    let (_, _, db) = run_replay(true, HotspotMotion::Jump, SHARDS, PHASES, PRELOAD);
    let index = db.engine();
    let before_content = index.collect_all();
    let accreted = index.num_shards();
    // Quiesced: the load has stopped and its mass decayed away.
    index.reset_access_stats();
    let report = index.maintain();
    index.check_invariants();
    assert!(
        index.num_shards() <= 2 * SHARDS,
        "maintenance left {} shards (accreted {accreted}, target {SHARDS}): {report:?}",
        index.num_shards()
    );
    // Nothing is hot: the pass only merges, and every shard it took
    // away is one fewer.
    assert_eq!(report.splits, 0, "{report:?}");
    assert_eq!(
        report.retired,
        accreted - index.num_shards(),
        "every shard a merge retires must leave the topology: {report:?}"
    );
    assert_eq!(
        index.collect_all(),
        before_content,
        "maintenance must not change content"
    );
    // A fixed point: a second pass has nothing to do.
    assert_eq!(
        index.maintain().executed(),
        0,
        "second maintain must be a no-op"
    );
}

/// The rule converges: over eight phases of the jumping band, with
/// [`ShardedRma::maintain`] at every phase midpoint, the shard count
/// after the eighth phase is no higher than after the fourth plus one,
/// and a plan made on the index once `maintain()` has drained is empty.
#[test]
fn the_shard_count_settles_over_eight_jumping_phases() {
    let (_, counts, db) = run_replay(true, HotspotMotion::Jump, SHARDS, 8, PRELOAD);
    assert!(
        counts[7] <= counts[3] + 1,
        "the shard count climbs phase over phase: {counts:?}"
    );
    let index = db.engine();
    index.maintain();
    let plan = index.plan_maintenance();
    assert!(plan.is_empty(), "no fixed point: {counts:?} {plan:?}");
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
/// in one eighth of the key space: `maintain()` merges the cold runs
/// and walks the count down; then the reads move to a narrow band, and one
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
    assert_eq!(
        index.maintain().retired,
        53,
        "64 shards must walk down to 11"
    );
    read_band(50_000, 2_000);
    index.maintain();
    index.check_invariants();
    db
}

/// The order in which steps execute is the order the planner emits
/// them in, and these tables are what the replays journalled when
/// every step became one `Recut` of a key range: the same replays
/// must journal the same steps, on the same shards, moving the same
/// number of elements, in the same order. An index of 8 192 keys fits
/// one step, so a cold shard's smallest admissible window is the
/// root and both small replays re-cut the whole index each phase;
/// over 2^18 keys a step drains at most 2^17, and the steps name
/// windows of two and four shards.
#[test]
fn step_order_matches_the_recorded_fixture() {
    let jump = HotspotMotion::Jump;
    let replays = [
        (
            "jumping band",
            run_replay(true, jump, SHARDS, PHASES, PRELOAD).2,
            JUMP_STEPS,
        ),
        (
            "drifting band",
            run_replay(true, drift_motion(), SHARDS, PHASES, PRELOAD).2,
            DRIFT_STEPS,
        ),
        (
            "jumping band over 2^18 keys",
            run_replay(true, jump, SHARDS, PHASES, 1 << 18).2,
            WIDE_JUMP_STEPS,
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
    merge@0:10240 merge@0:14336 merge@0:18432 merge@0:22528";

const DRIFT_STEPS: &str = "\
    merge@0:10240 merge@0:14336 merge@0:18432 merge@0:22528";

const WIDE_JUMP_STEPS: &str = "\
    split@6:67440 merge@0:65585 merge@1:65576 merge@2:65591 \
    split@0:67526 merge@9:71784 merge@10:4010 merge@11:59283 \
    merge@10:63293 merge@0:71297 split@9:73864 merge@0:73231";

const COMPACT_STEPS: &str = "\
    merge@0:522 merge@1:571 merge@2:511 merge@5:486 merge@8:989 \
    merge@9:1017 split@2:331 split@8:335 split@11:518 merge@2:331 \
    merge@3:331 merge@4:335 split@9:313 merge@10:795";
