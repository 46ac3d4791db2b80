//! The background maintenance thread: plans maintenance off the
//! op-rate signal and **drains the plan a few
//! steps per tick with inter-step sleeps**, so callers never pay
//! shard splits and merges inline *and* the
//! maintainer never monopolises a core on huge topologies.
//!
//! # Lifecycle
//!
//! [`ShardedRma::start_maintainer`] spawns one dedicated thread (the
//! index must be in an `Arc` so the thread can co-own it). Each poll
//! the thread:
//!
//! 1. estimates the op rate from the shared op clock (the idle
//!    gate's signal);
//! 2. if a [`crate::MaintenancePlan`] is in flight,
//!    executes up to [`STEPS_PER_TICK`] of its
//!    steps, parking for `STEP_PAUSE` (500 µs) between
//!    them — each step publishes its own copy-on-write topology, so
//!    between steps every writer runs completely unobstructed. The
//!    plan runs to its end, however the access masses move between
//!    ticks: a step whose shards changed under it is skipped, and
//!    nothing else drops what the planner asked for;
//! 3. otherwise, once at least `MIN_OPS_BETWEEN` (4 096) operations
//!    arrived since the previous plan finished, asks the planner
//!    ([`ShardedRma::plan_maintenance`]) for a fresh plan. There is
//!    no imbalance trigger in front of it: the planner's own split and
//!    merge factors (2× and ½× the mean shard mass) decide whether
//!    there is work, and a balanced index plans nothing (an idle one
//!    never gets that far, because the op backoff stays shut);
//! 4. when instead the op rate has stayed *below* 1000 ops/s for
//!    [`IDLE_CONFIRM_POLLS`] consecutive polls and the live shard
//!    count exceeds [`COMPACT_TARGET_FACTOR`] ×
//!    the configured `num_shards`, schedules one round of the
//!    idle-time consolidation chain
//!    ([`ShardedRma::plan_consolidation`]) — bounded merges of the
//!    coldest runs of neighbours that steer an accreted topology
//!    back toward its target in the troughs between bursts.
//!
//! Every [`MaintainerConfig::checkpoint_interval`] it also seals a
//! checkpoint of every durability partition
//! ([`ShardedRma::checkpoint`]) between plans. What its plans did is
//! filed in the engine's ledger ([`ShardedRma::maintenance_stats`]);
//! [`MaintainerStats`] keeps only what the thread alone knows.
//!
//! Plans drain in the order their planner emitted them, and a fresh
//! plan is asked for only once the last one is drained.
//!
//! Because the read path is optimistic (see the crate docs on the
//! pin/epoch read protocol),
//! maintenance running on this thread never blocks readers; with the
//! incremental engine, writers queue only behind the single step
//! currently restructuring their shard.
//!
//! Stopping: [`Maintainer::stop`] (or dropping the handle) flags the
//! thread, unparks it and joins. An in-flight plan is abandoned
//! mid-drain — safe, because every executed step left a complete,
//! consistent topology; the next maintainer simply re-plans.

use crate::{ConfigError, MaintenancePlan, ShardedRma};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive idle poll windows (below 1000 ops/s) required before
/// the idle gate opens. One empty window is not idleness — a briefly
/// descheduled writer produces the same zero-op poll a real trough
/// does, and a spurious consolidation round fighting a live workload
/// is exactly what the gate exists to prevent.
pub const IDLE_CONFIRM_POLLS: u32 = 3;

/// Op rate (ops/s on the shared clock) below which a poll counts as
/// *idle*. [`IDLE_CONFIRM_POLLS`] consecutive idle polls open the gate
/// and may schedule the shard-count consolidation chain
/// ([`ShardedRma::plan_consolidation`]) instead of load-driven
/// maintenance. The compactor runs only in the troughs between bursts,
/// so it never competes with a hot workload for the memory bus. The
/// clock advances in 64-op granules, so a poll window in which it
/// advanced at all reads as busy at every poll interval up to 64 ms.
const IDLE_OPS_THRESHOLD: f64 = 1000.0;

/// Maximum plan steps executed per poll tick — the fairness budget
/// that stops a huge topology's plan from monopolising the maintainer
/// thread (and the memory bus) in one burst.
pub const STEPS_PER_TICK: usize = 4;

/// Idle-time consolidation engages when the live shard count exceeds
/// this factor times `ShardConfig::num_shards` — the slack that keeps
/// an on-target topology from oscillating merge/split.
pub const COMPACT_TARGET_FACTOR: f64 = 2.0;

/// Operations on the shared clock between the end of one plan and
/// the next call to the planner — the backoff that keeps a hot but
/// stable imbalance from re-planning on every poll, and a planner
/// that found nothing to do from being asked again at once.
const MIN_OPS_BETWEEN: u64 = 4096;

/// Pause between consecutive steps within one tick. Writers queued
/// behind a step drain during the pause.
const STEP_PAUSE: Duration = Duration::from_micros(500);

/// The background maintainer's two cadences. When it plans, and how
/// fast it drains a plan, are not settable: the planner's thresholds
/// decide whether there is work, 4 096 ops at least space the plans,
/// and [`STEPS_PER_TICK`] steps a tick, 500 µs apart, drain them.
#[derive(Debug, Clone, Copy)]
pub struct MaintainerConfig {
    /// Time between polls of the op-rate signal.
    pub poll_interval: Duration,
    /// How often to checkpoint the durability partitions
    /// ([`ShardedRma::checkpoint`], on the first poll past each
    /// interval with no plan in flight). `None` (the default) never
    /// checkpoints from this thread; a no-op when no durability sink
    /// is installed.
    pub checkpoint_interval: Option<Duration>,
}

impl Default for MaintainerConfig {
    fn default() -> Self {
        MaintainerConfig {
            poll_interval: Duration::from_millis(25),
            checkpoint_interval: None,
        }
    }
}

impl MaintainerConfig {
    /// Checks the cadence parameters, returning the first violation
    /// as a typed [`ConfigError`] instead of panicking — the form
    /// builder front-ends validate with before any thread spawns.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.poll_interval == Duration::ZERO {
            return Err(ConfigError::ZeroPollInterval);
        }
        if self.checkpoint_interval == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        Ok(())
    }

    /// Panicking form of [`try_validate`](Self::try_validate), used
    /// by [`ShardedRma::start_maintainer`].
    fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// What only the maintainer thread knows (monotonic counters); what
/// its plans did is in the engine's ledger,
/// [`ShardedRma::maintenance_stats`].
#[derive(Debug, Default)]
pub struct MaintainerStats {
    polls: AtomicU64,
    checkpoints: AtomicU64,
}

impl MaintainerStats {
    /// Polls of the op-rate signal.
    pub fn polls(&self) -> u64 {
        self.polls.load(Relaxed)
    }
    /// Partition checkpoints its cadence sealed.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Relaxed)
    }
}

/// Handle to a running background maintainer; stops and joins on
/// [`Maintainer::stop`] or drop.
pub struct Maintainer {
    stop: Arc<AtomicBool>,
    stats: Arc<MaintainerStats>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Maintainer {
    /// A co-owning handle to the counters that outlives the
    /// maintainer — façade layers keep one so their stats snapshot
    /// still reports the final figures after the thread stops.
    pub fn stats_handle(&self) -> Arc<MaintainerStats> {
        Arc::clone(&self.stats)
    }

    /// Signals the thread, joins it, and returns the final counters.
    pub fn stop(mut self) -> Arc<MaintainerStats> {
        self.shutdown();
        Arc::clone(&self.stats)
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(handle) = self.thread.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Maintainer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ShardedRma {
    /// Spawns the background maintenance thread. The returned handle
    /// owns the thread: keep it alive for as long as maintenance
    /// should run, and drop (or [`stop`](Maintainer::stop)) it to
    /// shut down deterministically. Multiple maintainers are safe
    /// (step publication is serialized internally, and stale steps
    /// skip) but pointless.
    pub fn start_maintainer(self: &Arc<Self>, cfg: MaintainerConfig) -> Maintainer {
        cfg.validate();
        let index = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(MaintainerStats::default());
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("rma-maintainer".into())
                .spawn(move || maintainer_loop(&index, &cfg, &stop, &stats))
                .expect("spawn maintainer thread")
        };
        Maintainer {
            stop,
            stats,
            thread: Some(thread),
        }
    }
}

/// Executes up to [`STEPS_PER_TICK`] steps of `plan`, pausing between
/// steps, and returns how many executed.
fn drain_tick(index: &ShardedRma, stop: &AtomicBool, plan: &mut MaintenancePlan) -> u64 {
    let mut executed = 0;
    for i in 0..STEPS_PER_TICK {
        // Abandoned mid-drain on a stop: every step was complete.
        if stop.load(Relaxed) {
            break;
        }
        // Inter-step pause *before* each subsequent step: writers
        // queued behind the previous publication drain undisturbed.
        if i > 0 {
            std::thread::park_timeout(STEP_PAUSE);
            if stop.load(Relaxed) {
                break;
            }
        }
        let Some(report) = index.execute_step(plan) else {
            break;
        };
        executed += u64::from(report.executed);
    }
    executed
}

fn maintainer_loop(
    index: &ShardedRma,
    cfg: &MaintainerConfig,
    stop: &AtomicBool,
    stats: &MaintainerStats,
) {
    let obs_on = index.obs().enabled();
    let mut last_ops = index.op_count();
    let mut last_maintained_ops = last_ops;
    let mut last_poll = Instant::now();
    let mut last_checkpoint = Instant::now();
    let mut plan: Option<MaintenancePlan> = None;
    // Set when the planner produced an empty plan (nothing actionable
    // — e.g. an over-backstop shard that is one giant duplicate run
    // and cannot split). While set, a backstop breach waits for the op
    // backoff too, so an unplannable condition cannot re-run the
    // planner on every poll forever.
    let mut last_plan_empty = false;
    // Shard count at which the last idle-consolidation attempt planned
    // nothing (no mergeable pair under the step bound): skip re-asking
    // the planner at that count, so an unmergeable topology cannot
    // re-run it on every idle poll forever.
    let mut last_compact_noop_shards = 0usize;
    // Consecutive polls whose op rate stayed below the idle
    // threshold. The gate opens only on a sustained streak.
    let mut idle_streak = 0u32;
    while !stop.load(Relaxed) {
        std::thread::park_timeout(cfg.poll_interval);
        if stop.load(Relaxed) {
            break;
        }
        stats.polls.fetch_add(1, Relaxed);
        let tick_t0 = if obs_on { rma_obs::now_ns() } else { 0 };
        // What this tick did, for its journal entry: steps executed,
        // and whether it made a plan or sealed a checkpoint.
        let (mut steps_done, mut acted) = (0, false);
        'tick: {
            let ops = index.op_count();
            let elapsed = last_poll.elapsed().as_secs_f64();
            // Op-rate estimate for this poll window: drives the
            // idle-consolidation gate. Defaults to "busy" when the window is too short to
            // measure, and when `reset_access_stats` rewound the
            // clock — a rewind says nothing about load, and reading
            // it as rate 0 would open the idle gate mid-burst.
            let mut rate = f64::INFINITY;
            if elapsed > 0.0 && ops >= last_ops {
                rate = (ops - last_ops) as f64 / elapsed;
            }
            last_poll = Instant::now();
            // A clock rewind also invalidates the op backoff.
            if ops < last_maintained_ops {
                last_maintained_ops = ops;
            }
            last_ops = ops;
            // One sub-threshold window is not idleness: a briefly
            // descheduled writer produces the same zero-op poll a
            // real trough does. Require a sustained streak.
            idle_streak = if rate < IDLE_OPS_THRESHOLD {
                idle_streak.saturating_add(1)
            } else {
                0
            };

            // Drain an in-flight plan on the tick budget before
            // planning again.
            if let Some(p) = plan.as_mut() {
                steps_done = drain_tick(index, stop, p);
                if p.is_empty() {
                    plan = None;
                    last_maintained_ops = index.op_count();
                }
                break 'tick;
            }

            // Checkpoint cadence: the durability partitions are
            // re-sealed each interval so crash recovery only replays
            // one interval's worth of log tail.
            let due = (cfg.checkpoint_interval).is_some_and(|i| last_checkpoint.elapsed() >= i);
            if due {
                last_checkpoint = Instant::now();
                let sealed = index.checkpoint() as u64;
                stats.checkpoints.fetch_add(sealed, Relaxed);
                if sealed > 0 {
                    acted = true;
                    break 'tick;
                }
            }

            // The planner runs once the op backoff opens; its own
            // thresholds decide whether there is work. A shard past
            // the `max_shard_len` length line is normally not held to
            // the backoff — it is an SLO invariant: every operation
            // the oversized shard absorbs while the maintainer waits
            // makes the split that must shrink it (the one uncappable
            // step) hold its locks longer. The exception: if the
            // previous plan came back empty (the oversized shard is
            // unplannable, e.g. one giant duplicate run), the breach
            // waits for the backoff too, so it cannot re-run the
            // planner every poll.
            let enough_ops = ops.saturating_sub(last_maintained_ops) >= MIN_OPS_BETWEEN;
            let backstop_breached = !last_plan_empty
                && index
                    .config()
                    .max_shard_len
                    .is_some_and(|m| index.longest_shard_len() > m);
            if enough_ops || backstop_breached {
                let fresh = index.plan_maintenance();
                if fresh.is_empty() {
                    // Nothing worth doing (a balanced index, or an
                    // unplannable backstop breach): back off.
                    last_plan_empty = true;
                    last_maintained_ops = index.op_count();
                } else {
                    last_plan_empty = false;
                    acted = true;
                    plan = Some(fresh);
                }
                break 'tick;
            }

            // Idle-time consolidation: when the workload is in a
            // trough and accreted splits have ratcheted the shard
            // count past the configured slack, schedule one
            // cap-bounded merge round. Deliberately NOT held to
            // `MIN_OPS_BETWEEN` — idle means few ops arrive, so the op
            // backoff would park the compactor exactly when it is
            // safe to run.
            if plan.is_none() && idle_streak >= IDLE_CONFIRM_POLLS {
                let live = index.num_shards();
                let target =
                    (COMPACT_TARGET_FACTOR * index.config().num_shards as f64).ceil() as usize;
                if live > target && live != last_compact_noop_shards {
                    let fresh = index.plan_consolidation();
                    if fresh.is_empty() {
                        last_compact_noop_shards = live;
                    } else {
                        acted = true;
                        plan = Some(fresh);
                    }
                }
            }
        }
        if obs_on {
            let dur = rma_obs::now_ns().saturating_sub(tick_t0);
            index.obs().record_tick(dur);
            // Journal only ticks that made progress: idle polls would
            // drown the structural events the bounded ring exists to
            // retain.
            if steps_done > 0 || acted {
                index.obs().log(
                    rma_obs::EventKind::MaintTick,
                    rma_obs::Event::NO_SHARD,
                    dur,
                    steps_done,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::small_cfg;
    use crate::{ShardedRma, Splitters};

    #[test]
    fn maintainer_starts_and_stops_cleanly() {
        let s = Arc::new(ShardedRma::new(small_cfg(4)));
        let m = s.start_maintainer(MaintainerConfig {
            poll_interval: Duration::from_millis(1),
            ..Default::default()
        });
        std::thread::sleep(Duration::from_millis(20));
        let stats = m.stop();
        assert!(stats.polls() > 0, "thread never polled");
    }

    #[test]
    fn maintainer_rebalances_a_skewed_index() {
        let s = Arc::new(ShardedRma::with_splitters(
            small_cfg(4),
            Splitters::new(vec![1000, 2000, 3000]),
        ));
        let m = s.start_maintainer(MaintainerConfig {
            poll_interval: Duration::from_millis(1),
            ..Default::default()
        });
        // Hammer shard 0 only; the background thread must react.
        for _ in 0..500 {
            for k in 0..500i64 {
                s.insert(k, k);
            }
            if s.maintenance_stats().steps_executed > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let polls = m.stop().polls();
        let ledger = s.maintenance_stats();
        assert!(
            ledger.plans > 0,
            "maintainer never planned: polls={polls} imbalance={}",
            s.access_imbalance()
        );
        assert!(
            ledger.steps_executed > 0,
            "maintainer never executed a step"
        );
        s.check_invariants();
        // One round cuts the hot shard and may merge a cold run: the
        // splitters moved.
        assert!(ledger.splits >= 1, "the hot shard never split: {ledger:?}");
        assert_ne!(s.splitters().keys(), [1000, 2000, 3000], "{ledger:?}");
    }

    #[test]
    fn dropping_the_handle_joins_the_thread() {
        let s = Arc::new(ShardedRma::new(small_cfg(2)));
        let m = s.start_maintainer(MaintainerConfig {
            poll_interval: Duration::from_secs(3600), // parked until unparked
            ..Default::default()
        });
        let t0 = Instant::now();
        drop(m); // must unpark + join promptly, not wait out the hour
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn idle_maintainer_consolidates_an_accreted_topology() {
        // 16 live shards against a configured target of 2: with no
        // load at all every poll reads rate 0, below the idle
        // threshold, so the gate must engage and merge the count back
        // under COMPACT_TARGET_FACTOR × num_shards.
        let mut cfg = small_cfg(16);
        cfg.num_shards = 2;
        let s = Arc::new(ShardedRma::with_splitters(
            cfg,
            Splitters::new((1..16).map(|i| i * 100).collect()),
        ));
        for k in 0..1600i64 {
            s.insert(k, k);
        }
        let m = s.start_maintainer(MaintainerConfig {
            poll_interval: Duration::from_millis(1),
            ..Default::default()
        });
        for _ in 0..1000 {
            if s.num_shards() <= 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        m.stop();
        let ledger = s.maintenance_stats();
        s.check_invariants();
        assert!(
            s.num_shards() <= 4,
            "idle compaction never converged: {} shards, {ledger:?}",
            s.num_shards()
        );
        assert!(
            ledger.consolidations > 0,
            "consolidation merges must be counted: {ledger:?}"
        );
        assert_eq!(s.len(), 1600, "compaction must not lose data");
    }

    #[test]
    fn busy_maintainer_never_consolidates() {
        // Same accreted topology, but the op rate stays far above the
        // idle threshold: each 10 ms poll sees the clock advance by at
        // least one 64-op granule (6 400 ops/s) or rewind, and both
        // read as busy. The compactor must stay parked. The op rate
        // is a wall-clock signal, so on an oversubscribed host the
        // loader thread itself can be descheduled long enough to *be*
        // idle — such a run proves nothing either way and is retried;
        // the test only fails when the compactor ran even though the
        // loader never paused for a full poll window.
        let poll = Duration::from_millis(10);
        for attempt in 0..5 {
            let mut cfg = small_cfg(8);
            cfg.num_shards = 2;
            let s = Arc::new(ShardedRma::with_splitters(
                cfg,
                Splitters::new((1..8).map(|i| i * 1000).collect()),
            ));
            for k in 0..8000i64 {
                s.insert(k, k);
            }
            // Uniform hammering from a separate thread, started
            // *before* the maintainer so its very first poll already
            // sees a high op rate. The periodic `reset_access_stats`
            // rewinds the op clock mid-burst: a rewound window must
            // read as *busy*, not as rate 0 (which would open the
            // idle gate under load). A sweep is 1 000 ops, fewer than
            // `MIN_OPS_BETWEEN`, so the rewinds also keep the op
            // backoff shut and no load-driven plan runs either: the
            // count stays at 8. The loader records its longest
            // inter-sweep gap so a starved run can be told apart.
            let stop_load = Arc::new(AtomicBool::new(false));
            let max_gap_ns = Arc::new(AtomicU64::new(0));
            let loader = {
                let s = Arc::clone(&s);
                let stop_load = Arc::clone(&stop_load);
                let max_gap_ns = Arc::clone(&max_gap_ns);
                std::thread::spawn(move || {
                    let mut last = Instant::now();
                    while !stop_load.load(Relaxed) {
                        for k in (0..8000i64).step_by(8) {
                            let _ = s.get(k);
                        }
                        s.reset_access_stats();
                        max_gap_ns.fetch_max(last.elapsed().as_nanos() as u64, Relaxed);
                        last = Instant::now();
                    }
                })
            };
            std::thread::sleep(Duration::from_millis(10));
            let m = s.start_maintainer(MaintainerConfig {
                poll_interval: poll,
                ..Default::default()
            });
            std::thread::sleep(Duration::from_millis(150));
            m.stop();
            stop_load.store(true, Relaxed);
            loader.join().expect("loader thread");
            let starved = max_gap_ns.load(Relaxed) >= poll.as_nanos() as u64;
            let ledger = s.maintenance_stats();
            if ledger.consolidations == 0 {
                assert_eq!(s.num_shards(), 8);
                return; // the gate held under sustained load
            }
            assert!(
                starved,
                "compactor ran despite uninterrupted load: {ledger:?}"
            );
            eprintln!("attempt {attempt}: loader starved by the host, retrying");
        }
        panic!("loader starved on every attempt; host too oversubscribed to test");
    }
}
