//! The background maintenance thread: plans maintenance off the op
//! clock and **drains the plan a few steps per tick with inter-step
//! sleeps**, so callers never pay shard splits and merges inline
//! *and* the maintainer never monopolises a core on huge topologies.
//!
//! # Lifecycle
//!
//! [`ShardedRma::start_maintainer`] spawns one dedicated thread (the
//! index must be in an `Arc` so the thread can co-own it). Each poll
//! the thread:
//!
//! 1. if a [`crate::MaintenancePlan`] is in flight,
//!    executes up to [`STEPS_PER_TICK`] of its
//!    steps, parking for `STEP_PAUSE` (500 µs) between
//!    them — each step publishes its own copy-on-write topology, so
//!    between steps every writer runs completely unobstructed. The
//!    plan runs to its end, however the access masses move between
//!    ticks: a step whose shards changed under it is skipped, and
//!    nothing else drops what the planner asked for;
//! 2. otherwise, on its first poll and then once at least
//!    `MIN_OPS_BETWEEN` (4 096) operations arrived since the previous
//!    plan finished, asks the planner
//!    ([`ShardedRma::plan_maintenance`]) for a fresh plan. Nothing
//!    gates it: the calibrator's density bounds decide whether there
//!    is work, and an in-bounds index plans nothing. The first poll
//!    does not wait for the backoff, so an index opened over an
//!    accreted topology is walked down at once, load or no load.
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

/// Maximum plan steps executed per poll tick — the fairness budget
/// that stops a huge topology's plan from monopolising the maintainer
/// thread (and the memory bus) in one burst.
pub const STEPS_PER_TICK: usize = 4;

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
    /// Time between polls of the op clock.
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
    /// Polls of the op clock.
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
    // `None` until the first plan: the first poll plans at once.
    let mut last_maintained_ops: Option<u64> = None;
    let mut last_checkpoint = Instant::now();
    let mut plan: Option<MaintenancePlan> = None;
    // Set when the planner produced an empty plan (nothing actionable
    // — e.g. an over-backstop shard that is one giant duplicate run
    // and cannot split). While set, a backstop breach waits for the op
    // backoff too, so an unplannable condition cannot re-run the
    // planner on every poll forever.
    let mut last_plan_empty = false;
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
            // Drain an in-flight plan on the tick budget before
            // planning again.
            if let Some(p) = plan.as_mut() {
                steps_done = drain_tick(index, stop, p);
                if p.is_empty() {
                    plan = None;
                    last_maintained_ops = Some(index.op_count());
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

            // The planner runs on the first poll and whenever the op
            // backoff opens; its own bounds decide whether there is
            // work. A clock rewind (`reset_access_stats`) restarts
            // the backoff. A shard past the `max_shard_len`
            // length line is normally not held to the backoff — it
            // is an SLO invariant: every operation the oversized
            // shard absorbs while the maintainer waits makes the
            // split that must shrink it (the one uncappable step)
            // hold its locks longer. The exception: if the previous
            // plan came back empty (the oversized shard is
            // unplannable, e.g. one giant duplicate run), the breach
            // waits for the backoff too, so it cannot re-run the
            // planner every poll.
            let ops = index.op_count();
            if last_maintained_ops.is_some_and(|last| ops < last) {
                last_maintained_ops = Some(ops);
            }
            let enough_ops = last_maintained_ops.is_none_or(|last| ops - last >= MIN_OPS_BETWEEN);
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
                    last_maintained_ops = Some(index.op_count());
                } else {
                    last_plan_empty = false;
                    acted = true;
                    plan = Some(fresh);
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
        // Hammer shard 0 only; the background thread must cut the
        // hot range, which holds no boundary.
        let cut = |s: &ShardedRma| s.splitters().keys().iter().any(|&k| (1..500).contains(&k));
        for _ in 0..500 {
            for k in 0..500i64 {
                s.insert(k, k);
            }
            if cut(&s) {
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
        assert!(cut(&s), "the hot range was never cut: {ledger:?}");
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
        // 64 live shards against a configured target of 2, and no
        // load at all once the maintainer starts: the 1 600 inserts
        // are far fewer than `MIN_OPS_BETWEEN`, so the op backoff
        // never opens. The first poll must plan anyway and walk the
        // count down.
        let mut cfg = small_cfg(64);
        cfg.num_shards = 2;
        let s = Arc::new(ShardedRma::with_splitters(
            cfg,
            Splitters::new((1..64).map(|i| i * 25).collect()),
        ));
        for k in 0..1600i64 {
            s.insert(k, k);
        }
        let m = s.start_maintainer(MaintainerConfig {
            poll_interval: Duration::from_millis(1),
            ..Default::default()
        });
        for _ in 0..1000 {
            if s.maintenance_stats().plans > 0 && s.num_shards() < 64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        m.stop();
        let ledger = s.maintenance_stats();
        s.check_invariants();
        assert!(
            ledger.plans >= 1,
            "the first poll never planned: {ledger:?}"
        );
        assert!(
            s.num_shards() <= 4,
            "the accreted topology was not walked down: {} shards, {ledger:?}",
            s.num_shards()
        );
        assert!(ledger.merges > 0, "{ledger:?}");
        assert_eq!(s.len(), 1600, "merges must not lose data");
    }
}
