//! The background maintenance thread: **wakes on the op clock**,
//! plans maintenance and drains each plan with a pause between steps,
//! so callers never pay shard splits and merges inline.
//!
//! # Lifecycle
//!
//! [`ShardedRma::start_maintainer`] spawns one dedicated thread (the
//! index must be in an `Arc` so the thread can co-own it), which
//! registers itself on the index. There is no timer: as in the
//! paper's RMA, where the insert that pushes a window past its
//! threshold triggers the rebalance, the op stream is the clock. The
//! operation that carries the shared decay clock across a
//! `DECAY_EVERY` (8 192-op) mark — the moment every access mass
//! halves — unparks the thread. Each wake the thread:
//!
//! 1. asks the planner ([`ShardedRma::plan_maintenance`]) for a plan.
//!    Nothing gates it: the calibrator's density bounds decide
//!    whether there is work, and an in-bounds index plans nothing;
//! 2. drains the plan to its end, sleeping `STEP_PAUSE` (500 µs)
//!    between steps — each step publishes its own copy-on-write
//!    topology, so between steps every writer runs completely
//!    unobstructed. A step whose shards changed under it is skipped,
//!    and nothing else drops what the planner asked for.
//!
//! Starting runs one [`ShardedRma::maintain`] on the caller's thread,
//! so an accreted topology is walked down at once, load or no load.
//! Marks crossed during a drain coalesce into the thread's one park
//! token, so at most one plan follows a drain. An idle index never
//! wakes the thread. The thread seals no checkpoint: a durable index
//! seals on [`ShardedRma::checkpoint`], called by its owner. What its
//! plans did is filed in the engine's ledger
//! ([`ShardedRma::maintenance_stats`]); [`MaintainerStats`] keeps only
//! what the thread alone knows.
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

use crate::{DrainReport, ShardedRma};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Pause between consecutive steps of a plan. Writers queued behind a
/// step drain during the pause.
const STEP_PAUSE: Duration = Duration::from_micros(500);

/// The background maintainer has no setting: a mark of the op clock
/// wakes it, the planner's thresholds decide whether there is work,
/// and a plan's steps run 500 µs apart. The type stays so callers
/// that pass `MaintainerConfig::default()` keep building.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintainerConfig;

/// What only the maintainer thread knows (monotonic counters); what
/// its plans did is in the engine's ledger,
/// [`ShardedRma::maintenance_stats`].
#[derive(Debug, Default)]
pub struct MaintainerStats {
    polls: AtomicU64,
}

impl MaintainerStats {
    /// Wakes of the thread, each followed by one plan: the start and
    /// the op-clock marks (those crossed during a drain count once).
    pub fn polls(&self) -> u64 {
        self.polls.load(Relaxed)
    }
}

/// Handle to a running background maintainer; stops and joins on
/// [`Maintainer::stop`] or drop.
pub struct Maintainer {
    stop: Arc<AtomicBool>,
    stats: Arc<MaintainerStats>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// What the [`maintain`](ShardedRma::maintain) run before the
    /// thread spawned did.
    pub startup: DrainReport,
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
    /// skip) but pointless: the op clock wakes only the one started
    /// last. Runs one [`maintain`](Self::maintain) on the caller's
    /// thread before it spawns.
    pub fn start_maintainer(self: &Arc<Self>) -> Maintainer {
        let startup = self.maintain();
        let index = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(MaintainerStats::default());
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("rma-maintainer".into())
                .spawn(move || maintainer_loop(&index, &stop, &stats))
                .expect("spawn maintainer thread")
        };
        Maintainer {
            stop,
            stats,
            thread: Some(thread),
            startup,
        }
    }
}

fn maintainer_loop(index: &ShardedRma, stop: &AtomicBool, stats: &MaintainerStats) {
    let me = std::thread::current();
    // Registered before the first plan: a mark crossed earlier is in
    // the masses that plan reads.
    *index.maintainer_slot() = Some(me.clone());
    let obs_on = index.obs().enabled();
    while !stop.load(Relaxed) {
        stats.polls.fetch_add(1, Relaxed);
        let wake_t0 = if obs_on { rma_obs::now_ns() } else { 0 };
        let mut plan = index.plan_maintenance();
        let planned = !plan.is_empty();
        let mut steps_done = 0;
        // Abandoned mid-drain on a stop: every step was complete.
        while !stop.load(Relaxed) {
            let Some(report) = index.execute_step(&mut plan) else {
                break;
            };
            steps_done += u64::from(report.executed);
            if !plan.is_empty() {
                // Sleep, not park: the park token belongs to the marks
                // crossed during the drain.
                std::thread::sleep(STEP_PAUSE);
            }
        }
        if obs_on {
            let dur = rma_obs::now_ns().saturating_sub(wake_t0);
            index.obs().record_tick(dur);
            // Journal only wakes that planned work: empty plans would
            // drown the structural events the bounded ring exists to
            // retain.
            if planned {
                index.obs().log(
                    rma_obs::EventKind::MaintTick,
                    rma_obs::Event::NO_SHARD,
                    dur,
                    steps_done,
                );
            }
        }
        // Until the next mark.
        std::thread::park();
    }
    let mut slot = index.maintainer_slot();
    if slot.as_ref().is_some_and(|t| t.id() == me.id()) {
        *slot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::small_cfg;
    use crate::{ShardedRma, Splitters};
    use std::time::Instant;

    /// Waits until the thread has woken `n` times.
    fn await_polls(m: &Maintainer, n: u64) {
        let stats = m.stats_handle();
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.polls() < n {
            assert!(Instant::now() < deadline, "the thread never woke");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn maintainer_starts_and_stops_cleanly() {
        let s = Arc::new(ShardedRma::new(small_cfg(4)));
        let m = s.start_maintainer();
        std::thread::sleep(Duration::from_millis(20));
        let stats = m.stop();
        assert!(stats.polls() > 0, "thread never woke");
    }

    #[test]
    fn an_idle_maintainer_does_not_wake() {
        // The start-up plan is the one wake an index with no ops
        // gets, durable or not: no mark is crossed, so nothing
        // unparks the thread after it, and it seals nothing.
        let (s, sink) = crate::tests::recorded(vec![1000, 2000, 3000]);
        let s = Arc::new(s);
        let m = s.start_maintainer();
        await_polls(&m, 1);
        let first = m.stats_handle().polls();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(m.stop().polls(), first, "an idle index woke the thread");
        assert_eq!(s.maintenance_stats().plans, 0);
        assert_eq!(sink.seals(), 0);
    }

    #[test]
    fn the_maintainer_seals_no_checkpoint_across_marks() {
        // Driven across several op-clock marks, the thread wakes,
        // plans and drains, and seals nothing: only the owner's
        // `checkpoint()` seals.
        let (s, sink) = crate::tests::recorded(vec![1000, 2000, 3000]);
        let s = Arc::new(s);
        let m = s.start_maintainer();
        for i in 0..4 * 8192i64 {
            s.insert(i % 500, i);
        }
        assert!(s.op_count() >= 3 * 8192, "{}", s.op_count());
        await_polls(&m, 2);
        m.stop();
        assert_eq!(sink.seals(), 0, "the maintainer sealed a checkpoint");
        assert_eq!(s.checkpoint(), s.num_shards());
        assert_eq!(sink.seals(), 1);
    }

    #[test]
    fn maintainer_rebalances_a_skewed_index() {
        // No timer: only the writers' crossings of the op clock's
        // marks can wake the thread after its start-up plan, which
        // finds an empty index.
        let s = Arc::new(ShardedRma::with_splitters(
            small_cfg(4),
            Splitters::new(vec![1000, 2000, 3000]),
        ));
        let m = s.start_maintainer();
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
        // After its start-up plan the thread parks with no timeout,
        // and only the handle can unpark it.
        let s = Arc::new(ShardedRma::new(small_cfg(2)));
        let m = s.start_maintainer();
        await_polls(&m, 1);
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        drop(m); // must unpark + join promptly, not wait for a mark
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn idle_maintainer_consolidates_an_accreted_topology() {
        // 64 live shards against a configured target of 2, and no
        // load at all once the maintainer starts: the 1 600 inserts
        // cross no mark of the op clock, so nothing wakes the thread.
        // Starting it must walk the count down before it returns.
        let mut cfg = small_cfg(64);
        cfg.num_shards = 2;
        let s = Arc::new(ShardedRma::with_splitters(
            cfg,
            Splitters::new((1..64).map(|i| i * 25).collect()),
        ));
        for k in 0..1600i64 {
            s.insert(k, k);
        }
        let m = s.start_maintainer();
        let ledger = s.maintenance_stats();
        assert!(ledger.plans >= 1, "no plan ran: {ledger:?}");
        assert!(
            s.num_shards() <= 4,
            "the accreted topology was not walked down: {} shards, {ledger:?}",
            s.num_shards()
        );
        assert!(ledger.merges > 0, "{ledger:?}");
        assert_eq!(ledger.merges, m.startup.merges as u64, "{ledger:?}");
        m.stop();
        s.check_invariants();
        assert_eq!(s.len(), 1600, "merges must not lose data");
    }

    /// Eight shards of uneven length, two of them hot, under a
    /// `max_shard_len` that bounds what one merge may build: here, as
    /// on `fig22_compaction`'s accreted topology at default scale, one
    /// plan round leaves work for a second.
    fn uneven_topology() -> Arc<ShardedRma> {
        let (lens, gets) = ([500, 2000, 2000, 500, 2500, 2000, 2500, 1000], [3000, 4500]);
        let mut cfg = small_cfg(4);
        cfg.max_shard_len = Some(8192);
        let s =
            ShardedRma::with_splitters(cfg, Splitters::new((1..8).map(|i| i * 10_000).collect()));
        for (i, len) in (0..).zip(lens) {
            let run: Vec<(i64, i64)> = (0..len).map(|k| (i * 10_000 + k, k)).collect();
            s.apply_batch(&run, &[]);
        }
        s.reset_access_stats();
        for (i, n) in [4, 7].into_iter().zip(gets) {
            for j in 0..n {
                s.get(i * 10_000 + j % lens[i as usize]);
            }
        }
        Arc::new(s)
    }

    #[test]
    fn starting_the_maintainer_reaches_what_maintain_reaches() {
        let one_round = uneven_topology();
        one_round.drain_plan(&mut one_round.plan_maintenance());
        let twin = uneven_topology();
        twin.maintain();
        assert!(
            one_round.num_shards() > twin.num_shards(),
            "one round is enough here: {} shards either way",
            twin.num_shards()
        );
        // No ops after the start: the thread's own first plan finds
        // nothing left, whenever it runs.
        let s = uneven_topology();
        let m = s.start_maintainer();
        assert_eq!(s.num_shards(), twin.num_shards());
        assert_eq!(s.splitters(), twin.splitters());
        m.stop();
        assert_eq!(s.splitters(), twin.splitters());
        s.check_invariants();
    }
}
