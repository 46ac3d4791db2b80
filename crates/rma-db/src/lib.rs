//! # rma-db — the database facade over the sharded Rewired Memory Array
//!
//! The front door of the stack: one handle over the sharded,
//! incrementally maintained engine ([`rma_shard::ShardedRma`] — the
//! paper's adaptive RMA, one per key range), its background
//! maintainer and its optional write-ahead log. It offers:
//!
//! * **one builder** — [`Db::builder`] configures everything
//!   fluently (shard count, per-shard RMA, shard-length backstop,
//!   background maintenance, durability) and
//!   validates every input up front, returning a typed
//!   [`ConfigError`] instead of panicking mid-construction;
//! * **one handle** — [`Db`] owns the engine *and* the background
//!   maintainer lifecycle: no manually held
//!   [`rma_shard::Maintainer`] handles, shutdown is
//!   `drop`;
//! * **sessions** — [`Db::session`] opens a pipelined client lane:
//!   [`Session::submit`] runs a batch of typed [`Op`]s on the
//!   caller's thread — each run of point ops as one
//!   [`ShardedRma::apply_ops`] call — and returns a [`Ticket`]
//!   holding the replies. [`Ticket::wait`] hands them over once they
//!   are durable, so a client that keeps several tickets open shares
//!   one commit barrier among them. `rma-db` spawns no thread of its
//!   own besides the optional maintainer;
//! * **one stats snapshot** — [`Db::stats`] returns a [`DbSnapshot`]
//!   consolidating the engine's observability
//!   ([`EngineSnapshot`](rma_shard::EngineSnapshot)), the background
//!   maintainer's counters and the sessions' throughput counters.
//!
//! The engine stays public as the inner layer: [`Db::engine`] hands
//! out the [`ShardedRma`] for control-plane work (explicit
//! `maintain()`, invariant checks, benchmark instrumentation), and
//! the `Db` data-plane methods delegate to the very same engine
//! methods a session calls, so the two surfaces cannot drift.
//!
//! # Quick start
//!
//! ```
//! use rma_db::{Db, Op, Reply};
//!
//! let db = Db::builder().shards(4).build().expect("static config");
//!
//! // Direct calls for simple embedded use:
//! db.insert(7, 700);
//! assert_eq!(db.get(7), Some(700));
//!
//! // Pipelined sessions for serving loops: submit batches, keep
//! // several tickets in flight, collect replies when needed.
//! let mut session = db.session();
//! let t1 = session.submit(&[Op::Insert(8, 800), Op::Insert(9, 900)]);
//! let t2 = session.submit(&[Op::Get(7), Op::SumRange { start: 0, count: 10 }]);
//! t1.wait();
//! let replies = t2.wait();
//! assert_eq!(replies[0], Reply::Found(Some(700)));
//!
//! let snapshot = db.stats();
//! assert_eq!(snapshot.engine.len, 3);
//! assert_eq!(snapshot.router.ops_executed, 4);
//! ```
//!
//! With background maintenance (the handle owns the thread):
//!
//! ```
//! use rma_db::Db;
//! use rma_shard::MaintainerConfig;
//!
//! let db = Db::builder()
//!     .shards(8)
//!     .maintenance(MaintainerConfig)
//!     .build()
//!     .expect("static config");
//! for k in 0..1000i64 {
//!     db.insert(k, k);
//! }
//! let snap = db.stats();
//! let maint = snap.maintainer.expect("maintenance configured");
//! assert_eq!(maint.checkpoints, 0); // the maintainer never seals
//! println!("{} wakes, {} plans", maint.polls, snap.engine.maintenance.plans);
//! // Dropping `db` stops and joins the maintainer.
//! ```

mod builder;
mod metrics;
mod session;

pub use builder::{ConfigError, DbBuilder};
pub use metrics::{MetricsSnapshot, ObsConfig, WalMetrics, OP_LATENCY_NAMES};
pub use session::{Op, Reply, Session, Ticket};
// The durability vocabulary callers need to configure
// [`DbBuilder::durability`], re-exported so `rma-db` is a one-import
// facade.
pub use rma_wal::{DurabilityConfig, FaultInjector, FaultMode, IoClass};

use metrics::SessionObs;
use rma_core::{Key, Value};
use rma_obs::EventKind;
use rma_shard::{DurabilitySink, Maintainer, MaintainerStats, ShardedRma};
use rma_wal::Wal;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// The database handle: owns the engine and the background maintainer
/// (when configured). Share it by reference — every method takes
/// `&self` — and drop it to shut everything down: the drop runs one
/// last commit barrier, so a session write whose ticket was never
/// waited is durable after a clean close, and then stops and joins
/// the maintainer.
pub struct Db {
    maintainer: Mutex<Option<Maintainer>>,
    /// Outlives the maintainer so stats keep reporting after a stop.
    maintainer_stats: Option<Arc<MaintainerStats>>,
    pub(crate) engine: Arc<ShardedRma>,
    /// The write-ahead log, when durability is configured. Also held
    /// by the engine (as its [`DurabilitySink`]) and by every durable
    /// [`Ticket`] until it is waited.
    pub(crate) wal: Option<Arc<Wal>>,
    pub(crate) counters: SessionCounters,
    pub(crate) obs: Arc<SessionObs>,
}

/// Session lifetime counters (all monotonic), surfaced through
/// [`DbSnapshot::router`].
#[derive(Debug, Default)]
pub(crate) struct SessionCounters {
    pub(crate) sessions: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) ops_submitted: AtomicU64,
    pub(crate) ops_executed: AtomicU64,
}

/// Journals the WAL's one-time transition into degraded mode, if it
/// happened (the flag is a latch in the WAL, so exactly one caller
/// journals it no matter which path notices first).
fn journal_degraded(engine: &ShardedRma, wal: &Wal) {
    if wal.take_degraded_transition() {
        engine
            .obs()
            .log(EventKind::DegradedMode, rma_obs::Event::NO_SHARD, 0, 0);
    }
}

/// The write guard of both write paths, a session's submit and a
/// direct call: true when the WAL is degraded and writes must be
/// refused. The latch may have been set off-thread (a failed
/// checkpoint), so whoever observes it first journals the transition.
pub(crate) fn refuses_writes(engine: &ShardedRma, wal: &Wal) -> bool {
    let degraded = wal.is_degraded();
    journal_degraded(engine, wal);
    degraded
}

/// The one ack barrier — a ticket's wait, a direct write, the drop:
/// makes every op appended up to `mark` durable, committing unless an
/// earlier barrier already covered it. False when the commit failed:
/// the WAL is degraded (journaled here) and nothing up to `mark` may
/// be acknowledged.
pub(crate) fn barrier(engine: &ShardedRma, wal: &Wal, mark: u64) -> bool {
    let durable = wal.is_committed(mark) || wal.commit().is_ok();
    journal_degraded(engine, wal);
    durable
}

impl Db {
    /// Starts configuring a database; see [`DbBuilder`].
    pub fn builder() -> DbBuilder {
        DbBuilder::default()
    }

    /// Opens a durable database rooted at `path`: recovers the WAL
    /// that lives there, or creates a fresh one (with default
    /// durability and engine settings) when the directory holds none.
    /// For non-default settings use [`Db::builder`] with
    /// [`DbBuilder::durability`] and finish with `build()` or
    /// `recover()` explicitly.
    pub fn open(path: impl Into<PathBuf>) -> Result<Db, ConfigError> {
        let dir: PathBuf = path.into();
        let exists = Wal::exists(&dir);
        let builder = Db::builder().durability(DurabilityConfig::new(dir));
        if exists {
            builder.recover()
        } else {
            builder.build()
        }
    }

    /// Assembles the handle from a validated configuration (all
    /// finishers of [`DbBuilder`] land here). The WAL is attached to
    /// the engine *here* — after any bulk load or replay the finisher
    /// performed — so recovered operations are not re-logged.
    pub(crate) fn assemble(
        mut engine: ShardedRma,
        maintenance: bool,
        obs: ObsConfig,
        wal: Option<Arc<Wal>>,
    ) -> Db {
        engine.set_observability(obs.enabled);
        if let Some(w) = &wal {
            engine.set_durability(Arc::clone(w) as Arc<dyn DurabilitySink>);
        }
        let engine = Arc::new(engine);
        let maintainer = maintenance.then(|| engine.start_maintainer());
        let maintainer_stats = maintainer.as_ref().map(Maintainer::stats_handle);
        Db {
            maintainer: Mutex::new(maintainer),
            maintainer_stats,
            engine,
            wal,
            counters: SessionCounters::default(),
            obs: Arc::new(SessionObs::new(obs.enabled)),
        }
    }

    /// The inner engine, for control-plane work the facade does not
    /// wrap: explicit `maintain()` calls, invariant checks, benchmark
    /// instrumentation. The data plane is available on `Db` directly.
    pub fn engine(&self) -> &ShardedRma {
        &self.engine
    }

    /// Opens a pipelined session; see [`Session`]. Sessions are
    /// independent: open one per client thread.
    pub fn session(&self) -> Session<'_> {
        self.counters.sessions.fetch_add(1, Relaxed);
        Session::new(self)
    }

    /// Stops the background maintainer (if one is running), joins its
    /// thread, and returns the final counters. The `Db` keeps serving
    /// without maintenance afterwards; calling this with maintenance
    /// already stopped (or never configured) returns `None`.
    pub fn stop_maintenance(&self) -> Option<MaintainerSnapshot> {
        let maintainer = self
            .maintainer
            .lock()
            .expect("maintainer lock poisoned")
            .take()?;
        maintainer.stop();
        self.maintainer_snapshot()
    }

    /// One coherent snapshot of everything observable: engine content
    /// and balance, lock-freedom counters, maintenance plan-engine
    /// counters, background-maintainer counters and session
    /// throughput.
    pub fn stats(&self) -> DbSnapshot {
        let c = &self.counters;
        DbSnapshot {
            engine: self.engine.stats_snapshot(),
            maintainer: self.maintainer_snapshot(),
            router: RouterSnapshot {
                workers: 0,
                sessions_opened: c.sessions.load(Relaxed),
                batches_submitted: c.batches.load(Relaxed),
                ops_submitted: c.ops_submitted.load(Relaxed),
                ops_executed: c.ops_executed.load(Relaxed),
            },
        }
    }

    /// Everything the stack measures in one read: the [`DbSnapshot`]
    /// counters plus the latency/size distributions (per-op-type
    /// service latency, batch size, batch wall time,
    /// maintenance step and tick durations) and the retained tail of
    /// the maintenance event journal. Render with
    /// [`MetricsSnapshot::render_text`] (Prometheus-style text
    /// exposition). With observability disabled the distributions are
    /// empty and the journal has no events; the counter snapshot is
    /// always live.
    pub fn metrics(&self) -> MetricsSnapshot {
        let robs = &self.obs;
        let eobs = self.engine.obs();
        MetricsSnapshot {
            db: self.stats(),
            op_latency: std::array::from_fn(|i| robs.op_latency[i].snapshot()),
            batch_size: robs.batch_size.snapshot(),
            queue_depth: rma_obs::Histogram::new().snapshot(),
            ticket_wait: robs.ticket_wait.snapshot(),
            step_duration: eobs.step_duration(),
            maint_tick: eobs.maint_tick(),
            journal: eobs.journal().snapshot(),
            wal: self.wal.as_ref().map(|w| WalMetrics {
                commit: w.commit_hist().snapshot(),
                fsync: w.fsync_hist().snapshot(),
                replay: w.replay_hist().snapshot(),
                degraded: w.is_degraded(),
            }),
        }
    }

    fn maintainer_snapshot(&self) -> Option<MaintainerSnapshot> {
        self.maintainer_stats.as_ref().map(|s| MaintainerSnapshot {
            polls: s.polls(),
            checkpoints: 0,
        })
    }

    // ------------------------------------------------- data plane --
    // Thin delegation to the engine: the same methods a session
    // executes, for callers that want synchronous calls
    // without a session. With durability configured, every direct
    // write runs the commit barrier before returning — the return is
    // the acknowledgement, same contract as a session reply.

    /// True when a durability fault has latched the database into
    /// read-only (degraded) mode: reads keep serving, writes are
    /// refused. Always `false` without durability configured.
    pub fn is_read_only(&self) -> bool {
        self.wal.as_ref().is_some_and(|w| w.is_degraded())
    }

    /// The write guard + commit barrier shared by the direct-call
    /// writes: refuses up front when degraded, runs the op, then
    /// makes it durable (or reports the degradation that the failing
    /// commit just latched).
    fn durable_write<T>(&self, op: impl FnOnce() -> T) -> Result<T, DbError> {
        let Some(w) = &self.wal else {
            return Ok(op());
        };
        if refuses_writes(&self.engine, w) {
            return Err(DbError::ReadOnly);
        }
        let out = op();
        (barrier(&self.engine, w, w.appended()).then_some(out)).ok_or(DbError::ReadOnly)
    }

    /// Point lookup of the front member of `k`'s stack (lock-free on
    /// the happy path); [`Op`] states the key contract.
    pub fn get(&self, k: Key) -> Option<Value> {
        self.engine.get(k)
    }

    /// Inserts a pair on the front of its key's stack. Panics if the
    /// database is read-only ([`Db::is_read_only`]); use
    /// [`Db::try_insert`] to handle that case.
    pub fn insert(&self, k: Key, v: Value) {
        self.try_insert(k, v).expect("database is read-only")
    }

    /// Inserts a pair on the front of its key's stack, reporting a
    /// degraded (read-only) database instead of panicking. `Ok` means
    /// the insert is durable: a commit barrier has fsynced its log frame.
    pub fn try_insert(&self, k: Key, v: Value) -> Result<(), DbError> {
        self.durable_write(|| self.engine.insert(k, v))
    }

    /// Pops the front member of `k`'s stack — the one [`Db::get`]
    /// answers — returning its value. Panics if the database is
    /// read-only; use [`Db::try_remove`] to handle that case.
    pub fn remove(&self, k: Key) -> Option<Value> {
        self.try_remove(k).expect("database is read-only")
    }

    /// Pops the front member of `k`'s stack, reporting a degraded
    /// (read-only) database instead of panicking. `Ok` means the
    /// remove is durable: a commit barrier has fsynced its log frame.
    pub fn try_remove(&self, k: Key) -> Result<Option<Value>, DbError> {
        self.durable_write(|| self.engine.remove(k))
    }

    /// Sums up to `count` values from the first key `>= start`.
    pub fn sum_range(&self, start: Key, count: usize) -> (usize, i64) {
        self.engine.sum_range(start, count)
    }

    /// First element with key `>= k`.
    pub fn first_ge(&self, k: Key) -> Option<(Key, Value)> {
        self.engine.first_ge(k)
    }

    /// Visits up to `count` elements in key order from the first key
    /// `>= start`; returns the number visited.
    pub fn scan<F: FnMut(Key, Value)>(&self, start: Key, count: usize, f: F) -> usize {
        self.engine.scan(start, count, f)
    }

    /// Applies a sorted insert batch and a delete-key set as one
    /// engine `apply_ops` run (deletes pop, inserts land at the front
    /// in batch order), atomic per 64-op shard group like any run;
    /// returns the elements deleted. Panics if the database is
    /// read-only.
    pub fn apply_batch(&self, inserts: &[(Key, Value)], deletes: &[Key]) -> usize {
        self.durable_write(|| self.engine.apply_batch(inserts, deletes))
            .expect("database is read-only")
    }

    /// Stored elements.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }
}

impl Drop for Db {
    /// The last commit barrier: a session write whose ticket was
    /// dropped unwaited becomes durable here, as one a caller waited
    /// would have.
    fn drop(&mut self) {
        if let Some(w) = &self.wal {
            barrier(&self.engine, w, w.appended());
        }
    }
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("shards", &self.engine.num_shards())
            .field(
                "maintenance",
                &self
                    .maintainer
                    .lock()
                    .expect("maintainer lock poisoned")
                    .is_some(),
            )
            .finish_non_exhaustive()
    }
}

/// Everything observable about a [`Db`] in one read
/// ([`Db::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DbSnapshot {
    /// The engine's consolidated counters
    /// ([`rma_shard::ShardedRma::stats_snapshot`]).
    pub engine: rma_shard::EngineSnapshot,
    /// Background-maintainer counters; `None` when maintenance was
    /// never configured.
    pub maintainer: Option<MaintainerSnapshot>,
    /// Session throughput counters.
    pub router: RouterSnapshot,
}

/// Copy of the background maintainer's own counters
/// ([`rma_shard::MaintainerStats`]) at snapshot time; what its plans
/// did is in the engine's ledger (`engine.maintenance`). Remains
/// available (with final values) after [`Db::stop_maintenance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintainerSnapshot {
    /// Wakes of the thread, each followed by one plan: the start and
    /// the op-clock marks.
    pub polls: u64,
    /// Always 0: the maintainer seals no checkpoint, only
    /// [`rma_shard::ShardedRma::checkpoint`] does. The field stays so
    /// the snapshot's consumers keep building.
    pub checkpoints: u64,
}

/// Errors from the checked direct-call write methods
/// ([`Db::try_insert`], [`Db::try_remove`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbError {
    /// A durability fault latched the database into read-only mode:
    /// the write was refused (or applied in memory but not made
    /// durable, and therefore not acknowledged). See
    /// [`Db::is_read_only`].
    ReadOnly,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::ReadOnly => write!(f, "database is read-only (durability degraded)"),
        }
    }
}

impl std::error::Error for DbError {}

/// The sessions' monotonic throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// Always 0: a session runs its batches on the caller's thread,
    /// and no worker thread serves it. The field stays so the
    /// snapshot's consumers keep building.
    pub workers: usize,
    /// Sessions opened since the database was built.
    pub sessions_opened: u64,
    /// Batches accepted by [`Session::submit`].
    pub batches_submitted: u64,
    /// Operations accepted across all batches.
    pub ops_submitted: u64,
    /// Operations executed: equal to `ops_submitted` whenever no
    /// submit is running.
    pub ops_executed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_core::{RewiringMode, RmaConfig};
    use rma_shard::{ConfigError as EngineError, ShardConfig};

    fn small() -> DbBuilder {
        Db::builder().shard_config(ShardConfig {
            num_shards: 4,
            rma: RmaConfig {
                segment_size: 8,
                rewiring: RewiringMode::Disabled,
                reserve_bytes: 1 << 24,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn builder_rejects_bad_inputs_typed() {
        assert_eq!(
            Db::builder().shards(0).build().unwrap_err(),
            ConfigError::Engine(EngineError::ZeroShards)
        );
        assert_eq!(
            Db::builder()
                .shard_config(ShardConfig {
                    max_shard_len: Some(0),
                    ..Default::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::Engine(EngineError::ShardLenBackstopBelowMinSplit {
                backstop: 0,
                min_len: 1024
            })
        );
        assert_eq!(
            Db::builder()
                .splitter_keys(vec![100])
                .build_bulk(&[(1, 1)])
                .unwrap_err(),
            ConfigError::SplittersConflictWithLearned
        );
        for bad in [vec![300, 150], vec![100, 100]] {
            assert_eq!(
                Db::builder().splitter_keys(bad).build().unwrap_err(),
                ConfigError::UnsortedSplitterKeys
            );
        }
    }

    #[test]
    fn maintain_walks_a_fragmented_facade_back_to_target() {
        // A handle built over a deliberately over-fragmented splitter
        // set — 64 shards against a target of 4, each so light that
        // it is under the calibrator's leaf bound: one `maintain()`
        // must walk the shard count back near the engine target, and
        // the engine's ledger must count the merges that did it.
        let db = small()
            .splitter_keys((1..64).map(|i| i * 25).collect())
            .build()
            .expect("valid config");
        for k in 0..1600i64 {
            db.insert(k, k);
        }
        assert_eq!(db.stats().engine.num_shards, 64);
        let report = db.engine().maintain();
        assert_eq!(
            report.retired, 60,
            "64 shards must walk down to 4: {report:?}"
        );
        assert_eq!(db.stats().engine.num_shards, 4);
        assert_eq!(db.stats().engine.len, 1600);
        let ledger = db.stats().engine.maintenance;
        assert_eq!(ledger.merges, report.merges as u64, "{ledger:?}");
    }

    #[test]
    fn nothing_spawns_on_a_rejected_config() {
        // A rejected build returns Err without panicking — and the
        // process must not have gained a maintainer thread
        // (the assemble path is only reached after validation).
        let err = Db::builder()
            .shards(0)
            .maintenance(rma_shard::MaintainerConfig)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::Engine(EngineError::ZeroShards));
    }

    #[test]
    fn direct_and_session_paths_share_one_engine() {
        let db = small().build().expect("valid");
        db.insert(1, 10);
        let mut s = db.session();
        let replies = s
            .submit(&[Op::Get(1), Op::Insert(2, 20), Op::Remove(1)])
            .wait();
        assert_eq!(
            replies,
            vec![
                Reply::Found(Some(10)),
                Reply::Inserted,
                Reply::Removed(Some(10))
            ]
        );
        assert_eq!(db.get(2), Some(20));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn tickets_pipeline_and_wait_in_any_order() {
        let db = small().build().expect("valid");
        let mut s = db.session();
        let pairs: Vec<Op> = (0..512).map(|k| Op::Insert(k, k)).collect();
        let mut tickets: Vec<Ticket> = (0..8).map(|_| s.submit(&pairs)).collect();
        // Every ticket resolves, collected newest first.
        while let Some(t) = tickets.pop() {
            let replies = t.wait();
            assert_eq!(replies.len(), 512);
            assert!(replies.iter().all(|r| *r == Reply::Inserted));
        }
        assert_eq!(db.len(), 8 * 512);
        let snap = db.stats();
        assert_eq!(snap.router.batches_submitted, 8);
        assert_eq!(snap.router.ops_submitted, 8 * 512);
        assert_eq!(snap.router.ops_executed, 8 * 512);
        assert_eq!(snap.router.sessions_opened, 1);
        assert_eq!(snap.engine.len, 8 * 512);
    }

    #[test]
    fn range_ops_route_and_stitch() {
        let db = small().build().expect("valid");
        let batch: Vec<(i64, i64)> = (0..1000).map(|k| (k, 1)).collect();
        db.apply_batch(&batch, &[]);
        let mut s = db.session();
        let replies = s
            .submit(&[
                Op::SumRange {
                    start: 0,
                    count: 1000,
                },
                Op::FirstGe(500),
                Op::Scan {
                    start: 990,
                    count: 100,
                },
            ])
            .wait();
        assert_eq!(
            replies[0],
            Reply::Sum {
                visited: 1000,
                sum: 1000
            }
        );
        assert_eq!(replies[1], Reply::Entry(Some((500, 1))));
        let want: Vec<(i64, i64)> = (990..1000).map(|k| (k, 1)).collect();
        assert_eq!(replies[2], Reply::Entries(want));
    }

    #[test]
    fn empty_submit_is_immediately_ready() {
        let db = small().build().expect("valid");
        let mut s = db.session();
        let t = s.submit(&[]);
        assert_eq!(format!("{t:?}"), "Ticket { len: 0, .. }");
        assert_eq!(t.wait(), Vec::new());
    }

    #[test]
    fn sessions_from_many_threads() {
        let db = small().build().expect("valid");
        std::thread::scope(|sc| {
            for t in 0..4i64 {
                let db = &db;
                sc.spawn(move || {
                    let mut s = db.session();
                    let ops: Vec<Op> = (0..500).map(|i| Op::Insert(t * 500 + i, i)).collect();
                    let mut pending = std::collections::VecDeque::new();
                    for chunk in ops.chunks(100) {
                        pending.push_back(s.submit(chunk));
                        if pending.len() > 2 {
                            pending.pop_front().expect("non-empty").wait();
                        }
                    }
                    for t in pending {
                        t.wait();
                    }
                });
            }
        });
        assert_eq!(db.len(), 2000);
        db.engine().check_invariants();
        assert_eq!(db.stats().router.sessions_opened, 4);
    }

    #[test]
    fn maintainer_lifecycle_is_owned_by_the_handle() {
        let db = small()
            .maintenance(rma_shard::MaintainerConfig)
            .build()
            .expect("valid");
        for k in 0..2000i64 {
            db.insert(k % 64, k);
        }
        // An optimised build finishes the inserts before the thread's
        // start-up wake: wait for it rather than race it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.stats().maintainer.is_none_or(|m| m.polls == 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "maintainer never woke"
            );
            std::thread::yield_now();
        }
        // Stop deterministically; the final counters stay readable.
        let final_stats = db.stop_maintenance().expect("was running");
        assert!(final_stats.polls > 0, "maintainer never woke");
        assert_eq!(db.stop_maintenance(), None, "second stop is a no-op");
        assert_eq!(
            db.stats().maintainer,
            Some(final_stats),
            "snapshot keeps reporting after stop"
        );
        // The db keeps serving without maintenance.
        db.insert(-1, -1);
        assert_eq!(db.get(-1), Some(-1));
    }

    #[test]
    fn snapshot_consolidates_engine_counters() {
        let db = small().build().expect("valid");
        for k in 0..100i64 {
            db.insert(k, k);
        }
        let snap = db.stats();
        assert_eq!(snap.engine.len, 100);
        assert_eq!(snap.engine.num_shards, db.engine().num_shards());
        assert!(snap.engine.memory_footprint > 0);
        assert!(snap.engine.access_imbalance >= 1.0);
        assert!(snap.maintainer.is_none());
        assert_eq!(snap.router.workers, 0, "no worker thread serves a session");
    }
}
