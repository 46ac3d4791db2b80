//! # rma-db — the database facade over the sharded Rewired Memory Array
//!
//! PRs 1–4 grew the paper's adaptive RMA into a sharded, lock-free,
//! incrementally maintained concurrent engine
//! ([`rma_shard::ShardedRma`]) — but its public surface grew by
//! accretion: three constructors, a config struct, a separately held
//! maintainer handle, and five stats getters. This crate is the
//! front door that real deployments consume instead:
//!
//! * **one builder** — [`Db::builder`] configures everything
//!   fluently (shard count, per-shard RMA, relearn strategy,
//!   maintenance cadence and backstops, router workers) and
//!   validates every input up front, returning a typed
//!   [`ConfigError`] instead of panicking mid-construction;
//! * **one handle** — [`Db`] owns the engine *and* the background
//!   maintainer lifecycle: no manually held
//!   [`rma_shard::Maintainer`] handles, shutdown is
//!   `drop`;
//! * **sessions** — [`Db::session`] opens a pipelined client lane:
//!   [`Session::submit`] sends a batch of typed [`Op`]s through a
//!   hand-rolled channel-based request router with shard-affine
//!   worker threads and returns a [`Ticket`] immediately, so one
//!   client keeps many batches in flight while workers drain them
//!   in parallel — the deployment shape of a process serving many
//!   network clients, with no async runtime and no dependencies
//!   beyond `std` channels and condvars;
//! * **one stats snapshot** — [`Db::stats`] returns a [`DbSnapshot`]
//!   consolidating the engine's observability
//!   ([`EngineSnapshot`](rma_shard::EngineSnapshot)), the background
//!   maintainer's counters and the router's throughput counters.
//!
//! The engine stays public as the inner layer: [`Db::engine`] hands
//! out the [`ShardedRma`] for control-plane work (explicit
//! `maintain()`, invariant checks, benchmark instrumentation), and
//! the `Db` data-plane methods delegate to the very same engine
//! methods the router workers call, so the two surfaces cannot
//! drift.
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
//!     .maintenance(MaintainerConfig::default())
//!     .build()
//!     .expect("static config");
//! for k in 0..1000i64 {
//!     db.insert(k, k);
//! }
//! let maint = db.stats().maintainer.expect("maintenance configured");
//! assert!(maint.polls > 0 || maint.runs == 0); // counters are live
//! // Dropping `db` stops and joins the maintainer and the router.
//! ```

mod builder;
mod metrics;
mod router;
mod session;

pub use builder::{ConfigError, DbBuilder};
pub use metrics::{MetricsSnapshot, ObsConfig, WalMetrics, OP_LATENCY_NAMES};
pub use session::{Op, Ready, Reply, Session, Ticket};
// The durability vocabulary callers need to configure
// [`DbBuilder::durability`], re-exported so `rma-db` is a one-import
// facade.
pub use rma_wal::{CommitPolicy, DurabilityConfig, FaultInjector, FaultMode, IoClass};

use metrics::RouterObs;
use rma_core::{Key, Value};
use rma_shard::{DurabilitySink, Maintainer, MaintainerConfig, MaintainerStats, ShardedRma};
use rma_wal::Wal;
use router::Router;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

/// The database handle: owns the engine, the background maintainer
/// (when configured) and the session router. Share it by reference —
/// every method takes `&self` — and drop it to shut everything down
/// (maintainer stopped and joined first, then the router workers
/// drain their queues and join).
pub struct Db {
    /// Declared first so the maintainer thread stops before the
    /// router workers join.
    maintainer: Mutex<Option<Maintainer>>,
    /// Outlives the maintainer so stats keep reporting after a stop.
    maintainer_stats: Option<Arc<MaintainerStats>>,
    router: Router,
    engine: Arc<ShardedRma>,
    /// The write-ahead log, when durability is configured. Also held
    /// by the engine (as its [`DurabilitySink`]) and by every router
    /// worker.
    wal: Option<Arc<Wal>>,
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
        workers: usize,
        maintenance: Option<MaintainerConfig>,
        obs: ObsConfig,
        wal: Option<Arc<Wal>>,
    ) -> Db {
        engine.set_observability(obs.enabled, obs.journal_capacity);
        if let Some(w) = &wal {
            engine.set_durability(Arc::clone(w) as Arc<dyn DurabilitySink>);
        }
        let engine = Arc::new(engine);
        let router = Router::start(
            &engine,
            workers,
            Arc::new(RouterObs::new(obs.enabled, obs.sample_every)),
            wal.clone(),
        );
        let (maintainer, maintainer_stats) = match maintenance {
            Some(cfg) => {
                let m = engine.start_maintainer(cfg);
                let stats = m.stats_handle();
                (Some(m), Some(stats))
            }
            None => (None, None),
        };
        Db {
            maintainer: Mutex::new(maintainer),
            maintainer_stats,
            router,
            engine,
            wal,
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
        let counters = self.router.counters();
        counters.sessions.fetch_add(1, Relaxed);
        Session {
            senders: self.router.clone_senders(),
            engine: &self.engine,
            counters,
            obs: Arc::clone(self.router.obs()),
            splitters: self.engine.splitters(),
            submits_since_refresh: 0,
        }
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
    /// counters, background-maintainer counters and router
    /// throughput.
    pub fn stats(&self) -> DbSnapshot {
        let c = self.router.counters();
        DbSnapshot {
            engine: self.engine.stats_snapshot(),
            maintainer: self.maintainer_snapshot(),
            router: RouterSnapshot {
                workers: self.router.workers(),
                sessions_opened: c.sessions.load(Relaxed),
                batches_submitted: c.batches.load(Relaxed),
                ops_submitted: c.ops_submitted.load(Relaxed),
                ops_executed: c.ops_executed.load(Relaxed),
            },
        }
    }

    /// Everything the stack measures in one read: the [`DbSnapshot`]
    /// counters plus the latency/size distributions (per-op-type
    /// service latency, batch size, queue depth, batch wall time,
    /// maintenance step and tick durations) and the retained tail of
    /// the maintenance event journal. Render with
    /// [`MetricsSnapshot::render_text`] (Prometheus-style text
    /// exposition) or `Display` (human-readable report). With
    /// observability disabled the distributions are empty and the
    /// journal has no events; the counter snapshot is always live.
    pub fn metrics(&self) -> MetricsSnapshot {
        let robs = self.router.obs();
        let eobs = self.engine.obs();
        MetricsSnapshot {
            db: self.stats(),
            op_latency: std::array::from_fn(|i| robs.op_latency[i].snapshot()),
            batch_size: robs.batch_size.snapshot(),
            queue_depth: robs.queue_depth.snapshot(),
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
            runs: s.runs(),
            relearns: s.relearns(),
            splits: s.splits(),
            merges: s.merges(),
            nudges: s.nudges(),
            steps: s.steps(),
            checkpoints: s.checkpoints(),
            steps_dropped: s.steps_dropped(),
            consolidations: s.consolidations(),
        })
    }

    /// Synchronous shard-count consolidation
    /// ([`rma_shard::ShardedRma::compact`]): merges the coldest
    /// neighbour pairs in cap-bounded steps until the live shard
    /// count reaches the configured target, returning the merges
    /// executed. The background maintainer runs the same chain
    /// automatically in idle troughs; call this for an on-demand
    /// compaction at a known quiet point.
    pub fn compact(&self) -> usize {
        self.engine.compact()
    }

    // ------------------------------------------------- data plane --
    // Thin delegation to the engine: the same methods the router
    // workers execute, for callers that want synchronous calls
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
        if w.is_degraded() {
            // The latch may have been set by a failing checkpoint on
            // the maintainer thread; journal the one-time transition
            // from whoever observes it first.
            router::journal_degraded(&self.engine, w);
            return Err(DbError::ReadOnly);
        }
        let out = op();
        if w.commit().is_err() {
            router::journal_degraded(&self.engine, w);
            return Err(DbError::ReadOnly);
        }
        Ok(out)
    }

    /// Point lookup (lock-free on the happy path).
    pub fn get(&self, k: Key) -> Option<Value> {
        self.engine.get(k)
    }

    /// Inserts a pair (duplicates kept). Panics if the database is
    /// read-only ([`Db::is_read_only`]); use [`Db::try_insert`] to
    /// handle that case.
    pub fn insert(&self, k: Key, v: Value) {
        self.try_insert(k, v).expect("database is read-only")
    }

    /// Inserts a pair (duplicates kept), reporting a degraded
    /// (read-only) database instead of panicking. `Ok` means the
    /// insert is durable under the configured commit policy.
    pub fn try_insert(&self, k: Key, v: Value) -> Result<(), DbError> {
        self.durable_write(|| self.engine.insert(k, v))
    }

    /// Removes one element with key exactly `k`, returning its value.
    /// Panics if the database is read-only; use [`Db::try_remove`] to
    /// handle that case.
    pub fn remove(&self, k: Key) -> Option<Value> {
        self.try_remove(k).expect("database is read-only")
    }

    /// Removes one element with key exactly `k`, reporting a degraded
    /// (read-only) database instead of panicking. `Ok` means the
    /// remove is durable under the configured commit policy.
    pub fn try_remove(&self, k: Key) -> Result<Option<Value>, DbError> {
        self.durable_write(|| self.engine.remove(k))
    }

    /// Removes the first element with key `>= k` (or the maximum);
    /// `None` only on an empty database. Panics if the database is
    /// read-only.
    pub fn remove_successor(&self, k: Key) -> Option<(Key, Value)> {
        self.durable_write(|| self.engine.remove_successor(k))
            .expect("database is read-only")
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

    /// Applies a sorted insert batch and a delete-key set through the
    /// parallel partitioned path; returns the elements deleted.
    /// Panics if the database is read-only.
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

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("shards", &self.engine.num_shards())
            .field("router_workers", &self.router.workers())
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
    /// Request-router throughput counters.
    pub router: RouterSnapshot,
}

/// Copy of the background maintainer's monotonic counters
/// ([`rma_shard::MaintainerStats`]) at snapshot time. Remains
/// available (with final values) after [`Db::stop_maintenance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintainerSnapshot {
    /// Polls of the trigger signals.
    pub polls: u64,
    /// Escalations to maintenance (plans created or synchronous
    /// passes run).
    pub runs: u64,
    /// Runs in which splitter re-learning engaged.
    pub relearns: u64,
    /// Shard splits performed.
    pub splits: u64,
    /// Shard merges performed.
    pub merges: u64,
    /// Boundary nudges performed.
    pub nudges: u64,
    /// Plan steps executed (incremental strategies).
    pub steps: u64,
    /// Durability checkpoints sealed by the maintainer.
    pub checkpoints: u64,
    /// Plan steps dropped un-executed by the scheduler's staleness
    /// check (the world drifted; the maintainer re-planned).
    pub steps_dropped: u64,
    /// Merges executed by the idle-time consolidation chain (a
    /// subset of `merges`).
    pub consolidations: u64,
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

/// The request router's monotonic throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// Worker threads serving sessions.
    pub workers: usize,
    /// Sessions opened since the database was built.
    pub sessions_opened: u64,
    /// Batches accepted by [`Session::submit`].
    pub batches_submitted: u64,
    /// Operations accepted across all batches.
    pub ops_submitted: u64,
    /// Operations executed by the workers (lags `ops_submitted` by
    /// the work currently in flight).
    pub ops_executed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_core::{RewiringMode, RmaConfig};
    use rma_shard::{ConfigError as EngineError, ShardConfig};

    fn small() -> DbBuilder {
        Db::builder()
            .shard_config(ShardConfig {
                num_shards: 4,
                rma: RmaConfig {
                    segment_size: 8,
                    rewiring: RewiringMode::Disabled,
                    reserve_bytes: 1 << 24,
                    ..Default::default()
                },
                min_split_len: 64,
                ..Default::default()
            })
            .router_workers(2)
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
                    max_step_elems: 0,
                    ..Default::default()
                })
                .build()
                .unwrap_err(),
            ConfigError::Engine(EngineError::ZeroMaxStepElems)
        );
        assert_eq!(
            Db::builder().router_workers(0).build().unwrap_err(),
            ConfigError::ZeroRouterWorkers
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
    fn compact_walks_a_fragmented_facade_back_to_target() {
        // A handle built over a deliberately over-fragmented splitter
        // set: `compact()` must walk the shard count back to the
        // engine target and report one merge per retired shard, and
        // the maintainer snapshot must surface the scheduler's new
        // counters.
        let db = small()
            .splitter_keys((1..16).map(|i| i * 100).collect())
            // Parked poll cadence: the background thread must not race
            // the synchronous `compact()` this test measures.
            .maintenance(rma_shard::MaintainerConfig {
                poll_interval: std::time::Duration::from_secs(3600),
                idle_ops_threshold: 500.0,
                ..Default::default()
            })
            .build()
            .expect("valid config");
        for k in 0..1600i64 {
            db.insert(k, k);
        }
        assert_eq!(db.stats().engine.num_shards, 16);
        let merges = db.compact();
        assert_eq!(merges, 12, "16 shards must consolidate to the target of 4");
        assert_eq!(db.stats().engine.num_shards, 4);
        assert_eq!(db.stats().engine.len, 1600);
        let m = db.stats().maintainer.expect("maintainer configured");
        assert_eq!(
            m.steps_dropped, 0,
            "nothing drifted under a synchronous compact"
        );
        // An invalid idle knob is rejected through the typed path.
        let idle = rma_shard::MaintainerConfig {
            idle_ops_threshold: 0.0,
            ..Default::default()
        };
        assert!(matches!(
            small().maintenance(idle).build().unwrap_err(),
            ConfigError::Engine(EngineError::IdleOpsThresholdNotPositive(_))
        ));
    }

    #[test]
    fn nothing_spawns_on_a_rejected_config() {
        // A rejected build returns Err without panicking — and the
        // process must not have gained a router or maintainer thread
        // (the assemble path is only reached after validation).
        let err = Db::builder()
            .shards(0)
            .maintenance(rma_shard::MaintainerConfig::default())
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
    fn tickets_pipeline_and_try_wait() {
        let db = small().build().expect("valid");
        let mut s = db.session();
        let pairs: Vec<Op> = (0..512).map(|k| Op::Insert(k, k)).collect();
        let mut tickets: Vec<Ticket> = (0..8).map(|_| s.submit(&pairs)).collect();
        // Every ticket resolves; try_wait eventually succeeds.
        while let Some(t) = tickets.pop() {
            let mut t = t;
            loop {
                match t.try_wait() {
                    Ok(replies) => {
                        assert_eq!(replies.len(), 512);
                        assert!(replies.iter().all(|r| *r == Reply::Inserted));
                        break;
                    }
                    Err(back) => t = back,
                }
            }
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
        assert!(t.is_ready() && t.is_empty());
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
            .maintenance(rma_shard::MaintainerConfig {
                poll_interval: std::time::Duration::from_millis(1),
                ..Default::default()
            })
            .build()
            .expect("valid");
        for k in 0..2000i64 {
            db.insert(k % 64, k);
        }
        // An optimised build finishes the inserts before the thread's
        // first poll: wait for one rather than race it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.stats().maintainer.is_none_or(|m| m.polls == 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "maintainer never polled"
            );
            std::thread::yield_now();
        }
        // Stop deterministically; the final counters stay readable.
        let final_stats = db.stop_maintenance().expect("was running");
        assert!(final_stats.polls > 0, "maintainer never polled");
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
        assert_eq!(snap.router.workers, 2);
    }
}
