//! # rma-shard — a sharded concurrent front-end for the Rewired Memory Array
//!
//! The single-threaded [`Rma`](rma_core::Rma) of De Leo & Boncz (ICDE
//! 2019) is `&mut self` end to end: nothing can serve two clients at
//! once. This crate wraps it in the canonical first concurrency layer
//! for PMA-family structures — **key-range sharding** — which works
//! because rebalances are window-local and therefore shard-local by
//! construction:
//!
//! * a [`ShardedRma`] partitions the key space across N shards with
//!   [`Splitters`] (learned from a sample, a bulk-load batch, or
//!   spread uniformly);
//! * point operations route through a **branch-free** splitter search
//!   and touch exactly one shard; a rebalance or resize inside one
//!   shard never blocks its siblings;
//! * [`scan_into`](ShardedRma::scan_into) (and the closure form
//!   [`scan`](ShardedRma::scan) over it) /
//!   [`sum_range`](ShardedRma::sum_range) stitch results across shard
//!   boundaries;
//! * [`apply_batch`](ShardedRma::apply_batch) partitions a sorted
//!   batch by shard and applies the sub-batches on parallel threads
//!   through the paper's bottom-up bulk-load machinery;
//! * every shard carries an [`AccessStats`] histogram — lock-free
//!   `AtomicU64` bucket counters bumped on every operation and
//!   periodically halved so stale hotspots fade;
//! * maintenance is an **incremental plan engine**
//!   ([`maintenance`] module):
//!   [`rebalance_shards`](ShardedRma::rebalance_shards) and
//!   [`relearn_splitters`](ShardedRma::relearn_splitters) *plan*
//!   bounded [`MaintenanceStep`]s — splits, merges, boundary
//!   *nudges* for drifting hotspots, and capped range rebuilds —
//!   and an executor applies one step at a time, each publishing its
//!   own copy-on-write topology, so even a full multi-way re-learn
//!   never stalls a writer for more than one step;
//!   [`maintain`](ShardedRma::maintain) combines both, and
//!   [`start_maintainer`](ShardedRma::start_maintainer) drains plans
//!   from a dedicated background thread on a per-tick step budget
//!   with inter-step sleeps.
//!
//! ## The optimistic read path
//!
//! Point lookups and range sums take **zero locks** on the happy
//! path:
//!
//! * **Routing** never locks: the topology (splitters + shard list)
//!   lives behind an epoch-published handle
//!   (`optimistic::TopoHandle`) — an `AtomicPtr` swap plus
//!   generation-counted reader pins, so maintenance replaces the
//!   topology while readers keep serving from the one they pinned.
//! * **Shard reads** are pin-then-check: each shard carries a
//!   `writing` flag raised around every `&mut Rma` section. A reader
//!   pins the shard, checks that the flag is down, and reads through
//!   the ordinary safe accessors — once. Writers raise the flag *and
//!   wait for pinned readers to drain* before mutating, which makes
//!   the optimistic read sound (never concurrent with mutation —
//!   crucial because a racing resize can unmap pages) while keeping
//!   readers wait-free: a reader never waits on a writer; after a few
//!   pins that each met one it takes the shard's `RwLock`.
//! * **Batched lookups** ([`ShardedRma::get_many`]) go through the
//!   same bracket once per shard instead of once per key: one topology
//!   pin per call, one look per shard's group of keys.
//!
//! The result: maintenance no longer stalls the read fleet — and,
//! since the plan engine, no longer stalls the *write* fleet either:
//! a full re-learn proceeds shard-by-shard, and a writer only ever
//! waits out the one step currently restructuring its shard (the
//! `fig18_write_stall` benchmark pins the worst single insert under
//! background re-learning to ≤ 10 ms at 2^20 scale, vs hundreds of
//! milliseconds for the monolithic baseline). Readers observing a
//! retired topology serve the pre-swap snapshot, which is
//! linearizable at the instant they acquired the topology pointer.
//! Writers that reach a retired shard re-route through the fresh
//! topology (a bounded retry). [`ShardedRma::lock_acquisitions`] is
//! the test hook proving the happy path stays lock-free;
//! [`ShardedRma::maintenance_stats`] exposes the plan engine's
//! steps, migrations and worst-step wall time.
//!
//! Concurrency contract: each operation is atomic within the shard(s)
//! it touches; multi-shard reads (scans) visit shards left to right,
//! so a concurrent writer may be observed between shards but never
//! inside one. This matches the per-partition consistency that
//! partitioned stores ship in practice.
//!
//! ```
//! use rma_shard::{ShardConfig, ShardedRma};
//!
//! let index = ShardedRma::new(ShardConfig::default());
//! for k in 0..1000i64 {
//!     index.insert(k, k * 2); // &self: callers can share it
//! }
//! assert_eq!(index.get(421), Some(842));
//! let (visited, _sum) = index.sum_range(100, 50);
//! assert_eq!(visited, 50);
//! index.apply_batch(&[(2000, 1), (2001, 2)], &[421]);
//! assert_eq!(index.get(421), None);
//! assert_eq!(index.len(), 1001);
//! ```
//!
//! Background maintenance (see [`maintainer`] for the lifecycle):
//!
//! ```
//! use rma_shard::{MaintainerConfig, ShardConfig, ShardedRma};
//! use std::sync::Arc;
//!
//! let index = Arc::new(ShardedRma::new(ShardConfig::default()));
//! let maintainer = index.start_maintainer(MaintainerConfig::default());
//! for k in 0..1000i64 {
//!     index.insert(k, k);
//! }
//! let stats = maintainer.stop(); // joins the thread deterministically
//! println!("background maintenance ran {} times", stats.runs());
//! assert_eq!(index.len(), 1000);
//! ```

pub mod access;
mod batch;
pub mod config;
pub mod durability;
pub mod maintainer;
pub mod maintenance;
pub mod obs;
mod optimistic;
mod scan;
mod shard;
pub mod splitter;

pub use access::AccessStats;
pub use config::{BalancePolicy, ConfigError, RelearnStrategy, ShardConfig};
pub use durability::{DurabilityOp, DurabilitySink};
pub use maintainer::{Maintainer, MaintainerConfig, MaintainerStats};
pub use maintenance::{
    DrainReport, MaintenancePlan, MaintenanceStep, RelearnReport, ShardStats, StepReport,
};
pub use obs::EngineObs;
pub use shard::LockStats;
pub use splitter::Splitters;

use optimistic::{TopoGuard, TopoHandle};
use rma_core::{Key, Value};
use shard::{ShardWriteGuard, Topology};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shard-local operations between advances of the shared decay clock
/// (batching keeps the global cache line off the per-op hot path).
pub(crate) const DECAY_TICK_BATCH: u64 = 64;

/// Keys [`ShardedRma::get_many`] routes and groups by shard in one
/// pass — one bit of a `u64` mask each. With the default eight shards
/// a full block hands `Rma::get_batch` about eight keys a shard, where
/// the overlap of their misses has flattened out.
const GET_MANY_BLOCK: usize = u64::BITS as usize;

/// The positions of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// The bits of `pending` whose key routes to `shard`.
fn members(pending: u64, shard_of: &[u32; GET_MANY_BLOCK], shard: u32) -> u64 {
    bits(pending)
        .filter(|&i| shard_of[i] == shard)
        .fold(0, |group, i| group | 1 << i)
}

/// One coherent snapshot of the engine's observable state, produced
/// by [`ShardedRma::stats_snapshot`]: content totals, the
/// access-balance signal, the lock-freedom proof counters, and the
/// maintenance plan engine's lifetime counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Stored elements across all shards.
    pub len: usize,
    /// Shards in the live topology.
    pub num_shards: usize,
    /// Resident bytes across all shards.
    pub memory_footprint: usize,
    /// Bytes held by the splitter array the router searches — grows
    /// with the live shard count, shrinks under consolidation.
    pub splitter_bytes: usize,
    /// Operations recorded on the shared decay clock (in
    /// `DECAY_TICK_BATCH`-sized granules for point ops).
    pub op_count: u64,
    /// Max/mean decayed access mass across shards (`1.0` = balanced).
    pub access_imbalance: f64,
    /// Shared `RwLock` acquisitions since construction — stays flat
    /// while the optimistic read path is winning.
    pub read_locks: u64,
    /// Exclusive `RwLock` acquisitions since construction.
    pub write_locks: u64,
    /// Reader pins that met a writer since construction (each is
    /// followed by another pin or by the lock fallback; the name
    /// predates the flag) — the contention signal behind flat lock
    /// counters.
    pub seqlock_retries: u64,
    /// The incremental maintenance engine's lifetime counters.
    pub maintenance: MaintenanceStats,
    /// What every shard holds and what it costs, in key order; `len`
    /// and `memory_footprint` above are the sums.
    pub shards: Vec<ShardFill>,
}

/// One shard of an [`EngineSnapshot`]: how full its array is and the
/// memory behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFill {
    /// Stored elements.
    pub len: usize,
    /// Slots of the shard's sparse array.
    pub capacity: usize,
    /// Resident bytes: the wired pages of both columns plus the
    /// shard's index, cardinalities and detector.
    pub wired_bytes: usize,
}

impl ShardFill {
    /// `len / capacity`: between `ρ_h` and `τ_h` of the shard's
    /// thresholds, unless the shard is nearly empty.
    pub fn density(&self) -> f64 {
        self.len as f64 / self.capacity as f64
    }
}

/// A concurrent, key-range-sharded collection of [`rma_core::Rma`]s.
/// All operations take `&self`; see the crate docs for the
/// consistency contract and the lock-free read path.
pub struct ShardedRma {
    cfg: ShardConfig,
    handle: TopoHandle,
    /// Serializes topology publication: rebalance, re-learning and
    /// the background maintainer all run under it. Readers and
    /// writers never touch it.
    maint_lock: Mutex<()>,
    /// Shared decay clock: total recorded operations (in
    /// [`DECAY_TICK_BATCH`] granules). Every `cfg.decay_every` ticks,
    /// *all* shard histograms halve together — a global halving
    /// preserves the relative masses the re-learner compares, whereas
    /// per-shard decay clocks would drive every busy shard toward the
    /// same steady-state mass.
    op_clock: AtomicU64,
    lock_stats: Arc<LockStats>,
    /// Counters behind [`maintenance_stats`](Self::maintenance_stats):
    /// bumped by the plan engine and the batch re-route path.
    maint_counters: MaintCounters,
    /// Event journal + maintenance histograms (see [`EngineObs`]).
    obs: EngineObs,
    /// Write-ahead log hook: every applied mutation is appended here
    /// under the mutating shard's write lock (see [`durability`]).
    /// `None` (the default) keeps the hot paths free of the check's
    /// cost beyond one branch.
    wal: Option<Arc<dyn DurabilitySink>>,
}

/// Internal atomics behind [`MaintenanceStats`].
#[derive(Debug, Default)]
pub(crate) struct MaintCounters {
    pub(crate) plans: AtomicU64,
    pub(crate) steps_planned: AtomicU64,
    pub(crate) steps_executed: AtomicU64,
    pub(crate) steps_skipped: AtomicU64,
    pub(crate) steps_dropped: AtomicU64,
    pub(crate) keys_migrated: AtomicU64,
    pub(crate) nudges: AtomicU64,
    pub(crate) max_step_ns: AtomicU64,
    pub(crate) batch_reroutes: AtomicU64,
    pub(crate) write_reroutes: AtomicU64,
}

/// Snapshot of the incremental maintenance engine's lifetime
/// counters ([`ShardedRma::maintenance_stats`]). All counts are
/// monotonic since construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Non-empty [`MaintenancePlan`]s produced by the planners.
    pub plans: u64,
    /// Steps emitted into plans.
    pub steps_planned: u64,
    /// Steps that executed and published a topology (or validated as
    /// an exact no-op).
    pub steps_executed: u64,
    /// Steps skipped as stale (the topology moved between planning
    /// and execution).
    pub steps_skipped: u64,
    /// Steps dropped un-executed by the scheduler's staleness check:
    /// the live shard count or access masses drifted past the drift
    /// bound, so the plan's remaining tail was discarded and the
    /// caller re-planned instead.
    pub steps_dropped: u64,
    /// Elements rebuilt under the locks of all executed steps — see
    /// [`StepReport::migrated`] for the one definition.
    pub keys_migrated: u64,
    /// Executed [`MaintenanceStep::NudgeBoundary`] steps.
    pub nudges: u64,
    /// Copy-on-write topologies published since construction
    /// (maintenance steps of every kind, including monolithic
    /// re-learns).
    pub topologies_published: u64,
    /// Worst time one executed step held its shard write locks, in
    /// nanoseconds (drain + rebuild + publish; shell pre-creation and
    /// the reader grace wait run outside the locks and are excluded)
    /// — the bound on how long a writer could have queued behind
    /// maintenance.
    pub max_step_wall_ns: u64,
    /// `apply_batch` rounds that had to re-route leftovers after a
    /// step retired their target shard mid-flight.
    pub batch_reroutes: u64,
    /// Single-key mutations that reached a retired shard and had to
    /// re-route through a fresh topology.
    pub write_reroutes: u64,
}

impl ShardedRma {
    /// Empty index with splitters spread uniformly over the 62-bit
    /// positive key domain (the workload generators' domain). Prefer
    /// [`load_bulk`](Self::load_bulk) when the data exists.
    pub fn new(cfg: ShardConfig) -> Self {
        Self::with_splitters(cfg, Splitters::uniform(cfg.num_shards))
    }

    /// Empty index with explicit splitter keys.
    pub fn with_splitters(cfg: ShardConfig, splitters: Splitters) -> Self {
        cfg.validate();
        let lock_stats = Arc::new(LockStats::default());
        let topo = Topology::empty(splitters, &cfg, &lock_stats);
        Self::from_parts(cfg, topo, lock_stats)
    }

    pub(crate) fn from_parts(cfg: ShardConfig, topo: Topology, lock_stats: Arc<LockStats>) -> Self {
        ShardedRma {
            cfg,
            handle: TopoHandle::new(topo),
            maint_lock: Mutex::new(()),
            op_clock: AtomicU64::new(0),
            lock_stats,
            maint_counters: MaintCounters::default(),
            obs: EngineObs::default(),
            wal: None,
        }
    }

    /// The engine's observability state: maintenance event journal
    /// plus step/tick duration histograms.
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Reconfigures observability. `&mut self`: callers (the `Db`
    /// builder) do this before the engine is shared, so the hot paths
    /// can read the flag without synchronization.
    pub fn set_observability(&mut self, enabled: bool, journal_capacity: usize) {
        self.obs = EngineObs::new(enabled, journal_capacity);
    }

    /// Installs the write-ahead log sink. `&mut self` for the same
    /// reason as [`set_observability`](Self::set_observability): the
    /// builder wires durability before the engine is shared, so the
    /// mutation paths read the hook without synchronization.
    ///
    /// Recovery replays the log *before* calling this, so replayed
    /// mutations are not re-logged.
    pub fn set_durability(&mut self, sink: Arc<dyn DurabilitySink>) {
        self.wal = Some(sink);
    }

    /// The installed durability sink, if any.
    pub fn durability(&self) -> Option<&Arc<dyn DurabilitySink>> {
        self.wal.as_ref()
    }

    /// Pins the current topology (lock-free; see
    /// [`optimistic::TopoHandle`]).
    pub(crate) fn topo(&self) -> TopoGuard<'_> {
        self.handle.pin()
    }

    pub(crate) fn topo_handle(&self) -> &TopoHandle {
        &self.handle
    }

    pub(crate) fn lock_stats_arc(&self) -> &Arc<LockStats> {
        &self.lock_stats
    }

    /// Serializes maintenance; every topology publication happens
    /// under this guard.
    pub(crate) fn maintenance_guard(&self) -> MutexGuard<'_, ()> {
        self.maint_lock.lock().expect("maintenance lock poisoned")
    }

    /// Advances the shared decay clock by `n` recorded operations;
    /// for every `decay_every` boundary the clock crosses, every
    /// shard's histogram halves in one sweep. Capped at 64 halvings —
    /// beyond that a u64 counter is zero anyway.
    ///
    /// Point-op paths call this once per [`DECAY_TICK_BATCH`]
    /// shard-local operations (not per op), so the shared clock's
    /// cache line is touched ~64× less often than the shards' own
    /// counters — the histogram layer stays coordination-free on the
    /// hot path. The clock always advances (the background maintainer
    /// reads it as the op-rate signal) even when decay is disabled.
    pub(crate) fn tick_decay(&self, topo: &Topology, n: u64) {
        let prev = self.op_clock.fetch_add(n, Relaxed);
        let period = self.cfg.decay_every;
        if period == 0 {
            return;
        }
        let crossings = ((prev + n) / period - prev / period).min(64);
        for _ in 0..crossings {
            for shard in &topo.shards {
                shard.stats.decay();
            }
        }
    }

    /// Total operations recorded on the shared clock (in
    /// `DECAY_TICK_BATCH` granules for point ops; exact for
    /// batches). The background maintainer differentiates this to
    /// estimate the op rate.
    pub fn op_count(&self) -> u64 {
        self.op_clock.load(Relaxed)
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// `RwLock` acquisitions (shared, exclusive) since construction —
    /// the hook that verifies the happy-path read takes zero locks.
    pub fn lock_acquisitions(&self) -> (u64, u64) {
        (
            self.lock_stats.read_locks.load(Relaxed),
            self.lock_stats.write_locks.load(Relaxed),
        )
    }

    pub(crate) fn maint_counters(&self) -> &MaintCounters {
        &self.maint_counters
    }

    /// Lifetime counters of the incremental maintenance engine: plans
    /// and steps (planned / executed / skipped), elements migrated,
    /// topologies published, and the worst single-step wall time —
    /// the observable proof that maintenance proceeds in bounded
    /// steps rather than monolithic stalls.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let c = &self.maint_counters;
        MaintenanceStats {
            plans: c.plans.load(Relaxed),
            steps_planned: c.steps_planned.load(Relaxed),
            steps_executed: c.steps_executed.load(Relaxed),
            steps_skipped: c.steps_skipped.load(Relaxed),
            steps_dropped: c.steps_dropped.load(Relaxed),
            keys_migrated: c.keys_migrated.load(Relaxed),
            nudges: c.nudges.load(Relaxed),
            topologies_published: self.handle.publications(),
            max_step_wall_ns: c.max_step_ns.load(Relaxed),
            batch_reroutes: c.batch_reroutes.load(Relaxed),
            write_reroutes: c.write_reroutes.load(Relaxed),
        }
    }

    /// One coherent observability snapshot, reading each shard once.
    /// The lock counters are captured *before* the per-shard sweep,
    /// and the sweep — like [`len`](Self::len) and
    /// [`memory_footprint`](Self::memory_footprint) — reads
    /// optimistically (read lock only under writer interference), so
    /// a monitoring loop does not drift the lock-freedom proof
    /// counters.
    pub fn stats_snapshot(&self) -> EngineSnapshot {
        let (read_locks, write_locks) = self.lock_acquisitions();
        let seqlock_retries = self.lock_stats.opt_retries.load(Relaxed);
        let maintenance = self.maintenance_stats();
        let topo = self.topo();
        let fill = |rma: &rma_core::Rma| ShardFill {
            len: rma.len(),
            capacity: rma.capacity(),
            wired_bytes: rma.memory_footprint(),
        };
        let shards: Vec<ShardFill> = topo.shards.iter().map(|s| s.peek(fill)).collect();
        let masses = topo.shards.iter().map(|s| s.stats.total() as f64);
        EngineSnapshot {
            len: shards.iter().map(|s| s.len).sum(),
            num_shards: shards.len(),
            memory_footprint: shards.iter().map(|s| s.wired_bytes).sum(),
            splitter_bytes: std::mem::size_of_val(topo.splitters.keys()),
            op_count: self.op_count(),
            access_imbalance: maintenance::imbalance_of(masses),
            read_locks,
            write_locks,
            seqlock_retries,
            maintenance,
            shards,
        }
    }

    /// Current number of shards (maintenance may change it).
    pub fn num_shards(&self) -> usize {
        self.topo().shards.len()
    }

    /// Current splitter keys (cloned snapshot).
    pub fn splitters(&self) -> Splitters {
        self.topo().splitters.clone()
    }

    /// Total stored elements: the per-shard lengths, each read at a
    /// stable state of its shard (no lock while the shard is
    /// quiescent); concurrent writers may move the value while it is
    /// being summed.
    pub fn len(&self) -> usize {
        self.topo().lens().sum()
    }

    /// True when no shard stores any element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes across all shards.
    pub fn memory_footprint(&self) -> usize {
        let topo = self.topo();
        (topo.shards.iter())
            .map(|s| s.peek(rma_core::Rma::memory_footprint))
            .sum()
    }

    // ------------------------------------------------- point ops --

    /// Point lookup. Lock-free on the happy path: routes through the
    /// pinned topology and reads the shard optimistically, falling
    /// back to the shard's read lock only after repeated writer
    /// interference.
    pub fn get(&self, k: Key) -> Option<Value> {
        let topo = self.topo();
        let shard = &topo.shards[topo.splitters.route(k)];
        self.read_keys(&topo, shard, &[k], |rma| rma.get(k))
    }

    /// `out[i] = self.get(keys[i])` for every `i`, paying the per-call
    /// costs of [`get`](Self::get) once per shard instead of once per
    /// key: the topology is pinned once, the keys are grouped by
    /// shard, and each group is recorded with one counter update and
    /// read in **one** optimistic section through
    /// [`Rma::get_batch`](rma_core::Rma::get_batch), which overlaps
    /// the group's cache misses.
    ///
    /// Promises exactly what `keys.len()` separate `get`s do: each
    /// key is read at a stable state of its shard; keys in
    /// different shards are *not* one snapshot. Overwrites all of
    /// `out`.
    ///
    /// # Panics
    ///
    /// If `keys` and `out` differ in length.
    pub fn get_many(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let topo = self.topo();
        // Routing and grouping happen on the stack, a block of keys at
        // a time, so the two-key runs of a small-request workload pay
        // no allocation for them.
        let mut shard_of = [0u32; GET_MANY_BLOCK];
        for (keys, out) in keys
            .chunks(GET_MANY_BLOCK)
            .zip(out.chunks_mut(GET_MANY_BLOCK))
        {
            for (s, &k) in shard_of.iter_mut().zip(keys) {
                *s = topo.splitters.route(k) as u32;
            }
            // Bit `i` set: `keys[i]` has not been read yet.
            let mut pending = u64::MAX >> (GET_MANY_BLOCK - keys.len());
            while pending != 0 {
                let first = pending.trailing_zeros() as usize;
                let shard = &topo.shards[shard_of[first] as usize];
                let group = members(pending, &shard_of, shard_of[first]);
                pending &= !group;
                let n = group.count_ones() as usize;
                if n == 1 {
                    // Nothing to gather or to overlap: a short run
                    // spread over the shards is mostly these, and must
                    // not cost more than the `get`s it replaces.
                    let k = keys[first];
                    out[first] = self.read_keys(&topo, shard, &[k], |rma| rma.get(k));
                    continue;
                }
                let mut group_keys = [0 as Key; GET_MANY_BLOCK];
                let mut group_vals = [None; GET_MANY_BLOCK];
                for (gk, i) in group_keys.iter_mut().zip(bits(group)) {
                    *gk = keys[i];
                }
                let (group_keys, group_vals) = (&group_keys[..n], &mut group_vals[..n]);
                self.read_keys(&topo, shard, group_keys, |rma| {
                    rma.get_batch(group_keys, group_vals)
                });
                for (i, &v) in bits(group).zip(group_vals.iter()) {
                    out[i] = v;
                }
            }
        }
    }

    /// The one way an access is recorded: `keys.len()` on `counter`
    /// (the shard's `reads` or `writes`) in one update, every key in
    /// the shard's histogram, and one decay tick per
    /// [`DECAY_TICK_BATCH`] boundary the shard-local count crossed.
    pub(crate) fn record_access(
        &self,
        topo: &Topology,
        shard: &shard::Shard,
        counter: &AtomicU64,
        keys: &[Key],
    ) {
        let n = keys.len() as u64;
        let prev = counter.fetch_add(n, Relaxed);
        for &k in keys {
            shard.stats.record(k);
        }
        let crossed = (prev + n) / DECAY_TICK_BATCH - prev / DECAY_TICK_BATCH;
        if crossed > 0 {
            self.tick_decay(topo, crossed * DECAY_TICK_BATCH);
        }
    }

    /// The bracket every point read runs in — `get` with one key,
    /// `get_many` with a shard's group: records the accesses, then
    /// runs `read` once — optimistically, under the shard's read lock
    /// only after repeated writer interference.
    fn read_keys<R>(
        &self,
        topo: &Topology,
        shard: &shard::Shard,
        keys: &[Key],
        read: impl FnOnce(&rma_core::Rma) -> R,
    ) -> R {
        self.record_access(topo, shard, &shard.reads, keys);
        shard.peek(read)
    }

    /// Runs `attempt` against a freshly pinned topology until it
    /// succeeds. An attempt returns `None` to signal it found only
    /// retired state (a maintenance step replaced its target shard
    /// mid-flight) and must re-route. The retry is immediate — no
    /// yield: a retired flag only becomes observable under a shard
    /// lock the step released *after* publishing its successor
    /// topology, so re-pinning is guaranteed to see the fresh routing
    /// (yielding here would donate a scheduler slice to the busy
    /// maintainer thread and stretch the writer's stall for nothing).
    /// The single home of the retire-retry idiom shared by `insert`,
    /// `remove` and `remove_successor`.
    pub(crate) fn with_topo_retry<R>(&self, mut attempt: impl FnMut(&Topology) -> Option<R>) -> R {
        loop {
            let topo = self.topo();
            if let Some(out) = attempt(&topo) {
                return out;
            }
            drop(topo);
            std::hint::spin_loop();
        }
    }

    /// Routes `k` to its shard, takes the shard's write lock, records
    /// the access, and runs `op` on the guard — re-routing through a
    /// fresh topology whenever a maintenance step retired the target
    /// shard first. Every single-key mutation goes through here, so
    /// the step executor's frequent topology swaps exercise exactly
    /// one retry path.
    fn route_mut_with_retry<R>(
        &self,
        k: Key,
        mut op: impl FnMut(&mut ShardWriteGuard<'_>) -> R,
    ) -> R {
        self.with_topo_retry(|topo| {
            let shard = &topo.shards[topo.splitters.route(k)];
            let mut guard = shard.write();
            if guard.is_retired() {
                self.maint_counters.write_reroutes.fetch_add(1, Relaxed);
                return None;
            }
            self.record_access(topo, shard, &shard.writes, &[k]);
            Some(op(&mut guard))
        })
    }

    /// Inserts `(k, v)` (duplicates kept): routes to one shard and
    /// writes under its exclusive lock (plus the writer half of the
    /// pin protocol). A rebalance or resize this triggers stays inside
    /// the shard. Re-routes if maintenance retired the shard
    /// mid-flight.
    pub fn insert(&self, k: Key, v: Value) {
        self.route_mut_with_retry(k, |guard| {
            guard.mutate(|rma| rma.insert(k, v));
            if let Some(wal) = &self.wal {
                wal.append(DurabilityOp::Insert(k, v));
            }
        });
    }

    /// Removes one element with key exactly `k`, returning its value.
    pub fn remove(&self, k: Key) -> Option<Value> {
        self.route_mut_with_retry(k, |guard| {
            let out = guard.mutate(|rma| rma.remove(k));
            if out.is_some() {
                if let Some(wal) = &self.wal {
                    wal.append(DurabilityOp::Remove(k));
                }
            }
            out
        })
    }

    // ---------------------------------------------- access signal --

    /// Decayed access mass per shard, in shard order — the signal
    /// maintenance balances on.
    pub fn access_masses(&self) -> Vec<u64> {
        let topo = self.topo();
        topo.shards.iter().map(|s| s.stats.total()).collect()
    }

    /// Length of the largest shard — what the maintenance trigger
    /// holds against the [`ShardConfig::max_shard_len`] backstop.
    pub fn max_shard_len(&self) -> usize {
        self.topo().lens().max().unwrap_or(0)
    }

    /// Max/mean access imbalance across shards: `1.0` is perfectly
    /// balanced; returns `1.0` when no access has been recorded.
    pub fn access_imbalance(&self) -> f64 {
        maintenance::imbalance_of(self.access_masses().iter().map(|&m| m as f64))
    }

    /// Zeroes every shard's access histogram and the decay clock
    /// (measurement hook: the replay harness resets between phases to
    /// attribute mass to one phase).
    pub fn reset_access_stats(&self) {
        let topo = self.topo();
        for shard in &topo.shards {
            shard.stats.clear();
        }
        self.op_clock.store(0, Relaxed);
    }

    // ------------------------------------------------ validation --

    /// Exhaustive structural check across all shards; test helper.
    /// Verifies every per-shard RMA invariant plus the sharding
    /// invariant: each shard's keys lie inside its splitter range
    /// (equivalently, every stored key routes back to its shard).
    pub fn check_invariants(&self) {
        let topo = self.topo();
        for (i, shard) in topo.shards.iter().enumerate() {
            shard.locked(|g| {
                g.check_invariants();
                let (lo, hi) = topo.splitters.range_of(i);
                if let Some((min, _)) = g.first_ge(Key::MIN) {
                    let max = g.iter().last().expect("non-empty shard").0;
                    assert!(
                        lo.is_none_or(|l| l <= min),
                        "shard {i} min {min} below lower bound {lo:?}"
                    );
                    assert!(
                        hi.is_none_or(|h| max < h),
                        "shard {i} max {max} at/above upper bound {hi:?}"
                    );
                    assert_eq!(topo.splitters.route(min), i, "min routes elsewhere");
                    assert_eq!(topo.splitters.route(max), i, "max routes elsewhere");
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_core::{RewiringMode, RmaConfig};

    pub(crate) fn small_cfg(n: usize) -> ShardConfig {
        ShardConfig {
            num_shards: n,
            rma: RmaConfig {
                segment_size: 8,
                rewiring: RewiringMode::Disabled,
                reserve_bytes: 1 << 24,
                ..Default::default()
            },
            min_split_len: 64,
            ..Default::default()
        }
    }

    #[test]
    fn point_ops_round_trip() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![250, 500, 750]));
        for k in 0..1000i64 {
            s.insert(k, k * 3);
        }
        s.check_invariants();
        assert_eq!(s.len(), 1000);
        assert_eq!(s.num_shards(), 4);
        for k in (0..1000).step_by(37) {
            assert_eq!(s.get(k), Some(k * 3));
        }
        assert_eq!(s.remove(500), Some(1500));
        assert_eq!(s.get(500), None);
        assert_eq!(s.len(), 999);
    }

    #[test]
    fn shared_across_threads() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![2500, 5000, 7500]));
        std::thread::scope(|sc| {
            for t in 0..4i64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..2500i64 {
                        let k = t * 2500 + i;
                        s.insert(k, k);
                        assert_eq!(s.get(k), Some(k));
                    }
                });
            }
        });
        s.check_invariants();
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn duplicate_heavy_workload_stays_consistent() {
        let s = ShardedRma::with_splitters(small_cfg(3), Splitters::new(vec![10, 20]));
        for _ in 0..500 {
            s.insert(10, 1);
            s.insert(20, 2);
            s.insert(15, 3);
        }
        s.check_invariants();
        assert_eq!(s.len(), 1500);
        // Boundary keys must land right of their splitter.
        assert_eq!(s.splitters().route(10), 1);
        assert_eq!(s.splitters().route(20), 2);
    }

    #[test]
    fn point_ops_advance_the_decay_clock_in_batches() {
        let mut cfg = small_cfg(2);
        cfg.decay_every = 64;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        // One key → one bucket, so halving has no per-bucket floor
        // rounding and the arithmetic below is exact.
        for v in 0..64i64 {
            s.insert(7, v);
        }
        // The 64th shard op ticks the clock across one decay period:
        // 64 recorded accesses, halved once.
        assert_eq!(s.access_masses()[0], 32);
    }

    #[test]
    fn batched_ingest_decays_once_per_period() {
        let mut cfg = small_cfg(2);
        cfg.decay_every = 64;
        let s = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        // One key → one bucket: exact halving arithmetic.
        let inserts: Vec<(i64, i64)> = (0..256).map(|v| (7, v)).collect();
        s.apply_batch(&inserts, &[]);
        // One 256-op batch spans four decay periods: the clock must
        // apply all four halvings, not one. 256 → 16.
        assert_eq!(s.access_masses().iter().sum::<u64>(), 16);
    }

    #[test]
    fn happy_path_get_takes_no_locks() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![250, 500, 750]));
        for k in 0..1000i64 {
            s.insert(k, k);
        }
        let (reads_before, writes_before) = s.lock_acquisitions();
        for k in (0..1000).step_by(3) {
            assert_eq!(s.get(k), Some(k));
        }
        let keys: Vec<Key> = (-5..1005).step_by(3).collect();
        let mut vals = vec![None; keys.len()];
        s.get_many(&keys, &mut vals);
        for (&k, v) in keys.iter().zip(vals) {
            assert_eq!(v, (0..1000).contains(&k).then_some(k), "get_many {k}");
        }
        let (reads_after, writes_after) = s.lock_acquisitions();
        assert_eq!(
            reads_after - reads_before,
            0,
            "uncontended gets must not take the read lock"
        );
        assert_eq!(writes_after - writes_before, 0);
    }

    #[test]
    fn get_many_records_accesses_like_per_key_gets() {
        let mut cfg = small_cfg(2);
        cfg.decay_every = 64;
        let many = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        let single = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        // One key → one bucket: exact halving arithmetic. 150 reads of
        // it cross the 64-op tick boundary twice, whether they arrive
        // one by one or as three calls spanning several blocks.
        let keys = [7; 150];
        for chunk in keys.chunks(70) {
            many.get_many(chunk, &mut vec![None; chunk.len()]);
        }
        for k in keys {
            single.get(k);
        }
        assert_eq!(single.op_count(), 128);
        assert_eq!(many.op_count(), single.op_count());
        let masses = |s: &ShardedRma| s.access_masses().iter().sum::<u64>();
        // The halvings fall at different reads (a batch is recorded
        // before its tick), so the masses agree only to within the
        // reads of one block.
        assert!(masses(&many).abs_diff(masses(&single)) <= GET_MANY_BLOCK as u64);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn invalid_config_panics() {
        let cfg = ShardConfig {
            max_step_elems: 0,
            ..ShardConfig::default()
        };
        let _ = ShardedRma::new(cfg);
    }
}
