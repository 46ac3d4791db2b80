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
//! * [`load_bulk`](ShardedRma::load_bulk) partitions a sorted batch
//!   by shard and builds the shards on parallel threads through the
//!   paper's bottom-up bulk-load machinery;
//!   [`apply_batch`](ShardedRma::apply_batch) after the build is one
//!   [`apply_ops`](ShardedRma::apply_ops) run;
//! * every shard carries an [`AccessStats`] histogram — lock-free
//!   `AtomicU64` bucket counters bumped on every operation and
//!   periodically halved so stale hotspots fade;
//! * maintenance is an **incremental plan engine**
//!   ([`maintenance`] module) with one rule, the paper's calibrator
//!   tree one level up:
//!   [`plan_maintenance`](ShardedRma::plan_maintenance) plans it as
//!   [`MaintenanceStep`]s, each one re-cut of a key range that
//!   publishes its own copy-on-write topology;
//!   [`maintain`](ShardedRma::maintain) drains a plan at once, and
//!   [`start_maintainer`](ShardedRma::start_maintainer) from a
//!   background thread that the op clock wakes.
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
//! * **Batched point ops** ([`ShardedRma::get_many`],
//!   [`ShardedRma::apply_ops`]) pay the per-call costs once per shard
//!   instead of once per op: one topology pin per call, and per
//!   shard's group of a 64-op block one look — or, when the group
//!   writes, one write lock, one `writing` bracket and one durability
//!   append. Ops on one shard keep their order; ops on different
//!   shards do not.
//!
//! The result: maintenance no longer stalls the read fleet — and,
//! since the plan engine, no longer stalls the *write* fleet either:
//! a writer only ever waits out the one step currently restructuring
//! its shard (the `fig18_write_stall` benchmark pins the worst single
//! insert under background maintenance to ≤ 10 ms at 2^20 scale).
//! Readers observing a retired topology serve the pre-swap snapshot,
//! which is linearizable at the instant they acquired the topology
//! pointer. Every write is an `apply_ops` group; one that reaches a
//! retired shard re-enters `apply_ops` op by op, on a fresh topology.
//! [`ShardedRma::lock_acquisitions`] is the test hook proving the
//! happy path stays lock-free;
//! [`ShardedRma::maintenance_stats`] is the one ledger of what
//! maintenance did: plans, steps by kind, migrations and worst-step
//! wall time.
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
//! use rma_shard::{ShardConfig, ShardedRma};
//! use std::sync::Arc;
//!
//! let index = Arc::new(ShardedRma::new(ShardConfig::default()));
//! let maintainer = index.start_maintainer();
//! for k in 0..1000i64 {
//!     index.insert(k, k);
//! }
//! let woken = maintainer.stop().polls(); // joins the thread deterministically
//! let ledger = index.maintenance_stats();
//! println!("{woken} wakes planned {} times", ledger.plans);
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
pub use batch::on_workers;
pub use config::{ConfigError, ShardConfig};
pub use durability::DurabilitySink;
pub use maintainer::{Maintainer, MaintainerConfig, MaintainerStats};
pub use maintenance::{DrainReport, MaintenancePlan, MaintenanceStep, StepReport};
pub use obs::EngineObs;
pub use shard::LockStats;
pub use splitter::Splitters;

use optimistic::{TopoGuard, TopoHandle};
use rma_core::{Key, Value};
use shard::{Shard, Topology};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;

/// Shard-local operations between advances of the shared decay clock
/// (batching keeps the global cache line off the per-op hot path).
pub(crate) const DECAY_TICK_BATCH: u64 = 64;

/// Recorded operations (across the whole index) between histogram
/// halvings: all shard histograms decay *together*, so their relative
/// masses survive. A multiple of [`DECAY_TICK_BATCH`].
const DECAY_EVERY: u64 = 8192;

/// Ops [`ShardedRma::get_many`] and [`ShardedRma::apply_ops`] route
/// and group by shard in one pass — one bit of a `u64` mask each. With
/// the default eight shards a full block hands `Rma::get_batch` about
/// eight keys a shard, where the overlap of their misses has flattened
/// out; a group with a write holds its shard for at most one block.
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

/// One point operation of a [`ShardedRma::apply_ops`] run. Each means
/// what the single-key call of its name means. A key's members form a
/// stack, as in [`Rma`](rma_core::Rma): an `Insert` pushes onto its
/// front, a `Get` sees the front (as `first_ge` and scans do) and a
/// `Remove` pops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOp {
    /// [`ShardedRma::get`]; answered with the front member's value.
    Get(Key),
    /// [`ShardedRma::insert`] (duplicates kept); answered with `None`.
    Insert(Key, Value),
    /// [`ShardedRma::remove`]; answered with the value popped.
    Remove(Key),
}

impl PointOp {
    /// The key the op routes by.
    pub fn key(&self) -> Key {
        match *self {
            PointOp::Get(k) | PointOp::Insert(k, _) | PointOp::Remove(k) => k,
        }
    }
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
    /// with the live shard count, shrinks as shards merge.
    pub splitter_bytes: usize,
    /// Operations recorded on the shared decay clock, in
    /// `DECAY_TICK_BATCH`-sized granules.
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
    /// What every shard holds, what it costs and what it served, in
    /// key order; `len` and `memory_footprint` above are the sums.
    pub shards: Vec<ShardStats>,
}

/// One shard of an [`EngineSnapshot`]: its key range, how full its
/// array is, the memory behind it, the load routed to it, and how its
/// array reorganises (§III's rebalances, rewired versus copied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Inclusive lower key bound (`None` = unbounded).
    pub lower_bound: Option<Key>,
    /// Exclusive upper key bound (`None` = unbounded).
    pub upper_bound: Option<Key>,
    /// Stored elements.
    pub len: usize,
    /// Slots of the shard's sparse array.
    pub capacity: usize,
    /// Segments of the shard's sparse array.
    pub segments: usize,
    /// Resident bytes: both columns — their wired pages from a page of
    /// slots up, their exactly sized heap arrays below — plus the
    /// shard's index, cardinalities and detector.
    pub wired_bytes: usize,
    /// Where the shard's columns live ([`rma_core::Rma::backend_kind`]):
    /// `Mmap` rewires, `Heap` copies every commit.
    pub backend: rma_core::BackendKind,
    /// Window rebalances ([`rma_core::RmaStats`]). Counted since the
    /// shard was built: a maintenance step that rebuilds a shard
    /// starts it again from zero.
    pub rebalances: u64,
    /// Elements the rebalances and resizes moved, counted like
    /// `rebalances`.
    pub elements_moved: u64,
    /// Commits through page rewiring (resizes only), counted like `rebalances`.
    pub rewired_commits: u64,
    /// Commits through the copy path, counted like `rebalances`.
    pub copied_commits: u64,
    /// Reads routed to the shard, counted like `rebalances`.
    pub reads: u64,
    /// Write operations routed likewise.
    pub writes: u64,
    /// Decayed access mass of the shard's histogram (survives
    /// restructuring via re-seeding, unlike `reads`/`writes`).
    pub access_mass: u64,
}

impl ShardStats {
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
    /// Serializes topology publication: synchronous maintenance and
    /// the background maintainer both run under it. Readers and
    /// writers never touch it.
    maint_lock: Mutex<()>,
    /// Shared decay clock: total recorded operations (in
    /// [`DECAY_TICK_BATCH`] granules). Every [`DECAY_EVERY`] ops,
    /// *all* shard histograms halve together — a global halving
    /// preserves the relative masses the maintenance planner compares,
    /// whereas per-shard decay clocks would drive every busy shard
    /// toward the same steady-state mass.
    op_clock: AtomicU64,
    /// The background maintainer's thread, while one runs: the
    /// operation that carries `op_clock` across a [`DECAY_EVERY`] mark
    /// unparks it. Read only on a crossing.
    maintainer: Mutex<Option<Thread>>,
    lock_stats: Arc<LockStats>,
    /// Counters behind [`maintenance_stats`](Self::maintenance_stats):
    /// bumped by the plan engine and by writes that bounce off a
    /// retired shard.
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
    pub(crate) plan_ns: AtomicU64,
    pub(crate) steps_planned: AtomicU64,
    pub(crate) steps_skipped: AtomicU64,
    pub(crate) keys_migrated: AtomicU64,
    pub(crate) splits: AtomicU64,
    pub(crate) merges: AtomicU64,
    pub(crate) max_step_ns: AtomicU64,
    pub(crate) write_reroutes: AtomicU64,
}

/// Snapshot of the incremental maintenance engine's lifetime
/// counters ([`ShardedRma::maintenance_stats`]) — the one ledger of
/// what maintenance did, whoever drained the plan. All counts are
/// monotonic since construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Non-empty [`MaintenancePlan`]s produced by the planner.
    pub plans: u64,
    /// Wall time the planner spent over all its calls, empty plans
    /// included, in nanoseconds.
    pub plan_ns: u64,
    /// Steps emitted into plans.
    pub steps_planned: u64,
    /// Steps that executed: `splits + merges`.
    pub steps_executed: u64,
    /// Steps skipped as stale (the topology moved between planning
    /// and execution).
    pub steps_skipped: u64,
    /// Always 0: a plan runs to its end, every step executed or
    /// skipped, and nothing drops the steps it has left. The field
    /// stays so the ledger's consumers keep building.
    pub steps_dropped: u64,
    /// Elements rebuilt under the locks of all executed steps — see
    /// [`StepReport::migrated`] for the one definition.
    pub keys_migrated: u64,
    /// Executed steps that built more shards than they took.
    pub splits: u64,
    /// Every other executed step.
    pub merges: u64,
    /// Copy-on-write topologies published since construction, one
    /// per executed step.
    pub topologies_published: u64,
    /// Worst time one executed step held its shard write locks, in
    /// nanoseconds (drain + rebuild + publish; shell pre-creation and
    /// the reader grace wait run outside the locks and are excluded)
    /// — the bound on how long a writer could have queued behind
    /// maintenance.
    pub max_step_wall_ns: u64,
    /// Write ops of an [`ShardedRma::apply_ops`] group (so of a batch
    /// too) that found its shard retired by a step and re-entered
    /// `apply_ops` on a fresh topology, once per bounce.
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
            maintainer: Mutex::new(None),
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
    pub fn set_observability(&mut self, enabled: bool) {
        self.obs = EngineObs::new(enabled);
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

    /// Serializes maintenance; every topology publication happens
    /// under this guard.
    pub(crate) fn maintenance_guard(&self) -> MutexGuard<'_, ()> {
        self.maint_lock.lock().expect("maintenance lock poisoned")
    }

    /// Advances the shared decay clock by one [`DECAY_TICK_BATCH`];
    /// when that carries it across a [`DECAY_EVERY`] mark, every
    /// shard's histogram halves in one sweep. A crossing changes every
    /// access mass, so it then wakes the background maintainer, if one
    /// runs, to plan.
    ///
    /// [`record_access`](Self::record_access) calls this once per
    /// [`DECAY_TICK_BATCH`] shard-local operations, so the shared
    /// clock's cache line is touched ~64× less often than the shards'
    /// own counters.
    pub(crate) fn tick_decay(&self, topo: &Topology) {
        let prev = self.op_clock.fetch_add(DECAY_TICK_BATCH, Relaxed);
        if (prev + DECAY_TICK_BATCH) / DECAY_EVERY == prev / DECAY_EVERY {
            return;
        }
        for shard in &topo.shards {
            shard.stats.decay();
        }
        if let Some(maintainer) = &*self.maintainer_slot() {
            maintainer.unpark();
        }
    }

    /// The slot the background maintainer registers its thread in.
    pub(crate) fn maintainer_slot(&self) -> MutexGuard<'_, Option<Thread>> {
        self.maintainer.lock().expect("maintainer slot poisoned")
    }

    /// Total operations recorded on the shared clock, in
    /// `DECAY_TICK_BATCH` granules. Each 8 192-op mark it passes halves
    /// every access histogram and wakes the background maintainer.
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

    /// Lifetime counters of the incremental maintenance engine: plans
    /// and steps (planned / executed by kind / skipped),
    /// elements migrated, topologies published, and the worst
    /// single-step wall time — the observable proof that maintenance
    /// proceeds in bounded steps rather than monolithic stalls.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        let c = &self.maint_counters;
        let (splits, merges) = (c.splits.load(Relaxed), c.merges.load(Relaxed));
        MaintenanceStats {
            plans: c.plans.load(Relaxed),
            plan_ns: c.plan_ns.load(Relaxed),
            steps_planned: c.steps_planned.load(Relaxed),
            steps_executed: splits + merges,
            steps_skipped: c.steps_skipped.load(Relaxed),
            steps_dropped: 0,
            keys_migrated: c.keys_migrated.load(Relaxed),
            splits,
            merges,
            topologies_published: self.handle.publications(),
            max_step_wall_ns: c.max_step_ns.load(Relaxed),
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
        let shards: Vec<ShardStats> = (topo.shards.iter().enumerate())
            .map(|(i, s)| {
                let (lower_bound, upper_bound) = topo.splitters.range_of(i);
                s.peek(|rma| ShardStats {
                    lower_bound,
                    upper_bound,
                    len: rma.len(),
                    capacity: rma.capacity(),
                    segments: rma.num_segments(),
                    wired_bytes: rma.memory_footprint(),
                    backend: rma.backend_kind(),
                    rebalances: rma.stats().rebalances,
                    elements_moved: rma.stats().elements_moved,
                    rewired_commits: rma.stats().rewired_commits,
                    copied_commits: rma.stats().copied_commits,
                    reads: s.reads.load(Relaxed),
                    writes: s.writes.load(Relaxed),
                    access_mass: s.stats.total(),
                })
            })
            .collect();
        let masses = shards.iter().map(|s| s.access_mass as f64);
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

    /// Point lookup: the value of the front member of `k`'s stack (see
    /// [`PointOp`]). Lock-free on the happy path: routes through the
    /// pinned topology and reads the shard optimistically, falling
    /// back to the shard's read lock only after repeated writer
    /// interference.
    pub fn get(&self, k: Key) -> Option<Value> {
        let topo = self.topo();
        let shard = &topo.shards[topo.splitters.route(k)];
        self.read_keys(&topo, shard, [k], |rma| rma.get(k))
    }

    /// `out[i] = self.get(keys[i])` for every `i`, through
    /// [`apply_ops`](Self::apply_ops) 64 keys at a time: each shard's
    /// group of a block is recorded once and read in **one**
    /// optimistic section through
    /// [`Rma::get_batch`](rma_core::Rma::get_batch), which overlaps
    /// the group's cache misses. Promises exactly what `keys.len()`
    /// separate `get`s do: each key is read at a stable state of its
    /// shard; keys in different shards are *not* one snapshot.
    /// Overwrites all of `out`.
    ///
    /// # Panics
    ///
    /// If `keys` and `out` differ in length.
    pub fn get_many(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        let mut gets = [PointOp::Get(0); GET_MANY_BLOCK];
        for (keys, out) in (keys.chunks(GET_MANY_BLOCK)).zip(out.chunks_mut(GET_MANY_BLOCK)) {
            for (op, &k) in gets.iter_mut().zip(keys) {
                *op = PointOp::Get(k);
            }
            self.apply_ops(&gets[..keys.len()], out);
        }
    }

    /// Runs `ops` and leaves op `i`'s answer in `out[i]`: the value a
    /// `Get` found, the value a `Remove` removed, `None` for an
    /// `Insert`. Overwrites all of `out`.
    ///
    /// The ops are grouped by shard 64 at a time. A read-only group is
    /// one optimistic look; a group with a write is one shard write
    /// section: one write lock, access record, `writing` bracket and
    /// [`DurabilitySink::append`]. A group whose shard maintenance retired
    /// re-enters `apply_ops` op by op, and the rest of the call re-pins
    /// the topology, so no later block reads the retired shard past a
    /// write this call placed in its successor.
    ///
    /// Ops on one shard — so every op on one key — execute in
    /// submission order; ops on different shards in any order, and
    /// they are not one snapshot. Each op promises what its single-key
    /// call promises.
    ///
    /// # Panics
    ///
    /// If `ops` and `out` differ in length.
    pub fn apply_ops(&self, ops: &[PointOp], out: &mut [Option<Value>]) {
        self.apply_ops_on(self.topo(), ops, out);
    }

    /// [`apply_ops`](Self::apply_ops) routed against `topo`, which
    /// maintenance may already have replaced: the one route-and-group
    /// walk, on the stack, so a short run pays no allocation for it.
    fn apply_ops_on<'s>(
        &'s self,
        mut topo: TopoGuard<'s>,
        ops: &[PointOp],
        out: &mut [Option<Value>],
    ) {
        assert_eq!(ops.len(), out.len(), "one output slot per op");
        let mut shard_of = [0u32; GET_MANY_BLOCK];
        for (ops, out) in (ops.chunks(GET_MANY_BLOCK)).zip(out.chunks_mut(GET_MANY_BLOCK)) {
            for (s, op) in shard_of.iter_mut().zip(ops) {
                *s = topo.splitters.route(op.key()) as u32;
            }
            // Bit `i` set: `ops[i]` has not run yet.
            let mut pending = u64::MAX >> (GET_MANY_BLOCK - ops.len());
            let mut live = true;
            while pending != 0 {
                let s = shard_of[pending.trailing_zeros() as usize];
                let (shard, group) = (&topo.shards[s as usize], members(pending, &shard_of, s));
                pending &= !group;
                let writes = bits(group)
                    .filter(|&i| !matches!(ops[i], PointOp::Get(_)))
                    .fold(0, |writes, i| writes | 1 << i);
                if writes == 0 {
                    self.read_group(&topo, shard, ops, group, out);
                } else {
                    live &= self.write_group(&topo, shard, ops, group, writes, out);
                }
            }
            if !live {
                // A group re-routed past a retired shard: the blocks
                // after this one must not read the retired shard.
                topo = self.topo();
            }
        }
    }

    /// A read-only group's look: recorded once, then read in one
    /// optimistic section — `Rma::get` for a lone key (nothing to
    /// gather or overlap: a short run spread over the shards is mostly
    /// these, and must not cost more than the `get`s it replaces),
    /// [`Rma::get_batch`](rma_core::Rma::get_batch) for more, which
    /// overlaps the group's cache misses.
    fn read_group(
        &self,
        topo: &Topology,
        shard: &Shard,
        ops: &[PointOp],
        group: u64,
        out: &mut [Option<Value>],
    ) {
        let n = group.count_ones() as usize;
        if n == 1 {
            let i = group.trailing_zeros() as usize;
            let k = ops[i].key();
            out[i] = self.read_keys(topo, shard, [k], |rma| rma.get(k));
            return;
        }
        let mut group_keys = [0 as Key; GET_MANY_BLOCK];
        let mut group_vals = [None; GET_MANY_BLOCK];
        for (gk, i) in group_keys.iter_mut().zip(bits(group)) {
            *gk = ops[i].key();
        }
        let (group_keys, group_vals) = (&group_keys[..n], &mut group_vals[..n]);
        self.read_keys(topo, shard, group_keys.iter().copied(), |rma| {
            rma.get_batch(group_keys, group_vals)
        });
        for (i, &v) in bits(group).zip(group_vals.iter()) {
            out[i] = v;
        }
    }

    /// A group with a write (`writes` masks them): the engine's one
    /// shard write section. Takes `shard`'s write lock; if maintenance
    /// retired the shard, counts the writes in `write_reroutes`,
    /// re-enters `apply_ops` op by op on a fresh pin and returns
    /// `false`. Otherwise records the reads, runs the group in one
    /// `mutate` bracket, records the writes, and hands every insert
    /// and every remove that found its key, in group order, to the
    /// sink in one [`DurabilitySink::append`] before the lock drops.
    fn write_group(
        &self,
        topo: &Topology,
        shard: &Shard,
        ops: &[PointOp],
        group: u64,
        writes: u64,
        out: &mut [Option<Value>],
    ) -> bool {
        let key = |i: usize| ops[i].key();
        let mut guard = shard.write();
        if guard.is_retired() {
            let reroutes = &self.maint_counters.write_reroutes;
            reroutes.fetch_add(u64::from(writes.count_ones()), Relaxed);
            drop(guard);
            for i in bits(group) {
                self.apply_ops(std::slice::from_ref(&ops[i]), &mut out[i..=i]);
            }
            return false;
        }
        self.record_access(topo, shard, &shard.reads, bits(group & !writes).map(key));
        // Bit `i` set: `ops[i]` changed the shard, so the log gets it.
        let mut applied = 0u64;
        guard.mutate(|rma| {
            for i in bits(group) {
                out[i] = match ops[i] {
                    PointOp::Get(k) => rma.get(k),
                    PointOp::Insert(k, v) => {
                        rma.insert(k, v);
                        applied |= 1 << i;
                        None
                    }
                    PointOp::Remove(k) => {
                        let removed = rma.remove(k);
                        applied |= u64::from(removed.is_some()) << i;
                        removed
                    }
                };
            }
        });
        self.record_access(topo, shard, &shard.writes, bits(writes).map(key));
        if let Some(wal) = self.wal.as_ref().filter(|_| applied != 0) {
            let mut staged = Vec::with_capacity(applied.count_ones() as usize);
            staged.extend(bits(applied).map(|i| ops[i]));
            wal.append(&staged);
        }
        true
    }

    /// The one way an access is recorded: every key in the shard's
    /// histogram, their count on `counter` (the shard's `reads` or
    /// `writes`) in one update, and one decay tick when the
    /// shard-local count crossed a [`DECAY_TICK_BATCH`] boundary. No
    /// keys, no update. At most one 64-op group's keys, so at most one
    /// boundary.
    pub(crate) fn record_access(
        &self,
        topo: &Topology,
        shard: &Shard,
        counter: &AtomicU64,
        keys: impl IntoIterator<Item = Key>,
    ) {
        let mut n = 0;
        for k in keys {
            shard.stats.record(k);
            n += 1;
        }
        if n == 0 {
            return;
        }
        debug_assert!(n <= DECAY_TICK_BATCH, "one group's keys at a time");
        let prev = counter.fetch_add(n, Relaxed);
        if (prev + n) / DECAY_TICK_BATCH > prev / DECAY_TICK_BATCH {
            self.tick_decay(topo);
        }
    }

    /// The bracket every point read runs in — `get` with one key, a
    /// read-only group with its keys: records the accesses, then runs
    /// `read` once — optimistically, under the shard's read lock only
    /// after repeated writer interference.
    fn read_keys<R>(
        &self,
        topo: &Topology,
        shard: &Shard,
        keys: impl IntoIterator<Item = Key>,
        read: impl FnOnce(&rma_core::Rma) -> R,
    ) -> R {
        self.record_access(topo, shard, &shard.reads, keys);
        shard.peek(read)
    }

    /// Inserts `(k, v)` on the front of `k`'s stack: a one-op
    /// [`apply_ops`](Self::apply_ops), so one shard's write lock (plus
    /// the writer half of the pin protocol). A rebalance or resize this
    /// triggers stays inside the shard.
    pub fn insert(&self, k: Key, v: Value) {
        self.apply_ops(&[PointOp::Insert(k, v)], &mut [None]);
    }

    /// Pops the front member of `k`'s stack, returning its value: a
    /// one-op [`apply_ops`](Self::apply_ops).
    pub fn remove(&self, k: Key) -> Option<Value> {
        let mut out = [None];
        self.apply_ops(&[PointOp::Remove(k)], &mut out);
        out[0]
    }

    // ---------------------------------------------- access signal --

    /// Decayed access mass per shard, in shard order — the signal
    /// maintenance balances on.
    pub fn access_masses(&self) -> Vec<u64> {
        let topo = self.topo();
        topo.shards.iter().map(|s| s.stats.total()).collect()
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
    use std::sync::atomic::AtomicUsize;

    pub(crate) fn small_cfg(n: usize) -> ShardConfig {
        ShardConfig {
            num_shards: n,
            rma: RmaConfig {
                segment_size: 8,
                rewiring: RewiringMode::Disabled,
                reserve_bytes: 1 << 24,
                ..Default::default()
            },
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
        let s = ShardedRma::with_splitters(small_cfg(2), Splitters::new(vec![1000]));
        // One key → one bucket, so halving has no per-bucket floor
        // rounding and the arithmetic below is exact.
        for v in 0..DECAY_EVERY as i64 - 1 {
            s.insert(7, v);
        }
        assert_eq!(s.access_masses()[0], DECAY_EVERY - 1, "no halving yet");
        // The last op of the period ticks the clock across it: every
        // recorded access, halved once.
        s.insert(7, -1);
        assert_eq!(s.access_masses()[0], DECAY_EVERY / 2);
    }

    #[test]
    fn batched_ingest_decays_once_per_period() {
        let s = ShardedRma::with_splitters(small_cfg(2), Splitters::new(vec![1000]));
        // One key → one bucket: exact halving arithmetic.
        let n = 4 * DECAY_EVERY;
        let inserts: Vec<(i64, i64)> = (0..n as i64).map(|v| (7, v)).collect();
        s.apply_batch(&inserts, &[]);
        // One batch spanning four decay periods, recorded a 64-op
        // group at a time: the clock crosses all four marks and halves
        // the mass at each: ((((n/4)/2 + n/4)/2 + n/4)/2 + n/4)/2.
        assert_eq!(s.op_count(), n);
        assert_eq!(s.access_masses().iter().sum::<u64>(), 15 * n / 64);
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
        let cfg = small_cfg(2);
        let many = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        let single = ShardedRma::with_splitters(cfg, Splitters::new(vec![1000]));
        // One key → one bucket: exact halving arithmetic. These reads
        // of it cross the decay period twice, whether they arrive one
        // by one or as calls of 70 spanning several blocks.
        let keys = vec![7; 2 * DECAY_EVERY as usize + 150];
        for chunk in keys.chunks(70) {
            many.get_many(chunk, &mut vec![None; chunk.len()]);
        }
        for &k in &keys {
            single.get(k);
        }
        // The clock counts whole tick batches.
        assert_eq!(single.op_count(), 2 * DECAY_EVERY + 128);
        assert_eq!(many.op_count(), single.op_count());
        let masses = |s: &ShardedRma| s.access_masses().iter().sum::<u64>();
        // The halvings fall at different reads (a batch is recorded
        // before its tick), so the masses agree only to within the
        // reads of one block.
        assert!(masses(&many).abs_diff(masses(&single)) <= GET_MANY_BLOCK as u64);
    }

    #[test]
    fn apply_ops_takes_one_write_lock_per_shard_group() {
        let s = ShardedRma::with_splitters(small_cfg(4), Splitters::new(vec![250, 500, 750]));
        let grouped: Vec<PointOp> = (0..64).map(|k| PointOp::Insert(k, k)).collect();
        let before = s.lock_acquisitions();
        s.apply_ops(&grouped, &mut [None; 64]);
        let after = s.lock_acquisitions();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 1),
            "one group"
        );
        for k in 100..164 {
            s.insert(k, k);
        }
        let singles = s.lock_acquisitions();
        assert_eq!((singles.0 - after.0, singles.1 - after.1), (0, 64));
        // One block over all four shards, reads between the writes:
        // one write lock per shard, no read lock.
        let spread: Vec<PointOp> = (0..64)
            .map(|i| match (i % 4 * 250 + i, i % 3) {
                (k, 0) => PointOp::Get(k),
                (k, _) => PointOp::Insert(k, -k),
            })
            .collect();
        let mut out = [Some(0); 64];
        s.apply_ops(&spread, &mut out);
        let spread_locks = s.lock_acquisitions();
        assert_eq!(spread_locks.0, singles.0);
        assert_eq!(spread_locks.1 - singles.1, 4);
        for (op, got) in spread.iter().zip(out) {
            let want = match *op {
                PointOp::Get(k) => (k < 164).then_some(k),
                _ => None,
            };
            assert_eq!(got, want, "{op:?}");
        }
        assert_eq!(s.len(), 128 + 42);
        s.check_invariants();
    }

    /// Runs one maintenance step on `s` and says whether it ran.
    fn step(s: &ShardedRma, step: MaintenanceStep) -> bool {
        let report = s.execute_step(&mut s.plan_of(vec![step]));
        report.expect("one step planned").executed
    }

    /// The step that cuts the shard holding `at` in two at `at`.
    fn split_at(s: &ShardedRma, at: Key) -> MaintenanceStep {
        let splitters = s.splitters();
        let (lo, hi) = splitters.range_of(splitters.route(at));
        MaintenanceStep::Recut {
            lo,
            hi,
            cuts: vec![at],
        }
    }

    /// Hands `f` a topology pinned before a split at `at` published its
    /// successor: a write `f` routes into the split shard finds it
    /// retired.
    fn on_stale_topology<'s>(s: &'s ShardedRma, at: Key, f: impl FnOnce(TopoGuard<'s>)) {
        let published = s.maintenance_stats().topologies_published;
        let stale = s.topo();
        std::thread::scope(|sc| {
            // Blocks in its grace wait until `f` drops `stale`.
            let splitter = sc.spawn(|| step(s, split_at(s, at)));
            while s.maintenance_stats().topologies_published == published {
                std::thread::yield_now();
            }
            f(stale);
            assert!(splitter.join().expect("split thread"), "split at {at}");
        });
    }

    /// A durability sink that keeps each append as one `Vec` and
    /// counts its seals.
    #[derive(Default)]
    pub(crate) struct Recorder {
        appends: Mutex<Vec<Vec<PointOp>>>,
        seals: AtomicUsize,
    }

    impl Recorder {
        /// The appends since the last call.
        fn take(&self) -> Vec<Vec<PointOp>> {
            std::mem::take(&mut self.appends.lock().expect("recorder lock"))
        }

        /// Checkpoints sealed so far.
        pub(crate) fn seals(&self) -> usize {
            self.seals.load(Relaxed)
        }
    }

    impl DurabilitySink for Recorder {
        fn append(&self, ops: &[PointOp]) {
            self.appends
                .lock()
                .expect("recorder lock")
                .push(ops.to_vec());
        }
        fn checkpoint_cut(&self) -> u64 {
            0
        }
        fn seal_checkpoint(
            &self,
            _: &[Key],
            units: &mut dyn Iterator<Item = (u64, Vec<(Key, Value)>)>,
        ) -> bool {
            units.for_each(drop);
            self.seals.fetch_add(1, Relaxed);
            true
        }
    }

    /// An engine over `splitters` whose appends `Recorder` keeps.
    pub(crate) fn recorded(splitters: Vec<Key>) -> (ShardedRma, Arc<Recorder>) {
        let cfg = small_cfg(splitters.len() + 1);
        let mut s = ShardedRma::with_splitters(cfg, Splitters::new(splitters));
        let sink = Arc::new(Recorder::default());
        s.set_durability(Arc::clone(&sink) as Arc<dyn DurabilitySink>);
        (s, sink)
    }

    #[test]
    fn every_write_entry_point_logs_each_applied_mutation_once_in_apply_order() {
        use PointOp::{Insert, Remove};
        let (s, log) = recorded(vec![250, 500, 750]);
        s.insert(5, 50);
        assert_eq!(log.take(), [vec![Insert(5, 50)]]);
        assert_eq!(s.remove(5), Some(50));
        assert_eq!(log.take(), [vec![Remove(5)]]);
        assert_eq!(s.remove(5), None);
        assert_eq!(
            log.take(),
            Vec::<Vec<PointOp>>::new(),
            "a miss logs nothing"
        );
        // One group: its get and its missing remove log nothing.
        let ops = [
            PointOp::Insert(1, 10),
            PointOp::Get(1),
            PointOp::Remove(99),
            PointOp::Insert(1, 11),
            PointOp::Remove(1),
            PointOp::Insert(2, 20),
        ];
        let mut out = [Some(0); 6];
        s.apply_ops(&ops, &mut out);
        assert_eq!(out[..5], [None, Some(10), None, None, Some(11)]);
        let group = vec![Insert(1, 10), Insert(1, 11), Remove(1), Insert(2, 20)];
        assert_eq!(log.take(), [group]);
        // A batch: one `apply_ops` run of its deletes (a miss logs
        // nothing), then its inserts in reverse.
        assert_eq!(s.apply_batch(&[(3, 3), (4, 4)], &[2, 7]), 1);
        let batch = vec![Remove(2), Insert(4, 4), Insert(3, 3)];
        assert_eq!(log.take(), [batch]);
    }

    /// Routed on a topology a split retires under them, `apply_ops_on`
    /// logs every write exactly once, and `write_reroutes` moves by
    /// exactly the writes that bounced.
    #[test]
    fn writes_bounced_off_a_retired_shard_are_logged_once() {
        use PointOp::{Get, Insert, Remove};
        // What was logged, in an order that ignores which shard went first.
        let sorted = |mut ops: Vec<PointOp>| {
            ops.sort_by_key(|&op| match op {
                Insert(k, v) => (k, 1, v),
                Remove(k) | Get(k) => (k, 0, 0),
            });
            ops
        };
        let (s, log) = recorded(vec![1000]);
        let base: Vec<(Key, Value)> = (0..100).map(|k| (k * 10, k)).collect();
        s.apply_batch(&base, &[]);
        log.take();
        let reroutes = || s.maintenance_stats().write_reroutes;

        // One block: 63 ops on shard 0, 62 of them writes, and one
        // insert on shard 1, which the split at 500 leaves alone.
        let mut ops: Vec<PointOp> = (0..61).map(|k| PointOp::Insert(k * 10 + 5, k)).collect();
        ops.extend([
            PointOp::Get(10),
            PointOp::Remove(20),
            PointOp::Insert(1500, -1),
        ]);
        let mut out = vec![Some(Value::MIN); ops.len()];
        let before = reroutes();
        on_stale_topology(&s, 500, |stale| s.apply_ops_on(stale, &ops, &mut out));
        assert_eq!(reroutes() - before, 62);
        assert_eq!(out[61..], [Some(1), Some(2), None]);
        let want: Vec<PointOp> = (0..61)
            .map(|k| Insert(k * 10 + 5, k))
            .chain([Remove(20), Insert(1500, -1)])
            .collect();
        assert_eq!(sorted(log.take().concat()), sorted(want));
        s.check_invariants();
        assert_eq!(s.len(), 100 + 62 - 1);
    }

    mod apply_ops_differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The reference: every key's values as a stack, the newest
        /// first — the contract of `rma_core::Rma`.
        type Oracle = BTreeMap<Key, Vec<Value>>;

        /// Checks `got[i]` against `oracle` for `ops[i]`, in submission
        /// order, and applies the op to it: an `Insert` answers `None`
        /// and pushes its value onto the front; a `Get` or `Remove`
        /// answers the front value (`None` iff the key is absent), which
        /// a `Remove` pops.
        fn check(oracle: &mut Oracle, ops: &[PointOp], got: &[Option<Value>]) {
            assert_eq!(ops.len(), got.len());
            for (&op, &got) in ops.iter().zip(got) {
                let k = op.key();
                let front = oracle.get(&k).map(|vals| vals[0]);
                match op {
                    PointOp::Insert(_, v) => {
                        assert_eq!(got, None, "{op:?}");
                        oracle.entry(k).or_default().insert(0, v);
                    }
                    PointOp::Get(_) => assert_eq!(got, front, "{op:?}"),
                    PointOp::Remove(_) => {
                        assert_eq!(got, front, "{op:?}");
                        if let Some(vals) = oracle.get_mut(&k) {
                            vals.remove(0);
                            if vals.is_empty() {
                                oracle.remove(&k);
                            }
                        }
                    }
                }
            }
        }

        /// What `s` stores, in scan order, as the oracle's stacks.
        fn stacks(s: &ShardedRma) -> Oracle {
            let mut all = Oracle::new();
            for (k, v) in s.collect_all() {
                all.entry(k).or_default().push(v);
            }
            all
        }

        /// The widest shard range inside `[0, space)`.
        fn widest(s: &ShardedRma, space: Key) -> (Key, Key) {
            let keys = s.splitters().keys().to_vec();
            let edges: Vec<Key> = [0].into_iter().chain(keys).chain([space]).collect();
            let w = edges
                .windows(2)
                .max_by_key(|w| w[1] - w[0])
                .expect("two edges");
            (w[0], w[1])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// A stream of point ops through `apply_ops` in random
            /// chunks answers, and leaves, what a stack of values per
            /// key says, member for member — with a split, a merge, and a chunk
            /// routed on a topology a split retires under it, between
            /// chunks. Duplicates are likely: the key space is small.
            #[test]
            fn apply_ops_matches_per_op_calls(
                space in 16i64..600,
                raw in prop::collection::vec((0u8..9, 0i64..600, -1000i64..1000), 1..700),
                lens in prop::collection::vec(1usize..150, 1..16),
            ) {
                let ops: Vec<PointOp> = (raw.into_iter())
                    .map(|(kind, k, v)| match (kind, k % space) {
                        (0..=2, k) => PointOp::Get(k),
                        (3..=6, k) => PointOp::Insert(k, v),
                        (_, k) => PointOp::Remove(k),
                    })
                    .collect();
                let keys = vec![space / 4, space / 2, 3 * space / 4];
                let grouped = ShardedRma::with_splitters(small_cfg(4), Splitters::new(keys));
                let mut oracle = Oracle::new();
                let mut rest = &ops[..];
                for (c, &len) in lens.iter().cycle().enumerate() {
                    if rest.is_empty() {
                        break;
                    }
                    let (chunk, tail) = rest.split_at(len.min(rest.len()));
                    rest = tail;
                    let mut got = vec![Some(Value::MIN); chunk.len()];
                    match c % 4 {
                        1 => {
                            let (lo, hi) = widest(&grouped, space);
                            prop_assert!(step(&grouped, split_at(&grouped, (lo + hi) / 2)));
                            grouped.apply_ops(chunk, &mut got);
                        }
                        2 if !grouped.splitters().keys().is_empty() => {
                            // The two shards either side of one splitter.
                            let splitters = grouped.splitters();
                            let j = c / 4 % splitters.keys().len();
                            let merge = MaintenanceStep::Recut {
                                lo: splitters.range_of(j).0,
                                hi: splitters.range_of(j + 1).1,
                                cuts: Vec::new(),
                            };
                            prop_assert!(step(&grouped, merge));
                            grouped.apply_ops(chunk, &mut got);
                        }
                        3 => {
                            // Routed against the topology before the
                            // split: its first block writes into the
                            // shard the split retires, so the block
                            // re-routes and the rest of the run must
                            // re-pin rather than route there again.
                            let (lo, hi) = widest(&grouped, space);
                            let block: Vec<PointOp> = (chunk.iter().cycle().take(64).enumerate())
                                .map(|(j, op)| match lo + op.key() % (hi - lo) {
                                    k if j % 3 == 2 => PointOp::Remove(k),
                                    k => PointOp::Insert(k, j as Value),
                                })
                                .collect();
                            let run = [&block[..], chunk].concat();
                            got = vec![Some(Value::MIN); run.len()];
                            let reroutes = grouped.maintenance_stats().write_reroutes;
                            on_stale_topology(&grouped, (lo + hi) / 2, |stale| {
                                grouped.apply_ops_on(stale, &run, &mut got);
                            });
                            prop_assert_eq!(grouped.maintenance_stats().write_reroutes - reroutes, 64);
                            check(&mut oracle, &block, &got[..64]);
                            got.drain(..64);
                        }
                        _ => grouped.apply_ops(chunk, &mut got),
                    }
                    check(&mut oracle, chunk, &got);
                }
                grouped.check_invariants();
                prop_assert_eq!(stacks(&grouped), oracle);
            }
        }
    }

    #[test]
    #[should_panic(expected = "could never split")]
    fn invalid_config_panics() {
        let cfg = ShardConfig {
            max_shard_len: Some(0),
            ..ShardConfig::default()
        };
        let _ = ShardedRma::new(cfg);
    }
}
