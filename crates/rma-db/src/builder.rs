//! [`DbBuilder`]: the one entry point for configuring and opening a
//! [`Db`], with every input validated up front.

use crate::metrics::ObsConfig;
use crate::Db;
use rma_core::{Key, RmaConfig, Value};
use rma_obs::EventKind;
use rma_shard::{MaintainerConfig, ShardConfig, ShardedRma, Splitters};
use rma_wal::{DurabilityConfig, Wal};
use std::sync::Arc;

/// A rejected [`DbBuilder`] input. Engine-level violations (shard,
/// maintainer and per-shard-RMA parameters) carry the inner layer's
/// typed error; the router's own knob has its own variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A [`ShardConfig`], [`MaintainerConfig`] or
    /// [`RmaConfig`] parameter was rejected by the engine layer.
    Engine(rma_shard::ConfigError),
    /// `router_workers == 0`: submitted batches could never execute.
    ZeroRouterWorkers,
    /// Explicit splitter keys combined with a constructor that learns
    /// its own splitters ([`DbBuilder::build_bulk`] /
    /// [`DbBuilder::recover`]) — one of the two must win, so the
    /// combination is rejected rather than silently ignored.
    SplittersConflictWithLearned,
    /// Explicit splitter keys are not strictly increasing (unsorted
    /// or duplicated), so they cannot partition the key space.
    UnsortedSplitterKeys,
    /// Creating or recovering the write-ahead log failed; carries the
    /// rendered [`rma_wal::WalError`] (the inner error holds
    /// `io::Error` and so cannot satisfy this enum's `Clone +
    /// PartialEq` contract directly).
    Durability(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Engine(e) => e.fmt(f),
            ConfigError::ZeroRouterWorkers => f.write_str("need at least one router worker"),
            ConfigError::SplittersConflictWithLearned => f.write_str(
                "explicit splitter keys conflict with a constructor that \
                 learns splitters from its input",
            ),
            ConfigError::UnsortedSplitterKeys => {
                f.write_str("explicit splitter keys must be strictly increasing")
            }
            ConfigError::Durability(why) => write!(f, "durability: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<rma_shard::ConfigError> for ConfigError {
    fn from(e: rma_shard::ConfigError) -> Self {
        ConfigError::Engine(e)
    }
}

/// Fluent configuration for a [`Db`]. Obtain one with
/// [`Db::builder`], chain the knobs you care about, and finish with
/// [`build`](Self::build) (empty), [`build_bulk`](Self::build_bulk)
/// (sorted batch, splitters learned from its quantiles) or
/// [`recover`](Self::recover) (reopened from its write-ahead log).
/// Every finisher validates *all* inputs first
/// and returns a typed [`ConfigError`] — nothing panics
/// mid-construction and no thread spawns on a rejected
/// configuration.
#[derive(Debug, Clone, Default)]
pub struct DbBuilder {
    shard: ShardConfig,
    splitter_keys: Option<Vec<Key>>,
    maintenance: Option<MaintainerConfig>,
    router_workers: Option<usize>,
    observability: Option<ObsConfig>,
    durability: Option<DurabilityConfig>,
}

impl DbBuilder {
    /// Target shard count (default 8).
    pub fn shards(mut self, n: usize) -> Self {
        self.shard.num_shards = n;
        self
    }

    /// Per-shard RMA configuration (segment size, rewiring,
    /// thresholds, adaptivity...).
    pub fn rma(mut self, rma: RmaConfig) -> Self {
        self.shard.rma = rma;
        self
    }

    /// Replaces the whole engine configuration.
    pub fn shard_config(mut self, cfg: ShardConfig) -> Self {
        self.shard = cfg;
        self
    }

    /// Shard-length backstop: any shard past this many elements is
    /// split regardless of access balance (latency-SLO deployments).
    pub fn max_shard_len(mut self, n: usize) -> Self {
        self.shard.max_shard_len = Some(n);
        self
    }

    /// Explicit splitter keys for [`build`](Self::build) instead of
    /// uniformly spread ones.
    pub fn splitter_keys(mut self, keys: Vec<Key>) -> Self {
        self.splitter_keys = Some(keys);
        self
    }

    /// Enables background maintenance with this cadence: the [`Db`]
    /// starts the maintainer thread at open and owns its lifecycle —
    /// it stops when the handle drops (or on
    /// [`Db::stop_maintenance`]). Without this call no background
    /// thread runs; maintenance can still be driven explicitly
    /// through [`Db::engine`].
    pub fn maintenance(mut self, cfg: MaintainerConfig) -> Self {
        self.maintenance = Some(cfg);
        self
    }

    /// Router worker thread count. Default:
    /// `min(available_parallelism, num_shards)`.
    pub fn router_workers(mut self, n: usize) -> Self {
        self.router_workers = Some(n);
        self
    }

    /// Observability configuration (latency histograms, maintenance
    /// event journal; see [`ObsConfig`]). Recording is **on by
    /// default**; pass `ObsConfig { enabled: false, .. }` for
    /// zero-instrumentation benchmark baselines.
    pub fn observability(mut self, cfg: ObsConfig) -> Self {
        self.observability = Some(cfg);
        self
    }

    /// Enables durability: every finisher creates (or, via
    /// [`recover`](Self::recover), reopens) a write-ahead log in
    /// `cfg.dir`, router workers run the commit barrier before
    /// acknowledging batches, and checkpoints seal whenever
    /// [`MaintainerConfig::checkpoint_interval`] elapses. Without this
    /// call the database is purely in-memory, exactly as before.
    pub fn durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = Some(cfg);
        self
    }

    /// Validates every input and resolves the worker count.
    fn validate(&self) -> Result<usize, ConfigError> {
        self.shard.try_validate()?;
        if let Some(m) = &self.maintenance {
            m.try_validate()?;
        }
        if let Some(keys) = &self.splitter_keys {
            if !keys.windows(2).all(|w| w[0] < w[1]) {
                return Err(ConfigError::UnsortedSplitterKeys);
            }
        }
        match self.router_workers {
            Some(0) => Err(ConfigError::ZeroRouterWorkers),
            Some(n) => Ok(n),
            None => {
                let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                Ok(hw.min(self.shard.num_shards).max(1))
            }
        }
    }

    /// Creates the fresh WAL for a non-recovery finisher.
    fn create_wal(&self) -> Result<Option<Arc<Wal>>, ConfigError> {
        match &self.durability {
            Some(cfg) => Wal::create(cfg.clone())
                .map(Some)
                .map_err(|e| ConfigError::Durability(e.to_string())),
            None => Ok(None),
        }
    }

    /// Opens an empty database (splitters from
    /// [`splitter_keys`](Self::splitter_keys), or spread uniformly
    /// over the positive key domain).
    pub fn build(self) -> Result<Db, ConfigError> {
        let workers = self.validate()?;
        let wal = self.create_wal()?;
        let engine = match self.splitter_keys {
            Some(keys) => ShardedRma::with_splitters(self.shard, Splitters::new(keys)),
            None => ShardedRma::new(self.shard),
        };
        Ok(Db::assemble(
            engine,
            workers,
            self.maintenance,
            self.observability.unwrap_or_default(),
            wal,
        ))
    }

    /// Opens a database bulk-loaded from a batch sorted by key;
    /// splitters are learned from the batch quantiles so the shards
    /// start balanced. With durability configured, the batch is also
    /// logged (through the bulk-apply path) so a crash before the
    /// first checkpoint still recovers it.
    pub fn build_bulk(self, batch: &[(Key, Value)]) -> Result<Db, ConfigError> {
        let workers = self.validate()?;
        if self.splitter_keys.is_some() {
            return Err(ConfigError::SplittersConflictWithLearned);
        }
        let wal = self.create_wal()?;
        let engine = match &wal {
            // The durable path loads through `apply_batch` on an empty
            // engine (splitters still learned from the batch) so every
            // element flows through the WAL hooks; `load_bulk` would
            // bypass logging and the data would not survive a crash
            // before the first checkpoint.
            Some(w) => {
                let mut engine = ShardedRma::with_splitters(
                    self.shard,
                    Splitters::from_sorted_pairs(batch, self.shard.num_shards),
                );
                engine.set_durability(Arc::clone(w) as Arc<dyn rma_shard::DurabilitySink>);
                engine.apply_batch(batch, &[]);
                w.commit()
                    .map_err(|e| ConfigError::Durability(e.to_string()))?;
                engine
            }
            None => ShardedRma::load_bulk(self.shard, batch),
        };
        Ok(Db::assemble(
            engine,
            workers,
            self.maintenance,
            self.observability.unwrap_or_default(),
            wal,
        ))
    }

    /// Reopens a database from its WAL directory (set with
    /// [`durability`](Self::durability)): loads every partition's
    /// sealed checkpoint in parallel, replays the committed log tails
    /// (truncating a torn tail), and only then attaches the WAL so
    /// replayed operations are not re-logged. The recovered engine
    /// learns its shard splitters from the checkpoint data; explicit
    /// [`splitter_keys`](Self::splitter_keys) therefore conflict.
    pub fn recover(self) -> Result<Db, ConfigError> {
        let workers = self.validate()?;
        if self.splitter_keys.is_some() {
            return Err(ConfigError::SplittersConflictWithLearned);
        }
        let cfg = self.durability.clone().ok_or_else(|| {
            ConfigError::Durability(
                "recover() needs a WAL directory; configure DbBuilder::durability first".into(),
            )
        })?;
        let t0 = rewiring::monotonic_ns();
        let recovery = Wal::recover(cfg).map_err(|e| ConfigError::Durability(e.to_string()))?;
        let engine = ShardedRma::load_bulk(self.shard, recovery.elements());
        let replayed = recovery.replay_into(&engine);
        let recover_ns = rewiring::monotonic_ns().saturating_sub(t0);
        let db = Db::assemble(
            engine,
            workers,
            self.maintenance,
            self.observability.unwrap_or_default(),
            Some(recovery.wal()),
        );
        if db.engine().obs().enabled() {
            db.engine().obs().journal().log(
                EventKind::Recovery,
                rma_obs::Event::NO_SHARD,
                recover_ns,
                replayed,
            );
        }
        Ok(db)
    }
}
