//! Durability for the sharded RMA: group-committed partitioned
//! write-ahead logs, sealed checkpoints, crash recovery, and
//! deterministic fault injection.
//!
//! # Shape
//!
//! The key space is cut into a fixed number of **durability
//! partitions** (uniform over the 62-bit workload domain, persisted in
//! the manifest), each with its own append log. Partitions are
//! deliberately decoupled from the engine's *dynamic* shard topology:
//! shards split, merge, and relearn continuously, while a log file
//! layout wants stable ranges. Routing an op to its partition is the
//! same branch-free splitter search the engine uses.
//!
//! The write path is two-phase:
//!
//! 1. **append** — called by the engine *under its shard write lock*
//!    (see `rma_shard::durability` for why that ordering contract
//!    matters): stamp a per-partition LSN, encode into an in-memory
//!    staging buffer. No I/O.
//! 2. **commit** — the durability barrier, called once per op or once
//!    per batch: drain every partition's staging buffer to its log
//!    file and fsync per [`CommitPolicy`]. Only after `commit`
//!    returns may the caller acknowledge the writes.
//!
//! Checkpoints bound replay: the engine's maintenance executor locks
//! the shards covering one partition, draws the partition's **cut
//! LSN**, snapshots its elements, and hands both to
//! [`Wal::seal_checkpoint`], which writes a segment file, commits it
//! via an atomic manifest replacement, and rotates the log. Recovery
//! ([`Wal::recover`]) is then: bulk-load every partition's segment,
//! replay only log records with `lsn > cut`, truncate the torn tail.
//!
//! # Failure model
//!
//! Any I/O error on the hot path trips the WAL into **degraded mode**:
//! the commit barrier refuses (so no write is ever acknowledged
//! without being durable), appends and checkpoints become no-ops, and
//! the database above surfaces the condition as read-only. The
//! [`fault`] module can inject crashes, torn writes, bit flips, and
//! transient errors at every I/O site to prove both halves of the
//! contract: acknowledged writes are never lost, unacknowledged writes
//! never half-apply.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rma_core::{Key, Value};
use rma_obs::Histogram;
use rma_shard::{DurabilityOp, DurabilitySink, Splitters};

mod checkpoint;
pub mod fault;
mod record;
mod recover;
mod segment;

pub use fault::{FaultInjector, FaultMode, IoClass};
pub use recover::Recovery;

use checkpoint::ManifestState;
use segment::{check_alive, PartitionLog};

/// When the commit barrier fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// fsync on every commit: an acknowledged write survives both
    /// process and OS crashes.
    Always,
    /// fsync once every `n` records: acknowledged writes survive
    /// process crashes always, OS crashes only up to the last sync —
    /// at most `n` acknowledged records are at risk.
    EveryN(u64),
    /// No logging at all; checkpoints are the only durability.
    Off,
}

/// Configuration for creating or recovering a WAL directory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding logs, segments, and the manifest.
    pub dir: PathBuf,
    /// Commit barrier behaviour.
    pub policy: CommitPolicy,
    /// Durability partition count (ignored on recovery — the
    /// manifest's persisted partitioning wins).
    pub partitions: usize,
    /// Optional fault injector, armed on all durability I/O performed
    /// *after* creation/recovery (setup I/O is not instrumented, so a
    /// countdown seed indexes deterministically into workload I/O).
    pub fault: Option<Arc<FaultInjector>>,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            policy: CommitPolicy::Always,
            partitions: 4,
            fault: None,
        }
    }

    pub fn policy(mut self, policy: CommitPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    pub fn fault(mut self, inj: Arc<FaultInjector>) -> Self {
        self.fault = Some(inj);
        self
    }
}

/// Everything that can go wrong creating, committing, or recovering.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O operation failed (or a fault was injected).
    Io(io::Error),
    /// On-disk state failed validation: bad checksum, broken manifest,
    /// mid-sequence log corruption.
    Corrupt(String),
    /// The WAL has tripped into degraded (read-only) mode; the write
    /// was NOT made durable and must not be acknowledged.
    Degraded,
    /// The configuration is invalid for this operation.
    Config(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(s) => write!(f, "wal corrupt: {s}"),
            WalError::Degraded => write!(f, "wal degraded: database is read-only"),
            WalError::Config(s) => write!(f, "wal config error: {s}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The write-ahead log: one `PartitionLog` per durability partition
/// plus the checkpoint manifest. Shared `Arc`-style between the engine
/// (as its [`DurabilitySink`]) and the database façade (for the commit
/// barrier).
pub struct Wal {
    policy: CommitPolicy,
    dir: PathBuf,
    inj: Option<Arc<FaultInjector>>,
    parts: Vec<PartitionLog>,
    splitters: Splitters,
    manifest: Mutex<ManifestState>,
    degraded: AtomicBool,
    /// Latches the one-time degraded-mode announcement (journaling).
    announced: AtomicBool,
    commit_hist: Histogram,
    fsync_hist: Histogram,
    replay_hist: Histogram,
}

impl Wal {
    /// True when `dir` already holds a WAL (a manifest file exists),
    /// i.e. [`Wal::recover`] is the right way to open it and
    /// [`Wal::create`] would refuse.
    pub fn exists(dir: &Path) -> bool {
        dir.join(checkpoint::MANIFEST).is_file()
    }

    /// Creates a fresh WAL directory: empty per-partition logs and an
    /// initial manifest. Fails if the directory already holds a WAL
    /// (use [`Wal::recover`] for that).
    pub fn create(cfg: DurabilityConfig) -> Result<Arc<Wal>, WalError> {
        Self::validate(&cfg)?;
        std::fs::create_dir_all(&cfg.dir)?;
        if checkpoint::read_manifest(&cfg.dir)?.is_some() {
            return Err(WalError::Config(format!(
                "{} already contains a WAL; recover it instead",
                cfg.dir.display()
            )));
        }
        let splitters = Splitters::uniform(cfg.partitions);
        let parts: Vec<PartitionLog> = (0..cfg.partitions)
            .map(|p| PartitionLog::create(&cfg.dir, p, 1))
            .collect::<io::Result<_>>()?;
        let manifest = ManifestState::new(cfg.partitions, splitters.keys().to_vec());
        // Setup I/O is deliberately un-instrumented; see
        // `DurabilityConfig::fault`.
        checkpoint::write_manifest(&cfg.dir, &manifest, &None)?;
        rewiring::file::sync_dir(&cfg.dir)?;
        Ok(Arc::new(Wal {
            policy: cfg.policy,
            dir: cfg.dir,
            inj: cfg.fault,
            parts,
            splitters,
            manifest: Mutex::new(manifest),
            degraded: AtomicBool::new(false),
            announced: AtomicBool::new(false),
            commit_hist: Histogram::new(),
            fsync_hist: Histogram::new(),
            replay_hist: Histogram::new(),
        }))
    }

    fn validate(cfg: &DurabilityConfig) -> Result<(), WalError> {
        if cfg.partitions == 0 {
            return Err(WalError::Config("need at least one partition".into()));
        }
        if cfg.policy == CommitPolicy::EveryN(0) {
            return Err(WalError::Config(
                "EveryN(0) is meaningless; use Always".into(),
            ));
        }
        Ok(())
    }

    /// The durability barrier: every operation appended before this
    /// call is durable (per [`CommitPolicy`]) when it returns `Ok`.
    /// Callers must not acknowledge writes until then. Any I/O failure
    /// degrades the WAL and the write must be refused.
    pub fn commit(&self) -> Result<(), WalError> {
        if self.policy == CommitPolicy::Off {
            return Ok(());
        }
        if self.is_degraded() {
            return Err(WalError::Degraded);
        }
        let t0 = rewiring::monotonic_ns();
        // The barrier's latency is dominated by fsync (I/O wait, not
        // CPU), so partitions with pending records sync concurrently —
        // one fsync's worth of wall clock instead of one per
        // partition. Idle partitions are skipped via a lock-free
        // pre-check; a lone dirty partition commits inline to spare
        // the spawn.
        let pending: Vec<&segment::PartitionLog> =
            self.parts.iter().filter(|p| p.has_pending()).collect();
        let result = match pending.as_slice() {
            [] => Ok(()),
            [part] => part.commit(self.policy, &self.inj, &self.fsync_hist),
            parts => std::thread::scope(|s| {
                let handles: Vec<_> = parts
                    .iter()
                    .map(|part| s.spawn(|| part.commit(self.policy, &self.inj, &self.fsync_hist)))
                    .collect();
                handles
                    .into_iter()
                    .try_for_each(|h| h.join().expect("wal commit thread panicked"))
            }),
        };
        if let Err(e) = result {
            self.degrade();
            return Err(WalError::Io(e));
        }
        self.commit_hist
            .record(rewiring::monotonic_ns().saturating_sub(t0));
        Ok(())
    }

    /// True once any durability I/O has failed: the log can no longer
    /// promise persistence, so writes are refused (reads are fine —
    /// in-memory state is intact).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Returns `true` exactly once after the WAL degrades — the hook
    /// for the database above to journal the transition exactly once.
    pub fn take_degraded_transition(&self) -> bool {
        self.is_degraded() && !self.announced.swap(true, Ordering::AcqRel)
    }

    fn degrade(&self) {
        self.degraded.store(true, Ordering::Release);
    }

    /// Number of durability partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Commit-barrier latency (whole-barrier, ns).
    pub fn commit_hist(&self) -> &Histogram {
        &self.commit_hist
    }

    /// fsync latency (per fdatasync, ns).
    pub fn fsync_hist(&self) -> &Histogram {
        &self.fsync_hist
    }

    /// Recovery replay latency (per partition, ns).
    pub fn replay_hist(&self) -> &Histogram {
        &self.replay_hist
    }

    /// Seals one partition's checkpoint end to end; the `false` return
    /// tells the maintenance executor the WAL has degraded.
    fn try_seal(&self, p: usize, cut: u64, elems: &[(Key, Value)]) -> io::Result<()> {
        let entry = checkpoint::seal_segment(&self.dir, p, cut, elems, &self.inj)?;
        let old = {
            let mut m = self.manifest.lock().expect("manifest poisoned");
            let old = m.entries[p].replace(entry);
            // Persist while holding the lock: manifest replacements
            // must hit the disk in the same order they were composed.
            checkpoint::write_manifest(&self.dir, &m, &self.inj)?;
            old
        };
        // Only after the manifest commit is it safe to drop log
        // records at or below the cut...
        self.parts[p].rotate(cut, &self.inj)?;
        // ...and the previous segment.
        if let Some(old) = old {
            if old.file
                != self.manifest.lock().expect("manifest poisoned").entries[p]
                    .as_ref()
                    .expect("entry just sealed")
                    .file
            {
                check_alive(&self.inj)?;
                std::fs::remove_file(self.dir.join(&old.file)).ok();
            }
        }
        Ok(())
    }
}

impl DurabilitySink for Wal {
    fn append(&self, op: DurabilityOp) {
        if self.policy == CommitPolicy::Off || self.is_degraded() {
            return;
        }
        let p = self.splitters.route(op.key());
        self.parts[p].append(op);
    }

    fn partitions(&self) -> usize {
        self.parts.len()
    }

    fn partition_range(&self, p: usize) -> (Option<Key>, Option<Key>) {
        self.splitters.range_of(p)
    }

    fn checkpoint_cut(&self, p: usize) -> u64 {
        self.parts[p].cut()
    }

    fn seal_checkpoint(&self, p: usize, cut: u64, elems: &[(Key, Value)]) -> bool {
        if self.is_degraded() {
            return false;
        }
        match self.try_seal(p, cut, elems) {
            Ok(()) => true,
            Err(_) => {
                self.degrade();
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rma-wal-lib-{}-{}-{name}",
            std::process::id(),
            rewiring::monotonic_ns()
        ))
    }

    #[test]
    fn create_rejects_existing_wal_and_bad_config() {
        let dir = scratch("create");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        assert_eq!(wal.partitions(), 4);
        assert!(!wal.is_degraded());
        assert!(matches!(
            Wal::create(DurabilityConfig::new(&dir)),
            Err(WalError::Config(_))
        ));
        assert!(matches!(
            Wal::create(DurabilityConfig::new(scratch("p0")).partitions(0)),
            Err(WalError::Config(_))
        ));
        assert!(matches!(
            Wal::create(DurabilityConfig::new(scratch("n0")).policy(CommitPolicy::EveryN(0))),
            Err(WalError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_routes_by_key_and_commit_is_a_barrier() {
        let dir = scratch("route");
        let wal = Wal::create(DurabilityConfig::new(&dir).partitions(2)).expect("create");
        let lo: Key = 1;
        let hi: Key = (1 << 61) + 1; // above the 2-way uniform splitter
        assert_eq!(wal.splitters.route(lo), 0);
        assert_eq!(wal.splitters.route(hi), 1);
        wal.append(DurabilityOp::Insert(lo, 1));
        wal.append(DurabilityOp::Insert(hi, 2));
        wal.append(DurabilityOp::Remove(lo));
        assert_eq!(wal.checkpoint_cut(0), 2);
        assert_eq!(wal.checkpoint_cut(1), 1);
        wal.commit().expect("commit");
        assert_eq!(wal.commit_hist().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_failure_degrades_and_refuses_further_commits() {
        let dir = scratch("degrade");
        let inj = FaultInjector::new(1, FaultMode::Error);
        let wal = Wal::create(
            DurabilityConfig::new(&dir)
                .partitions(1)
                .fault(Arc::clone(&inj)),
        )
        .expect("create");
        wal.append(DurabilityOp::Insert(1, 1));
        assert!(matches!(wal.commit(), Err(WalError::Io(_))));
        assert!(wal.is_degraded());
        assert!(wal.take_degraded_transition());
        assert!(!wal.take_degraded_transition(), "transition fires once");
        assert!(matches!(wal.commit(), Err(WalError::Degraded)));
        // Degraded appends and checkpoints are inert.
        wal.append(DurabilityOp::Insert(2, 2));
        assert_eq!(wal.checkpoint_cut(0), 1);
        assert!(!wal.seal_checkpoint(0, 1, &[(1, 1)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn off_policy_stages_nothing() {
        let dir = scratch("off");
        let wal =
            Wal::create(DurabilityConfig::new(&dir).policy(CommitPolicy::Off)).expect("create");
        wal.append(DurabilityOp::Insert(1, 1));
        assert_eq!(wal.checkpoint_cut(0), 0);
        wal.commit().expect("off commit is a no-op");
        assert_eq!(wal.commit_hist().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_checkpoint_rotates_and_replaces_segments() {
        let dir = scratch("seal");
        let wal = Wal::create(DurabilityConfig::new(&dir).partitions(1)).expect("create");
        for i in 0..10 {
            wal.append(DurabilityOp::Insert(i, i));
        }
        wal.commit().expect("commit");
        let cut = wal.checkpoint_cut(0);
        let elems: Vec<(Key, Value)> = (0..10).map(|i| (i, i)).collect();
        assert!(wal.seal_checkpoint(0, cut, &elems));
        assert!(dir.join("ckpt_0_10.seg").exists());
        // Second seal at a later cut replaces the first segment.
        wal.append(DurabilityOp::Insert(10, 10));
        wal.commit().expect("commit");
        assert!(wal.seal_checkpoint(0, 11, &[(10, 10)]));
        assert!(dir.join("ckpt_0_11.seg").exists());
        assert!(!dir.join("ckpt_0_10.seg").exists(), "old segment pruned");
        std::fs::remove_dir_all(&dir).ok();
    }
}
