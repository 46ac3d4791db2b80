//! Durability for the sharded RMA: one group-committed write-ahead
//! log, sealed per-partition checkpoints, crash recovery, and
//! deterministic fault injection.
//!
//! # Shape
//!
//! There is one log: one staging buffer, one sequence of LSNs and one
//! file at a time, whatever keys the records carry. The key space is
//! also cut into a fixed number of **durability partitions** (uniform
//! over the 62-bit workload domain, persisted in the manifest), but
//! only as checkpoint units: a seal locks just the engine shards one
//! partition overlaps, and recovery loads the partitions' segments in
//! parallel. Partitions are deliberately decoupled from the engine's
//! *dynamic* shard topology: shards split and merge continuously,
//! while checkpoint files want stable ranges.
//!
//! The write path is two-phase:
//!
//! 1. **append** — called by the engine *under its shard write lock*
//!    with the mutations of that lock hold, in apply order (see
//!    `rma_shard::durability` for why that ordering contract
//!    matters): stamp consecutive LSNs, encode into the staging
//!    buffer. No I/O.
//! 2. **commit** — the durability barrier, called once per op or once
//!    per batch: drain the staging buffer to the log file and fsync
//!    per [`CommitPolicy`], on the caller's thread. Only after
//!    `commit` returns may the caller acknowledge the writes.
//!
//! Checkpoints bound replay: the engine (`ShardedRma::checkpoint`)
//! locks the shards covering one partition, draws the partition's **cut
//! LSN** (the highest LSN handed out so far), snapshots its elements,
//! and hands both to [`Wal::seal_checkpoint`], which writes a segment
//! file, rotates the log so every record up to the cut is synced,
//! commits the segment via an atomic manifest replacement, and deletes
//! the log files the smallest partition cut covers. Recovery
//! ([`Wal::recover`]) is then: bulk-load every partition's segment,
//! replay only the log records above their own key's partition cut,
//! truncate the torn tail.
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
use segment::{check_alive, Log};

/// When the commit barrier fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// fsync on every commit: an acknowledged write survives both
    /// process and OS crashes.
    Always,
    /// fsync once every `n` records of the log: acknowledged writes
    /// survive process crashes always, OS crashes only up to the last
    /// sync — at most `n` acknowledged records are at risk.
    EveryN(u64),
}

/// Durability partitions of a WAL made by [`Wal::create`]. Recovery
/// takes the count from the manifest, so a directory written with
/// another count still opens.
pub const PARTITIONS: usize = 4;

/// Configuration for creating or recovering a WAL directory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding logs, segments, and the manifest.
    pub dir: PathBuf,
    /// Commit barrier behaviour.
    pub policy: CommitPolicy,
    /// Optional fault injector, armed on all durability I/O performed
    /// *after* creation/recovery (setup I/O is not instrumented, so a
    /// countdown seed indexes deterministically into workload I/O).
    /// The checkpoint a durable `DbBuilder::build_bulk` seals is
    /// already instrumented I/O: the countdown starts with it.
    pub fault: Option<Arc<FaultInjector>>,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            policy: CommitPolicy::Always,
            fault: None,
        }
    }

    pub fn policy(mut self, policy: CommitPolicy) -> Self {
        self.policy = policy;
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

/// The write-ahead log plus the checkpoint manifest. Shared
/// `Arc`-style between the engine (as its [`DurabilitySink`]) and the
/// database façade (for the commit barrier).
pub struct Wal {
    policy: CommitPolicy,
    dir: PathBuf,
    inj: Option<Arc<FaultInjector>>,
    log: Log,
    /// The durability partitions' key ranges (checkpoint units).
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

    /// Creates a fresh WAL directory: an empty log and an initial
    /// manifest. Fails if the directory already holds a WAL
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
        let splitters = Splitters::uniform(PARTITIONS);
        let log = Log::create(&cfg.dir, 1)?;
        let manifest = ManifestState::new(PARTITIONS, splitters.keys().to_vec());
        // Setup I/O is deliberately un-instrumented; see
        // `DurabilityConfig::fault`.
        checkpoint::write_manifest(&cfg.dir, &manifest, &None)?;
        fault::sync_dir(&cfg.dir)?;
        Ok(Self::from_parts(cfg, log, splitters, manifest))
    }

    /// A healthy WAL over an opened log — what [`Wal::create`] and
    /// [`Wal::recover`] both end with.
    fn from_parts(
        cfg: DurabilityConfig,
        log: Log,
        splitters: Splitters,
        manifest: ManifestState,
    ) -> Arc<Wal> {
        Arc::new(Wal {
            policy: cfg.policy,
            dir: cfg.dir,
            inj: cfg.fault,
            log,
            splitters,
            manifest: Mutex::new(manifest),
            degraded: AtomicBool::new(false),
            announced: AtomicBool::new(false),
            commit_hist: Histogram::new(),
            fsync_hist: Histogram::new(),
            replay_hist: Histogram::new(),
        })
    }

    fn validate(cfg: &DurabilityConfig) -> Result<(), WalError> {
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
        if self.is_degraded() {
            return Err(WalError::Degraded);
        }
        let t0 = rewiring::monotonic_ns();
        if let Err(e) = self.log.commit(self.policy, &self.inj, &self.fsync_hist) {
            self.degrade();
            return Err(WalError::Io(e));
        }
        self.commit_hist
            .record(rewiring::monotonic_ns().saturating_sub(t0));
        Ok(())
    }

    /// The highest LSN appended so far: a mark that
    /// [`is_committed`](Self::is_committed) checks later.
    pub fn appended(&self) -> u64 {
        self.log.appended()
    }

    /// True when a barrier has covered `mark` (from
    /// [`appended`](Self::appended)): `commit` has nothing to do for it.
    pub fn is_committed(&self, mark: u64) -> bool {
        self.log.committed() >= mark
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
        self.splitters.num_shards()
    }

    /// Commit-barrier latency (whole-barrier, ns).
    pub fn commit_hist(&self) -> &Histogram {
        &self.commit_hist
    }

    /// fsync latency (per fdatasync, ns).
    pub fn fsync_hist(&self) -> &Histogram {
        &self.fsync_hist
    }

    /// Recovery replay latency (per partition tail, ns).
    pub fn replay_hist(&self) -> &Histogram {
        &self.replay_hist
    }

    /// Seals one partition's checkpoint end to end; on an error
    /// [`seal_checkpoint`](DurabilitySink::seal_checkpoint) degrades
    /// the WAL and tells the engine the seal failed.
    fn try_seal(&self, p: usize, cut: u64, elems: &[(Key, Value)]) -> io::Result<()> {
        let entry = checkpoint::seal_segment(&self.dir, p, cut, elems, &self.inj)?;
        let file = entry.file.clone();
        // Every record up to the cut is synced before the manifest
        // names the cut, so recovery's log never ends below a cut.
        self.log.rotate(&self.inj)?;
        let (old, min_cut) = {
            let mut m = self.manifest.lock().expect("manifest poisoned");
            let old = m.entries[p].replace(entry);
            // Persist while holding the lock: manifest replacements
            // must hit the disk in the same order they were composed.
            checkpoint::write_manifest(&self.dir, &m, &self.inj)?;
            (old, m.min_cut())
        };
        // Only after the manifest commit is it safe to drop the log
        // files every partition's cut covers...
        self.log.prune(min_cut, &self.inj)?;
        // ...and the previous segment.
        if let Some(old) = old.filter(|old| old.file != file) {
            check_alive(&self.inj)?;
            std::fs::remove_file(self.dir.join(&old.file)).ok();
        }
        Ok(())
    }
}

impl DurabilitySink for Wal {
    /// Stages `ops` under one acquisition of the staging lock.
    fn append(&self, ops: &[DurabilityOp]) {
        if self.is_degraded() {
            return;
        }
        self.log.append(ops);
    }

    fn partitions(&self) -> usize {
        Wal::partitions(self)
    }

    fn partition_range(&self, p: usize) -> (Option<Key>, Option<Key>) {
        self.splitters.range_of(p)
    }

    fn checkpoint_cut(&self) -> u64 {
        self.log.appended()
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
            Wal::create(DurabilityConfig::new(scratch("n0")).policy(CommitPolicy::EveryN(0))),
            Err(WalError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One key in each partition's range, in partition order.
    const ONE_PER_PARTITION: [Key; PARTITIONS] = [1, (1 << 60) + 1, (1 << 61) + 1, (3 << 60) + 1];

    fn log_files(dir: &Path) -> Vec<u64> {
        segment::list_log_starts(dir).expect("list logs")
    }

    #[test]
    fn records_of_all_partitions_interleave_in_one_file() {
        let dir = scratch("interleave");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        for (p, &k) in ONE_PER_PARTITION.iter().enumerate() {
            assert_eq!(wal.splitters.route(k), p);
        }
        let ops = ONE_PER_PARTITION.map(|k| DurabilityOp::Insert(k, k));
        wal.append(&ops);
        wal.append(&[DurabilityOp::Remove(ONE_PER_PARTITION[0])]);
        assert_eq!((wal.appended(), wal.checkpoint_cut()), (5, 5));
        assert!(!wal.is_committed(5));
        wal.commit().expect("commit");
        assert!(wal.is_committed(5));
        assert_eq!(
            (wal.commit_hist().count(), wal.fsync_hist().count()),
            (1, 1)
        );
        assert_eq!(log_files(&dir), [1]);
        let bytes = std::fs::read(dir.join(segment::log_name(1))).expect("read log");
        let records: Vec<(u64, rma_shard::PointOp)> = (bytes.chunks(record::FRAME_LEN))
            .map(|frame| match record::decode(frame) {
                record::Decoded::Ok(r) => (r.lsn, r.op),
                other => panic!("bad record {other:?}"),
            })
            .collect();
        let mut want: Vec<_> = (ONE_PER_PARTITION.iter().enumerate())
            .map(|(i, &k)| (i as u64 + 1, rma_shard::PointOp::Insert(k, k)))
            .collect();
        want.push((5, rma_shard::PointOp::Remove(ONE_PER_PARTITION[0])));
        assert_eq!(records, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_file_survives_until_the_smallest_cut_covers_it() {
        let dir = scratch("prune");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        wal.append(&ONE_PER_PARTITION.map(|k| DurabilityOp::Insert(k, k)));
        wal.commit().expect("commit");
        let cut = wal.checkpoint_cut();
        for (p, &k) in ONE_PER_PARTITION[..PARTITIONS - 1].iter().enumerate() {
            assert!(wal.seal_checkpoint(p, cut, &[(k, 0)]));
            // The first seal rotated; partition 3's cut is still 0.
            assert_eq!(log_files(&dir), [1, 5], "after sealing partition {p}");
        }
        wal.append(&[DurabilityOp::Insert(ONE_PER_PARTITION[3], 7)]);
        assert!(wal.seal_checkpoint(3, 5, &[(ONE_PER_PARTITION[3], 0)]));
        // The smallest cut (4) covers the first file but not the
        // second, which holds record 5.
        assert_eq!(log_files(&dir), [5, 6]);
        assert!(wal.seal_checkpoint(0, 5, &[(ONE_PER_PARTITION[0], 0)]));
        assert_eq!(log_files(&dir), [5, 6], "partitions 1 and 2 sit at 4");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_failure_degrades_and_refuses_further_commits() {
        let dir = scratch("degrade");
        let inj = FaultInjector::new(1, FaultMode::Error);
        let wal = Wal::create(DurabilityConfig::new(&dir).fault(Arc::clone(&inj))).expect("create");
        wal.append(&[DurabilityOp::Insert(1, 1)]);
        assert!(matches!(wal.commit(), Err(WalError::Io(_))));
        assert!(wal.is_degraded());
        assert!(wal.take_degraded_transition());
        assert!(!wal.take_degraded_transition(), "transition fires once");
        assert!(matches!(wal.commit(), Err(WalError::Degraded)));
        // Degraded appends and checkpoints are inert.
        wal.append(&[DurabilityOp::Insert(2, 2)]);
        assert_eq!(wal.checkpoint_cut(), 1);
        assert!(!wal.seal_checkpoint(0, 1, &[(1, 1)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_checkpoint_rotates_and_replaces_segments() {
        let dir = scratch("seal");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        for i in 0..10 {
            wal.append(&[DurabilityOp::Insert(i, i)]);
        }
        wal.commit().expect("commit");
        let cut = wal.checkpoint_cut();
        let elems: Vec<(Key, Value)> = (0..10).map(|i| (i, i)).collect();
        assert!(wal.seal_checkpoint(0, cut, &elems));
        assert!(dir.join("ckpt_0_10.seg").exists());
        // Second seal at a later cut replaces the first segment.
        wal.append(&[DurabilityOp::Insert(10, 10)]);
        wal.commit().expect("commit");
        assert!(wal.seal_checkpoint(0, 11, &[(10, 10)]));
        assert!(dir.join("ckpt_0_11.seg").exists());
        assert!(!dir.join("ckpt_0_10.seg").exists(), "old segment pruned");
        std::fs::remove_dir_all(&dir).ok();
    }
}
