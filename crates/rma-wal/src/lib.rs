//! Durability for the sharded RMA: one group-committed write-ahead
//! log, checkpoints sealed per shard, crash recovery, and
//! deterministic fault injection.
//!
//! # Shape
//!
//! There is one log: one staging buffer, one sequence of LSNs and one
//! file at a time, whatever keys the records carry. A checkpoint's
//! units are the shards of the engine's topology when it is sealed:
//! the manifest records that topology's splitters and one segment per
//! shard, and recovery loads the segments in parallel. The WAL keeps
//! no key partitioning of its own.
//!
//! The write path is two-phase:
//!
//! 1. **append** — called by the engine *under its shard write lock*
//!    with the mutations of that lock hold, in apply order (see
//!    `rma_shard::durability` for why that ordering contract
//!    matters): stamp consecutive LSNs, encode the slice as one frame
//!    into the staging buffer. No I/O.
//! 2. **commit** — the durability barrier, called once per op or once
//!    per batch: drain the staging buffer to the log file and fsync
//!    it, on the caller's thread. Only after `commit` returns may the
//!    caller acknowledge the writes.
//!
//! Checkpoints bound replay: the engine (`ShardedRma::checkpoint`)
//! holds its topology still and, one shard at a time, locks the shard,
//! draws its **cut LSN** (the highest LSN handed out so far) and
//! snapshots its elements; [`Wal`]'s
//! [`seal_checkpoint`](DurabilitySink::seal_checkpoint) writes each
//! shard's segment file as it arrives, syncs the directory once for
//! all their renames, then rotates the log so every
//! record up to the cuts is synced, commits the whole checkpoint via
//! one atomic manifest replacement, and deletes the log files the
//! smallest cut covers and the previous checkpoint's segments.
//! Recovery ([`Wal::recover`]) is then: bulk-load every unit's
//! segment, replay only the log records above their own key's unit
//! cut, truncate the torn tail.
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
use rma_shard::{DurabilitySink, PointOp};

mod checkpoint;
pub mod fault;
mod record;
mod recover;
mod segment;

pub use fault::{FaultInjector, FaultMode, IoClass};
pub use recover::Recovery;

use checkpoint::ManifestState;
use segment::{check_alive, Log};

/// Configuration for creating or recovering a WAL directory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding logs, segments, and the manifest.
    pub dir: PathBuf,
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
            fault: None,
        }
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
    dir: PathBuf,
    inj: Option<Arc<FaultInjector>>,
    log: Log,
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
        std::fs::create_dir_all(&cfg.dir)?;
        if checkpoint::read_manifest(&cfg.dir)?.is_some() {
            return Err(WalError::Config(format!(
                "{} already contains a WAL; recover it instead",
                cfg.dir.display()
            )));
        }
        let log = Log::create(&cfg.dir, 1)?;
        let manifest = ManifestState::empty();
        // Setup I/O is deliberately un-instrumented; see
        // `DurabilityConfig::fault`.
        checkpoint::write_manifest(&cfg.dir, &manifest, &None)?;
        fault::sync_dir(&cfg.dir)?;
        Ok(Self::from_parts(cfg, log, manifest))
    }

    /// A healthy WAL over an opened log — what [`Wal::create`] and
    /// [`Wal::recover`] both end with.
    fn from_parts(cfg: DurabilityConfig, log: Log, manifest: ManifestState) -> Arc<Wal> {
        Arc::new(Wal {
            dir: cfg.dir,
            inj: cfg.fault,
            log,
            manifest: Mutex::new(manifest),
            degraded: AtomicBool::new(false),
            announced: AtomicBool::new(false),
            commit_hist: Histogram::new(),
            fsync_hist: Histogram::new(),
            replay_hist: Histogram::new(),
        })
    }

    /// The durability barrier: every operation appended before this
    /// call is written and fsynced when it returns `Ok`.
    /// Callers must not acknowledge writes until then. Any I/O failure
    /// degrades the WAL and the write must be refused.
    pub fn commit(&self) -> Result<(), WalError> {
        if self.is_degraded() {
            return Err(WalError::Degraded);
        }
        let t0 = rewiring::monotonic_ns();
        if let Err(e) = self.log.commit(&self.inj, &self.fsync_hist) {
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

    /// Commit-barrier latency (whole-barrier, ns).
    pub fn commit_hist(&self) -> &Histogram {
        &self.commit_hist
    }

    /// fsync latency (per fdatasync, ns).
    pub fn fsync_hist(&self) -> &Histogram {
        &self.fsync_hist
    }

    /// Recovery replay latency (per unit's log tail, ns).
    pub fn replay_hist(&self) -> &Histogram {
        &self.replay_hist
    }

    /// Seals one checkpoint end to end; on an error
    /// [`seal_checkpoint`](DurabilitySink::seal_checkpoint) degrades
    /// the WAL and tells the engine the seal failed. The manifest lock
    /// is held throughout, so seals commit in the order they began.
    fn try_seal(
        &self,
        splitters: &[Key],
        units: &mut dyn Iterator<Item = (u64, Vec<(Key, Value)>)>,
    ) -> io::Result<()> {
        let mut m = self.manifest.lock().expect("manifest poisoned");
        let gen = m.next_generation();
        let mut entries = Vec::with_capacity(splitters.len() + 1);
        for (u, (cut, elems)) in units.enumerate() {
            let name = checkpoint::seg_name(gen, u);
            entries.push(Some(checkpoint::seal_segment(
                &self.dir, name, cut, &elems, &self.inj,
            )?));
        }
        assert_eq!(entries.len(), splitters.len() + 1, "one unit per range");
        // One directory sync makes every segment's rename durable
        // before the manifest names them.
        fault::inj_sync_dir(&self.inj, &self.dir)?;
        // Every record up to the cuts is synced before the manifest
        // names them, so recovery's log never ends below a cut.
        self.log.rotate(&self.inj)?;
        let next = ManifestState {
            splitters: splitters.to_vec(),
            entries,
        };
        checkpoint::write_manifest(&self.dir, &next, &self.inj)?;
        let old = std::mem::replace(&mut *m, next);
        // Only after the manifest commit is it safe to drop the log
        // files every unit's cut covers...
        self.log.prune(m.cuts().min().unwrap_or(0), &self.inj)?;
        // ...and the previous checkpoint's segments.
        for old in old.entries.into_iter().flatten() {
            check_alive(&self.inj)?;
            std::fs::remove_file(self.dir.join(&old.file)).ok();
        }
        Ok(())
    }
}

impl DurabilitySink for Wal {
    /// Stages `ops` as one frame under one acquisition of the staging
    /// lock.
    fn append(&self, ops: &[PointOp]) {
        if self.is_degraded() {
            return;
        }
        self.log.append(ops);
    }

    fn checkpoint_cut(&self) -> u64 {
        self.log.appended()
    }

    fn seal_checkpoint(
        &self,
        splitters: &[Key],
        units: &mut dyn Iterator<Item = (u64, Vec<(Key, Value)>)>,
    ) -> bool {
        if self.is_degraded() {
            return false;
        }
        match self.try_seal(splitters, units) {
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

    /// Seals one checkpoint of `units` over the ranges `splitters` cut.
    pub(crate) fn seal(wal: &Wal, splitters: &[Key], units: Vec<(u64, Vec<(Key, Value)>)>) -> bool {
        wal.seal_checkpoint(splitters, &mut units.into_iter())
    }

    fn manifest(wal: &Wal) -> ManifestState {
        wal.manifest.lock().expect("manifest").clone()
    }

    #[test]
    fn create_rejects_an_existing_wal() {
        let dir = scratch("create");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        assert_eq!(manifest(&wal), ManifestState::empty(), "one unit, no cut");
        assert!(!wal.is_degraded());
        assert!(matches!(
            Wal::create(DurabilityConfig::new(&dir)),
            Err(WalError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Four units' interior bounds, and one key in each unit's range.
    const SPLITTERS: [Key; 3] = [1 << 60, 1 << 61, 3 << 60];
    const ONE_PER_UNIT: [Key; 4] = [1, (1 << 60) + 1, (1 << 61) + 1, (3 << 60) + 1];

    fn log_files(dir: &Path) -> Vec<u64> {
        segment::list_log_starts(dir).expect("list logs")
    }

    fn segment_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = (std::fs::read_dir(dir).expect("wal dir"))
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .filter(|name| checkpoint::is_seg_name(name))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn records_of_every_key_interleave_in_one_file() {
        let dir = scratch("interleave");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        let ops = ONE_PER_UNIT.map(|k| PointOp::Insert(k, k));
        wal.append(&ops);
        wal.append(&[PointOp::Remove(ONE_PER_UNIT[0])]);
        assert_eq!((wal.appended(), wal.checkpoint_cut()), (5, 5));
        assert!(!wal.is_committed(5));
        wal.commit().expect("commit");
        assert!(wal.is_committed(5));
        assert_eq!(
            (wal.commit_hist().count(), wal.fsync_hist().count()),
            (1, 1)
        );
        assert_eq!(log_files(&dir), [1]);
        // One frame per append: the four inserts under LSNs 1..=4,
        // then the remove under 5.
        let bytes = std::fs::read(dir.join(segment::log_name(1))).expect("read log");
        let mut frames = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let (lsn, ops, len) = record::decode(&bytes[at..]).expect("a clean frame");
            frames.push((lsn, ops));
            at += len;
        }
        let inserts = ONE_PER_UNIT.map(|k| PointOp::Insert(k, k));
        let remove = PointOp::Remove(ONE_PER_UNIT[0]);
        assert_eq!(frames, [(1, inserts.to_vec()), (5, vec![remove])]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_file_survives_until_the_smallest_cut_covers_it() {
        let dir = scratch("prune");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        wal.append(&ONE_PER_UNIT.map(|k| PointOp::Insert(k, k)));
        wal.commit().expect("commit");
        // Unit 0's cut was drawn before the last two records.
        let units = |cuts: [u64; 4]| {
            (cuts.into_iter().zip(ONE_PER_UNIT))
                .map(|(cut, k)| (cut, vec![(k, k)]))
                .collect()
        };
        assert!(seal(&wal, &SPLITTERS, units([2, 4, 4, 4])));
        // The seal rotated; file 1 holds records 3 and 4, above unit
        // 0's cut.
        assert_eq!(log_files(&dir), [1, 5]);
        wal.append(&[PointOp::Insert(ONE_PER_UNIT[3], 7)]);
        assert!(seal(&wal, &SPLITTERS, units([5; 4])));
        assert_eq!(log_files(&dir), [6], "the smallest cut (5) covers both");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_failure_degrades_and_refuses_further_commits() {
        let dir = scratch("degrade");
        let inj = FaultInjector::new(1, FaultMode::Error);
        let wal = Wal::create(DurabilityConfig::new(&dir).fault(Arc::clone(&inj))).expect("create");
        wal.append(&[PointOp::Insert(1, 1)]);
        assert!(matches!(wal.commit(), Err(WalError::Io(_))));
        assert!(wal.is_degraded());
        assert!(wal.take_degraded_transition());
        assert!(!wal.take_degraded_transition(), "transition fires once");
        assert!(matches!(wal.commit(), Err(WalError::Degraded)));
        // Degraded appends and checkpoints are inert.
        wal.append(&[PointOp::Insert(2, 2)]);
        assert_eq!(wal.checkpoint_cut(), 1);
        assert!(!seal(&wal, &[], vec![(1, vec![(1, 1)])]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_checkpoint_rotates_and_replaces_segments() {
        let dir = scratch("seal");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        for i in 0..10 {
            wal.append(&[PointOp::Insert(i, i)]);
        }
        wal.commit().expect("commit");
        let cut = wal.checkpoint_cut();
        let elems: Vec<(Key, Value)> = (0..10).map(|i| (i, i)).collect();
        assert!(seal(
            &wal,
            &[5],
            vec![(cut, elems[..5].to_vec()), (cut, elems[5..].to_vec())]
        ));
        assert_eq!(segment_files(&dir), ["ckpt_0_0.seg", "ckpt_0_1.seg"]);
        assert_eq!(log_files(&dir), [11]);
        // A second seal at a later cut, over one unit, replaces both.
        wal.append(&[PointOp::Insert(10, 10)]);
        wal.commit().expect("commit");
        assert!(seal(&wal, &[], vec![(11, vec![(10, 10)])]));
        assert_eq!(segment_files(&dir), ["ckpt_1_0.seg"], "old segments pruned");
        let m = manifest(&wal);
        assert_eq!((m.splitters.len(), m.cuts().collect()), (0, vec![11]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With no write in between, a second checkpoint draws the same
    /// cuts over a re-cut topology: its segments still get names of
    /// their own, so none is written over a file the committed
    /// manifest names.
    #[test]
    fn a_checkpoint_at_unchanged_cuts_writes_new_files() {
        let dir = scratch("same-cut");
        let wal = Wal::create(DurabilityConfig::new(&dir)).expect("create");
        wal.append(&ONE_PER_UNIT.map(|k| PointOp::Insert(k, k)));
        wal.commit().expect("commit");
        let pairs = ONE_PER_UNIT.map(|k| (k, k)).to_vec();
        assert!(seal(
            &wal,
            &SPLITTERS[..1],
            vec![(4, pairs[..1].to_vec()), (4, pairs[1..].to_vec())]
        ));
        let first = manifest(&wal);
        assert!(seal(
            &wal,
            &SPLITTERS[1..2],
            vec![(4, pairs[..2].to_vec()), (4, pairs[2..].to_vec())]
        ));
        let second = manifest(&wal);
        let files = |m: &ManifestState| -> Vec<String> {
            m.entries.iter().flatten().map(|e| e.file.clone()).collect()
        };
        assert_eq!(files(&first), ["ckpt_0_0.seg", "ckpt_0_1.seg"]);
        assert_eq!(files(&second), ["ckpt_1_0.seg", "ckpt_1_1.seg"]);
        assert_eq!(segment_files(&dir), files(&second));
        std::fs::remove_dir_all(&dir).ok();
    }
}
