//! Per-partition append log: a staging buffer filled under the
//! engine's shard locks and a group-committed file sink.
//!
//! # Why staging + sink are separate locks
//!
//! [`PartitionLog::append`] runs *inside* the engine's shard write
//! guard, so it must be cheap: take the staging mutex once for the
//! whole slice of ops, stamp consecutive LSNs, encode ~33 bytes each,
//! done. No I/O ever happens under an engine lock.
//!
//! [`PartitionLog::commit`] is the durability barrier. It serialises
//! on the sink mutex, drains whatever the staging buffer has
//! accumulated, writes it in one `write(2)`, and fsyncs according to
//! policy. The group-commit effect falls out of the double-check: a
//! thread that blocks on the sink mutex while another thread is
//! committing finds, once it gets the lock, that its target LSN is
//! already durable and returns without touching the disk.
//!
//! # Log files and rotation
//!
//! A partition's log lives in files named `wal_<p>_<start>.log`, where
//! `<start>` is the LSN of the first record the file may contain.
//! Sealing a checkpoint calls [`PartitionLog::rotate`]: flush + sync
//! the current file, open a fresh one starting past everything
//! appended so far, and delete files wholly covered by the checkpoint
//! cut. A file is deletable iff its *successor's* start LSN is
//! `<= cut + 1` — every record it holds then has `lsn <= cut` and is
//! re-created by the checkpoint segment. The current file is never
//! deleted; appends that raced past the cut live there.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rma_obs::Histogram;
use rma_shard::DurabilityOp;

use crate::fault::{inj_fdatasync, inj_write, sync_dir, FaultInjector, IoClass};
use crate::record;
use crate::CommitPolicy;

/// File name of partition `p`'s log segment starting at LSN `start`.
pub(crate) fn log_name(p: usize, start: u64) -> String {
    format!("wal_{p}_{start}.log")
}

/// Parses `wal_<p>_<start>.log`; `None` for anything else.
pub(crate) fn parse_log_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("wal_")?.strip_suffix(".log")?;
    let (p, start) = rest.split_once('_')?;
    Some((p.parse().ok()?, start.parse().ok()?))
}

/// Start LSNs of every log file of partition `p` in `dir`, sorted.
pub(crate) fn list_log_starts(dir: &Path, p: usize) -> io::Result<Vec<u64>> {
    let mut starts = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some((fp, start)) = entry.file_name().to_str().and_then(parse_log_name) {
            if fp == p {
                starts.push(start);
            }
        }
    }
    starts.sort_unstable();
    Ok(starts)
}

/// Fails if a `Kill` fault already fired — the simulated process is
/// dead, so even un-instrumented filesystem calls must not run.
pub(crate) fn check_alive(inj: &Option<Arc<FaultInjector>>) -> io::Result<()> {
    match inj {
        Some(i) if i.is_dead() => Err(io::Error::other("fault injection: process is dead")),
        _ => Ok(()),
    }
}

struct Staging {
    buf: Vec<u8>,
    next_lsn: u64,
}

struct LogFile {
    file: File,
    /// Records written since the last fsync (drives `EveryN`).
    since_fsync: u64,
}

/// One partition's write-ahead log.
pub(crate) struct PartitionLog {
    p: usize,
    dir: PathBuf,
    staging: Mutex<Staging>,
    sink: Mutex<LogFile>,
    /// Highest LSN handed out by `append` (0 = none yet).
    appended: AtomicU64,
    /// Highest LSN known written (and synced, under `Always`) to the
    /// log file.
    committed: AtomicU64,
}

impl PartitionLog {
    /// Opens a fresh log for partition `p` whose first record will be
    /// `next_lsn`. Used both at creation (`next_lsn = 1`) and after
    /// recovery (`next_lsn` = one past everything replayed). The
    /// caller is responsible for syncing `dir` afterwards.
    pub fn create(dir: &Path, p: usize, next_lsn: u64) -> io::Result<Self> {
        let file = File::create(dir.join(log_name(p, next_lsn)))?;
        Ok(Self {
            p,
            dir: dir.to_path_buf(),
            staging: Mutex::new(Staging {
                buf: Vec::new(),
                next_lsn,
            }),
            sink: Mutex::new(LogFile {
                file,
                since_fsync: 0,
            }),
            appended: AtomicU64::new(next_lsn - 1),
            committed: AtomicU64::new(next_lsn - 1),
        })
    }

    /// Stages `ops` under consecutive LSNs, in order, and returns the
    /// last one handed out. One staging-lock acquisition and one
    /// publication of `appended` for the whole slice. Called under the
    /// engine's shard write guard; does no I/O.
    pub fn append(&self, ops: &[DurabilityOp]) -> u64 {
        let mut guard = self.staging.lock().expect("staging poisoned");
        let st = &mut *guard;
        for &op in ops {
            record::encode_into(&mut st.buf, st.next_lsn, op);
            st.next_lsn += 1;
        }
        let last = st.next_lsn - 1;
        self.appended.store(last, Ordering::Release);
        last
    }

    /// Highest LSN this partition has handed out. Meaningful as a
    /// checkpoint cut only while the engine shards covering the
    /// partition's key range are locked (no append can race).
    pub fn cut(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Highest LSN a barrier has made durable (or a rotation synced).
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// True when records have been appended past the last commit —
    /// the lock-free pre-check the commit barrier uses to skip idle
    /// partitions. A false negative is impossible for records staged
    /// before the barrier began (`append` publishes with `Release`);
    /// a stale true merely takes the full `commit` path, which
    /// re-checks under the sink lock.
    pub fn has_pending(&self) -> bool {
        self.appended.load(Ordering::Acquire) > self.committed.load(Ordering::Acquire)
    }

    /// Durability barrier: everything appended before this call is in
    /// the log file when it returns (and on disk, under `Always`).
    pub fn commit(
        &self,
        policy: CommitPolicy,
        inj: &Option<Arc<FaultInjector>>,
        fsync_hist: &Histogram,
    ) -> io::Result<()> {
        let target = self.appended.load(Ordering::Acquire);
        if self.committed.load(Ordering::Acquire) >= target {
            return Ok(());
        }
        let mut sink = self.sink.lock().expect("sink poisoned");
        if self.committed.load(Ordering::Acquire) >= target {
            // Group commit: whoever held the sink while we blocked
            // already made our records durable.
            return Ok(());
        }
        let (bytes, high) = {
            let mut st = self.staging.lock().expect("staging poisoned");
            (std::mem::take(&mut st.buf), st.next_lsn - 1)
        };
        if !bytes.is_empty() {
            inj_write(inj, &mut sink.file, &bytes, IoClass::AppendWrite)?;
            sink.since_fsync += (bytes.len() / record::FRAME_LEN) as u64;
        }
        let need_sync = match policy {
            CommitPolicy::Always => true,
            CommitPolicy::EveryN(n) => sink.since_fsync >= n,
            CommitPolicy::Off => false,
        };
        if need_sync {
            let t0 = rewiring::monotonic_ns();
            inj_fdatasync(inj, &sink.file)?;
            fsync_hist.record(rewiring::monotonic_ns().saturating_sub(t0));
            sink.since_fsync = 0;
        }
        self.committed.store(high, Ordering::Release);
        Ok(())
    }

    /// Post-checkpoint rotation: flush + sync the current file, start
    /// a fresh one, and delete files wholly covered by `cut`.
    pub fn rotate(&self, cut: u64, inj: &Option<Arc<FaultInjector>>) -> io::Result<()> {
        // Sink before staging — the same order `commit` takes them.
        let mut sink = self.sink.lock().expect("sink poisoned");
        let (bytes, high) = {
            let mut st = self.staging.lock().expect("staging poisoned");
            (std::mem::take(&mut st.buf), st.next_lsn - 1)
        };
        if !bytes.is_empty() {
            inj_write(inj, &mut sink.file, &bytes, IoClass::AppendWrite)?;
        }
        inj_fdatasync(inj, &sink.file)?;
        let start = high + 1;
        check_alive(inj)?;
        let file = File::create(self.dir.join(log_name(self.p, start)))?;
        sync_dir(&self.dir)?;
        *sink = LogFile {
            file,
            since_fsync: 0,
        };
        self.committed.store(high, Ordering::Release);
        drop(sink);

        let starts = list_log_starts(&self.dir, self.p)?;
        for pair in starts.windows(2) {
            if pair[1] <= cut + 1 {
                check_alive(inj)?;
                std::fs::remove_file(self.dir.join(log_name(self.p, pair[0]))).ok();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode, Decoded, FRAME_LEN};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rma-wal-seg-{}-{}-{name}",
            std::process::id(),
            rewiring::monotonic_ns()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        dir
    }

    #[test]
    fn log_names_roundtrip() {
        assert_eq!(parse_log_name(&log_name(3, 41)), Some((3, 41)));
        assert_eq!(parse_log_name("wal_3_41.log"), Some((3, 41)));
        assert_eq!(parse_log_name("ckpt_3_41.seg"), None);
        assert_eq!(parse_log_name("wal_x_41.log"), None);
        assert_eq!(parse_log_name("MANIFEST"), None);
    }

    #[test]
    fn append_commit_persists_decodable_records() {
        let dir = scratch("commit");
        let log = PartitionLog::create(&dir, 0, 1).expect("create");
        let hist = Histogram::new();
        assert_eq!(log.append(&[DurabilityOp::Insert(10, 1)]), 1);
        assert_eq!(log.append(&[DurabilityOp::Remove(10)]), 2);
        log.commit(CommitPolicy::Always, &None, &hist)
            .expect("commit");
        // A second commit with nothing staged is a no-op.
        log.commit(CommitPolicy::Always, &None, &hist)
            .expect("idle commit");
        assert_eq!(hist.count(), 1, "idle commit must not fsync");
        let bytes = std::fs::read(dir.join(log_name(0, 1))).expect("read log");
        assert_eq!(bytes.len(), 2 * FRAME_LEN);
        match decode(&bytes) {
            Decoded::Ok(r) => {
                assert_eq!(r.lsn, 1);
                assert_eq!(r.op, DurabilityOp::Insert(10, 1));
            }
            other => panic!("bad first record: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_n_defers_fsync() {
        let dir = scratch("everyn");
        let log = PartitionLog::create(&dir, 0, 1).expect("create");
        let hist = Histogram::new();
        for i in 0..3 {
            log.append(&[DurabilityOp::Insert(i, i)]);
            log.commit(CommitPolicy::EveryN(4), &None, &hist)
                .expect("commit");
        }
        assert_eq!(hist.count(), 0, "3 records < 4: no fsync yet");
        log.append(&[DurabilityOp::Insert(3, 3)]);
        log.commit(CommitPolicy::EveryN(4), &None, &hist)
            .expect("commit");
        assert_eq!(hist.count(), 1, "4th record crosses the threshold");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotate_starts_fresh_file_and_prunes_covered_ones() {
        let dir = scratch("rotate");
        let log = PartitionLog::create(&dir, 2, 1).expect("create");
        let hist = Histogram::new();
        for i in 0..5 {
            log.append(&[DurabilityOp::Insert(i, i)]);
        }
        log.commit(CommitPolicy::Always, &None, &hist)
            .expect("commit");
        // Checkpoint covered everything appended so far (cut = 5).
        log.rotate(5, &None).expect("rotate");
        assert_eq!(list_log_starts(&dir, 2).expect("list"), vec![6]);
        // New appends land in the new file; old cut only covers lsn<=5,
        // so a rotation at the old cut must keep the file holding 6.
        log.append(&[DurabilityOp::Insert(9, 9)]);
        log.commit(CommitPolicy::Always, &None, &hist)
            .expect("commit");
        log.rotate(5, &None).expect("rotate at stale cut");
        assert_eq!(list_log_starts(&dir, 2).expect("list"), vec![6, 7]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
