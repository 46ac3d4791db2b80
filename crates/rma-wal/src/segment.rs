//! The one append log: a staging buffer filled under the engine's
//! shard locks and a group-committed file sink.
//!
//! # Why staging + sink are separate locks
//!
//! [`Log::append`] runs *inside* the engine's shard write guard, so it
//! must be cheap: take the staging mutex once for the whole slice of
//! ops, stamp consecutive LSNs from the one global sequence, encode
//! the slice as one frame (16 bytes plus 17 an op), done. No I/O ever
//! happens under an engine lock.
//!
//! [`Log::commit`] is the durability barrier. It serialises on the
//! sink mutex, drains whatever the staging buffer has accumulated,
//! writes it in one `write(2)` and fsyncs it — one file, one fsync,
//! on the caller's thread. The group-commit effect
//! falls out of the double-check: a thread that blocks on the sink
//! mutex while another thread is committing finds, once it gets the
//! lock, that its target LSN is already durable and returns without
//! touching the disk.
//!
//! # Log files and rotation
//!
//! The log lives in files named `wal_<start>.log`, where `<start>` is
//! the LSN of the first record the file may contain; records of every
//! key interleave in them. Sealing a checkpoint calls [`Log::rotate`]
//! before it commits the manifest: write and sync the current file,
//! then open a fresh one starting past everything appended so far, so
//! every record at or below the cuts just drawn is in a synced file.
//! Once the manifest is committed, [`Log::prune`] deletes the files
//! the smallest unit cut covers: a file goes iff its *successor's*
//! start LSN is `<= cut + 1` — every record it holds then has
//! `lsn <= cut` and is re-created by the checkpoint segment of its
//! key's unit. The current file is never deleted; appends that raced
//! past the cut live there.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rma_obs::Histogram;
use rma_shard::PointOp;

use crate::fault::{inj_fdatasync, inj_write, sync_dir, FaultInjector, IoClass};
use crate::record;

/// File name of the log file starting at LSN `start`.
pub(crate) fn log_name(start: u64) -> String {
    format!("wal_{start}.log")
}

/// Start LSNs of every log file in `dir`, sorted. A `wal_*.log` name
/// this version does not write (a per-partition log of an older
/// layout) is an error, not a file to skip: its records would be lost.
pub(crate) fn list_log_starts(dir: &Path) -> io::Result<Vec<u64>> {
    let mut starts = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(start) = name
            .strip_prefix("wal_")
            .and_then(|r| r.strip_suffix(".log"))
        {
            starts.push(start.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown log file {name}"),
                )
            })?);
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
    /// LSN of the first record the file may hold.
    start: u64,
}

/// The write-ahead log of every key.
pub(crate) struct Log {
    dir: PathBuf,
    staging: Mutex<Staging>,
    sink: Mutex<LogFile>,
    /// Highest LSN handed out by `append` (0 = none yet).
    appended: AtomicU64,
    /// Highest LSN known written and synced to the log file.
    committed: AtomicU64,
}

impl Log {
    /// Opens a fresh log file whose first record will be `next_lsn`.
    /// Used both at creation (`next_lsn = 1`) and after recovery
    /// (`next_lsn` = one past everything the log holds). The caller is
    /// responsible for syncing `dir` afterwards.
    pub fn create(dir: &Path, next_lsn: u64) -> io::Result<Self> {
        let file = File::create(dir.join(log_name(next_lsn)))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            staging: Mutex::new(Staging {
                buf: Vec::new(),
                next_lsn,
            }),
            sink: Mutex::new(LogFile {
                file,
                start: next_lsn,
            }),
            appended: AtomicU64::new(next_lsn - 1),
            committed: AtomicU64::new(next_lsn - 1),
        })
    }

    /// Stages `ops` as one frame under consecutive LSNs, in order, and
    /// returns the last LSN handed out; an empty slice stages nothing.
    /// One staging-lock acquisition, one encoding and one publication
    /// of `appended` for the whole slice. Called under the engine's
    /// shard write guard; does no I/O.
    pub fn append(&self, ops: &[PointOp]) -> u64 {
        let mut guard = self.staging.lock().expect("staging poisoned");
        let st = &mut *guard;
        if !ops.is_empty() {
            record::encode_into(&mut st.buf, st.next_lsn, ops);
            st.next_lsn += ops.len() as u64;
            self.appended.store(st.next_lsn - 1, Ordering::Release);
        }
        st.next_lsn - 1
    }

    /// Highest LSN handed out. Meaningful as a unit's checkpoint cut
    /// only while the engine shard that is the unit is locked (no
    /// append for its keys can race).
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Highest LSN a barrier has made durable (or a rotation synced).
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Durability barrier: everything appended before this call is in
    /// the log file and on disk when it returns.
    pub fn commit(
        &self,
        inj: &Option<Arc<FaultInjector>>,
        fsync_hist: &Histogram,
    ) -> io::Result<()> {
        let target = self.appended();
        if self.committed() >= target {
            return Ok(());
        }
        let mut sink = self.sink.lock().expect("sink poisoned");
        if self.committed() >= target {
            // Group commit: whoever held the sink while we blocked
            // already made our records durable.
            return Ok(());
        }
        let (bytes, high) = self.drain();
        if !bytes.is_empty() {
            inj_write(inj, &mut sink.file, &bytes, IoClass::AppendWrite)?;
        }
        let t0 = rewiring::monotonic_ns();
        inj_fdatasync(inj, &sink.file)?;
        fsync_hist.record(rewiring::monotonic_ns().saturating_sub(t0));
        self.committed.store(high, Ordering::Release);
        Ok(())
    }

    /// Takes the staged bytes and the highest LSN among them. Called
    /// under the sink lock (sink before staging, the one lock order).
    fn drain(&self) -> (Vec<u8>, u64) {
        let mut st = self.staging.lock().expect("staging poisoned");
        (std::mem::take(&mut st.buf), st.next_lsn - 1)
    }

    /// Checkpoint rotation: writes and syncs everything appended so
    /// far to the current file and opens the next one past it. A
    /// current file that holds no record stays current.
    pub fn rotate(&self, inj: &Option<Arc<FaultInjector>>) -> io::Result<()> {
        let mut sink = self.sink.lock().expect("sink poisoned");
        let (bytes, high) = self.drain();
        if sink.start > high {
            return Ok(());
        }
        if !bytes.is_empty() {
            inj_write(inj, &mut sink.file, &bytes, IoClass::AppendWrite)?;
        }
        inj_fdatasync(inj, &sink.file)?;
        check_alive(inj)?;
        let file = File::create(self.dir.join(log_name(high + 1)))?;
        sync_dir(&self.dir)?;
        *sink = LogFile {
            file,
            start: high + 1,
        };
        self.committed.store(high, Ordering::Release);
        Ok(())
    }

    /// Deletes the log files whose every record is at or below `cut`.
    pub fn prune(&self, cut: u64, inj: &Option<Arc<FaultInjector>>) -> io::Result<()> {
        let starts = list_log_starts(&self.dir)?;
        for pair in starts.windows(2).take_while(|pair| pair[1] <= cut + 1) {
            check_alive(inj)?;
            std::fs::remove_file(self.dir.join(log_name(pair[0]))).ok();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::decode;

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
        let dir = scratch("names");
        for name in [
            log_name(41),
            log_name(7),
            "ckpt_3_41.seg".into(),
            "MANIFEST".into(),
        ] {
            std::fs::write(dir.join(name), b"").expect("write");
        }
        assert_eq!(list_log_starts(&dir).expect("list"), vec![7, 41]);
        std::fs::write(dir.join("wal_0_4.log"), b"").expect("write");
        assert!(list_log_starts(&dir).is_err(), "a per-partition log name");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_commit_persists_decodable_records() {
        let dir = scratch("commit");
        let log = Log::create(&dir, 1).expect("create");
        let hist = Histogram::new();
        assert_eq!(log.append(&[PointOp::Insert(10, 1)]), 1);
        assert_eq!(log.append(&[PointOp::Remove(10)]), 2);
        assert_eq!(log.append(&[]), 2, "an empty slice stages nothing");
        log.commit(&None, &hist).expect("commit");
        // A second commit with nothing staged is a no-op.
        log.commit(&None, &hist).expect("idle commit");
        assert_eq!(hist.count(), 1, "idle commit must not fsync");
        let bytes = std::fs::read(dir.join(log_name(1))).expect("read log");
        let (lsn, ops, len) = decode(&bytes).expect("a clean first frame");
        assert_eq!((lsn, ops), (1, vec![PointOp::Insert(10, 1)]));
        assert_eq!(
            decode(&bytes[len..]),
            Some((2, vec![PointOp::Remove(10)], bytes.len() - len))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotate_starts_fresh_file_and_prunes_covered_ones() {
        let dir = scratch("rotate");
        let log = Log::create(&dir, 1).expect("create");
        for i in 0..5 {
            log.append(&[PointOp::Insert(i, i)]);
        }
        // Rotation writes and syncs what no barrier committed yet.
        log.rotate(&None).expect("rotate");
        assert_eq!(log.committed(), 5);
        assert_eq!(list_log_starts(&dir).expect("list"), vec![1, 6]);
        // The current file holds nothing yet: it stays current.
        log.rotate(&None).expect("idle rotate");
        assert_eq!(list_log_starts(&dir).expect("list"), vec![1, 6]);
        // A cut below 5 leaves the file holding 1..=5 in place.
        log.prune(4, &None).expect("prune");
        assert_eq!(list_log_starts(&dir).expect("list"), vec![1, 6]);
        log.prune(5, &None).expect("prune");
        assert_eq!(list_log_starts(&dir).expect("list"), vec![6]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
