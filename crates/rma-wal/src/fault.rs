//! Deterministic fault injection for the durability I/O path.
//!
//! Every write, fsync, and rename the WAL issues is funnelled through
//! the `inj_*` helpers below, each tagged with an [`IoClass`]. A test
//! arms a [`FaultInjector`] with a countdown `k` and a [`FaultMode`];
//! the k-th I/O operation then misbehaves:
//!
//! * [`FaultMode::Kill`] — simulate a crash *mid-operation*: a write
//!   persists only half its bytes (a torn tail), an fsync or rename
//!   silently does nothing, and **every subsequent I/O fails** — the
//!   process is "dead", nothing it does after the kill-point can reach
//!   disk. Recovery then runs against exactly what a real crash would
//!   have left behind.
//! * [`FaultMode::BitFlip`] — flip one bit of the payload and let the
//!   write succeed. The fault is *silent* at write time; the checksum
//!   layer must catch it at recovery.
//! * [`FaultMode::Error`] — the operation fails cleanly (`EIO`-style)
//!   with no on-disk effect, and later I/O proceeds normally. This
//!   exercises graceful degradation rather than crash recovery.
//!
//! Because the countdown is a plain decrementing counter and WAL I/O
//! order is deterministic for a single-threaded workload, a seed `k`
//! identifies one precise kill-point; sweeping `k` walks the fault
//! site through every append, fsync, seal, and rename in the run.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the armed fault does when the countdown reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Crash mid-operation; all later I/O freezes.
    Kill,
    /// Corrupt one bit of a write, silently succeed.
    BitFlip,
    /// Fail the one operation cleanly; later I/O is unaffected.
    Error,
}

/// Which kind of durability I/O an injected operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// A log-segment append write.
    AppendWrite,
    /// Any fsync/fdatasync (log, segment, manifest, or directory).
    Fsync,
    /// A checkpoint segment or manifest temp-file write.
    SealWrite,
    /// The atomic manifest/segment rename, or the directory sync that
    /// makes renames durable.
    ManifestRename,
}

/// A seeded, one-shot fault: fires on the N-th instrumented I/O.
#[derive(Debug)]
pub struct FaultInjector {
    countdown: AtomicU64,
    mode: FaultMode,
    dead: AtomicBool,
    fired: Mutex<Option<IoClass>>,
}

impl FaultInjector {
    /// Arms a fault that fires on the `fire_after`-th instrumented
    /// operation (1 = the very next one). A countdown larger than the
    /// run's total I/O count simply never fires.
    pub fn new(fire_after: u64, mode: FaultMode) -> Arc<Self> {
        Arc::new(Self {
            countdown: AtomicU64::new(fire_after),
            mode,
            dead: AtomicBool::new(false),
            fired: Mutex::new(None),
        })
    }

    /// The class of the operation the fault fired on, if it has.
    pub fn fired(&self) -> Option<IoClass> {
        *self.fired.lock().expect("fault injector poisoned")
    }

    /// True once a `Kill` fault has fired: the simulated process is
    /// dead and all further instrumented I/O fails.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Decides the fate of one instrumented operation.
    fn trip(&self, class: IoClass) -> Trip {
        if self.is_dead() {
            return Trip::Dead;
        }
        // fetch_sub wraps; only the exact 1 -> 0 transition fires, so a
        // countdown past the run's I/O total stays inert.
        if self.countdown.fetch_sub(1, Ordering::AcqRel) != 1 {
            return Trip::Pass;
        }
        *self.fired.lock().expect("fault injector poisoned") = Some(class);
        match self.mode {
            FaultMode::Kill => {
                self.dead.store(true, Ordering::Release);
                Trip::Kill
            }
            FaultMode::BitFlip => Trip::BitFlip,
            FaultMode::Error => Trip::Error,
        }
    }
}

enum Trip {
    Pass,
    Dead,
    Kill,
    BitFlip,
    Error,
}

fn dead_err() -> io::Error {
    io::Error::other("fault injection: process is dead")
}

fn injected_err() -> io::Error {
    io::Error::other("fault injection: injected I/O error")
}

/// Writes `buf` to `file`, subject to injection. A `Kill` here
/// persists only the first half of `buf` — the torn tail recovery must
/// chop off. A `BitFlip` corrupts one byte and "succeeds".
pub(crate) fn inj_write(
    inj: &Option<Arc<FaultInjector>>,
    file: &mut File,
    buf: &[u8],
    class: IoClass,
) -> io::Result<()> {
    let Some(inj) = inj else {
        return file.write_all(buf);
    };
    match inj.trip(class) {
        Trip::Pass => file.write_all(buf),
        Trip::Dead => Err(dead_err()),
        Trip::Error => Err(injected_err()),
        Trip::Kill => {
            file.write_all(&buf[..buf.len() / 2])?;
            Err(dead_err())
        }
        Trip::BitFlip => {
            let mut bad = buf.to_vec();
            if !bad.is_empty() {
                let mid = bad.len() / 2;
                bad[mid] ^= 0x40;
            }
            file.write_all(&bad)
        }
    }
}

/// Runs `op`, one instrumented I/O of `class`, unless the injector
/// trips on it: a `Kill` or an `Error` replaces it, and a `BitFlip`,
/// having no payload to flip here, lets it run.
fn guarded(
    inj: &Option<Arc<FaultInjector>>,
    class: IoClass,
    op: impl FnOnce() -> io::Result<()>,
) -> io::Result<()> {
    match inj.as_ref().map_or(Trip::Pass, |inj| inj.trip(class)) {
        Trip::Pass | Trip::BitFlip => op(),
        Trip::Dead | Trip::Kill => Err(dead_err()),
        Trip::Error => Err(injected_err()),
    }
}

/// `fdatasync(file)` ([`File::sync_data`]), subject to injection
/// ([`IoClass::Fsync`]). A `Kill` here skips the sync — for the
/// in-process simulation the preceding write already reached the
/// "disk" (the file), so the observable effect is just the crash
/// point.
pub(crate) fn inj_fdatasync(inj: &Option<Arc<FaultInjector>>, file: &File) -> io::Result<()> {
    guarded(inj, IoClass::Fsync, || file.sync_data())
}

/// `fsync(file)` ([`File::sync_all`]), subject to injection
/// ([`IoClass::Fsync`]).
pub(crate) fn inj_fsync(inj: &Option<Arc<FaultInjector>>, file: &File) -> io::Result<()> {
    guarded(inj, IoClass::Fsync, || file.sync_all())
}

/// Fsyncs a directory so a just-completed `rename(2)` or file
/// creation inside it survives a crash.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// `rename(from, to)`, subject to injection
/// ([`IoClass::ManifestRename`]): the atomic commit point of a file,
/// durable once [`inj_sync_dir`] has synced its directory.
pub(crate) fn inj_rename(
    inj: &Option<Arc<FaultInjector>>,
    from: &Path,
    to: &Path,
) -> io::Result<()> {
    guarded(inj, IoClass::ManifestRename, || std::fs::rename(from, to))
}

/// [`sync_dir`], subject to injection ([`IoClass::ManifestRename`]):
/// it makes every rename before it in `dir` durable at once.
pub(crate) fn inj_sync_dir(inj: &Option<Arc<FaultInjector>>, dir: &Path) -> io::Result<()> {
    guarded(inj, IoClass::ManifestRename, || sync_dir(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rma-wal-fault-{}-{}-{name}",
            std::process::id(),
            rewiring::monotonic_ns()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        dir
    }

    #[test]
    fn kill_tears_the_write_and_freezes_io() {
        let dir = scratch("kill");
        let path = dir.join("log");
        let mut f = File::create(&path).expect("create");
        let inj = Some(FaultInjector::new(2, FaultMode::Kill));
        inj_write(&inj, &mut f, &[1u8; 8], IoClass::AppendWrite).expect("first write passes");
        let err = inj_write(&inj, &mut f, &[2u8; 8], IoClass::AppendWrite);
        assert!(err.is_err(), "kill-point write must fail");
        assert!(inj.as_ref().unwrap().is_dead());
        assert_eq!(inj.as_ref().unwrap().fired(), Some(IoClass::AppendWrite));
        // Half of the second write landed: 8 + 4 bytes on disk.
        let mut got = Vec::new();
        File::open(&path)
            .expect("open")
            .read_to_end(&mut got)
            .expect("read");
        assert_eq!(got, [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2]);
        // Dead: even a sync on an untouched file now fails.
        assert!(inj_fdatasync(&inj, &f).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_succeeds_but_corrupts_one_byte() {
        let dir = scratch("flip");
        let path = dir.join("log");
        let mut f = File::create(&path).expect("create");
        let inj = Some(FaultInjector::new(1, FaultMode::BitFlip));
        inj_write(&inj, &mut f, &[0u8; 9], IoClass::AppendWrite).expect("flip write succeeds");
        assert!(!inj.as_ref().unwrap().is_dead());
        let mut got = Vec::new();
        File::open(&path)
            .expect("open")
            .read_to_end(&mut got)
            .expect("read");
        assert_eq!(got.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(got[4], 0x40);
        // Later I/O is clean.
        inj_write(&inj, &mut f, &[7u8; 3], IoClass::AppendWrite).expect("next write clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_mode_fails_once_without_side_effects() {
        let dir = scratch("err");
        let path = dir.join("log");
        let mut f = File::create(&path).expect("create");
        let inj = Some(FaultInjector::new(1, FaultMode::Error));
        assert!(inj_write(&inj, &mut f, &[3u8; 4], IoClass::AppendWrite).is_err());
        assert!(!inj.as_ref().unwrap().is_dead());
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0);
        inj_write(&inj, &mut f, &[3u8; 4], IoClass::AppendWrite).expect("recovers");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rename_kill_leaves_source_in_place() {
        let dir = scratch("ren");
        let from = dir.join("MANIFEST.tmp");
        let to = dir.join("MANIFEST");
        std::fs::write(&from, b"m").expect("write tmp");
        let inj = Some(FaultInjector::new(1, FaultMode::Kill));
        assert!(inj_rename(&inj, &from, &to).is_err());
        assert!(from.exists() && !to.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
