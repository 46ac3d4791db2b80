//! What the event loop needs that `std` has no type for: an epoll
//! set and an eventfd. Thin wrappers over the FFI declared in
//! `rewiring::libc`; the descriptors are owned by `std`'s `OwnedFd` /
//! `File`, and errors are the thread's `errno` as an [`io::Error`].
//! The sockets themselves are `std::net`'s, with the kernel's
//! autotuned send buffers.

use rewiring::libc;
use std::fs::File;
use std::io::{self, Write as _};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// A `-1` return as the thread's `errno`.
fn cvt(rc: libc::c_int) -> io::Result<libc::c_int> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// An epoll instance.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes no pointers; on success it
        // returns a new open descriptor nothing else owns, which is
        // what `OwnedFd::from_raw_fd` requires.
        let fd = unsafe { OwnedFd::from_raw_fd(cvt(libc::epoll_create1(libc::EPOLL_CLOEXEC))?) };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: libc::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        // SAFETY: `ev` is a live `epoll_event` for the whole call; the
        // kernel copies it in and keeps no pointer to it.
        cvt(unsafe { libc::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for `events`, tagged with `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd.as_raw_fd(), events, token)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd.as_raw_fd(), events, token)
    }

    /// Deregisters `fd`.
    pub(crate) fn del(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Blocks for ready events (`timeout_ms < 0` waits forever) and
    /// appends `(events, token)` pairs to `out`.
    pub(crate) fn wait(&self, out: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()> {
        const CAP: usize = 64;
        let mut buf = [libc::epoll_event { events: 0, u64: 0 }; CAP];
        let n = loop {
            // SAFETY: `buf` is `CAP` writable `epoll_event`s and the
            // kernel writes at most the `CAP` it is told.
            match cvt(unsafe {
                libc::epoll_wait(
                    self.fd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    CAP as libc::c_int,
                    timeout_ms,
                )
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &buf[..n] {
            // Copy out of the (packed on x86_64) struct by value.
            let events = ev.events;
            let token = ev.u64;
            out.push((events, token));
        }
        Ok(())
    }
}

/// An eventfd that wakes the epoll loop from another thread: the
/// server handle posts one to shut the loop down.
#[derive(Debug)]
pub(crate) struct EventFd {
    file: File,
}

impl EventFd {
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: `eventfd` takes no pointers; on success it returns a
        // new open descriptor nothing else owns, which is what
        // `File::from_raw_fd` requires.
        let file = unsafe {
            File::from_raw_fd(cvt(libc::eventfd(
                0,
                libc::EFD_CLOEXEC | libc::EFD_NONBLOCK,
            ))?)
        };
        Ok(EventFd { file })
    }

    /// Posts one wake-up. Safe from any thread; an `EAGAIN` (counter
    /// saturated) still leaves the fd readable, so it is ignored.
    pub(crate) fn signal(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().expect("epoll");
        let ef = EventFd::new().expect("eventfd");
        ep.add(&ef, rewiring::libc::EPOLLIN, 42).expect("add");
        let mut evs = Vec::new();
        ep.wait(&mut evs, 0).expect("wait");
        assert!(evs.is_empty(), "no signal yet");
        ef.signal();
        ef.signal();
        ep.wait(&mut evs, 1000).expect("wait");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].1, 42);
        // Not `EFD_SEMAPHORE`: one read takes the whole count.
        (&ef.file).read_exact(&mut [0u8; 8]).expect("drain");
        evs.clear();
        ep.wait(&mut evs, 0).expect("wait");
        assert!(evs.is_empty(), "drained");
    }
}
