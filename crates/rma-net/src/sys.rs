//! Thin safe wrappers over the raw socket/epoll/eventfd FFI surface
//! declared in `rewiring::libc`. Everything here is loopback-scoped:
//! the listener binds `127.0.0.1` only — this is a reproduction's
//! network front-end, not an internet-facing daemon.

use rewiring::libc;
use std::io;

/// The calling thread's `errno`.
pub fn errno() -> i32 {
    unsafe { *libc::__errno_location() }
}

fn last_err() -> io::Error {
    io::Error::from_raw_os_error(errno())
}

/// A file descriptor closed on drop.
#[derive(Debug)]
pub struct OwnedFd {
    fd: libc::c_int,
}

/// Outcome of one non-blocking read/write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStep {
    /// Bytes moved.
    Bytes(usize),
    /// The peer closed its end (reads only).
    Closed,
    /// The kernel buffer is empty/full; wait for epoll.
    WouldBlock,
}

impl OwnedFd {
    /// Wraps a raw descriptor, taking ownership.
    pub fn from_raw(fd: libc::c_int) -> OwnedFd {
        debug_assert!(fd >= 0);
        OwnedFd { fd }
    }

    /// The raw descriptor (still owned here).
    pub fn raw(&self) -> libc::c_int {
        self.fd
    }

    /// One `read(2)`, `EINTR` retried.
    pub fn read(&self, buf: &mut [u8]) -> io::Result<IoStep> {
        loop {
            let n =
                unsafe { libc::read(self.fd, buf.as_mut_ptr() as *mut libc::c_void, buf.len()) };
            if n > 0 {
                return Ok(IoStep::Bytes(n as usize));
            }
            if n == 0 {
                return Ok(IoStep::Closed);
            }
            match errno() {
                libc::EINTR => continue,
                libc::EAGAIN => return Ok(IoStep::WouldBlock),
                _ => return Err(last_err()),
            }
        }
    }

    /// Clamps the socket's kernel send buffer (`SO_SNDBUF`), which
    /// also disables sndbuf autotuning — the knob that makes
    /// per-connection backpressure bite at a predictable byte count.
    /// The kernel doubles the value it is given.
    pub fn set_sndbuf(&self, bytes: usize) -> io::Result<()> {
        let val = bytes as libc::c_int;
        let rc = unsafe {
            libc::setsockopt(
                self.fd,
                libc::SOL_SOCKET,
                libc::SO_SNDBUF,
                &val as *const libc::c_int as *const libc::c_void,
                std::mem::size_of::<libc::c_int>() as libc::socklen_t,
            )
        };
        if rc != 0 {
            return Err(last_err());
        }
        Ok(())
    }

    /// One `write(2)`, `EINTR` retried.
    pub fn write(&self, buf: &[u8]) -> io::Result<IoStep> {
        loop {
            let n = unsafe { libc::write(self.fd, buf.as_ptr() as *const libc::c_void, buf.len()) };
            if n >= 0 {
                return Ok(IoStep::Bytes(n as usize));
            }
            match errno() {
                libc::EINTR => continue,
                libc::EAGAIN => return Ok(IoStep::WouldBlock),
                _ => return Err(last_err()),
            }
        }
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        unsafe { libc::close(self.fd) };
    }
}

fn loopback_addr(port: u16) -> libc::sockaddr_in {
    libc::sockaddr_in {
        sin_family: libc::AF_INET as libc::sa_family_t,
        sin_port: port.to_be(),
        sin_addr: libc::in_addr {
            s_addr: libc::INADDR_LOOPBACK.to_be(),
        },
        sin_zero: [0; 8],
    }
}

/// A non-blocking TCP listener bound to `127.0.0.1`.
#[derive(Debug)]
pub struct Listener {
    fd: OwnedFd,
    port: u16,
}

impl Listener {
    /// Binds and listens on loopback. Port `0` asks the kernel for an
    /// ephemeral port; [`port`](Self::port) reports the resolved one.
    pub fn bind_loopback(port: u16) -> io::Result<Listener> {
        let raw = unsafe { libc::socket(libc::AF_INET, libc::SOCK_STREAM | libc::SOCK_CLOEXEC, 0) };
        if raw < 0 {
            return Err(last_err());
        }
        let fd = OwnedFd::from_raw(raw);
        let one: libc::c_int = 1;
        let rc = unsafe {
            libc::setsockopt(
                fd.raw(),
                libc::SOL_SOCKET,
                libc::SO_REUSEADDR,
                &one as *const libc::c_int as *const libc::c_void,
                std::mem::size_of::<libc::c_int>() as libc::socklen_t,
            )
        };
        if rc != 0 {
            return Err(last_err());
        }
        // Flip to non-blocking via fcntl rather than SOCK_NONBLOCK at
        // creation: exercises both paths of the FFI surface.
        let flags = unsafe { libc::fcntl(fd.raw(), libc::F_GETFL) };
        if flags < 0 {
            return Err(last_err());
        }
        if unsafe { libc::fcntl(fd.raw(), libc::F_SETFL, flags | libc::O_NONBLOCK) } < 0 {
            return Err(last_err());
        }
        let addr = loopback_addr(port);
        let rc = unsafe {
            libc::bind(
                fd.raw(),
                &addr as *const libc::sockaddr_in as *const libc::sockaddr,
                std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
            )
        };
        if rc != 0 {
            return Err(last_err());
        }
        if unsafe { libc::listen(fd.raw(), 128) } != 0 {
            return Err(last_err());
        }
        let mut bound = loopback_addr(0);
        let mut len = std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t;
        let rc = unsafe {
            libc::getsockname(
                fd.raw(),
                &mut bound as *mut libc::sockaddr_in as *mut libc::sockaddr,
                &mut len,
            )
        };
        if rc != 0 {
            return Err(last_err());
        }
        Ok(Listener {
            fd,
            port: u16::from_be(bound.sin_port),
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> libc::c_int {
        self.fd.raw()
    }

    /// Accepts one pending connection as a non-blocking, cloexec,
    /// `TCP_NODELAY` socket; `None` when the backlog is empty.
    pub fn accept(&self) -> io::Result<Option<OwnedFd>> {
        let raw = unsafe {
            libc::accept4(
                self.fd.raw(),
                std::ptr::null_mut(),
                std::ptr::null_mut(),
                libc::SOCK_NONBLOCK | libc::SOCK_CLOEXEC,
            )
        };
        if raw < 0 {
            return match errno() {
                libc::EAGAIN | libc::EINTR => Ok(None),
                _ => Err(last_err()),
            };
        }
        let conn = OwnedFd::from_raw(raw);
        let one: libc::c_int = 1;
        // Replies are latency-sensitive and framed by the protocol, so
        // Nagle only adds delay. Failure is non-fatal.
        unsafe {
            libc::setsockopt(
                conn.raw(),
                libc::IPPROTO_TCP,
                libc::TCP_NODELAY,
                &one as *const libc::c_int as *const libc::c_void,
                std::mem::size_of::<libc::c_int>() as libc::socklen_t,
            );
        }
        Ok(Some(conn))
    }
}

/// An epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let raw = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if raw < 0 {
            return Err(last_err());
        }
        Ok(Epoll {
            fd: OwnedFd::from_raw(raw),
        })
    }

    fn ctl(&self, op: libc::c_int, fd: libc::c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        let rc = unsafe { libc::epoll_ctl(self.fd.raw(), op, fd, &mut ev) };
        if rc != 0 {
            return Err(last_err());
        }
        Ok(())
    }

    /// Registers `fd` for `events`, tagged with `token`.
    pub fn add(&self, fd: libc::c_int, events: u32, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: libc::c_int, events: u32, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn del(&self, fd: libc::c_int) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks for ready events (`timeout_ms < 0` waits forever) and
    /// appends `(events, token)` pairs to `out`.
    pub fn wait(&self, out: &mut Vec<(u32, u64)>, timeout_ms: i32) -> io::Result<()> {
        const CAP: usize = 64;
        let mut buf = [libc::epoll_event { events: 0, u64: 0 }; CAP];
        let n = loop {
            let n = unsafe {
                libc::epoll_wait(
                    self.fd.raw(),
                    buf.as_mut_ptr(),
                    CAP as libc::c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break n as usize;
            }
            if errno() != libc::EINTR {
                return Err(last_err());
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

/// An eventfd used to wake the epoll loop from other threads
/// (ticket-completion wakers, shutdown).
#[derive(Debug)]
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let raw = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if raw < 0 {
            return Err(last_err());
        }
        Ok(EventFd {
            fd: OwnedFd::from_raw(raw),
        })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> libc::c_int {
        self.fd.raw()
    }

    /// Posts one wake-up. Safe from any thread; an `EAGAIN` (counter
    /// saturated) still leaves the fd readable, so it is ignored.
    pub fn signal(&self) {
        let one: u64 = 1;
        let _ = self.fd.write(&one.to_ne_bytes());
    }

    /// Consumes all pending wake-ups: the fd is not `EFD_SEMAPHORE`,
    /// so one read returns the whole count and zeroes it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = self.fd.read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listener_resolves_an_ephemeral_port() {
        let l = Listener::bind_loopback(0).expect("bind");
        assert_ne!(l.port(), 0);
        // Backlog empty: non-blocking accept reports no connection.
        assert!(l.accept().expect("accept probe").is_none());
    }

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().expect("epoll");
        let ef = EventFd::new().expect("eventfd");
        ep.add(ef.raw(), rewiring::libc::EPOLLIN, 42).expect("add");
        let mut evs = Vec::new();
        ep.wait(&mut evs, 0).expect("wait");
        assert!(evs.is_empty(), "no signal yet");
        ef.signal();
        ef.signal();
        ep.wait(&mut evs, 1000).expect("wait");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].1, 42);
        ef.drain();
        evs.clear();
        ep.wait(&mut evs, 0).expect("wait");
        assert!(evs.is_empty(), "drained");
    }

    #[test]
    fn loopback_roundtrip_via_std_client() {
        let l = Listener::bind_loopback(0).expect("bind");
        let client = std::net::TcpStream::connect(("127.0.0.1", l.port())).expect("connect");
        // Accept may race the handshake; poll briefly.
        let conn = loop {
            if let Some(c) = l.accept().expect("accept") {
                break c;
            }
            std::thread::yield_now();
        };
        use std::io::Write as _;
        let mut client = client;
        client.write_all(b"ping").expect("send");
        let mut buf = [0u8; 16];
        let got = loop {
            match conn.read(&mut buf).expect("read") {
                IoStep::Bytes(n) => break n,
                IoStep::WouldBlock => std::thread::yield_now(),
                IoStep::Closed => panic!("client closed early"),
            }
        };
        assert_eq!(&buf[..got], b"ping");
        assert_eq!(conn.write(b"pong").expect("write"), IoStep::Bytes(4));
        use std::io::Read as _;
        let mut back = [0u8; 4];
        client.read_exact(&mut back).expect("recv");
        assert_eq!(&back, b"pong");
    }
}
