//! Minimal in-crate replacement for the `libc` crate.
//!
//! The build environment has no crates.io registry, so the real `libc`
//! cannot be resolved. This module declares exactly the types,
//! constants and functions the workspace uses where `std` has no
//! equivalent — the `mmap.rs` memory surface, the monotonic clock,
//! `rma-net`'s epoll / eventfd, and the socket calls
//! `tests/net.rs` needs to clamp `SO_RCVBUF` before it connects —
//! with the generic Linux values shared by x86_64 and aarch64 (the
//! only targets this reproduction runs on).

#![allow(non_camel_case_types, non_upper_case_globals)]

pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_void = std::ffi::c_void;
pub type off_t = i64;
pub type size_t = usize;
pub type socklen_t = u32;
pub type sa_family_t = u16;

pub const _SC_PAGESIZE: c_int = 30;

pub const CLOCK_MONOTONIC: c_int = 1;

#[repr(C)]
pub struct timespec {
    pub tv_sec: c_long,
    pub tv_nsec: c_long,
}

pub const PROT_NONE: c_int = 0;
pub const PROT_READ: c_int = 1;
pub const PROT_WRITE: c_int = 2;

pub const MAP_SHARED: c_int = 0x01;
pub const MAP_PRIVATE: c_int = 0x02;
pub const MAP_FIXED: c_int = 0x10;
pub const MAP_ANONYMOUS: c_int = 0x20;
pub const MAP_NORESERVE: c_int = 0x4000;
pub const MAP_POPULATE: c_int = 0x8000;
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

pub const MFD_CLOEXEC: c_uint = 0x0001;

pub const FALLOC_FL_KEEP_SIZE: c_int = 0x01;
pub const FALLOC_FL_PUNCH_HOLE: c_int = 0x02;

#[cfg(target_arch = "x86_64")]
pub const SYS_memfd_create: c_long = 319;
#[cfg(target_arch = "aarch64")]
pub const SYS_memfd_create: c_long = 279;

// ------------------------------------------------------ networking --

pub const AF_INET: c_int = 2;
pub const SOCK_STREAM: c_int = 1;

pub const SOL_SOCKET: c_int = 1;
pub const SO_RCVBUF: c_int = 8;

pub const INADDR_LOOPBACK: u32 = 0x7F00_0001;

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EFD_CLOEXEC: c_int = 0o2000000;
pub const EFD_NONBLOCK: c_int = 0o4000;

#[repr(C)]
#[derive(Clone, Copy)]
pub struct in_addr {
    /// IPv4 address in network byte order.
    pub s_addr: u32,
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in {
    pub sin_family: sa_family_t,
    /// Port in network byte order.
    pub sin_port: u16,
    pub sin_addr: in_addr,
    pub sin_zero: [u8; 8],
}

/// Generic socket-address header, used only as the pointee type of
/// `connect` (callers pass `sockaddr_in` casts).
#[repr(C)]
pub struct sockaddr {
    pub sa_family: sa_family_t,
    pub sa_data: [u8; 14],
}

/// The kernel packs `epoll_event` on x86_64 (a 12-byte struct); every
/// other architecture uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

extern "C" {
    pub fn clock_gettime(clockid: c_int, tp: *mut timespec) -> c_int;
    pub fn sysconf(name: c_int) -> c_long;
    pub fn syscall(num: c_long, ...) -> c_long;
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn fallocate(fd: c_int, mode: c_int, offset: off_t, len: off_t) -> c_int;

    // networking (`rma-net`'s epoll loop, `tests/net.rs`'s clamped client)
    pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    pub fn connect(sockfd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    pub fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: socklen_t,
    ) -> c_int;
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}
