//! Memory-rewiring substrate for the Rewired Memory Array.
//!
//! "Memory rewiring is a technique to explicitly control the mapping
//! between virtual (logic) addresses and their associated physical
//! pages" (RUMA, Schuhknecht et al., PVLDB 2016; §III of the RMA
//! paper). The RMA uses it so a rebalance performs **one** copy per
//! element: elements are redistributed from the array pages into spare
//! buffer pages, then the *virtual addresses* of the two page sets are
//! swapped — the freshly written physical pages become part of the
//! array and the stale ones become the new spare buffers.
//!
//! This crate implements that mechanism on Linux with
//! `memfd_create(2)` + `mmap(MAP_SHARED | MAP_FIXED)`:
//!
//! * a large virtual area is reserved once (`PROT_NONE`,
//!   `MAP_NORESERVE`) — the paper reserves 2^37 bytes;
//! * physical pages are file pages of one anonymous `memfd`, allocated
//!   on demand and tracked in a page table (virtual page → file page);
//! * *rewiring* a virtual page means re-`mmap`ing it at a different
//!   file offset, which is O(1) and copies nothing.
//!
//! When the syscalls are unavailable (non-Linux, seccomp, exotic
//! containers) the [`RewiredVec`] transparently falls back to a heap
//! backend with identical semantics where "swapping" degrades to one
//! `memcpy` per page — exactly the auxiliary-buffer rebalance the
//! paper's `-RWR` ablation measures (Fig. 13b).

pub mod clock;
pub mod crc;
pub mod file;
mod heap;
#[cfg(target_os = "linux")]
pub mod libc;
#[cfg(target_os = "linux")]
mod mmap;
mod vec;

pub use clock::monotonic_ns;
pub use vec::{BackendKind, RewireOptions, RewiredVec, Scalar};

/// Reports whether true (syscall-backed) rewiring works in this
/// process. Experiment drivers print this so `+RWR` rows in the output
/// are honest about what was measured.
pub fn rewiring_available() -> bool {
    #[cfg(target_os = "linux")]
    {
        mmap::probe()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_not_crash() {
        // The result depends on the sandbox; both outcomes are legal.
        let _ = rewiring_available();
    }
}
