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
pub mod frame;
mod heap;
#[cfg(target_os = "linux")]
pub mod libc;
#[cfg(target_os = "linux")]
mod mmap;
mod vec;

pub use clock::monotonic_ns;
pub use vec::{BackendKind, RewireOptions, RewiredVec, Scalar};

/// Hints the CPU to pull the cache line holding `slice[idx]` into
/// every cache level (x86-64 `PREFETCHT0`; a no-op elsewhere). `idx`
/// past the end is clamped to one-past-the-end. Purely a hint: it
/// reads nothing, so it is the tool for starting a miss early on a
/// line whose address is known before its content is needed — the
/// RMA's segment runs, a tree's next leaf.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        let p = slice.as_ptr().wrapping_add(idx.min(slice.len()));
        // SAFETY: `p` lies inside or one past the live `slice`, and a
        // prefetch of such an address never faults and has no
        // architectural effect — it neither reads nor writes memory
        // as far as the abstract machine is concerned.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>())
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

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
    fn prefetch_accepts_any_index() {
        let v = [1u64, 2, 3];
        for idx in [0, 2, 3, usize::MAX] {
            prefetch(&v, idx);
        }
        prefetch::<u64>(&[], 0);
        assert_eq!(v, [1, 2, 3]);
    }

    #[test]
    fn probe_does_not_crash() {
        // The result depends on the sandbox; both outcomes are legal.
        let _ = rewiring_available();
    }
}
