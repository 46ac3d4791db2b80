//! Linux implementation of rewiring: one `memfd` provides physical
//! pages, a `PROT_NONE` reservation provides stable virtual addresses,
//! and `mmap(MAP_FIXED)` re-wires individual pages in O(1).
//!
//! This is the only module in the workspace that issues raw syscalls;
//! all `unsafe` is concentrated here behind a safe interface.

use crate::libc;
use std::io;
use std::ptr;

/// A contiguous virtual-address reservation whose pages can be wired
/// to arbitrary file pages of a private `memfd`.
#[derive(Debug)]
pub struct MmapRegion {
    /// Base of the reserved virtual area.
    base: *mut u8,
    /// Total reserved bytes (multiple of `page_bytes`).
    reserve_bytes: usize,
    /// Logical page size in bytes (multiple of the kernel page size).
    page_bytes: usize,
    /// Backing file descriptor (`memfd_create`).
    fd: libc::c_int,
    /// Current size of the backing file in pages.
    file_pages: usize,
    /// Page table: virtual page index → file page index, or
    /// `UNMAPPED`.
    table: Vec<u64>,
    /// Free file pages available for reuse, most recently freed last.
    free_file_pages: Vec<FreePage>,
    /// Makes every hole punch report failure (and skip the syscall), so
    /// a test can watch `wire` zero a page that still holds old bytes.
    #[cfg(test)]
    fail_punch: bool,
}

const UNMAPPED: u64 = u64::MAX;

/// A file page no virtual page is wired to.
#[derive(Debug, Clone, Copy)]
struct FreePage {
    fp: u64,
    /// The hole punch that freed it succeeded: the kernel dropped the
    /// content and the next mapping reads as zeroes without our help.
    zeroed: bool,
}

/// Length of the leading run of `fps` that is contiguous in the file —
/// what one `mmap` or one `fallocate` can cover.
fn file_run_len(fps: &[u64]) -> usize {
    1 + fps.windows(2).take_while(|w| w[1] == w[0] + 1).count()
}

// The region owns its mapping and fd exclusively; raw pointers are
// only dereferenced through &self/&mut self methods. There is no
// interior mutability: every page-table or mapping change takes
// `&mut self`, so shared `&self` access from multiple threads (e.g.
// under an `RwLock` read guard) is sound.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

/// Returns true if `memfd_create` + `MAP_FIXED` rewiring works here.
pub fn probe() -> bool {
    let kernel_page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
    match MmapRegion::new(kernel_page, kernel_page * 4, true) {
        Ok(mut r) => {
            // Exercise an actual wire + swap round trip.
            if r.wire(0, 2).is_err() {
                return false;
            }
            unsafe {
                *r.page_ptr(0) = 0xAB;
                *r.page_ptr(1) = 0xCD;
            }
            if r.swap(0, 1).is_err() {
                return false;
            }
            unsafe { *r.page_ptr(0) == 0xCD && *r.page_ptr(1) == 0xAB }
        }
        Err(_) => false,
    }
}

impl MmapRegion {
    /// Reserves `reserve_bytes` of virtual space with logical pages of
    /// `page_bytes` and creates the backing `memfd`. No physical
    /// memory is committed yet.
    pub fn new(page_bytes: usize, reserve_bytes: usize, huge_pages: bool) -> io::Result<Self> {
        let kernel_page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
        assert!(page_bytes >= kernel_page && page_bytes.is_multiple_of(kernel_page));
        assert!(reserve_bytes.is_multiple_of(page_bytes) && reserve_bytes > 0);

        let fd = unsafe {
            libc::syscall(
                libc::SYS_memfd_create,
                c"rma-rewiring".as_ptr(),
                libc::MFD_CLOEXEC as libc::c_uint,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd = fd as libc::c_int;

        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                reserve_bytes,
                libc::PROT_NONE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            let err = io::Error::last_os_error();
            unsafe { libc::close(fd) };
            return Err(err);
        }
        // Huge pages are a best-effort hint, as in the paper's 2 MB
        // huge-page setup; ignore failure. Opt-out exists because
        // `defrag=madvise` kernels compact synchronously on fault.
        if huge_pages {
            unsafe {
                libc::madvise(base, reserve_bytes, libc::MADV_HUGEPAGE);
            }
        }

        Ok(MmapRegion {
            base: base as *mut u8,
            reserve_bytes,
            page_bytes,
            fd,
            file_pages: 0,
            table: vec![UNMAPPED; reserve_bytes / page_bytes],
            free_file_pages: Vec::new(),
            #[cfg(test)]
            fail_punch: false,
        })
    }

    /// Logical page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of logical pages in the reservation.
    pub fn max_pages(&self) -> usize {
        self.reserve_bytes / self.page_bytes
    }

    /// Pointer to the start of virtual page `vp`. The page must have
    /// been wired before the pointer is dereferenced.
    ///
    /// # Safety
    /// Dereferencing requires `vp` to be wired.
    pub unsafe fn page_ptr(&self, vp: usize) -> *mut u8 {
        debug_assert!(vp < self.max_pages());
        self.base.add(vp * self.page_bytes)
    }

    /// True if virtual page `vp` currently has a physical page.
    #[allow(dead_code)] // part of the region API; exercised in tests
    pub fn is_wired(&self, vp: usize) -> bool {
        self.table[vp] != UNMAPPED
    }

    /// Number of file pages ever allocated minus those on the free
    /// list — i.e. physical pages currently wired somewhere.
    pub fn wired_pages(&self) -> usize {
        self.file_pages - self.free_file_pages.len()
    }

    /// Wires `count` virtual pages starting at `first`, committing
    /// zeroed physical pages for any that are unmapped: the file grows
    /// once for the whole call and each virtually contiguous gap is
    /// mapped through [`map_run`](Self::map_run).
    ///
    /// Free pages are reused newest first but *in the order they were
    /// freed*, so un-wiring a range and wiring it again restores the
    /// same mapping — file-contiguous, one `mmap`, if it was before. A
    /// punched page comes back from the kernel as zeroes; only a page
    /// whose punch failed is cleared here.
    pub fn wire(&mut self, first: usize, count: usize) -> io::Result<()> {
        let end = first + count;
        assert!(end <= self.max_pages());
        let unmapped = self.table[first..end]
            .iter()
            .filter(|&&fp| fp == UNMAPPED)
            .count();
        let reused = unmapped.min(self.free_file_pages.len());
        let fresh = unmapped - reused;
        if fresh > 0 {
            let new_size = (self.file_pages + fresh) * self.page_bytes;
            // SAFETY: plain syscall on the fd this region owns.
            let rc = unsafe { libc::ftruncate(self.fd, new_size as libc::off_t) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        let mut pages = self
            .free_file_pages
            .split_off(self.free_file_pages.len() - reused);
        pages.extend(
            (self.file_pages..self.file_pages + fresh).map(|fp| FreePage {
                fp: fp as u64,
                zeroed: true,
            }),
        );
        self.file_pages += fresh;

        let mut taken = 0;
        let mut vp = first;
        while vp < end {
            if self.table[vp] != UNMAPPED {
                vp += 1;
                continue;
            }
            let gap = self.table[vp..end]
                .iter()
                .take_while(|&&fp| fp == UNMAPPED)
                .count();
            let run = &pages[taken..taken + gap];
            let fps: Vec<u64> = run.iter().map(|p| p.fp).collect();
            if let Err(e) = self.map_run(vp, &fps) {
                // The gap may be partly mapped, but its table entries
                // stay UNMAPPED so nothing reads through it; its pages
                // go back on the free list with the rest.
                self.free_file_pages.extend_from_slice(&pages[taken..]);
                return Err(e);
            }
            self.table[vp..vp + gap].copy_from_slice(&fps);
            for (i, page) in run.iter().enumerate() {
                if !page.zeroed {
                    // SAFETY: `vp + i` was mapped read-write for
                    // `page_bytes` bytes by the `map_run` above, and
                    // `&mut self` excludes every other access to it.
                    unsafe { ptr::write_bytes(self.page_ptr(vp + i), 0, self.page_bytes) };
                }
            }
            taken += gap;
            vp += gap;
        }
        Ok(())
    }

    /// Unwires `count` virtual pages starting at `first`, returning
    /// their physical pages to the free pool and punching holes so the
    /// kernel can reclaim the memory: one `PROT_NONE` mapping per
    /// virtually contiguous run, one hole per file-contiguous run.
    pub fn unwire(&mut self, first: usize, count: usize) -> io::Result<()> {
        let end = first + count;
        assert!(end <= self.max_pages());
        let mut vp = first;
        while vp < end {
            if self.table[vp] == UNMAPPED {
                vp += 1;
                continue;
            }
            let run = self.table[vp..end]
                .iter()
                .take_while(|&&fp| fp != UNMAPPED)
                .count();
            // SAFETY: the range lies inside this region's reservation;
            // MAP_FIXED replaces our own mappings there and nothing
            // else, and `&mut self` means no slice into them is live.
            let got = unsafe {
                libc::mmap(
                    self.page_ptr(vp) as *mut libc::c_void,
                    run * self.page_bytes,
                    libc::PROT_NONE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE | libc::MAP_FIXED,
                    -1,
                    0,
                )
            };
            if got == libc::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            let run_end = vp + run;
            while vp < run_end {
                let n = file_run_len(&self.table[vp..run_end]);
                let zeroed = self.punch(self.table[vp], n);
                for slot in &mut self.table[vp..vp + n] {
                    self.free_file_pages.push(FreePage { fp: *slot, zeroed });
                    *slot = UNMAPPED;
                }
                vp += n;
            }
        }
        Ok(())
    }

    /// Punches `pages` file pages out of the memfd starting at `fp`;
    /// true if the kernel dropped their content. Best-effort: not every
    /// kernel punches holes in a memfd, and [`wire`](Self::wire) clears
    /// by hand whatever this could not.
    fn punch(&self, fp: u64, pages: usize) -> bool {
        #[cfg(test)]
        if self.fail_punch {
            return false;
        }
        // SAFETY: plain syscall on the fd this region owns; the range
        // is no longer mapped anywhere (the caller just replaced its
        // mapping), so no live reference observes the content going.
        let rc = unsafe {
            libc::fallocate(
                self.fd,
                libc::FALLOC_FL_PUNCH_HOLE | libc::FALLOC_FL_KEEP_SIZE,
                (fp as usize * self.page_bytes) as libc::off_t,
                (pages * self.page_bytes) as libc::off_t,
            )
        };
        rc == 0
    }

    /// Swaps the physical pages behind virtual pages `a` and `b` — the
    /// rewiring primitive. Both must be wired. O(1), no data copied.
    pub fn swap(&mut self, a: usize, b: usize) -> io::Result<()> {
        let (fa, fb) = (self.table[a], self.table[b]);
        assert!(fa != UNMAPPED && fb != UNMAPPED, "swap of unwired page");
        if a == b {
            return Ok(());
        }
        self.map_run(a, &[fb])?;
        self.map_run(b, &[fa])?;
        self.table.swap(a, b);
        Ok(())
    }

    /// Swaps `count` pages starting at `a` with `count` pages starting
    /// at `b` (ranges must be disjoint), coalescing file-contiguous
    /// runs into single `mmap` calls — crucial where syscalls are
    /// expensive, since spare pools tend to stay contiguous.
    pub fn swap_range(&mut self, a: usize, b: usize, count: usize) -> io::Result<()> {
        assert!(
            a + count <= b || b + count <= a,
            "swap_range requires disjoint ranges"
        );
        for vp in (a..a + count).chain(b..b + count) {
            assert!(self.table[vp] != UNMAPPED, "swap of unwired page");
        }
        let fps_a: Vec<u64> = self.table[a..a + count].to_vec();
        let fps_b: Vec<u64> = self.table[b..b + count].to_vec();
        self.map_run(a, &fps_b)?;
        self.map_run(b, &fps_a)?;
        self.table.copy_within(b..b + count, a);
        for (i, fp) in fps_a.into_iter().enumerate() {
            self.table[b + i] = fp;
        }
        Ok(())
    }

    /// Maps virtual pages `vp_first..` to the given file pages,
    /// batching maximal file-contiguous runs into one `mmap` each.
    fn map_run(&self, vp_first: usize, fps: &[u64]) -> io::Result<()> {
        let mut i = 0;
        while i < fps.len() {
            let j = i + file_run_len(&fps[i..]);
            let addr = unsafe { self.page_ptr(vp_first + i) };
            let bytes = (j - i) * self.page_bytes;
            // MAP_POPULATE pre-faults the mapping: without it, every
            // rewired page would pay one soft fault per kernel page on
            // first touch, which at 4 KiB kernel pages erases the
            // benefit of skipping the copy (the paper avoids this with
            // 2 MiB huge pages, where a remap costs a single fault).
            let got = unsafe {
                libc::mmap(
                    addr as *mut libc::c_void,
                    bytes,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_SHARED | libc::MAP_FIXED | libc::MAP_POPULATE,
                    self.fd,
                    (fps[i] as usize * self.page_bytes) as libc::off_t,
                )
            };
            if got == libc::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            i = j;
        }
        Ok(())
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.reserve_bytes);
            libc::close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(pages: usize) -> Option<MmapRegion> {
        let kp = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
        MmapRegion::new(kp, kp * pages, true).ok()
    }

    #[test]
    fn wire_zeroes_pages() {
        let Some(mut r) = region(4) else { return };
        r.wire(0, 2).unwrap();
        for vp in 0..2 {
            let p = unsafe { std::slice::from_raw_parts(r.page_ptr(vp), r.page_bytes()) };
            assert!(p.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn swap_moves_content_without_copy() {
        let Some(mut r) = region(4) else { return };
        r.wire(0, 2).unwrap();
        unsafe {
            r.page_ptr(0).write(1);
            r.page_ptr(1).write(2);
        }
        r.swap(0, 1).unwrap();
        unsafe {
            assert_eq!(r.page_ptr(0).read(), 2);
            assert_eq!(r.page_ptr(1).read(), 1);
        }
    }

    #[test]
    fn unwire_then_rewire_reuses_physical_pages() {
        let Some(mut r) = region(8) else { return };
        r.wire(0, 4).unwrap();
        assert_eq!(r.wired_pages(), 4);
        r.unwire(2, 2).unwrap();
        assert_eq!(r.wired_pages(), 2);
        r.wire(4, 2).unwrap();
        // Reused from the free pool: file never grew past 4 pages.
        assert_eq!(r.file_pages, 4);
    }

    #[test]
    fn rewired_page_is_zeroed_after_punch_hole() {
        let Some(mut r) = region(4) else { return };
        r.wire(0, 1).unwrap();
        unsafe { r.page_ptr(0).write(42) };
        r.unwire(0, 1).unwrap();
        r.wire(0, 1).unwrap();
        // PUNCH_HOLE discards old content; page must read as zero.
        unsafe { assert_eq!(r.page_ptr(0).read(), 0) };
    }

    #[test]
    fn a_failed_punch_is_zeroed_by_hand_on_rewire() {
        let Some(mut r) = region(4) else { return };
        r.fail_punch = true;
        r.wire(0, 2).unwrap();
        for vp in 0..2 {
            unsafe { ptr::write_bytes(r.page_ptr(vp), 0x5A, r.page_bytes()) };
        }
        r.unwire(0, 2).unwrap();
        assert!(r.free_file_pages.iter().all(|p| !p.zeroed));
        // The old bytes are still in the file: a second mapping of the
        // freed page shows them, so only `wire` stands between them
        // and the next user.
        r.wire(2, 1).unwrap();
        let p = unsafe { std::slice::from_raw_parts(r.page_ptr(2), r.page_bytes()) };
        assert!(p.iter().all(|&b| b == 0), "stale page handed out");
        r.fail_punch = false;
        r.unwire(2, 1).unwrap();
        assert!(r.free_file_pages.last().is_some_and(|p| p.zeroed));
    }

    #[test]
    fn unwire_then_rewire_restores_the_same_mapping() {
        let Some(mut r) = region(16) else { return };
        r.wire(0, 8).unwrap();
        // Scramble, so the mapping is not the identity.
        r.swap_range(0, 4, 3).unwrap();
        let before = r.table.clone();
        r.unwire(2, 5).unwrap();
        assert_eq!(r.wired_pages(), 3);
        assert!((2..7).all(|vp| !r.is_wired(vp)));
        r.wire(2, 5).unwrap();
        assert_eq!(r.table, before);
        assert_eq!(r.file_pages, 8);
    }

    #[test]
    fn wire_fills_only_the_gaps_and_grows_the_file_once() {
        let Some(mut r) = region(16) else { return };
        r.wire(2, 2).unwrap();
        r.wire(6, 1).unwrap();
        unsafe {
            r.page_ptr(2).write(7);
            r.page_ptr(6).write(9);
        }
        r.wire(0, 10).unwrap();
        assert_eq!(r.wired_pages(), 10);
        assert_eq!(r.file_pages, 10);
        // The gaps took the fresh file pages in ascending order.
        assert_eq!(r.table[..10], [3, 4, 0, 1, 5, 6, 2, 7, 8, 9]);
        unsafe {
            assert_eq!(r.page_ptr(2).read(), 7);
            assert_eq!(r.page_ptr(6).read(), 9);
            for vp in [0, 1, 4, 5, 7, 8, 9] {
                r.page_ptr(vp).write(vp as u8);
                assert_eq!(r.page_ptr(vp).read(), vp as u8);
            }
        }
        // Freed pages are reused before the file grows again.
        r.unwire(0, 10).unwrap();
        r.wire(0, 12).unwrap();
        assert_eq!(r.file_pages, 12);
        assert_eq!(r.table[..12], [3, 4, 0, 1, 5, 6, 2, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn probe_round_trips() {
        // On a normal Linux box this must succeed; in a locked-down
        // sandbox it may not. Either way it must not crash.
        let _ = probe();
    }
}
