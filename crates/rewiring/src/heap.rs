//! Portable fallback backend: identical page-table semantics as the
//! mmap backend, but virtual pages live in one big heap allocation and
//! "rewiring" copies page contents instead of remapping them.
//!
//! The fallback keeps the address space contiguous (the RMA reads it
//! as one slice), so a swap is realised as a 3-way page copy via a
//! scratch page. This is exactly the auxiliary-storage rebalance the
//! paper compares against (`-RWR`).

/// Heap-backed pseudo-rewirable region.
#[derive(Debug)]
pub struct HeapRegion {
    bytes: Vec<u8>,
    page_bytes: usize,
    wired: Vec<bool>,
    scratch: Vec<u8>,
}

impl HeapRegion {
    /// Creates a region of `reserve_bytes / page_bytes` logical pages;
    /// memory is committed lazily per wired page range.
    pub fn new(page_bytes: usize, reserve_bytes: usize) -> Self {
        assert!(page_bytes > 0 && reserve_bytes.is_multiple_of(page_bytes));
        HeapRegion {
            bytes: Vec::new(),
            page_bytes,
            wired: vec![false; reserve_bytes / page_bytes],
            scratch: vec![0; page_bytes],
        }
    }

    /// Logical page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of logical pages in the reservation.
    pub fn max_pages(&self) -> usize {
        self.wired.len()
    }

    /// True if the page was wired.
    #[allow(dead_code)] // part of the region API; exercised in tests
    pub fn is_wired(&self, vp: usize) -> bool {
        self.wired[vp]
    }

    /// Count of wired pages.
    pub fn wired_pages(&self) -> usize {
        self.wired.iter().filter(|&&w| w).count()
    }

    /// Pointer to virtual page `vp`.
    ///
    /// # Safety
    /// The page must be wired before the pointer is dereferenced, and
    /// the region must not be grown while the pointer lives.
    pub unsafe fn page_ptr(&self, vp: usize) -> *mut u8 {
        debug_assert!(self.wired[vp]);
        self.bytes.as_ptr().add(vp * self.page_bytes) as *mut u8
    }

    /// Wires (commits, zero-filled) pages `first..first+count`.
    pub fn wire(&mut self, first: usize, count: usize) -> std::io::Result<()> {
        assert!(first + count <= self.max_pages());
        let need = (first + count) * self.page_bytes;
        if self.bytes.len() < need {
            self.bytes.resize(need, 0);
        }
        for vp in first..first + count {
            if !self.wired[vp] {
                self.wired[vp] = true;
                // Re-zero in case the page was previously used.
                let off = vp * self.page_bytes;
                self.bytes[off..off + self.page_bytes].fill(0);
            }
        }
        Ok(())
    }

    /// Unwires pages. When that un-wires the tail of the allocation,
    /// the allocation shrinks to the highest page still wired — the
    /// heap's answer to a hole punch, so the region holds the memory
    /// [`wired_pages`](Self::wired_pages) says it holds.
    pub fn unwire(&mut self, first: usize, count: usize) -> std::io::Result<()> {
        assert!(first + count <= self.max_pages());
        for vp in first..first + count {
            self.wired[vp] = false;
        }
        let backed = self.bytes.len() / self.page_bytes;
        let keep = self.wired[..backed]
            .iter()
            .rposition(|&w| w)
            .map_or(0, |vp| vp + 1);
        if keep < backed {
            self.bytes.truncate(keep * self.page_bytes);
            self.bytes.shrink_to(keep * self.page_bytes);
        }
        Ok(())
    }

    /// "Swaps" two pages by copying their contents (the fallback cost
    /// model: one extra copy per element, as without rewiring).
    pub fn swap(&mut self, a: usize, b: usize) -> std::io::Result<()> {
        assert!(self.wired[a] && self.wired[b], "swap of unwired page");
        if a == b {
            return Ok(());
        }
        let pb = self.page_bytes;
        let (ao, bo) = (a * pb, b * pb);
        self.scratch.copy_from_slice(&self.bytes[ao..ao + pb]);
        self.bytes.copy_within(bo..bo + pb, ao);
        let scratch = std::mem::take(&mut self.scratch);
        self.bytes[bo..bo + pb].copy_from_slice(&scratch);
        self.scratch = scratch;
        Ok(())
    }

    /// Swaps `count` pages starting at `a` with those starting at `b`
    /// (disjoint ranges); page-by-page copies on this backend.
    pub fn swap_range(&mut self, a: usize, b: usize, count: usize) -> std::io::Result<()> {
        assert!(
            a + count <= b || b + count <= a,
            "swap_range requires disjoint ranges"
        );
        for i in 0..count {
            self.swap(a + i, b + i)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_and_write() {
        let mut r = HeapRegion::new(64, 64 * 8);
        r.wire(0, 3).unwrap();
        unsafe {
            r.page_ptr(2).write(9);
            assert_eq!(r.page_ptr(2).read(), 9);
        }
    }

    #[test]
    fn swap_exchanges_content() {
        let mut r = HeapRegion::new(64, 64 * 4);
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
    fn rewire_zeroes_previously_used_page() {
        let mut r = HeapRegion::new(64, 64 * 2);
        r.wire(0, 1).unwrap();
        unsafe { r.page_ptr(0).write(7) };
        r.unwire(0, 1).unwrap();
        r.wire(0, 1).unwrap();
        unsafe { assert_eq!(r.page_ptr(0).read(), 0) };
    }

    #[test]
    fn unwiring_the_tail_gives_the_memory_back() {
        let mut r = HeapRegion::new(64, 64 * 8);
        r.wire(0, 6).unwrap();
        unsafe { r.page_ptr(1).write(5) };
        // A hole in the middle frees nothing: the slice stays whole.
        r.unwire(2, 2).unwrap();
        assert_eq!(r.bytes.len(), 6 * 64);
        // The tail does, down to the highest page still wired.
        r.unwire(4, 2).unwrap();
        assert_eq!(r.bytes.len(), 2 * 64);
        assert!(r.bytes.capacity() < 6 * 64);
        assert_eq!(r.wired_pages() * 64, r.bytes.len());
        unsafe { assert_eq!(r.page_ptr(1).read(), 5) };
        r.unwire(0, 2).unwrap();
        assert_eq!(r.bytes.capacity(), 0);
        // Re-wiring past the end grows it again, zeroed.
        r.wire(0, 3).unwrap();
        unsafe { assert_eq!(r.page_ptr(1).read(), 0) };
    }

    #[test]
    fn wired_count_tracks_state() {
        let mut r = HeapRegion::new(64, 64 * 8);
        r.wire(0, 5).unwrap();
        r.unwire(1, 2).unwrap();
        assert_eq!(r.wired_pages(), 3);
    }
}
