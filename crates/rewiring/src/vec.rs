//! The column type of the RMA: a growable array of `i64`s that lives
//! where its size says.
//!
//! * **memfd pages**: from one logical page up, the array is the first
//!   pages of a rewirable reservation, and its tail hosts the spare
//!   buffer pages a resize writes into. Only pages swap.
//! * **heap**: below one page the array is an exactly sized
//!   `Vec<i64>`. A page is the unit of a swap, so such an array has
//!   nothing to swap — its owner copies — and a wired page would only
//!   hold memory it does not use.
//!
//! An array crosses between the two when it is resized: a resize to a
//! page or more moves it onto pages — through the buffer
//! ([`RewiredVec::commit_resize_swap`], one copy per element) or in
//! place ([`RewiredVec::resize_in_place`]) — and one below a page
//! moves it back, in place or copied into a fresh heap array
//! ([`RewiredVec::resize_copy`]). The reservation is made when the column is built, so
//! [`RewiredVec::backend_kind`] is fixed then: [`BackendKind::Mmap`]
//! while the memfd reservation exists, whichever side of a page the
//! array is on, and [`BackendKind::Heap`] for good when it was refused
//! (or for a column built without one): every array of such a column
//! is on the heap and [`RewiredVec::commit_resize_swap`] panics on it.
//!
//! Layout of a memfd reservation (in logical pages):
//!
//! ```text
//! | array pages (len elements) | spare buffer pages | unwired ...   |
//! ^ page 0                     ^ page ceil(len/epp)
//! ```
//!
//! While the array is on the heap it has no pages, and the buffer
//! starts at page 0.
//!
//! Only a resize swaps: it redistributes the whole array into a buffer
//! of the new capacity and swaps that in
//! ([`RewiredVec::commit_resize_swap`]), one copy per element. A
//! rebalance of a window inside the array is its owner's copy: with
//! 4 KiB kernel pages behind each logical page, populating the
//! remapped and the freshly wired pages cost more than the second copy
//! it saved (the workspace README's "Rewiring" has the numbers).
//!
//! Buffer pages are wired only while they are used: on demand by
//! [`RewiredVec::array_and_buffer_mut`], or ahead by
//! [`RewiredVec::wire_buffer`]. Every resize swap and every in-place
//! resize ends by un-wiring (hole-punching) all of them, so after
//! either `wired_bytes` is the array's pages, and a heap array wires
//! none.

use crate::mmap::MmapRegion;

/// Which backend a [`RewiredVec`] was built on. Ordered `Mmap < Heap`:
/// the greater of two columns' kinds is what both can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BackendKind {
    /// A `memfd` reservation: from a page up the array is on its pages,
    /// and swaps are O(1) remaps.
    Mmap,
    /// No reservation: the array is a plain `Vec<i64>` at every size,
    /// nothing swaps, so every commit copies and counts as copied.
    Heap,
}

/// Construction options for [`RewiredVec::new`].
#[derive(Debug, Clone, Copy)]
pub struct RewireOptions {
    /// Logical page size in bytes. The paper rewires 2 MB huge pages;
    /// smaller logical pages let scaled-down experiments exercise the
    /// same code path. Must be a power of two and a multiple of the
    /// kernel page size.
    pub page_bytes: usize,
    /// Total virtual reservation in bytes (the paper reserves 2^37).
    pub reserve_bytes: usize,
}

impl Default for RewireOptions {
    fn default() -> Self {
        RewireOptions {
            page_bytes: 2 << 20,
            reserve_bytes: 1 << 35,
        }
    }
}

/// A contiguous, growable array of `i64`s: memfd pages that can be
/// swapped from a page up, a plain `Vec` below (see the module docs).
/// Every bit pattern is a valid `i64`, so pages that arrive zeroed or
/// with stale content are valid array content.
pub struct RewiredVec {
    /// The array while it is below one page — at every size on a
    /// column without a reservation. Empty while the array is on pages.
    heap: Vec<i64>,
    /// The memfd reservation; `None` on a heap column.
    mapped: Option<Mapped>,
    elems_per_page: usize,
}

/// A memfd reservation: the array in pages `[0, array_pages)` of
/// `region` — none while the array is on the heap — then `spare_wired`
/// wired buffer pages.
struct Mapped {
    region: MmapRegion,
    /// Elements of the array on pages: 0, or at least one page.
    len: usize,
    spare_wired: usize,
}

impl RewiredVec {
    /// Creates an empty column with a memfd reservation or — when the
    /// syscalls are refused or the reservation does not fit the address
    /// space — without one, on the heap for good. Either way the empty
    /// array wires nothing.
    pub fn new(opts: RewireOptions) -> Self {
        let reserve = opts.reserve_bytes.next_multiple_of(opts.page_bytes);
        let mut v = Self::heap(opts.page_bytes);
        v.mapped = MmapRegion::new(opts.page_bytes, reserve)
            .ok()
            .map(|region| Mapped {
                region,
                len: 0,
                spare_wired: 0,
            });
        v
    }

    /// Creates an empty heap column. `page_bytes` only sets
    /// [`elems_per_page`](Self::elems_per_page), the unit its owner
    /// sizes arrays in.
    pub fn heap(page_bytes: usize) -> Self {
        assert!(page_bytes.is_power_of_two() && page_bytes >= 8);
        RewiredVec {
            heap: Vec::new(),
            mapped: None,
            elems_per_page: page_bytes / std::mem::size_of::<i64>(),
        }
    }

    /// Which backend the column was built on.
    pub fn backend_kind(&self) -> BackendKind {
        match self.mapped {
            Some(_) => BackendKind::Mmap,
            None => BackendKind::Heap,
        }
    }

    /// Elements per logical page.
    pub fn elems_per_page(&self) -> usize {
        self.elems_per_page
    }

    /// Current array length, in elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if no elements are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical memory held, in bytes: the allocation of a heap array
    /// plus the wired pages (array and spares) of the reservation.
    pub fn wired_bytes(&self) -> usize {
        let pages = match &self.mapped {
            Some(m) => m.region.wired_pages() * m.region.page_bytes(),
            None => 0,
        };
        self.heap.capacity() * std::mem::size_of::<i64>() + pages
    }

    /// Pages the array spans.
    pub fn array_pages(&self) -> usize {
        self.len().div_ceil(self.elems_per_page)
    }

    /// Buffer pages wired right after the array part (none on the heap).
    pub fn spare_pages(&self) -> usize {
        self.mapped.as_ref().map_or(0, |m| m.spare_wired)
    }

    /// Resizes the array in place, keeping its content up to the
    /// shorter length. Newly exposed elements hold unspecified (but
    /// valid) values: the RMA's gap slots are defined by its `cards`
    /// array, never by storage content. Crossing one page moves the
    /// array onto pages or back to the heap.
    pub fn resize_in_place(&mut self, new_len: usize) {
        match &mut self.mapped {
            Some(m) if new_len >= self.elems_per_page => {
                m.resize_in_place(new_len);
                // From the heap, the heap array is the content to keep.
                let kept = std::mem::take(&mut self.heap);
                m.as_mut_slice()[..kept.len()].copy_from_slice(&kept);
            }
            _ => self.resize_copy(new_len, |old, new| {
                let kept = old.len().min(new.len());
                new[..kept].copy_from_slice(&old[..kept]);
            }),
        }
    }

    /// Resizes by copying: `fill(old, new)` writes the whole new array
    /// of `new_len` elements from the old one, straight into a fresh,
    /// exactly sized heap array (one copy per element), and whatever
    /// array and spare pages were wired are released. The resize of
    /// every array not on pages: any on a heap column, one below a
    /// page on a memfd column.
    pub fn resize_copy(&mut self, new_len: usize, fill: impl FnOnce(&[i64], &mut [i64])) {
        assert!(
            self.mapped.is_none() || new_len < self.elems_per_page,
            "{NO_HEAP}"
        );
        let mut fresh = vec![0; new_len];
        fill(self.as_slice(), &mut fresh);
        if let Some(m) = &mut self.mapped {
            m.resize_in_place(0);
        }
        self.heap = fresh;
    }

    /// The array contents.
    pub fn as_slice(&self) -> &[i64] {
        match &self.mapped {
            Some(m) if m.len > 0 => m.as_slice(),
            _ => &self.heap,
        }
    }

    /// The array contents, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [i64] {
        match &mut self.mapped {
            Some(m) if m.len > 0 => m.as_mut_slice(),
            _ => &mut self.heap,
        }
    }

    /// Wires spare buffer pages for `buf_elems` elements ahead of their
    /// use, so the commit or grow that takes them finds them wired.
    /// Nothing on a heap column; given back by the next resize.
    pub fn wire_buffer(&mut self, buf_elems: usize) {
        if let Some(m) = &mut self.mapped {
            m.wire_buffer(buf_elems);
        }
    }

    /// Returns the array (read-only) and a spare buffer of at least
    /// `buf_elems` elements (mutable), wiring buffer pages on demand.
    /// The buffer content is unspecified.
    pub fn array_and_buffer_mut(&mut self, buf_elems: usize) -> (&[i64], &mut [i64]) {
        let m = self.mapped.as_mut().expect(NO_PAGES);
        let (pages, buf) = m.array_and_buffer_mut(buf_elems);
        // An array below a page is on the heap; its buffer is at page 0.
        (if pages.is_empty() { &self.heap } else { pages }, buf)
    }

    /// Completes a resize-through-buffer: the array becomes the first
    /// `new_len` buffer elements (holding the redistributed content),
    /// their pages swapped in, and the array length becomes `new_len`.
    /// Only a target of a page or more swaps: below one, the owner
    /// copies ([`resize_in_place`](Self::resize_in_place)).
    pub fn commit_resize_swap(&mut self, new_len: usize) {
        let m = self.mapped.as_mut().expect(NO_PAGES);
        assert!(new_len >= self.elems_per_page, "a swap below one page");
        m.commit_resize_swap(new_len);
        self.heap = Vec::new();
    }
}

/// Why a heap column refuses to swap.
const NO_PAGES: &str = "a heap column has no pages to swap: its owner copies";
/// Why a memfd column refuses a heap array of a page or more.
const NO_HEAP: &str = "on a memfd column an array of a page or more is on pages";

impl Mapped {
    fn elems_per_page(&self) -> usize {
        self.region.page_bytes() / std::mem::size_of::<i64>()
    }

    fn pages_for(&self, elems: usize) -> usize {
        elems.div_ceil(self.elems_per_page())
    }

    fn array_pages(&self) -> usize {
        self.pages_for(self.len)
    }

    fn resize_in_place(&mut self, new_len: usize) {
        let wired = self.array_pages() + self.spare_wired;
        self.len = new_len;
        let pages = self.array_pages();
        // The array keeps the spares it grows over; the rest go.
        if pages > wired {
            self.region
                .wire(wired, pages - wired)
                .expect("wire array pages");
        }
        self.spare_wired = wired.saturating_sub(pages);
        self.unwire_spares();
    }

    fn as_slice(&self) -> &[i64] {
        // SAFETY: pages [0, array_pages) are wired read-write (every
        // method here keeps that so), the page-aligned, non-null base
        // suits i64, any content is a valid i64, and remaps take
        // `&mut self`, so none happens while the slice lives.
        unsafe { std::slice::from_raw_parts(self.region.page_ptr(0).cast(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [i64] {
        // SAFETY: as for `as_slice`; `&mut self` makes it the only
        // reference into the array.
        unsafe { std::slice::from_raw_parts_mut(self.region.page_ptr(0).cast(), self.len) }
    }

    fn wire_buffer(&mut self, buf_elems: usize) {
        let (first, pages) = (self.array_pages(), self.pages_for(buf_elems));
        assert!(
            first + pages <= self.region.max_pages(),
            "virtual reservation exhausted: need {pages} buffer pages at {first}"
        );
        if pages > self.spare_wired {
            self.region
                .wire(first + self.spare_wired, pages - self.spare_wired)
                .expect("wire buffer pages");
            self.spare_wired = pages;
        }
    }

    fn array_and_buffer_mut(&mut self, buf_elems: usize) -> (&[i64], &mut [i64]) {
        self.wire_buffer(buf_elems);
        let buf = self.region.page_ptr(self.array_pages()).cast();
        // SAFETY: `wire_buffer` just wired the buffer pages after the
        // array, which hold `buf_elems` elements; they are disjoint from
        // the array pages `as_slice` covers, so the slices never alias;
        // and both borrow `self` mutably, so no remap runs meanwhile.
        let buf = unsafe { std::slice::from_raw_parts_mut(buf, buf_elems) };
        (self.as_slice(), buf)
    }

    /// Ascending swap order is essential: when growing, the target
    /// range `[0, new_pages)` overlaps the buffer range
    /// `[old_pages, old_pages + new_pages)`, and ascending order
    /// guarantees buffer page `i` still holds its redistributed
    /// content when it is swapped in (proved in the unit tests).
    fn commit_resize_swap(&mut self, new_len: usize) {
        let old_pages = self.array_pages();
        let new_pages = self.pages_for(new_len);
        assert!(new_pages <= self.spare_wired, "resize buffer missing");
        // Chunks of `old_pages` pages are pairwise disjoint and, taken
        // in ascending order, equivalent to the per-page ascending
        // swap. (An empty array's buffer already starts at page 0.)
        let mut i = 0;
        while old_pages > 0 && i < new_pages {
            let count = old_pages.min(new_pages - i);
            self.region
                .swap_range(i, old_pages + i, count)
                .expect("swap pages");
            i += count;
        }
        // Pages [0, old_pages + spare_wired) were wired contiguously
        // (array then buffer); swapping keeps the wiring, so everything
        // past the new array is spare.
        self.spare_wired = self.spare_wired + old_pages - new_pages;
        self.len = new_len;
        // The resize buffer was as large as the new array and is not
        // needed again until the next resize, an array's lifetime of
        // insertions away: keeping it wired is what made a store cost
        // two copies of itself.
        self.unwire_spares();
    }

    /// The end of every resize: no buffer page stays wired.
    fn unwire_spares(&mut self) {
        if self.spare_wired > 0 {
            self.region
                .unwire(self.array_pages(), self.spare_wired)
                .expect("unwire spare pages");
            self.spare_wired = 0;
        }
    }
}

impl std::fmt::Debug for RewiredVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewiredVec")
            .field("backend", &self.backend_kind())
            .field("len", &self.len())
            .field("elems_per_page", &self.elems_per_page)
            .field("spare_wired", &self.spare_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> RewireOptions {
        RewireOptions {
            page_bytes: 4096,
            reserve_bytes: 4096 * 64,
        }
    }

    /// A memfd column built from `opts`, or `None` where memfd is
    /// unavailable: every test below but the heap one swaps pages.
    fn mapped_vec(opts: RewireOptions) -> Option<RewiredVec> {
        let v = RewiredVec::new(opts);
        (v.backend_kind() == BackendKind::Mmap).then_some(v)
    }

    #[test]
    fn resize_copy_fills_an_exact_heap_array_and_releases_pages() {
        let epp = 4096 / 8;
        let mut cols = vec![RewiredVec::heap(4096)];
        cols.extend(mapped_vec(small_opts()));
        for mut v in cols {
            // On pages, with a buffer page wired, on a memfd column.
            v.resize_in_place(2 * epp);
            for (i, s) in v.as_mut_slice().iter_mut().enumerate() {
                *s = i as i64;
            }
            v.wire_buffer(epp);
            v.resize_copy(epp / 2, |old, new| {
                new.copy_from_slice(&old[epp..epp + epp / 2])
            });
            let want: Vec<i64> = (epp as i64..).take(epp / 2).collect();
            assert_eq!(v.as_slice(), want);
            assert_eq!(v.wired_bytes(), epp / 2 * 8, "the array and nothing else");
            assert_eq!(v.spare_pages(), 0);
        }
    }

    #[test]
    fn resize_and_write_round_trip() {
        let mut v = RewiredVec::new(small_opts());
        v.resize_in_place(1000);
        for (i, slot) in v.as_mut_slice().iter_mut().enumerate() {
            *slot = i as i64;
        }
        assert_eq!(v.as_slice()[999], 999);
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn resize_swap_grows_correctly() {
        let Some(mut v) = mapped_vec(small_opts()) else {
            return;
        };
        let epp = 4096 / 8;
        v.resize_in_place(2 * epp);
        for (i, s) in v.as_mut_slice().iter_mut().enumerate() {
            *s = i as i64;
        }
        // Redistribute: spread the old content into a 4-page
        // buffer at stride 2 (stand-in for a real rebalance).
        {
            let (arr, buf) = v.array_and_buffer_mut(4 * epp);
            let arr: Vec<i64> = arr.to_vec();
            buf.fill(-1);
            for (i, x) in arr.iter().enumerate() {
                buf[2 * i] = *x;
            }
        }
        v.commit_resize_swap(4 * epp);
        assert_eq!(v.len(), 4 * epp);
        let s = v.as_slice();
        for i in 0..2 * epp {
            assert_eq!(s[2 * i], i as i64);
            assert_eq!(s[2 * i + 1], -1);
        }
    }

    #[test]
    fn resize_swap_shrinks_correctly() {
        let Some(mut v) = mapped_vec(small_opts()) else {
            return;
        };
        let epp = 4096 / 8;
        v.resize_in_place(4 * epp);
        for (i, s) in v.as_mut_slice().iter_mut().enumerate() {
            *s = i as i64;
        }
        {
            let (arr, buf) = v.array_and_buffer_mut(2 * epp);
            let arr: Vec<i64> = arr.to_vec();
            for (i, b) in buf.iter_mut().enumerate() {
                *b = arr[2 * i]; // compact every other element
            }
        }
        v.commit_resize_swap(2 * epp);
        assert_eq!(v.len(), 2 * epp);
        let s = v.as_slice();
        for (i, &x) in s.iter().enumerate() {
            assert_eq!(x, 2 * i as i64);
        }
    }

    #[test]
    fn repeated_grow_cycles_preserve_data() {
        let Some(mut v) = mapped_vec(small_opts()) else {
            return;
        };
        let epp = 4096 / 8;
        v.resize_in_place(epp);
        v.as_mut_slice().fill(1);
        let mut expected_len = epp;
        for round in 0..4 {
            let new_len = expected_len * 2;
            {
                let (arr, buf) = v.array_and_buffer_mut(new_len);
                let arr: Vec<i64> = arr.to_vec();
                buf[..arr.len()].copy_from_slice(&arr);
                buf[arr.len()..].fill(round + 10);
            }
            v.commit_resize_swap(new_len);
            expected_len = new_len;
        }
        assert_eq!(v.len(), 16 * epp);
        assert!(v.as_slice()[..epp].iter().all(|&x| x == 1));
        assert!(v.as_slice()[8 * epp..].iter().all(|&x| x == 13));
    }

    #[test]
    fn wired_bytes_tracks_growth_and_release() {
        let Some(mut v) = mapped_vec(small_opts()) else {
            return;
        };
        v.resize_in_place(4096 / 8 * 3);
        let base = v.wired_bytes();
        assert_eq!(base, 3 * 4096);
        let _ = v.array_and_buffer_mut(4096 / 8);
        assert_eq!(v.wired_bytes(), 4 * 4096);
        v.resize_in_place(v.len());
        assert_eq!(v.wired_bytes(), 3 * 4096);
    }

    #[test]
    fn resizes_leave_no_spares() {
        let Some(mut v) = mapped_vec(small_opts()) else {
            return;
        };
        let epp = 4096 / 8;
        v.resize_in_place(16 * epp);
        // A shrink through the buffer wires 8 buffer pages and gives
        // back every page past the new array.
        let _ = v.array_and_buffer_mut(8 * epp);
        assert_eq!(v.spare_pages(), 8);
        v.commit_resize_swap(8 * epp);
        assert_eq!((v.spare_pages(), v.wired_bytes()), (0, 8 * 4096));
        // A grow in place takes over the buffer wired ahead of it and
        // gives back the rest.
        v.wire_buffer(3 * epp);
        v.resize_in_place(9 * epp);
        assert_eq!((v.spare_pages(), v.wired_bytes()), (0, 9 * 4096));
        // So does a grow through the buffer.
        let _ = v.array_and_buffer_mut(20 * epp);
        v.commit_resize_swap(20 * epp);
        assert_eq!((v.spare_pages(), v.wired_bytes()), (0, 20 * 4096));
    }

    #[test]
    fn partial_page_lengths_work() {
        let mut v = RewiredVec::new(small_opts());
        v.resize_in_place(10);
        v.as_mut_slice()
            .copy_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(v.as_slice().len(), 10);
        assert_eq!(v.array_pages(), 1);
    }

    /// The heap constructor: a plain `Vec` that holds exactly its array,
    /// keeps its content across resizes, wires no spares and refuses to
    /// swap.
    #[test]
    fn heap_fallback_is_forced() {
        let mut v = RewiredVec::heap(4096);
        assert_eq!(v.backend_kind(), BackendKind::Heap);
        assert_eq!(v.elems_per_page(), 512);
        v.resize_in_place(1500);
        for (i, slot) in v.as_mut_slice().iter_mut().enumerate() {
            *slot = i as i64;
        }
        assert_eq!(v.wired_bytes(), 1500 * 8);
        assert_eq!((v.array_pages(), v.spare_pages()), (3, 0));
        v.resize_in_place(700);
        assert_eq!(v.wired_bytes(), 700 * 8);
        v.resize_in_place(900);
        assert_eq!(v.as_slice()[..700], (0..700).collect::<Vec<i64>>()[..]);
        assert_eq!(v.len(), 900);
        let swap = std::panic::catch_unwind(move || v.commit_resize_swap(1024));
        assert!(swap.is_err(), "a heap column swapped pages");
    }

    /// Grows `v` from 128 slots through one page and back — by
    /// `resize_in_place`, or through the buffer and a resize swap to
    /// every target of a page or more — and checks after every step
    /// its content, its backend, and that it holds exactly its heap
    /// array below a page and whole pages from one page up.
    fn cross_the_page(mut v: RewiredVec, through_buffer: bool) {
        let (epp, kind) = (v.elems_per_page(), v.backend_kind());
        let lens = [128, 256, epp, 4 * epp + 7, 2 * epp, epp / 2, 3 * epp, 128];
        let mut model: Vec<i64> = Vec::new();
        for (step, &len) in lens.iter().enumerate() {
            let kept = len.min(model.len());
            model.truncate(kept);
            model.extend((kept..len).map(|i| (step * 10_000 + i) as i64));
            if through_buffer && len >= epp {
                let (arr, buf) = v.array_and_buffer_mut(len);
                buf[..kept].copy_from_slice(&arr[..kept]);
                buf[kept..].copy_from_slice(&model[kept..]);
                v.commit_resize_swap(len);
            } else {
                v.resize_in_place(len);
                v.as_mut_slice()[kept..].copy_from_slice(&model[kept..]);
            }
            assert_eq!(v.as_slice(), &model[..], "step {step}");
            assert_eq!(v.backend_kind(), kind, "step {step}");
            let want = if len < epp || kind == BackendKind::Heap {
                len * 8
            } else {
                v.array_pages() * epp * 8
            };
            assert_eq!(v.wired_bytes(), want, "step {step}");
        }
    }

    #[test]
    fn an_array_crosses_the_page_both_ways() {
        for through_buffer in [false, true] {
            if let Some(v) = mapped_vec(small_opts()) {
                cross_the_page(v, through_buffer);
            }
        }
        // A refused reservation is a heap column for life: its arrays
        // of a page or more are `Vec`s too, and it never swaps.
        let refused = || {
            RewiredVec::new(RewireOptions {
                page_bytes: 4096,
                reserve_bytes: 1 << 62,
            })
        };
        assert_eq!(refused().backend_kind(), BackendKind::Heap);
        cross_the_page(refused(), false);
        let swap = std::panic::catch_unwind(|| cross_the_page(refused(), true));
        assert!(swap.is_err(), "a heap column swapped pages");
    }

    /// Drives a memfd column and a `Vec` model through `steps` random
    /// grows and shrinks — through the buffer to a page or more, and
    /// in place with or without a buffer wired ahead — a quarter of
    /// them to below a page, checking after each one the content,
    /// that no spare page stays wired and that the wired pages are
    /// exactly the array — none below a page, where the array is an
    /// exactly sized heap one.
    fn churn(opts: RewireOptions, seed: u64, steps: usize) {
        const MAX_PAGES: usize = 40;
        let Some(mut v) = mapped_vec(opts) else {
            return;
        };
        let epp = opts.page_bytes / 8;
        let mut rng = proptest::TestRng::new(seed);
        let mut model: Vec<i64> = Vec::new();
        let mut stamp = 0i64;
        let mut fresh = move || {
            stamp += 1;
            stamp
        };
        for step in 0..steps {
            let pages = if rng.below(4) == 0 { 1 } else { MAX_PAGES };
            let new_len = rng.below((pages * epp) as u64) as usize + 1;
            let kept = new_len.min(model.len());
            model.truncate(kept);
            model.resize_with(new_len, &mut fresh);
            match rng.below(4) {
                // Through the buffer: keep a prefix, fill the rest.
                0 | 1 if new_len >= epp => {
                    let (arr, buf) = v.array_and_buffer_mut(new_len);
                    buf[..kept].copy_from_slice(&arr[..kept]);
                    buf[kept..].copy_from_slice(&model[kept..]);
                    v.commit_resize_swap(new_len);
                }
                // In place; newly exposed slots are unspecified.
                ahead => {
                    if ahead == 3 {
                        v.wire_buffer(rng.below((MAX_PAGES * epp) as u64) as usize + 1);
                    }
                    v.resize_in_place(new_len);
                    v.as_mut_slice()[kept..].copy_from_slice(&model[kept..]);
                }
            }
            assert_eq!(v.as_slice(), &model[..], "step {step}");
            assert_eq!(v.spare_pages(), 0, "step {step}");
            let (heap, wired) = if model.len() < epp {
                (model.len() * 8, 0)
            } else {
                (0, v.array_pages())
            };
            assert_eq!(
                v.wired_bytes(),
                heap + wired * opts.page_bytes,
                "step {step}"
            );
            let region = &v.mapped.as_ref().expect("a memfd column").region;
            for vp in 0..region.max_pages() {
                assert_eq!(region.is_wired(vp), vp < wired, "step {step}, page {vp}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        #[test]
        fn spare_pool_stays_bounded_under_churn(seed in proptest::any::<u64>()) {
            churn(
                RewireOptions {
                    page_bytes: 4096,
                    reserve_bytes: 4096 * 128,
                },
                seed,
                300,
            );
        }
    }
}
