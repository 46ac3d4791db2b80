//! Typed façade over the rewirable regions: a growable array of plain
//! scalars whose tail hosts the spare buffer pages used by RMA
//! rebalances, with O(1) page swapping when the mmap backend is
//! active.
//!
//! Layout of the reservation (in logical pages):
//!
//! ```text
//! | array pages (len elements) | spare buffer pages | unwired ...   |
//! ^ page 0                     ^ page ceil(len/epp)
//! ```
//!
//! A rebalance writes the redistributed window into the buffer pages
//! and then *swaps* them with the window's array pages
//! ([`RewiredVec::commit_window_swap`]); a resize redistributes the
//! whole array into a buffer of the new capacity and swaps it in
//! ([`RewiredVec::commit_resize_swap`]). Both perform exactly one copy
//! per element on the mmap backend.
//!
//! Buffer pages are wired only while they are used. They are wired on
//! demand by [`RewiredVec::array_and_buffer_mut`], and every commit
//! ends by un-wiring all but `array_pages / 8` of them (hole-punched
//! on the mmap backend, truncated away on the heap one), so between
//! operations `wired_bytes ≤ (array_pages + array_pages / 8) ·
//! page_bytes`. Why an eighth: a calibrator window of an eighth of the
//! array or less — every level but the top three — then rebalances
//! through pages that are already wired, and the windows that do pay
//! a re-wire are the ones whose amortised frequency falls with their
//! size; an array under 8 pages keeps no spares and re-wires for each
//! of its (rare) page-sized rebalances.

use crate::heap::HeapRegion;
#[cfg(target_os = "linux")]
use crate::mmap::MmapRegion;

/// Scalar types that may live in a rewired region: any bit pattern
/// must be a valid value (pages arrive zeroed or with stale content).
///
/// # Safety
/// Implementors must be plain-old-data with no invalid bit patterns
/// and no padding.
pub unsafe trait Scalar: Copy + Default + 'static {}
unsafe impl Scalar for i64 {}
unsafe impl Scalar for u64 {}
unsafe impl Scalar for i32 {}
unsafe impl Scalar for u32 {}
unsafe impl Scalar for u16 {}
unsafe impl Scalar for u8 {}

/// Which backend a [`RewiredVec`] ended up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `memfd` + `mmap(MAP_FIXED)`: swaps are O(1) remaps.
    Mmap,
    /// Heap fallback: swaps copy page contents.
    Heap,
}

/// Construction options for [`RewiredVec`].
#[derive(Debug, Clone, Copy)]
pub struct RewireOptions {
    /// Logical page size in bytes. The paper rewires 2 MB huge pages;
    /// smaller logical pages let scaled-down experiments exercise the
    /// same code path. Must be a power of two and a multiple of the
    /// kernel page size for the mmap backend.
    pub page_bytes: usize,
    /// Total virtual reservation in bytes (the paper reserves 2^37).
    pub reserve_bytes: usize,
    /// Skip the mmap backend even if available (the `-RWR` ablation).
    pub force_heap: bool,
    /// Hint the kernel to back the reservation with transparent huge
    /// pages (`MADV_HUGEPAGE`), as in the paper's 2 MB huge-page
    /// setup. Under `defrag=madvise` kernels this opts page faults
    /// into *synchronous* compaction, which can stall a fault for
    /// tens of milliseconds — latency-sensitive deployments that
    /// churn mappings (e.g. incremental shard maintenance) turn it
    /// off.
    pub huge_pages: bool,
}

impl Default for RewireOptions {
    fn default() -> Self {
        RewireOptions {
            page_bytes: 2 << 20,
            reserve_bytes: 1 << 35,
            force_heap: false,
            huge_pages: true,
        }
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Mmap(MmapRegion),
    Heap(HeapRegion),
}

impl Backend {
    fn page_bytes(&self) -> usize {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.page_bytes(),
            Backend::Heap(r) => r.page_bytes(),
        }
    }
    fn max_pages(&self) -> usize {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.max_pages(),
            Backend::Heap(r) => r.max_pages(),
        }
    }
    fn wire(&mut self, first: usize, count: usize) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.wire(first, count),
            Backend::Heap(r) => r.wire(first, count),
        }
    }
    fn unwire(&mut self, first: usize, count: usize) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.unwire(first, count),
            Backend::Heap(r) => r.unwire(first, count),
        }
    }
    fn swap_range(&mut self, a: usize, b: usize, count: usize) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.swap_range(a, b, count),
            Backend::Heap(r) => r.swap_range(a, b, count),
        }
    }
    fn wired_pages(&self) -> usize {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.wired_pages(),
            Backend::Heap(r) => r.wired_pages(),
        }
    }
    #[cfg(test)]
    fn is_wired(&self, vp: usize) -> bool {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.is_wired(vp),
            Backend::Heap(r) => r.is_wired(vp),
        }
    }
    /// # Safety
    /// `vp` must be wired before the pointer is dereferenced.
    unsafe fn page_ptr(&self, vp: usize) -> *mut u8 {
        match self {
            #[cfg(target_os = "linux")]
            Backend::Mmap(r) => r.page_ptr(vp),
            Backend::Heap(r) => r.page_ptr(vp),
        }
    }
}

/// Spare pages kept wired between operations, as a fraction of the
/// array: one page per `SPARE_DIVISOR` array pages (see the module
/// docs for why an eighth).
const SPARE_DIVISOR: usize = 8;

/// A contiguous, growable array of [`Scalar`]s backed by a rewirable
/// region, plus a spare buffer area used by rebalances.
pub struct RewiredVec<T: Scalar> {
    backend: Backend,
    /// Elements in the array part.
    len: usize,
    /// Buffer pages currently wired after the array part.
    spare_wired: usize,
    elems_per_page: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> RewiredVec<T> {
    /// Creates an empty vector. Tries the mmap backend first unless
    /// `opts.force_heap` is set, and silently falls back to the heap
    /// backend when the syscalls are unavailable.
    pub fn new(opts: RewireOptions) -> Self {
        assert!(opts.page_bytes.is_power_of_two());
        assert!(opts.page_bytes >= std::mem::size_of::<T>());
        let reserve = opts.reserve_bytes.next_multiple_of(opts.page_bytes);
        let backend = Self::pick_backend(&opts, reserve);
        RewiredVec {
            backend,
            len: 0,
            spare_wired: 0,
            elems_per_page: opts.page_bytes / std::mem::size_of::<T>(),
            _marker: std::marker::PhantomData,
        }
    }

    #[cfg(target_os = "linux")]
    fn pick_backend(opts: &RewireOptions, reserve: usize) -> Backend {
        if !opts.force_heap {
            if let Ok(r) = MmapRegion::new(opts.page_bytes, reserve, opts.huge_pages) {
                return Backend::Mmap(r);
            }
        }
        Backend::Heap(HeapRegion::new(opts.page_bytes, reserve))
    }

    #[cfg(not(target_os = "linux"))]
    fn pick_backend(opts: &RewireOptions, reserve: usize) -> Backend {
        Backend::Heap(HeapRegion::new(opts.page_bytes, reserve))
    }

    /// Which backend is active.
    pub fn backend_kind(&self) -> BackendKind {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Mmap(_) => BackendKind::Mmap,
            Backend::Heap(_) => BackendKind::Heap,
        }
    }

    /// Elements per logical page.
    pub fn elems_per_page(&self) -> usize {
        self.elems_per_page
    }

    /// Current array length, in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical memory currently wired (array + spares), in bytes.
    pub fn wired_bytes(&self) -> usize {
        self.backend.wired_pages() * self.backend.page_bytes()
    }

    fn pages_for(&self, elems: usize) -> usize {
        elems.div_ceil(self.elems_per_page)
    }

    /// Pages occupied by the array part.
    pub fn array_pages(&self) -> usize {
        self.pages_for(self.len)
    }

    /// Buffer pages currently wired right after the array part.
    pub fn spare_pages(&self) -> usize {
        self.spare_wired
    }

    /// Resizes the array part in place. Newly exposed elements hold
    /// unspecified (but valid) scalar values: the RMA's gap slots are
    /// defined by its `cards` array, never by storage content.
    pub fn resize_in_place(&mut self, new_len: usize) {
        let old_pages = self.array_pages();
        let new_pages = self.pages_for(new_len);
        if new_pages > old_pages {
            // Absorb any spare pages that the array grows over.
            self.backend
                .wire(old_pages, new_pages - old_pages)
                .expect("wire array pages");
            self.spare_wired = self.spare_wired.saturating_sub(new_pages - old_pages);
        } else if new_pages < old_pages {
            // Spares sit right after the old array; drop them first so
            // the wired range stays contiguous after the shrink.
            self.release_spares();
            self.backend
                .unwire(new_pages, old_pages - new_pages)
                .expect("unwire array pages");
        }
        self.len = new_len;
    }

    /// The array contents.
    pub fn as_slice(&self) -> &[T] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: pages [0, array_pages) are wired (invariant), T is
        // Scalar so any content is valid, and the region base is
        // aligned far beyond align_of::<T>().
        unsafe { std::slice::from_raw_parts(self.backend.page_ptr(0) as *const T, self.len) }
    }

    /// The array contents, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: as for `as_slice`, plus &mut self gives exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.backend.page_ptr(0) as *mut T, self.len) }
    }

    fn ensure_buffer(&mut self, pages: usize) {
        let first = self.array_pages();
        assert!(
            first + pages <= self.backend.max_pages(),
            "virtual reservation exhausted: need {pages} buffer pages at {first}"
        );
        if pages > self.spare_wired {
            self.backend
                .wire(first + self.spare_wired, pages - self.spare_wired)
                .expect("wire buffer pages");
            self.spare_wired = pages;
        }
    }

    /// Returns the array (read-only) and a spare buffer of at least
    /// `buf_elems` elements (mutable), wiring buffer pages on demand.
    /// The buffer content is unspecified.
    pub fn array_and_buffer_mut(&mut self, buf_elems: usize) -> (&[T], &mut [T]) {
        let pages = self.pages_for(buf_elems);
        self.ensure_buffer(pages);
        let first = self.array_pages();
        // SAFETY: array pages [0, first) and buffer pages
        // [first, first+pages) are disjoint wired ranges.
        unsafe {
            let arr = std::slice::from_raw_parts(self.backend.page_ptr(0) as *const T, self.len);
            let buf =
                std::slice::from_raw_parts_mut(self.backend.page_ptr(first) as *mut T, buf_elems);
            (arr, buf)
        }
    }

    /// Swaps the array pages covering elements
    /// `[first_elem, first_elem + elems)` with the first buffer pages.
    /// Both bounds must be page-aligned. After the call the buffer
    /// content is live in the array and the old array content sits in
    /// the spare area.
    pub fn commit_window_swap(&mut self, first_elem: usize, elems: usize) {
        assert_eq!(
            first_elem % self.elems_per_page,
            0,
            "window start unaligned"
        );
        assert_eq!(elems % self.elems_per_page, 0, "window length unaligned");
        assert!(first_elem + elems <= self.len);
        let first_page = first_elem / self.elems_per_page;
        let pages = elems / self.elems_per_page;
        assert!(pages <= self.spare_wired, "buffer was not populated");
        let buf_first = self.array_pages();
        self.backend
            .swap_range(first_page, buf_first, pages)
            .expect("swap pages");
        self.trim_spares();
    }

    /// Completes a resize-through-buffer: the first
    /// `pages_for(new_len)` buffer pages (holding the redistributed
    /// content) are swapped into the array, and the array length
    /// becomes `new_len`.
    ///
    /// Ascending swap order is essential: when growing, the target
    /// range `[0, new_pages)` overlaps the buffer range
    /// `[old_pages, old_pages + new_pages)`, and ascending order
    /// guarantees buffer page `i` still holds its redistributed
    /// content when it is swapped in (proved in the unit tests).
    pub fn commit_resize_swap(&mut self, new_len: usize) {
        let old_pages = self.array_pages();
        let new_pages = self.pages_for(new_len);
        assert!(new_pages <= self.spare_wired, "resize buffer missing");
        // The target range [0, new_pages) may overlap the buffer range
        // [old_pages, old_pages + new_pages) when growing; chunks of
        // `old_pages` pages are pairwise disjoint and, processed in
        // ascending order, equivalent to the per-page ascending swap.
        // (An empty array's buffer already starts at page 0.)
        let mut i = 0;
        while old_pages > 0 && i < new_pages {
            let count = old_pages.min(new_pages - i);
            self.backend
                .swap_range(i, old_pages + i, count)
                .expect("swap pages");
            i += count;
        }
        // Before: pages [0, old_pages + spare_wired) are wired
        // contiguously (array then buffer). Swapping does not change
        // wiring, so afterwards everything past the new array is spare.
        let total_wired = old_pages + self.spare_wired;
        self.len = new_len;
        self.spare_wired = total_wired - new_pages;
        // The resize buffer was as large as the new array and is not
        // needed again until the next resize, an array's lifetime of
        // insertions away: keeping it wired is what made a store cost
        // two copies of itself. Back to at most `new_pages / 8`
        // spares — enough for every window up to an eighth of the
        // array, the rebalances frequent enough to mind a re-wire.
        self.trim_spares();
    }

    /// The one spare-pool rule, applied at the end of every commit:
    /// at most `array_pages / SPARE_DIVISOR` buffer pages stay wired.
    fn trim_spares(&mut self) {
        self.unwire_spares_beyond(self.array_pages() / SPARE_DIVISOR);
    }

    /// Un-wires every spare buffer page now, whatever the pool rule
    /// would keep — for a caller that knows no rebalance is coming.
    pub fn release_spares(&mut self) {
        self.unwire_spares_beyond(0);
    }

    fn unwire_spares_beyond(&mut self, keep: usize) {
        if self.spare_wired > keep {
            self.backend
                .unwire(self.array_pages() + keep, self.spare_wired - keep)
                .expect("unwire spare pages");
            self.spare_wired = keep;
        }
    }
}

impl<T: Scalar> std::fmt::Debug for RewiredVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewiredVec")
            .field("backend", &self.backend_kind())
            .field("len", &self.len)
            .field("elems_per_page", &self.elems_per_page)
            .field("spare_wired", &self.spare_wired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts(force_heap: bool) -> RewireOptions {
        RewireOptions {
            page_bytes: 4096,
            reserve_bytes: 4096 * 64,
            force_heap,
            huge_pages: true,
        }
    }

    fn backends() -> Vec<RewireOptions> {
        vec![small_opts(false), small_opts(true)]
    }

    #[test]
    fn resize_and_write_round_trip() {
        for opts in backends() {
            let mut v = RewiredVec::<i64>::new(opts);
            v.resize_in_place(1000);
            for (i, slot) in v.as_mut_slice().iter_mut().enumerate() {
                *slot = i as i64;
            }
            assert_eq!(v.as_slice()[999], 999);
            assert_eq!(v.len(), 1000);
        }
    }

    #[test]
    fn window_swap_installs_buffer_content() {
        for opts in backends() {
            let epp = 4096 / 8;
            let mut v = RewiredVec::<i64>::new(opts);
            v.resize_in_place(4 * epp);
            v.as_mut_slice().fill(7);
            {
                let (_, buf) = v.array_and_buffer_mut(2 * epp);
                buf.fill(9);
            }
            v.commit_window_swap(epp, 2 * epp);
            let s = v.as_slice();
            assert!(s[..epp].iter().all(|&x| x == 7));
            assert!(s[epp..3 * epp].iter().all(|&x| x == 9));
            assert!(s[3 * epp..].iter().all(|&x| x == 7));
        }
    }

    #[test]
    fn resize_swap_grows_correctly() {
        for opts in backends() {
            let epp = 4096 / 8;
            let mut v = RewiredVec::<i64>::new(opts);
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
                assert_eq!(s[2 * i], i as i64, "backend {:?}", v.backend_kind());
                assert_eq!(s[2 * i + 1], -1);
            }
        }
    }

    #[test]
    fn resize_swap_shrinks_correctly() {
        for opts in backends() {
            let epp = 4096 / 8;
            let mut v = RewiredVec::<i64>::new(opts);
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
    }

    #[test]
    fn repeated_grow_cycles_preserve_data() {
        for opts in backends() {
            let epp = 4096 / 8;
            let mut v = RewiredVec::<i64>::new(opts);
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
    }

    #[test]
    fn wired_bytes_tracks_growth_and_release() {
        for opts in backends() {
            let mut v = RewiredVec::<i64>::new(opts);
            v.resize_in_place(4096 / 8 * 3);
            let base = v.wired_bytes();
            assert_eq!(base, 3 * 4096);
            let _ = v.array_and_buffer_mut(4096 / 8);
            assert_eq!(v.wired_bytes(), 4 * 4096);
            v.release_spares();
            assert_eq!(v.wired_bytes(), 3 * 4096);
        }
    }

    #[test]
    fn commits_leave_an_eighth_of_the_array_in_spares() {
        for opts in backends() {
            let epp = 4096 / 8;
            let mut v = RewiredVec::<i64>::new(opts);
            v.resize_in_place(16 * epp);
            // A window of half the array wires 8 buffer pages; the
            // commit gives 6 of them back.
            let _ = v.array_and_buffer_mut(8 * epp);
            assert_eq!(v.spare_pages(), 8);
            v.commit_window_swap(0, 8 * epp);
            assert_eq!(v.spare_pages(), 2);
            assert_eq!(v.wired_bytes(), 18 * 4096);
            // A window that fits the pool wires nothing.
            let _ = v.array_and_buffer_mut(2 * epp);
            v.commit_window_swap(4 * epp, 2 * epp);
            assert_eq!(v.wired_bytes(), 18 * 4096);
            // Under 8 pages nothing is kept.
            let _ = v.array_and_buffer_mut(4 * epp);
            v.commit_resize_swap(4 * epp);
            assert_eq!(v.spare_pages(), 0);
            assert_eq!(v.wired_bytes(), 4 * 4096);
        }
    }

    #[test]
    fn partial_page_lengths_work() {
        for opts in backends() {
            let mut v = RewiredVec::<i64>::new(opts);
            v.resize_in_place(10);
            v.as_mut_slice()
                .copy_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
            assert_eq!(v.as_slice().len(), 10);
            assert_eq!(v.array_pages(), 1);
        }
    }

    #[test]
    fn heap_fallback_is_forced() {
        let v = RewiredVec::<i64>::new(small_opts(true));
        assert_eq!(v.backend_kind(), BackendKind::Heap);
    }

    /// Drives a vector and a `Vec` model through `steps` random grows,
    /// shrinks (through the buffer and in place) and window swaps,
    /// checking after each one the content, the spare-pool bound and
    /// that the wired pages are exactly the array followed by its
    /// spares.
    fn churn(opts: RewireOptions, seed: u64, steps: usize) {
        const MAX_PAGES: usize = 40;
        let epp = opts.page_bytes / 8;
        let mut rng = proptest::TestRng::new(seed);
        let mut v = RewiredVec::<i64>::new(opts);
        let mut model: Vec<i64> = Vec::new();
        let mut stamp = 0i64;
        let mut fresh = move || {
            stamp += 1;
            stamp
        };
        for step in 0..steps {
            match rng.below(4) {
                // Resize through the buffer: keep a prefix, fill the rest.
                0 | 1 => {
                    let new_len = rng.below((MAX_PAGES * epp) as u64) as usize + 1;
                    let kept = new_len.min(model.len());
                    model.truncate(kept);
                    model.resize_with(new_len, &mut fresh);
                    let (arr, buf) = v.array_and_buffer_mut(new_len);
                    buf[..kept].copy_from_slice(&arr[..kept]);
                    buf[kept..].copy_from_slice(&model[kept..]);
                    v.commit_resize_swap(new_len);
                }
                // Resize in place; newly exposed slots are unspecified.
                2 => {
                    let new_len = rng.below((MAX_PAGES * epp) as u64) as usize + 1;
                    let kept = new_len.min(model.len());
                    model.truncate(kept);
                    model.resize_with(new_len, &mut fresh);
                    v.resize_in_place(new_len);
                    v.as_mut_slice()[kept..].copy_from_slice(&model[kept..]);
                }
                // Rewrite a page-aligned window through the buffer.
                _ => {
                    let whole = model.len() / epp;
                    if whole == 0 {
                        continue;
                    }
                    let pages = rng.below(whole as u64) as usize + 1;
                    let first = rng.below((whole - pages + 1) as u64) as usize;
                    let window = first * epp..(first + pages) * epp;
                    model[window.clone()].fill_with(&mut fresh);
                    let (_, buf) = v.array_and_buffer_mut(window.len());
                    buf.copy_from_slice(&model[window.clone()]);
                    v.commit_window_swap(window.start, window.len());
                }
            }
            let array = v.array_pages();
            assert_eq!(v.as_slice(), &model[..], "step {step}");
            assert!(v.spare_pages() <= array / SPARE_DIVISOR, "step {step}");
            assert_eq!(
                v.wired_bytes(),
                (array + v.spare_pages()) * opts.page_bytes,
                "step {step}"
            );
            for vp in 0..v.backend.max_pages() {
                assert_eq!(
                    v.backend.is_wired(vp),
                    vp < array + v.spare_pages(),
                    "step {step}, page {vp}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        #[test]
        fn spare_pool_stays_bounded_under_churn(seed in proptest::any::<u64>()) {
            for force_heap in [false, true] {
                churn(
                    RewireOptions {
                        page_bytes: 4096,
                        reserve_bytes: 4096 * 128,
                        force_heap,
                        huge_pages: false,
                    },
                    seed,
                    300,
                );
            }
        }
    }
}
