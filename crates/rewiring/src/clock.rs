//! Cheap monotonic timestamps for the observability layer.
//!
//! `std::time::Instant` is the obvious clock, but an `Instant` cannot
//! be stored in an `AtomicU64` or subtracted across threads without
//! carrying the struct around; metrics code wants a raw monotonic
//! nanosecond counter it can stamp into lock-free structures. This is
//! one `clock_gettime(CLOCK_MONOTONIC)` vDSO call — no syscall trap on
//! the hot path — through the same in-crate libc FFI the rewiring
//! backend uses.

/// Nanoseconds on the system monotonic clock. The zero point is
/// arbitrary (boot); only differences are meaningful.
#[inline]
pub fn monotonic_ns() -> u64 {
    let mut ts = crate::libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; CLOCK_MONOTONIC
    // exists on every Linux this reproduction targets.
    let rc = unsafe { crate::libc::clock_gettime(crate::libc::CLOCK_MONOTONIC, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) cannot fail");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_advances() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let c = monotonic_ns();
        assert!(c - a >= 2_000_000, "2 ms must register: {} ns", c - a);
    }

    #[test]
    fn agrees_with_instant_over_a_short_window() {
        let i0 = std::time::Instant::now();
        let m0 = monotonic_ns();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let di = std::time::Instant::now().duration_since(i0).as_nanos() as i128;
        let dm = (monotonic_ns() - m0) as i128;
        // Both measure the same wall interval to within a millisecond.
        assert!((di - dm).abs() < 1_000_000, "instant {di} vs clock {dm}");
    }
}
