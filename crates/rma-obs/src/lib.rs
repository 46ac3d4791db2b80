//! `rma-obs` — the zero-dependency, lock-free metrics core for the
//! RMA reproduction.
//!
//! Two primitives, both safe to hammer from the serving path:
//!
//! * [`Histogram`] — log2-bucketed latency histogram with 16 linear
//!   sub-buckets per octave (relative quantile error ≤ 1/16), frozen
//!   into a mergeable [`HistogramSnapshot`] for p50/p95/p99/max
//!   reporting.
//! * [`EventJournal`] — a bounded MPSC ring recording maintenance and
//!   topology events ([`EventKind`]) with timestamps, shard ids, step
//!   durations and keys migrated; overwrite-oldest, torn-write safe.
//!
//! Timestamps come from [`now_ns`], one `clock_gettime(CLOCK_MONOTONIC)`
//! vDSO call via the in-repo `rewiring` FFI — no `Instant` structs to
//! thread through lock-free code, no external crates anywhere.

mod hist;
mod journal;

pub use hist::{Histogram, HistogramSnapshot};
pub use journal::{Event, EventJournal, EventKind};

/// Nanoseconds on the monotonic clock (arbitrary zero point). The
/// canonical timestamp source for every metric in the workspace.
#[inline]
pub fn now_ns() -> u64 {
    rewiring::monotonic_ns()
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Histogram quantiles always land within the bucket holding
        /// the true rank statistic: relative error ≤ 1/16 (plus one
        /// unit of integer slack for tiny values).
        #[test]
        fn quantile_lands_in_true_bucket(
            values in proptest::collection::vec(0u64..1u64 << 48, 1..400),
            q_mil in 0u64..1001,
        ) {
            let q = q_mil as f64 / 1000.0;
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = h.snapshot().quantile(q);
            let slack = truth / 16 + 1;
            prop_assert!(
                est.abs_diff(truth) <= slack,
                "q={q}: est {est}, truth {truth}, slack {slack}"
            );
        }

        /// Merging snapshots is lossless for counts and sums and
        /// equivalent to recording everything into one histogram.
        #[test]
        fn merge_equals_union(
            a in proptest::collection::vec(0u64..1u64 << 40, 0..200),
            b in proptest::collection::vec(0u64..1u64 << 40, 0..200),
        ) {
            let (ha, hb, hu) = (Histogram::new(), Histogram::new(), Histogram::new());
            for &v in &a {
                ha.record(v);
                hu.record(v);
            }
            for &v in &b {
                hb.record(v);
                hu.record(v);
            }
            let mut merged = ha.snapshot();
            merged.merge(&hb.snapshot());
            let union = hu.snapshot();
            prop_assert_eq!(merged.count(), union.count());
            prop_assert_eq!(merged.sum(), union.sum());
            prop_assert_eq!(merged.max(), union.max());
            prop_assert_eq!(merged, union);
        }

        /// The journal retains exactly the newest `capacity` events in
        /// recording order, regardless of how many were written.
        #[test]
        fn journal_keeps_newest_in_order(
            cap in 1usize..100,
            total in 0u64..300,
        ) {
            let j = EventJournal::new(cap);
            for n in 0..total {
                j.record(Event {
                    ts_ns: n,
                    kind: EventKind::Split,
                    shard: 0,
                    dur_ns: 0,
                    keys: n,
                });
            }
            let snap = j.snapshot();
            let expect_len = (j.capacity() as u64).min(total);
            prop_assert_eq!(snap.len() as u64, expect_len);
            let start = total - expect_len;
            for (i, e) in snap.iter().enumerate() {
                prop_assert_eq!(e.ts_ns, start + i as u64);
            }
        }
    }
}
