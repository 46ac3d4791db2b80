//! `Rma::get_batch` is the staged form of `Rma::get`: for every key
//! it must return exactly what `get` returns — the same member of a
//! duplicate run included — whatever the batch length and whatever the
//! store has been through.

use proptest::prelude::*;
use rma_core::{BackendKind, Key, RewiringMode, Rma, RmaConfig, Value};

/// Batch lengths around the staging group of 16, plus "all of them".
const LENGTHS: [usize; 6] = [0, 1, 15, 16, 17, usize::MAX];

fn cfg(rewired: bool) -> RmaConfig {
    RmaConfig {
        segment_size: 8,
        rewiring: if rewired {
            RewiringMode::Enabled { page_bytes: 4096 }
        } else {
            RewiringMode::Disabled
        },
        reserve_bytes: 1 << 24,
        ..Default::default()
    }
}

/// `get_batch` over prefixes of `probes` of every length in
/// [`LENGTHS`] against per-key `get`. The output buffer starts out
/// poisoned, so a slot `get_batch` failed to overwrite shows.
fn assert_batch_matches_get(r: &Rma, probes: &[Key]) {
    for len in LENGTHS {
        let probes = &probes[..len.min(probes.len())];
        let want: Vec<Option<Value>> = probes.iter().map(|&k| r.get(k)).collect();
        let mut got = vec![Some(Value::MIN); probes.len()];
        r.get_batch(probes, &mut got);
        assert_eq!(got, want, "batch of {} keys", probes.len());
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(Key),
    Remove(Key),
}

/// Steps over 48 keys — every key is soon a duplicate run, many of
/// them straddling a segment boundary — of which `inserts_in_7` out
/// of seven are inserts and the rest removes.
fn steps(inserts_in_7: u32) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u32..7, 0i64..48).prop_map(move |(draw, k)| {
            if draw < inserts_in_7 {
                Step::Insert(k)
            } else {
                Step::Remove(k)
            }
        }),
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grow phase, shrink phase, regrow phase; after each, every batch
    /// length agrees with per-key `get` on hits, misses between the
    /// stored keys and keys outside their range on either side.
    #[test]
    fn get_batch_equals_per_key_get(
        grow in steps(6),
        shrink in steps(1),
        regrow in steps(5),
        probes in prop::collection::vec(-6i64..54, 100..140),
        rewired in any::<bool>(),
    ) {
        let mut r = Rma::new(cfg(rewired));
        assert_batch_matches_get(&r, &probes); // the empty store
        let mut next_value = 0;
        for phase in [grow, shrink, regrow] {
            for step in phase {
                match step {
                    Step::Insert(k) => {
                        // A value of its own per insert: answering with
                        // another member of the run cannot pass.
                        next_value += 1;
                        r.insert(k, next_value);
                    }
                    Step::Remove(k) => {
                        r.remove(k);
                    }
                }
            }
            r.check_invariants();
            assert_batch_matches_get(&r, &probes);
        }
    }
}

/// The shapes the property test only reaches by luck, pinned: the
/// extreme keys, segments emptied by removes, a store that has grown
/// and shrunk, both rebalance paths.
#[test]
fn get_batch_equals_get_on_the_named_shapes() {
    for rewired in [true, false] {
        let mut r = Rma::new(cfg(rewired));
        let probes: Vec<Key> = [Key::MIN, -1, Key::MAX]
            .into_iter()
            .chain((0..6_000).step_by(7))
            .chain((0..300).map(|i| i * 2))
            .collect();
        assert_batch_matches_get(&r, &probes);

        // Even keys, in an order that makes the store grow many times.
        for i in 0..3_000i64 {
            let k = (i * 1_103) % 3_000 * 2;
            r.insert(k, k + 1);
        }
        assert!(r.stats().grows > 0);
        assert_batch_matches_get(&r, &probes);

        // Empty whole segments in the middle of the array without
        // triggering a shrink: a band of adjacent keys goes.
        let segments = r.num_segments();
        for k in (2_000..2_200).step_by(2) {
            assert_eq!(r.remove(k), Some(k + 1));
        }
        assert_eq!(r.num_segments(), segments, "the band must not resize");
        r.check_invariants();
        assert_batch_matches_get(&r, &probes);

        // Shrink down to a handful of elements.
        for k in (0..5_900).step_by(2) {
            r.remove(k);
        }
        assert!(r.stats().shrinks > 0);
        r.check_invariants();
        assert_batch_matches_get(&r, &probes);

        // Memfd columns rewire their resizes to a page or more; heap
        // columns — copy mode, or rewired mode on a host without memfd
        // — never do.
        let commits = (r.stats().rewired_commits, r.stats().copied_commits);
        if r.backend_kind() == BackendKind::Mmap {
            assert!(commits.0 > 0, "memfd columns never rewired: {commits:?}");
        } else {
            assert_eq!(commits.0, 0, "heap columns rewired: {commits:?}");
        }
    }
}

#[test]
#[should_panic(expected = "one output slot per key")]
fn get_batch_rejects_a_short_output_buffer() {
    let r = Rma::new(cfg(false));
    r.get_batch(&[1, 2], &mut [None]);
}
