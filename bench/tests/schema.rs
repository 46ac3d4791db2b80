//! The contract between `BENCHMARK.json`, `spec.rs` and what a run
//! reports: the file is the spec's own text, the names are well formed
//! and within the driver's limits, and every run reports each metric of
//! its workload exactly once, with the exact counts repeating for a
//! seed.

use stackbench::report::Metrics;
use stackbench::run;
use stackbench::spec::{self, kind_bit, Scale, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn well_formed(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn benchmark_json_is_the_spec() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `bench/run.sh --emit-benchmark-json > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 << 10);
}

#[test]
fn names_units_and_bounds_are_within_the_drivers_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(well_formed(w.name, "_.-", 64), "{}", w.name);
        assert!(seen.insert(w.name), "{} used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains(['\n', '"']),
            "{}",
            w.why
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(m.name, "_.-", 64), "{}", m.name);
        assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(seen.insert(m.name), "{} used twice", m.name);
        assert!(well_formed(m.unit, "_/%.-", 16), "{}: {}", m.name, m.unit);
    }
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: {}", m.name, m.bound);
        assert_eq!(m.on, spec::ALL, "{} must be reported everywhere", m.name);
    }
    let setup = spec::find("setup_s").expect("set-up time is gated");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
}

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// Each metric of the workload once (twice would have panicked in
/// `Metrics::put`), none of another workload's.
fn assert_reports(w: &Workload, m: &Metrics, list: &[spec::Metric]) {
    for metric in list {
        let applies = metric.on & kind_bit(w.kind) != 0;
        assert_eq!(
            m.get(metric.name).is_some(),
            applies,
            "{} on {}",
            metric.name,
            w.name
        );
    }
}

#[test]
fn runs_report_their_metrics_and_exact_counts_repeat_for_a_seed() {
    let scale = Scale {
        seconds: 10,
        div: 256,
    };
    for w in &WORKLOADS {
        let dir = scratch(w.name);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let untraced = run::untraced(w, 7, scale, &dir).expect("untraced run");
        assert_eq!(untraced.failed, 0, "{}: wrong answers", w.name);
        assert_reports(w, &untraced.metrics, END_TO_END);

        let [a, b, other] =
            [7, 7, 8].map(|seed| run::traced(w, seed, scale, &dir).expect("traced run"));
        for out in [&a, &b, &other] {
            assert_eq!(out.failed, 0, "{}: wrong answers", w.name);
            assert_reports(w, &out.metrics, PER_LAYER);
        }
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(
                a.metrics.get(metric.name),
                b.metrics.get(metric.name),
                "{} on {} must repeat for a seed",
                metric.name,
                w.name
            );
        }
        assert_ne!(
            a.metrics.get("gen.stream_hash"),
            other.metrics.get("gen.stream_hash"),
            "{}: another seed, another stream",
            w.name
        );
        assert!(dir.join(format!("trace-{}.json", w.name)).exists());
    }
}
