//! Figure 16 (beyond the paper) — access-driven shard maintenance
//! under a shifting hotspot.
//!
//! Drives a [`rma_shard::ShardedRma`] with the seeded shifting-hotspot workload
//! (a hammered band covering 1/64th of the key domain that jumps to a
//! fresh position every phase, or drifts by half its width) and
//! compares maintenance modes over the same operation stream:
//!
//! * `static` — the bulk-loaded topology, never maintained;
//! * `maintained` — the calibrator rule
//!   ([`maintain`](rma_shard::ShardedRma::maintain)): a shard out of
//!   its access-mass bounds takes the smallest admissible window of
//!   shards, re-cut at the quantiles of its mass;
//! * `compact` (jump phase set only) — as `maintained`, plus a second
//!   `maintain()` in the quiet period at every phase boundary, on the
//!   masses of the phase's second half.
//!
//! Each phase runs half its operations, calls `maintain` (except in
//! `static` mode), resets the (measurement) histograms, runs the
//! second half, and records the max/mean shard access imbalance of
//! that second half — i.e. how well the topology fits the *current*
//! hotspot after maintenance had one chance to adapt.
//! `imbalance_before` is the imbalance observed at the maintenance
//! point (how skewed the phase's first half was).
//!
//! Writes `BENCH_splitter_relearning.json`; the schema is documented
//! in `crates/bench-harness/README.md`.

use bench_harness::{fixed, json, rows, Cli};
use rma_core::RmaConfig;
use rma_db::Db;
use rma_shard::ShardConfig;
use workloads::{HotspotConfig, HotspotMotion, ShiftingHotspot};

const SHARDS: usize = 8;
const PHASES: u64 = 6;

#[derive(Clone, Copy)]
struct PhaseRow {
    phase: u64,
    imbalance_before: f64,
    imbalance_after: f64,
    splits: usize,
    merges: usize,
    shards: usize,
}

/// Maintenance mode of one run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `static`: no maintenance.
    Static,
    /// `maintained`: the calibrator rule at every phase midpoint.
    Maintained,
    /// `compact`: as `maintained`, plus
    /// [`maintain`](rma_shard::ShardedRma::maintain) again in the
    /// quiet period at each phase boundary.
    Compact,
}

fn shard_config(cli: &Cli) -> ShardConfig {
    ShardConfig {
        num_shards: SHARDS,
        rma: RmaConfig::with_segment_size(cli.seg),
        ..Default::default()
    }
}

fn run_mode(cli: &Cli, mode: Mode, motion: HotspotMotion) -> Vec<PhaseRow> {
    let phase_ops = cli.scale as u64;
    let hotspot_cfg = HotspotConfig {
        phase_len: phase_ops,
        motion,
        ..Default::default()
    };
    let mut ops = ShiftingHotspot::new(hotspot_cfg, cli.seed);

    // Pre-load uniform keys so every shard starts with residents.
    let db = Db::builder()
        .shard_config(shard_config(cli))
        .build_bulk(&cli.preload())
        .expect("static driver config is valid");
    let index = db.engine();

    let mut rows = Vec::new();
    let half = (phase_ops / 2).max(1);
    for phase in 0..PHASES {
        // Scope the access signal to this phase: maintenance decides
        // from the current hotspot only, and the post-maintenance
        // measurement attributes mass to this phase alone.
        index.reset_access_stats();
        let mut run_half = |n: u64| {
            for i in 0..n {
                let (k, v) = ops.next_pair();
                if i % 2 == 0 {
                    index.insert(k, v);
                } else {
                    std::hint::black_box(index.get(k));
                }
            }
        };
        run_half(half);
        let imbalance_before = index.access_imbalance();
        let mt = match mode {
            Mode::Static => Default::default(),
            Mode::Maintained | Mode::Compact => index.maintain(),
        };
        index.reset_access_stats();
        run_half(phase_ops - half);
        let imbalance_after = index.access_imbalance();
        // Compact mode: the phase boundary is a quiet period — run
        // the rule there too, on the second half's masses.
        if mode == Mode::Compact {
            index.maintain();
        }
        rows.push(PhaseRow {
            phase,
            imbalance_before,
            imbalance_after,
            splits: mt.splits,
            merges: mt.merges,
            shards: index.num_shards(),
        });
        // Drain the remainder of the phase's ops so both modes stay
        // aligned with the generator's phase boundaries.
        while ops.emitted() < (phase + 1) * phase_ops {
            ops.next_key();
        }
        index.check_invariants();
    }
    rows
}

fn mean_after(rows: &[PhaseRow]) -> f64 {
    rows.iter().map(|r| r.imbalance_after).sum::<f64>() / rows.len() as f64
}

fn write_json(modes: &[(&str, &[PhaseRow])], cli: &Cli) {
    let results = modes.iter().flat_map(|&(mode, rows)| {
        rows.iter().map(move |r| {
            json! {
                "mode": mode, "phase": r.phase,
                "imbalance_before": fixed(r.imbalance_before, 4),
                "imbalance_after": fixed(r.imbalance_after, 4),
                "splits": r.splits, "merges": r.merges, "shards": r.shards,
            }
        })
    });
    let rows_of = |label: &str| {
        modes
            .iter()
            .find(|(m, _)| *m == label)
            .expect("mode present")
            .1
    };
    let mean_of = |label: &str| mean_after(rows_of(label));
    let (base, maintained, compact) =
        (mean_of("static"), mean_of("maintained"), mean_of("compact"));
    let (base_drift, maintained_drift) = (mean_of("static_drift"), mean_of("maintained_drift"));
    json! {
        "bench": "splitter_relearning", "scale": cli.scale, "phases": PHASES, "shards": SHARDS,
        "seed": cli.seed, "segment_size": cli.seg,
        "hot_fraction": fixed(0.9, 1), "hot_width_frac": fixed(0.015625, 6),
        "results": rows(results),
        "mean_imbalance_static": fixed(base, 4),
        "mean_imbalance_maintained": fixed(maintained, 4),
        "imbalance_ratio": fixed(maintained / base.max(1e-12), 4),
        "mean_imbalance_compact": fixed(compact, 4),
        "compact_final_shards": rows_of("compact").last().expect("phases ran").shards,
        "imbalance_ratio_compact": fixed(compact / base.max(1e-12), 4),
        "mean_imbalance_static_drift": fixed(base_drift, 4),
        "mean_imbalance_maintained_drift": fixed(maintained_drift, 4),
        "imbalance_ratio_drift": fixed(maintained_drift / base_drift.max(1e-12), 4),
    }
    .write("BENCH_splitter_relearning.json");
}

/// Drift step: half a hot-band width per phase, so the band slides
/// incrementally instead of jumping — the case where a maintained
/// topology should stay approximately right between passes.
fn drift_step() -> HotspotMotion {
    let width = HotspotConfig::default().hot_width;
    HotspotMotion::Drift { step: width / 2 }
}

fn main() {
    let cli = Cli::parse();
    println!(
        "# Fig. 16 — shard maintenance under a shifting hotspot: N={} preloaded, {} ops/phase, {PHASES} phases, {SHARDS} shards, B={}",
        cli.scale, cli.scale, cli.seg
    );
    let fixed = run_mode(&cli, Mode::Static, HotspotMotion::Jump);
    let maintained = run_mode(&cli, Mode::Maintained, HotspotMotion::Jump);
    let compact = run_mode(&cli, Mode::Compact, HotspotMotion::Jump);
    let fixed_drift = run_mode(&cli, Mode::Static, drift_step());
    let maintained_drift = run_mode(&cli, Mode::Maintained, drift_step());

    println!(
        "{:<7} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "phase", "static before", "static after", "mt before", "mt after", "topology"
    );
    for (b, r) in fixed.iter().zip(&maintained) {
        println!(
            "{:<7} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>10}",
            b.phase,
            b.imbalance_before,
            b.imbalance_after,
            r.imbalance_before,
            r.imbalance_after,
            format!("{}s{}m", r.splits, r.merges)
        );
    }
    let (ms, mm) = (mean_after(&fixed), mean_after(&maintained));
    println!(
        "# mean post-maintenance imbalance (jump): static {ms:.2}, maintained {mm:.2}, ratio {:.3}",
        mm / ms.max(1e-12)
    );
    println!(
        "# compact mode (jump): mean imbalance {:.2}, final shards {} (maintained ends at {})",
        mean_after(&compact),
        compact.last().map_or(0, |r| r.shards),
        maintained.last().map_or(0, |r| r.shards)
    );
    let (ds, dm) = (mean_after(&fixed_drift), mean_after(&maintained_drift));
    println!(
        "# mean post-maintenance imbalance (drift): static {ds:.2}, maintained {dm:.2} (ratio {:.3})",
        dm / ds.max(1e-12)
    );

    write_json(
        &[
            ("static", &fixed),
            ("maintained", &maintained),
            ("compact", &compact),
            ("static_drift", &fixed_drift),
            ("maintained_drift", &maintained_drift),
        ],
        &cli,
    );
}
