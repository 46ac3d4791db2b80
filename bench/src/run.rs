//! One run of one workload, as the driver asks for it: untraced
//! (set-up repeated, one full measured phase, the end-to-end metrics)
//! or traced (a quarter-length front-door phase for the snapshots, the
//! ladder for the rung costs and spans, the per-layer metrics).

use crate::frontdoor::{self, Pass, Phase};
use crate::host;
use crate::ladder::{self, Ladder, Rung};
use crate::metrics;
use crate::report::{json_object, json_string, median, Metrics};
use crate::span::Span;
use crate::spec::{Scale, Workload, SETUP_REPS, SPANS_WRITTEN_PER_RUNG, TRACED_FRONT_DIV};
use std::fmt::Write as _;
use std::path::Path;

/// What a run hands back to whoever prints it.
pub struct Outcome {
    pub metrics: Metrics,
    /// Lines beyond the published metrics (the throughput estimators
    /// the calibration compares), as `(name, value, unit)`.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Vec<(String, String)>,
}

/// Host and configuration the numbers came from.
fn fingerprint(w: &Workload, seed: u64, scale: Scale, pass: &Pass) -> Vec<(String, String)> {
    let mut f: Vec<(String, String)> = host::host_fingerprint()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let backend = rma_core::Rma::new(rma_core::RmaConfig::default()).backend_kind();
    let mut add = |k: &str, v: String| f.push((k.to_string(), v));
    add("backend", format!("{backend:?}"));
    add(
        "wal_fs",
        pass.wal_fs.clone().unwrap_or_else(|| "none".into()),
    );
    add("router_workers", pass.router_workers.to_string());
    add("clients", pass.conns.to_string());
    add("seed", seed.to_string());
    add("seconds", scale.seconds.to_string());
    add("scale_div", scale.div.to_string());
    add("preload", scale.preload(w).to_string());
    add("ops_per_conn_frozen", w.ops_per_conn.to_string());
    add("ops_per_frame", w.ops_per_frame.to_string());
    add("depth", w.depth.to_string());
    add("durable", w.durable.to_string());
    add("maintainer", w.maintainer.to_string());
    f
}

/// The run's result: the front-door phase's tally plus the ladder's.
fn outcome(
    fingerprint: Vec<(String, String)>,
    pass: &Pass,
    metrics: Metrics,
    ladder: Option<&Ladder>,
) -> Outcome {
    let phase = pass.phase.as_ref().expect("a measured pass has a phase");
    let t = metrics::throughput(phase);
    let mut tally = phase.tally;
    for rung in ladder.iter().flat_map(|l| l.rungs()) {
        tally.add(&rung.tally);
    }
    Outcome {
        metrics,
        extra: vec![
            ("ops_per_s.pooled", t.pooled, "ops/s"),
            ("ops_per_s.median_seg", t.median_seg, "ops/s"),
            ("ops_per_s.best_seg", t.best_seg, "ops/s"),
            ("phase_wall_s", phase.wall_ns as f64 / 1e9, "s"),
        ],
        attempted: tally.attempted,
        failed: tally.failed,
        fingerprint,
    }
}

pub fn untraced(w: &Workload, seed: u64, scale: Scale, out_dir: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        setups.push(frontdoor::run(w, seed, scale, 1, out_dir, false)?.setup_s);
    }
    let pass = frontdoor::run(w, seed, scale, 1, out_dir, true)?;
    setups.push(pass.setup_s);
    let phase = pass.phase.as_ref().expect("a measured pass has a phase");
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups));
    metrics::front_door(w, phase, &mut m);
    Ok(outcome(fingerprint(w, seed, scale, &pass), &pass, m, None))
}

pub fn traced(w: &Workload, seed: u64, scale: Scale, out_dir: &Path) -> Result<Outcome, String> {
    let pass = frontdoor::run(w, seed, scale, TRACED_FRONT_DIV, out_dir, true)?;
    let phase = pass.phase.as_ref().expect("a measured pass has a phase");
    let ladder = ladder::run(w, seed, scale, out_dir)?;
    let mut m = Metrics::default();
    metrics::front_door(w, phase, &mut m);
    metrics::per_layer(w, &pass, phase, &ladder, &mut m);
    let out = outcome(fingerprint(w, seed, scale, &pass), &pass, m, Some(&ladder));
    let path = out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, trace_json(w, &out, phase, &ladder))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

/// The spans of a rung that go into the file: whole requests only,
/// everything of the frames before the one the cap falls in.
fn written(r: &Rung) -> impl Iterator<Item = &Span> {
    let cutoff = r
        .rec
        .spans
        .get(SPANS_WRITTEN_PER_RUNG)
        .map_or(u32::MAX, |s| s.req);
    r.rec.spans.iter().filter(move |s| s.req < cutoff)
}

/// The span file: the rungs with their totals, then the spans, rung by
/// rung. See the README for how to read it.
fn trace_json(w: &Workload, out: &Outcome, phase: &Phase, ladder: &Ladder) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", json_string(w.name));
    let _ = writeln!(s, "  \"fingerprint\": {},", json_object(&out.fingerprint));
    s.push_str("  \"rungs\": [\n");
    let count = ladder.rungs().count();
    for (i, r) in ladder.rungs().enumerate() {
        let comma = if i + 1 < count { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"pair\": {}, \"rung\": {}, \"layer\": {}, \"ops\": {}, \"wall_ns\": {}, \
             \"cpu_ns\": {}, \"spans_recorded\": {}, \"spans_written\": {}}}{comma}",
            i / 2,
            json_string(r.name),
            json_string(r.layer),
            r.ops,
            r.wall_ns,
            r.cpu_ns,
            r.rec.spans.len(),
            written(r).count(),
        );
    }
    s.push_str("  ],\n  \"spans\": [\n");
    let mut first = true;
    let mut span = |pair: usize, rung: &str, id, parent, req, layer: &str, name, start, end| {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            s,
            "{sep}    {{\"pair\": {pair}, \"rung\": {}, \"id\": {id}, \"parent\": {parent}, \
             \"req\": {req}, \"layer\": {}, \"name\": {}, \"start_ns\": {start}, \
             \"end_ns\": {end}}}",
            json_string(rung),
            json_string(layer),
            json_string(name),
        );
    };
    if let Some(r) = &phase.recover {
        span(
            usize::MAX,
            "front-door",
            1,
            0,
            0,
            "wal",
            "Db::open",
            r.start_ns,
            r.end_ns,
        );
    }
    for (i, r) in ladder.rungs().enumerate() {
        for sp in written(r) {
            span(
                i / 2,
                r.name,
                sp.id,
                sp.parent,
                sp.req,
                sp.layer,
                sp.name,
                sp.start_ns,
                sp.end_ns,
            );
        }
    }
    s.push_str("\n  ]\n}\n");
    s
}
