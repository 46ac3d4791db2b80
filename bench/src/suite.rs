//! The front door of the benchmark for a person: the whole suite
//! (interleaved untraced rounds, then the traced ladder of every
//! workload) and the repeatability tool. Every run is a child process
//! in the driver's own form, so what is calibrated here is what the
//! driver measures.

use crate::report::{json_object, json_string, median, quartiles};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Rounds of the suite: w1 w2 w3 w4, w1 ... with one seed; an
/// end-to-end value is the median over rounds.
pub const ROUNDS: usize = 3;

/// What a child printed.
pub struct ChildRun {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, value, unit)` lines in print order.
    pub lines: Vec<(String, f64, String)>,
    pub fingerprint: Vec<(String, String)>,
}

pub struct Plan<'a> {
    pub out_dir: &'a Path,
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub seconds: u32,
    pub smoke: bool,
}

fn child(plan: &Plan, w: &Workload, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--out")
        .arg(plan.out_dir)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if plan.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun {
        correct: false,
        attempted: 0,
        failed: 0,
        lines: Vec::new(),
        fingerprint: Vec::new(),
    };
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with('{') {
            run.correct = line.contains("\"correct\": true");
        } else if let ["#", key, value @ ..] = &fields[..] {
            run.fingerprint.push((key.to_string(), value.join(" ")));
        } else if let [_, name, value, rest @ ..] = &fields[..] {
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            match *name {
                "attempted" => run.attempted = value as u64,
                "failed" => run.failed = value as u64,
                _ => run.lines.push((name.to_string(), value, rest.join(" "))),
            }
        }
    }
    if !out.status.success() && run.correct {
        return Err(format!("{}: child exited with {}", w.name, out.status));
    }
    Ok(run)
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

fn value_of(run: &ChildRun, name: &str) -> Option<f64> {
    run.lines.iter().find(|l| l.0 == name).map(|l| l.1)
}

/// Runs the rounds and the ladder, prints one line per metric, writes
/// `result.json`. `Ok(false)`: some answer was wrong.
pub fn suite(plan: &Plan) -> Result<bool, String> {
    let rounds = if plan.smoke { 1 } else { ROUNDS };
    let mut untraced: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    for round in 0..rounds {
        for w in &plan.workloads {
            eprintln!("# round {}/{rounds}: {}", round + 1, w.name);
            untraced
                .entry(w.name)
                .or_default()
                .push(child(plan, w, plan.seed, false)?);
        }
    }
    let mut correct = true;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"rounds\": {rounds},\n  \"workloads\": {{");
    for (wi, w) in plan.workloads.iter().enumerate() {
        eprintln!("# ladder: {}", w.name);
        let traced = child(plan, w, plan.seed, true)?;
        let runs = &untraced[w.name];
        correct &= traced.correct && runs.iter().all(|r| r.correct);
        let _ = writeln!(
            json,
            "    {}: {{\n      \"fingerprint\": {},",
            json_string(w.name),
            json_object(&runs[0].fingerprint)
        );
        let (attempted, failed) = runs
            .iter()
            .chain([&traced])
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        let _ = writeln!(
            json,
            "      \"attempted\": {attempted},\n      \"failed\": {failed},\n      \"end_to_end\": {{"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().filter_map(|r| value_of(r, m.name)).collect();
            let (lo, hi) = min_max(&values);
            let mid = median(&values);
            println!("{} {} {mid} {}", w.name, m.name, m.unit);
            let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        {}: {{\"value\": {mid}, \"unit\": {}, \"spread\": {}, \"rounds\": {values:?}}}{comma}",
                json_string(m.name),
                json_string(m.unit),
                hi - lo
            );
        }
        json.push_str("      },\n      \"per_layer\": {\n");
        let layers: Vec<_> = PER_LAYER
            .iter()
            .filter_map(|m| Some((m, value_of(&traced, m.name)?)))
            .collect();
        for (i, (m, v)) in layers.iter().enumerate() {
            println!("{} {} {v} {}", w.name, m.name, m.unit);
            let comma = if i + 1 < layers.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        {}: {{\"value\": {v}, \"unit\": {}}}{comma}",
                json_string(m.name),
                json_string(m.unit)
            );
        }
        let comma = if wi + 1 < plan.workloads.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "      }}\n    }}{comma}");
    }
    json.push_str("  }\n}\n");
    let path = plan.out_dir.join("result.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(correct)
}

/// `--repeat N`: N untraced runs of each workload, each with another
/// seed, interleaved; then per workload and metric the minimum, median
/// and maximum, the spread as the driver takes it (distance between
/// first and third quartile over the median), and PASS or FAIL of that
/// spread against the metric's bound.
pub fn repeat(plan: &Plan, n: usize) -> Result<bool, String> {
    let mut series: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut correct = true;
    for i in 0..n {
        for (wi, w) in plan.workloads.iter().enumerate() {
            eprintln!("# repeat {}/{n}: {}", i + 1, w.name);
            let run = child(plan, w, plan.seed + i as u64, false)?;
            correct &= run.correct;
            for (name, value, unit) in run.lines {
                series
                    .entry((wi, name))
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    let mut pass = true;
    for ((wi, name), (unit, values)) in &series {
        let (lo, hi) = min_max(values);
        let mid = median(values);
        let (q1, q3) = quartiles(values);
        let spread = if mid == 0.0 {
            0.0
        } else {
            (q3 - q1) / mid.abs()
        };
        let gated = END_TO_END.iter().find(|m| m.name == name);
        let verdict = match gated {
            // The driver does not hold set-up time to its spread.
            Some(m) if m.name == "setup_s" => "-",
            Some(m) if spread <= m.bound => "PASS",
            Some(_) => {
                pass = false;
                "FAIL"
            }
            None => "-",
        };
        println!(
            "{:<15} {:<22} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6}  {verdict}  {unit}",
            plan.workloads[*wi].name,
            name,
            lo,
            mid,
            hi,
            spread,
            gated.map_or("-".to_string(), |m| m.bound.to_string()),
        );
    }
    Ok(correct && pass)
}
