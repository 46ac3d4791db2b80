//! Command line of `stackbench`; `bench/run.sh` builds and calls it.
//!
//! With `--trace 0|1` it is the driver's single run: one workload, one
//! seed, the metrics as `workload metric value unit` lines and the
//! result as one JSON object on the last line. Without, it runs the
//! suite (or, with `--repeat N`, the repeatability table) by spawning
//! such runs.

use stackbench::report::{print_lines, result_line};
use stackbench::spec::{self, Scale, NOMINAL_SECONDS, WORKLOADS};
use stackbench::{run, suite};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--seed N] [--workload NAME] [--smoke] [--repeat N] \
                     [--seconds S] [--trace 0|1]";

struct Cli {
    out: PathBuf,
    workload: Option<&'static spec::Workload>,
    seed: u64,
    seconds: u32,
    trace: Option<bool>,
    smoke: bool,
    repeat: Option<usize>,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        out: PathBuf::from("bench/out"),
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: None,
        smoke: false,
        repeat: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--out" => cli.out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(spec::workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?.clamp(1, 60) as u32,
            "--trace" => cli.trace = Some(number(value()?)? != 0),
            "--repeat" => cli.repeat = Some(number(value()?)?.max(2) as usize),
            "--smoke" => cli.smoke = true,
            "--emit-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.trace {
        Some(trace) => single(&cli, trace),
        None => {
            let plan = suite::Plan {
                out_dir: &cli.out,
                workloads: match cli.workload {
                    Some(w) => vec![w],
                    None => WORKLOADS.iter().collect(),
                },
                seed: cli.seed,
                seconds: cli.seconds,
                smoke: cli.smoke,
            };
            match cli.repeat {
                Some(n) => suite::repeat(&plan, n),
                None => suite::suite(&plan),
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("stackbench: FAILED (wrong answers, or a spread beyond its bound)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The driver's run. Nothing is printed on stdout unless the run
/// completed, so a failed set-up leaves no result line.
fn single(cli: &Cli, trace: bool) -> Result<bool, String> {
    let w = cli.workload.ok_or("--trace needs --workload")?;
    let scale = Scale {
        seconds: cli.seconds,
        div: if cli.smoke { 64 } else { 1 },
    };
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let out = match trace {
        true => run::traced(w, cli.seed, scale, &cli.out)?,
        false => run::untraced(w, cli.seed, scale, &cli.out)?,
    };
    for (key, value) in &out.fingerprint {
        println!("# {key} {value}");
    }
    print_lines(w.name, &out.metrics);
    for (name, value, unit) in &out.extra {
        println!("{} {name} {value} {unit}", w.name);
    }
    println!("{} attempted {} count", w.name, out.attempted);
    println!("{} failed {} count", w.name, out.failed);
    let list = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    println!(
        "{}",
        result_line(out.attempted, out.failed, &out.metrics, list)
    );
    Ok(out.failed == 0)
}
