//! Command line of the benchmark. Run from the repository root:
//!
//! ```text
//! # one measured run; the last stdout line is the result object
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload silent-100k --seed 7 --seconds 10 --trace 0
//! # repetitions in fresh child processes, report, traces
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --seed 7 --reps 5 [--workload NAME] [--trace] [--out DIR]
//! # two repetition reports against the bounds in BENCHMARK.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --compare A.json B.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use topk_perfbench::compare;
use topk_perfbench::json::Json;
use topk_perfbench::reps::{run_reps, RepConfig};
use topk_perfbench::run::{run, RunConfig};
use topk_perfbench::workload::Workload;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--steps N] [--trace 0|1] [--out DIR]
  benchmark --reps N [--seed N] [--workload NAME] [--trace] [--out DIR]
  benchmark --compare A.json B.json
workloads: silent-100k churn-100k socket-256 serve-100k";

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    steps: Option<u64>,
    trace: bool,
    with_exact: bool,
    reps: Option<usize>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
    }
    let mut args = Args::default();
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(&flag, it.next())?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = Some(value(&flag, it.next())?),
            "--seconds" => args.seconds = Some(value(&flag, it.next())?),
            "--steps" => args.steps = Some(value(&flag, it.next())?),
            "--reps" => args.reps = Some(value(&flag, it.next())?),
            "--out" => args.out = Some(value(&flag, it.next())?),
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => args.trace = it.next_if(|v| v == "0" || v == "1").as_deref() != Some("0"),
            "--with-exact" => args.with_exact = true,
            "--compare" => {
                let a = value(&flag, it.next())?;
                let b = value(&flag, it.next())?;
                args.compare = Some((a, b));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(reps) = args.reps {
        run_reps(&RepConfig {
            seed: args.seed.unwrap_or(7),
            reps,
            workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
            trace: args.trace,
            out: args.out.clone(),
        })
    } else if let Some(workload) = args.workload {
        single(&args, workload)
    } else {
        Err(format!("nothing to do\n{USAGE}"))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// One run; prints its result object as the last stdout line.
fn single(args: &Args, workload: Workload) -> Result<bool, String> {
    let cfg = RunConfig {
        seconds: args.seconds.unwrap_or(10.0),
        max_steps: args.steps,
        trace: args.trace,
        with_exact: args.with_exact,
        out: args.out.clone(),
        ..RunConfig::new(workload, args.seed.unwrap_or(7))
    };
    let report = run(&cfg);
    eprintln!(
        "{} seed {}: {} steps, {} checks, {} failed",
        workload.name(),
        cfg.seed,
        report.steps,
        report.attempted,
        report.failed
    );
    if let Some(why) = &report.first_failure {
        eprintln!("first failed check: {why}");
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let bounds = compare::bounds(&load(&PathBuf::from("BENCHMARK.json"))?)?;
    let rows = compare::compare(&load(a)?, &load(b)?, &bounds);
    compare::print(&rows);
    let regressions = rows.iter().filter(|r| r.verdict.is_regression()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {regressions} regressions, {unresolved} unresolved",
        rows.len()
    );
    Ok(regressions == 0)
}
