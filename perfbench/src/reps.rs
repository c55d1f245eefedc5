//! Repetition mode (`--reps N`): every (workload, repetition) runs in a
//! fresh child process of this binary — so `peak_rss_mb` and allocator
//! state are per run — and repetitions go round-robin across workloads so
//! that machine drift spreads evenly over them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{obj, Json};
use crate::metrics::{self, END_TO_END, EXACT};
use crate::stats::quartiles;
use crate::workload::Workload;

pub struct RepConfig {
    pub seed: u64,
    pub reps: usize,
    pub workloads: Vec<Workload>,
    /// One extra traced run per workload.
    pub trace: bool,
    pub out: Option<PathBuf>,
}

/// A child's parsed result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(exe: &Path, w: Workload, seed: u64, trace: bool, out: Option<&Path>) -> ChildResult {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--steps", &w.nominal_steps().to_string()])
        // The step count ends the run; the time limit only guards it.
        .args(["--seconds", "150"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--with-exact")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = out {
        cmd.arg("--out").arg(dir);
    }
    // A child that dies without a result line failed everything it tried.
    let failed = ChildResult {
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
    };
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: cannot start child: {e}", w.name());
            return failed;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(line) = stdout.lines().rev().find(|l| !l.trim().is_empty()) else {
        eprintln!("{}: child printed no result ({})", w.name(), output.status);
        return failed;
    };
    let Ok(json) = Json::parse(line) else {
        eprintln!("{}: unreadable result line: {line}", w.name());
        return failed;
    };
    let count = |key| json.get(key).and_then(Json::as_f64).unwrap_or(1.0) as u64;
    ChildResult {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: json
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    }
}

#[derive(Default)]
struct WorkloadResults {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, Vec<f64>>,
    per_layer: Vec<(String, f64)>,
}

/// Run the repetitions, print the report, write `benchmark.json` (and the
/// traces) under `out`. Returns whether every check passed.
pub fn run_reps(cfg: &RepConfig) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results: Vec<(Workload, WorkloadResults)> = cfg
        .workloads
        .iter()
        .map(|&w| (w, WorkloadResults::default()))
        .collect();
    for rep in 0..cfg.reps {
        for (w, res) in &mut results {
            eprintln!("rep {}/{}: {}", rep + 1, cfg.reps, w.name());
            let child = run_child(&exe, *w, cfg.seed, false, None);
            res.attempted += child.attempted;
            res.failed += child.failed;
            for (name, v) in child.metrics {
                res.values.entry(name).or_default().push(v);
            }
        }
    }
    if cfg.trace {
        for (w, res) in &mut results {
            eprintln!("traced: {}", w.name());
            let child = run_child(&exe, *w, cfg.seed, true, cfg.out.as_deref());
            res.attempted += child.attempted;
            res.failed += child.failed;
            res.per_layer = child.metrics;
        }
    }

    print_report(cfg, &results);
    if let Some(dir) = &cfg.out {
        let path = dir.join("benchmark.json");
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, format!("{}\n", report_json(cfg, &results))))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(results
        .iter()
        .all(|(_, r)| r.failed == 0 && r.attempted > 0))
}

/// `serve.advance_quiet_us.p50` on `serve-100k` ÷ `session.advance_silent_us.p50`
/// on `silent-100k`: the serve handoff cost over a bare session on the
/// identical stream (ROADMAP target ≤ 5). Needs both traced runs.
fn handoff_ratio(results: &[(Workload, WorkloadResults)]) -> Option<f64> {
    let layer = |w, name: &str| {
        results
            .iter()
            .find(|(x, _)| *x == w)?
            .1
            .per_layer
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let serve = layer(Workload::Serve100k, "serve.advance_quiet_us.p50")?;
    let session = layer(Workload::Silent100k, "session.advance_silent_us.p50")?;
    (session > 0.0).then(|| serve / session)
}

fn print_report(cfg: &RepConfig, results: &[(Workload, WorkloadResults)]) {
    println!(
        "seed {}, {} repetitions per workload, median and IQR over repetitions",
        cfg.seed, cfg.reps
    );
    println!(
        "{:<11} {:<20} {:<9} {:>16} {:>14} {:>7} {:>3}",
        "workload", "metric", "unit", "median", "IQR", "IQR%", "n"
    );
    for (w, res) in results {
        for def in END_TO_END.iter().chain(EXACT) {
            let Some(v) = res.values.get(def.name) else {
                continue;
            };
            let (q1, med, q3) = quartiles(v);
            let rel = if med != 0.0 {
                100.0 * (q3 - q1) / med.abs()
            } else {
                0.0
            };
            println!(
                "{:<11} {:<20} {:<9} {:>16.6} {:>14.6} {:>6.1}% {:>3}",
                w.name(),
                def.name,
                def.unit,
                med,
                q3 - q1,
                rel,
                v.len()
            );
        }
        println!(
            "{:<11} checks: {} attempted, {} failed",
            w.name(),
            res.attempted,
            res.failed
        );
    }
    if cfg.trace {
        println!("\nper-layer metrics (one traced run per workload)");
        for (w, res) in results {
            for (name, v) in &res.per_layer {
                let unit = metrics::find(name).map_or("", |d| d.unit);
                println!("{:<11} {:<34} {:<11} {:>16.6}", w.name(), name, unit, v);
            }
        }
        if let Some(r) = handoff_ratio(results) {
            println!("serve.handoff_ratio (serve-100k quiet advance / silent-100k silent advance): {r:.3}");
        }
    }
}

fn report_json(cfg: &RepConfig, results: &[(Workload, WorkloadResults)]) -> Json {
    let workloads = results.iter().map(|(w, res)| {
        let metrics = res.values.iter().map(|(name, v)| {
            let (q1, med, q3) = quartiles(v);
            let unit = metrics::find(name).map_or("", |d| d.unit);
            (
                name.clone(),
                obj([
                    ("unit", Json::Str(unit.into())),
                    (
                        "values",
                        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                    ("median", Json::Num(med)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                ]),
            )
        });
        let per_layer = res
            .per_layer
            .iter()
            .map(|(n, v)| (n.clone(), Json::Num(*v)));
        (
            w.name(),
            obj([
                ("attempted", Json::Num(res.attempted as f64)),
                ("failed", Json::Num(res.failed as f64)),
                ("metrics", obj(metrics)),
                ("per_layer", obj(per_layer)),
            ]),
        )
    });
    obj([
        ("seed", Json::Num(cfg.seed as f64)),
        ("reps", Json::Num(cfg.reps as f64)),
        ("workloads", obj(workloads)),
        (
            "serve_handoff_ratio",
            handoff_ratio(results).map_or(Json::Null, Json::Num),
        ),
    ])
}
