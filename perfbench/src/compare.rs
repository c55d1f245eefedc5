//! `--compare A.json B.json`: per (workload, metric), both medians, both
//! interquartile ranges and a verdict against the bounds in
//! `BENCHMARK.json`.

use std::fmt;

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::{quartiles, relative_iqr};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The spread of either side is wider than the bound.
    Unresolved,
    /// Deterministic metric, identical on both sides.
    Same,
    /// Deterministic metric that moved: a protocol or accounting change.
    Differs,
}

impl Verdict {
    /// Whether this verdict fails the comparison.
    pub fn is_regression(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
        })
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// `(median, q3 − q1)` of each side.
    pub a: (f64, f64),
    pub b: (f64, f64),
    pub verdict: Verdict,
}

/// `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<(String, f64)>, String> {
    benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// The values a repetition report holds for one (workload, metric).
fn values(report: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(
        m.get("values")?
            .as_arr()
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    )
}

/// Judge `b` against `a`: every metric that both reports hold, deterministic
/// ones for equality and the rest against their bound.
pub fn compare(a: &Json, b: &Json, bounds: &[(String, f64)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, wa) in a.get("workloads").map(Json::as_obj).unwrap_or(&[]) {
        for (metric, _) in wa.get("metrics").map(Json::as_obj).unwrap_or(&[]) {
            let (Some(def), Some(va), Some(vb)) = (
                metrics::find(metric),
                values(a, workload, metric),
                values(b, workload, metric),
            ) else {
                continue;
            };
            let verdict = if metrics::is_exact(metric) {
                let first = va.first().copied();
                if va.iter().chain(&vb).all(|&x| Some(x) == first) {
                    Verdict::Same
                } else {
                    Verdict::Differs
                }
            } else if let Some(&(_, bound)) = bounds.iter().find(|(n, _)| n == metric) {
                judge(&va, &vb, def.better, bound)
            } else {
                continue;
            };
            let summary = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                (med, q3 - q1)
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                unit: def.unit.to_string(),
                a: summary(&va),
                b: summary(&vb),
                verdict,
            });
        }
    }
    rows
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if relative_iqr(a) > bound || relative_iqr(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let change = (mb - ma) / ma.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<11} {:<20} {:<9} {:>14} {:>12} {:>14} {:>12} {:>8}  verdict",
        "workload", "metric", "unit", "A median", "A IQR", "B median", "B IQR", "change"
    );
    for r in rows {
        let change = if r.a.0 != 0.0 {
            format!("{:+.1}%", 100.0 * (r.b.0 - r.a.0) / r.a.0.abs())
        } else {
            "-".into()
        };
        println!(
            "{:<11} {:<20} {:<9} {:>14.6} {:>12.6} {:>14.6} {:>12.6} {:>8}  {}",
            r.workload, r.metric, r.unit, r.a.0, r.a.1, r.b.0, r.b.1, change, r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_against_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let scaled = |f: f64| a.iter().map(|x| x * f).collect::<Vec<_>>();
        assert_eq!(
            judge(&a, &scaled(1.05), Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(judge(&a, &scaled(1.2), Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            judge(&a, &scaled(1.2), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(judge(&a, &scaled(0.8), Better::Higher, 0.1), Verdict::Worse);
        let noisy = [50.0, 100.0, 150.0, 100.0, 75.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
    }
}
