//! Machine-readable perf trajectory: quick (seconds, not minutes)
//! re-measurements of the headline criterion groups, written as JSON so CI
//! can archive one artifact per commit and regressions show up as a diff:
//!
//! * `results/BENCH_reset.json` — FILTERRESET init cost (mirrors `benches/reset_rounds.rs` + `benches/calendar.rs`): median
//!   wall clock, rounds, up-messages, micro-polls;
//! * `results/BENCH_sparse.json` — steady-state silent-step cost (mirrors
//!   `benches/sparse_step.rs`): µs/step for the delta-driven loop and the
//!   generator alone;
//! * `results/BENCH_approx.json` — the ε-band competitive gap (mirrors
//!   `tests/approx_mode.rs`): exact vs ε-approximate twins on the
//!   boundary-oscillation adversary, per seed. Every counter (resets,
//!   band hits, up-messages, totals, the up-message ratio) is
//!   deterministic for fixed (workload, seed) — the artifact pins the
//!   headline "zero resets, ≥10× fewer up-messages" claim per commit.
//!
//! Usage: `cargo run --release -p topk-bench --bin bench_json [out_dir]`
//! (default `results/`). Medians of a few runs keep the numbers stable
//! enough to eyeball across commits without criterion's full machinery.

use std::time::Instant;

use serde::Serialize;

use topk_core::session::MonitorBuilder;
use topk_core::{Monitor, MonitorConfig, TopkMonitor};
use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_streams::WorkloadSpec;

#[derive(Serialize)]
struct ResetPoint {
    n: usize,
    k: usize,
    /// Runs behind this point's median.
    runs: usize,
    init_ms_median: f64,
    reset_rounds: u64,
    reset_up_msgs: u64,
    micro_polls: u64,
}

#[derive(Serialize)]
struct SparsePoint {
    n: usize,
    movers_per_step: usize,
    step_us_median: f64,
    generator_us_median: f64,
}

#[derive(Serialize)]
struct ApproxPoint {
    n: usize,
    k: usize,
    seed: u64,
    steps: u64,
    epsilon: u64,
    /// Deterministic exact-twin counters on the identical trace.
    exact_resets: u64,
    exact_up_msgs: u64,
    exact_total_msgs: u64,
    /// Deterministic ε-band counters: zero resets by construction of the
    /// workload (every crossing is in-band).
    approx_resets: u64,
    approx_band_hits: u64,
    approx_up_msgs: u64,
    approx_total_msgs: u64,
    /// The headline gap: exact / approx up-messages (pinned ≥ 10 by
    /// `tests/approx_mode.rs`).
    up_msg_ratio: f64,
}

#[derive(Serialize)]
struct ApproxReport {
    suite: String,
    points: Vec<ApproxPoint>,
}

#[derive(Serialize)]
struct ResetReport {
    suite: String,
    points: Vec<ResetPoint>,
}

#[derive(Serialize)]
struct SparseReport {
    suite: String,
    runs_per_point: usize,
    points: Vec<SparsePoint>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn init_values(n: usize) -> Vec<Value> {
    (0..n as u64)
        .map(|i| (i * 7919) % (131 * n as u64))
        .collect()
}

fn measure_reset(runs: usize) -> Vec<ResetPoint> {
    let grid: &[(usize, usize)] = &[(10_000, 8), (100_000, 8), (1_000_000, 8)];
    let mut points = Vec::new();
    for &(n, k) in grid {
        let values = init_values(n);
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..runs {
            let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), 42);
            let t0 = Instant::now();
            mon.step(0, &values);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            last = Some(mon);
        }
        let mon = last.unwrap();
        points.push(ResetPoint {
            n,
            k,
            runs,
            init_ms_median: median(times),
            reset_rounds: mon.metrics().reset_rounds,
            reset_up_msgs: mon.metrics().reset_up,
            micro_polls: mon.micro_polls(),
        });
    }
    points
}

fn measure_sparse(runs: usize) -> Vec<SparsePoint> {
    let mut points = Vec::new();
    for &n in &[10_000usize, 100_000] {
        let spec = WorkloadSpec::SparseWalk {
            n,
            lo: 0,
            hi: 1 << 40,
            step_max: 64,
            sparsity: 0.01,
        };
        let steps_per_run = 200u64;
        let mut step_us = Vec::new();
        let mut gen_us = Vec::new();
        for _ in 0..runs {
            let mut mon = TopkMonitor::new(MonitorConfig::new(n, 8), 9);
            let mut feed = spec.build(5);
            let mut changes: Vec<(NodeId, Value)> = Vec::new();
            feed.fill_delta(0, &mut changes);
            mon.step_sparse(0, &changes);
            // Generate the timed steps' inputs before the clock starts.
            let inputs: Vec<Vec<(NodeId, Value)>> = (1..=steps_per_run)
                .map(|t| {
                    feed.fill_delta(t, &mut changes);
                    changes.clone()
                })
                .collect();
            let t0 = Instant::now();
            for (t, changes) in (1..=steps_per_run).zip(&inputs) {
                mon.step_sparse(t, changes);
            }
            step_us.push(t0.elapsed().as_secs_f64() * 1e6 / steps_per_run as f64);

            // Generator alone (fresh twin so draw counters line up).
            let mut feed = spec.build(5);
            feed.fill_delta(0, &mut changes);
            let t0 = Instant::now();
            for t in 1..=steps_per_run {
                feed.fill_delta(t, &mut changes);
            }
            gen_us.push(t0.elapsed().as_secs_f64() * 1e6 / steps_per_run as f64);
        }
        points.push(SparsePoint {
            n,
            movers_per_step: n / 100,
            step_us_median: median(step_us),
            generator_us_median: median(gen_us),
        });
    }
    points
}

/// Exact vs ε-band twins on the boundary-oscillation adversary — the
/// ISSUE 10 headline instance of `tests/approx_mode.rs`, re-measured here
/// so the competitive gap lands in the perf-trajectory artifacts. All
/// counters are deterministic; there is nothing to median.
fn measure_approx() -> Vec<ApproxPoint> {
    let mut points = Vec::new();
    for &(n, k) in &[(64usize, 2usize), (256, 4)] {
        let amplitude = 40u64;
        let eps = 2 * amplitude;
        let steps = 400u64;
        let spec = WorkloadSpec::BoundaryOscillate {
            n,
            k,
            base: 1_000,
            spread: 200,
            amplitude,
            period: 8,
        };
        for seed in [3u64, 17] {
            let mut exact = MonitorBuilder::new(n, k).seed(seed).build();
            let mut approx = MonitorBuilder::new(n, k).seed(seed).epsilon(eps).build();
            for session in [&mut exact, &mut approx] {
                let mut feed = spec.build(seed);
                for t in 0..steps {
                    session.ingest(feed.as_mut(), t);
                    session.advance(t);
                }
            }
            let me = *exact.metrics();
            let ma = *approx.metrics();
            points.push(ApproxPoint {
                n,
                k,
                seed,
                steps,
                epsilon: eps,
                exact_resets: me.resets,
                exact_up_msgs: me.total_up(),
                exact_total_msgs: me.total(),
                approx_resets: ma.resets,
                approx_band_hits: ma.band_hits,
                approx_up_msgs: ma.total_up(),
                approx_total_msgs: ma.total(),
                up_msg_ratio: me.total_up() as f64 / ma.total_up().max(1) as f64,
            });
        }
    }
    points
}

fn write<T: Serialize>(dir: &str, name: &str, report: &T) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/{name}");
    let json = serde_json::to_string_pretty(report).expect("serialize");
    std::fs::write(&path, json + "\n").expect("write json");
    println!("wrote {path}");
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    let runs = 3;
    write(
        &dir,
        "BENCH_reset.json",
        &ResetReport {
            suite: "reset_init".into(),
            points: measure_reset(runs),
        },
    );
    write(
        &dir,
        "BENCH_sparse.json",
        &SparseReport {
            suite: "sparse_steady_state".into(),
            runs_per_point: runs,
            points: measure_sparse(runs),
        },
    );
    write(
        &dir,
        "BENCH_approx.json",
        &ApproxReport {
            suite: "approx_band_gap".into(),
            points: measure_approx(),
        },
    );
}
