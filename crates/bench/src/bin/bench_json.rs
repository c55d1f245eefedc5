//! Machine-readable perf trajectory: quick (seconds, not minutes)
//! re-measurements of the headline criterion groups, written as JSON so CI
//! can archive one artifact per commit and regressions show up as a diff:
//!
//! * `results/BENCH_reset.json` — FILTERRESET init cost (mirrors `benches/reset_rounds.rs` + `benches/calendar.rs`): median
//!   wall clock, rounds, up-messages, micro-polls;
//! * `results/BENCH_sparse.json` — steady-state silent-step cost (mirrors
//!   `benches/sparse_step.rs`): µs/step for the delta-driven loop and the
//!   generator alone;
//! * `results/BENCH_wire.json` — socket-runtime wire cost (mirrors
//!   `benches/socket_wire.rs`): µs/step plus the exact bytes/step,
//!   frames/step, and framing-overhead share written to the loopback-TCP
//!   connections under a churny boundary workload. The byte counts are
//!   deterministic — any drift is a protocol change, not noise;
//! * `results/BENCH_serve.json` — serving-layer scaling (mirrors
//!   `benches/serve_throughput.rs` at 10M keys): updates/sec and merged
//!   advance µs per shard count against a single-session baseline, plus
//!   the deterministic event/ledger/merge counters of the exact same
//!   stream through every arm;
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

use topk_core::session::{Engine, MonitorBuilder};
use topk_core::{Monitor, MonitorConfig, SocketTopkMonitor, TopkMonitor};
use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_serve::ServeBuilder;
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
struct WirePoint {
    n: usize,
    k: usize,
    shards: usize,
    steps: u64,
    step_us_median: f64,
    /// Deterministic for fixed (workload, seed): bytes written to the
    /// sockets per step, framing prefix included.
    bytes_per_step: f64,
    frames_per_step: f64,
    bytes_total: u64,
    frames_total: u64,
    /// Share of `bytes_total` that is framing (length prefixes, tags,
    /// handshakes) rather than model-ledger payload.
    overhead_fraction: f64,
}

#[derive(Serialize)]
struct ServePoint {
    /// `"single_session"` (the unsharded baseline) or `"service"`.
    kind: String,
    shards_requested: usize,
    shards_effective: usize,
    ingest_step_us_median: f64,
    /// Movers per step over the median ingest step time.
    updates_per_sec_median: f64,
    /// A globally silent `advance`: one no-op round across the workers.
    silent_advance_us_median: f64,
    /// Deterministic for fixed (workload, seed): total events emitted over
    /// the whole drive — identical across all service shard counts (the
    /// exact-merge conformance contract, visible in the artifact).
    events_total: u64,
    /// Deterministic: summed model-message ledger after the drive.
    ledger_total: u64,
    /// Deterministic: candidates the *last* merge inspected
    /// (`TopkService::merge_offered`; 0 for the single-session baseline).
    last_merge_offered: u64,
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

#[derive(Serialize)]
struct WireReport {
    suite: String,
    runs_per_point: usize,
    points: Vec<WirePoint>,
}

#[derive(Serialize)]
struct ServeReport {
    suite: String,
    keys: usize,
    k: usize,
    movers_per_step: usize,
    /// Timed chunks per point; each µs median is over this many chunks.
    chunks: usize,
    steps_per_chunk: u64,
    points: Vec<ServePoint>,
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

fn measure_wire(runs: usize) -> Vec<WirePoint> {
    let mut points = Vec::new();
    for &n in &[64usize, 256] {
        let k = 4;
        let spec = WorkloadSpec::BoundaryCross {
            n,
            base: 1_000,
            spread: 200,
            amplitude: 150,
            period: 4,
        };
        let steps_per_run = 100u64;
        let mut step_us = Vec::new();
        let mut last = None;
        for _ in 0..runs {
            let mut mon = SocketTopkMonitor::new(MonitorConfig::new(n, k), 9);
            let mut feed = spec.build(5);
            let mut row = vec![0 as Value; n];
            feed.fill_step(0, &mut row);
            mon.step(0, &row);
            let bytes_before = mon.wire().bytes_total;
            let frames_before = mon.wire().frames_total;
            // Generate the timed steps' inputs before the clock starts.
            let rows: Vec<Vec<Value>> = (1..=steps_per_run)
                .map(|t| {
                    feed.fill_step(t, &mut row);
                    row.clone()
                })
                .collect();
            let t0 = Instant::now();
            for (t, row) in (1..=steps_per_run).zip(&rows) {
                mon.step(t, row);
            }
            step_us.push(t0.elapsed().as_secs_f64() * 1e6 / steps_per_run as f64);
            last = Some((mon, bytes_before, frames_before));
        }
        let (mon, bytes_before, frames_before) = last.unwrap();
        let w = mon.wire();
        points.push(WirePoint {
            n,
            k,
            shards: mon.shards(),
            steps: steps_per_run,
            step_us_median: median(step_us),
            bytes_per_step: (w.bytes_total - bytes_before) as f64 / steps_per_run as f64,
            frames_per_step: (w.frames_total - frames_before) as f64 / steps_per_run as f64,
            bytes_total: w.bytes_total,
            frames_total: w.frames_total,
            overhead_fraction: w.overhead_bytes() as f64 / w.bytes_total as f64,
        });
    }
    points
}

const SERVE_KEYS: usize = 10_000_000;
const SERVE_K: usize = 8;
const SERVE_MOVERS: usize = 1_000;
const SERVE_CHUNKS: usize = 5;
const SERVE_CHUNK_STEPS: u64 = 10;
const SERVE_WARMUP_STEPS: u64 = 10;

/// Drive one arm (service or single session, abstracted as a step closure
/// returning that step's event count) through the shared 10M-key sparse
/// stream: warm-up, timed ingest chunks, then timed silent chunks.
/// Returns `(ingest µs/step per chunk, silent µs/step per chunk, total
/// events)` — the event total is deterministic, the timings are not.
fn drive_serve_arm(
    spec: &WorkloadSpec,
    mut step: impl FnMut(u64, &[(NodeId, Value)]) -> usize,
) -> (Vec<f64>, Vec<f64>, u64) {
    let mut feed = spec.build(5);
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    let mut events_total = 0u64;
    let mut t = 0u64;
    for _ in 0..=SERVE_WARMUP_STEPS {
        feed.fill_delta(t, &mut changes);
        events_total += step(t, &changes) as u64;
        t += 1;
    }
    let mut ingest_us = Vec::new();
    for _ in 0..SERVE_CHUNKS {
        // Generate the chunk's inputs before the clock starts.
        let chunk: Vec<Vec<(NodeId, Value)>> = (t..t + SERVE_CHUNK_STEPS)
            .map(|t| {
                feed.fill_delta(t, &mut changes);
                changes.clone()
            })
            .collect();
        let t0 = Instant::now();
        for changes in &chunk {
            events_total += step(t, changes) as u64;
            t += 1;
        }
        ingest_us.push(t0.elapsed().as_secs_f64() * 1e6 / SERVE_CHUNK_STEPS as f64);
    }
    let mut silent_us = Vec::new();
    for _ in 0..SERVE_CHUNKS {
        let t0 = Instant::now();
        for _ in 0..SERVE_CHUNK_STEPS {
            events_total += step(t, &[]) as u64;
            t += 1;
        }
        silent_us.push(t0.elapsed().as_secs_f64() * 1e6 / SERVE_CHUNK_STEPS as f64);
    }
    (ingest_us, silent_us, events_total)
}

fn measure_serve() -> Vec<ServePoint> {
    let spec = WorkloadSpec::SparseWalk {
        n: SERVE_KEYS,
        lo: 0,
        hi: 1 << 40,
        step_max: 64,
        sparsity: SERVE_MOVERS as f64 / SERVE_KEYS as f64,
    };
    let mut points = Vec::new();

    // Unsharded baseline: the identical stream through one session.
    {
        let mut session = MonitorBuilder::new(SERVE_KEYS, SERVE_K)
            .seed(9)
            .engine(Engine::Sequential)
            .build();
        let (ingest, silent, events_total) = drive_serve_arm(&spec, |t, changes| {
            session.update_batch(changes.iter().copied());
            session.advance(t).len()
        });
        let ingest_med = median(ingest);
        points.push(ServePoint {
            kind: "single_session".into(),
            shards_requested: 1,
            shards_effective: 1,
            ingest_step_us_median: ingest_med,
            updates_per_sec_median: SERVE_MOVERS as f64 / (ingest_med * 1e-6),
            silent_advance_us_median: median(silent),
            events_total,
            ledger_total: session.ledger().total(),
            last_merge_offered: 0,
        });
    }

    for &shards in &[1usize, 2, 4, 8] {
        let mut svc = ServeBuilder::new(SERVE_KEYS, SERVE_K)
            .shards(shards)
            .seed(9)
            .engine(Engine::Sequential)
            .build();
        let (ingest, silent, events_total) = drive_serve_arm(&spec, |t, changes| {
            svc.update_batch(changes.iter().copied());
            svc.advance(t).len()
        });
        let ingest_med = median(ingest);
        points.push(ServePoint {
            kind: "service".into(),
            shards_requested: shards,
            shards_effective: svc.shard_count(),
            ingest_step_us_median: ingest_med,
            updates_per_sec_median: SERVE_MOVERS as f64 / (ingest_med * 1e-6),
            silent_advance_us_median: median(silent),
            events_total,
            ledger_total: svc.ledger().total(),
            last_merge_offered: svc.merge_offered(),
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
        "BENCH_wire.json",
        &WireReport {
            suite: "socket_wire_churn".into(),
            runs_per_point: runs,
            points: measure_wire(runs),
        },
    );
    write(
        &dir,
        "BENCH_serve.json",
        &ServeReport {
            suite: "serve_shard_scaling".into(),
            keys: SERVE_KEYS,
            k: SERVE_K,
            movers_per_step: SERVE_MOVERS,
            chunks: SERVE_CHUNKS,
            steps_per_chunk: SERVE_CHUNK_STEPS,
            points: measure_serve(),
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
