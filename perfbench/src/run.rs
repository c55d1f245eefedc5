//! One measured run of one workload: set up several times, drive the last
//! set-up closed-loop for a fixed time or step count, check the answers,
//! and reduce everything to the metric catalogue.
//!
//! Load model: one client, closed loop. One thread generates step `t`,
//! calls `update_batch`, then `advance(t)`, and only then moves on to
//! `t + 1` — the paper's synchronous time steps. Generator and check time
//! stay outside every timed span.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use topk_core::TopkEvent;
use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};

use crate::check::Checker;
use crate::json::{obj, Json};
use crate::metrics::{MetricDef, END_TO_END, EXACT, PER_LAYER};
use crate::stats::{median, percentile, Histogram};
use crate::trace::{SpanKind, StepClass, Trace};
use crate::workload::{Counters, System, Workload, K};

/// A traced run alternates blocks of this many untraced and traced steps,
/// so both halves see the same mix of steps (a multiple of `FLIP_PERIOD`).
const TRACE_BLOCK: u64 = 200;
/// Traced steps the span buffer holds; later steps run untraced.
const TRACE_MAX_STEPS: usize = 200_000;
/// Traced steps written to the Chrome trace file.
const TRACE_WRITE_STEPS: usize = 4_000;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 21;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Stop once the measured steps have taken this long...
    pub seconds: f64,
    /// ...or after this many steps, whichever comes first.
    pub max_steps: Option<u64>,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Also report the deterministic metrics (repetition mode).
    pub with_exact: bool,
    /// Directory for the Chrome trace of a traced run.
    pub out: Option<PathBuf>,
}

impl RunConfig {
    pub fn new(workload: Workload, seed: u64) -> Self {
        RunConfig {
            workload,
            seed,
            seconds: 10.0,
            max_steps: None,
            trace: false,
            with_exact: false,
            out: None,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub steps: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// The one-line result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(d, v)| {
            (
                d.name,
                obj([("value", Json::Num(*v)), ("unit", Json::Str(d.unit.into()))]),
            )
        });
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    }
}

pub fn run(cfg: &RunConfig) -> RunReport {
    let seed = cfg.seed;
    match cfg.workload {
        Workload::Serve100k => measure(cfg, || cfg.workload.service(seed)),
        w => measure(cfg, || w.session(seed)),
    }
}

/// Everything the step loop accumulates.
#[derive(Default)]
struct Tally {
    steps: u64,
    updates: u64,
    events: u64,
    dense_steps: u64,
    /// `update_batch` + `advance` per step, µs.
    step_us: Histogram,
    /// `(updates, µs)` of traced and untraced steps of a traced run.
    traced: (u64, f64),
    untraced: (u64, f64),
    build_s: Vec<f64>,
    init_s: Vec<f64>,
}

fn measure<S: System>(cfg: &RunConfig, build: impl Fn() -> S) -> RunReport {
    let w = cfg.workload;
    let mut checker = Checker::new(w.n(), K);
    let mut tally = Tally::default();
    let mut trace = cfg.trace.then(|| Trace::new(S::LAYER, TRACE_MAX_STEPS));
    let mut counters = None;
    let mut t = 0;

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (mut sys, mut feed) = set_up(cfg, &build, &mut checker, &mut tally);
        let before = sys.counters();
        drive(
            cfg,
            &mut sys,
            feed.as_mut(),
            &mut checker,
            &mut tally,
            trace.as_mut(),
            &mut t,
        );
        counters = Some((before, sys.counters()));
    }));
    if outcome.is_err() {
        checker.record_failure(t, "the system panicked");
    }

    if let (Some(trace), Some(dir)) = (&trace, &cfg.out) {
        let path = dir.join(format!("trace_{}.json", w.name()));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| trace.write_chrome(&path, TRACE_WRITE_STEPS))
        {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    let mut values = BTreeMap::new();
    let (before, after) = counters.unwrap_or_default();
    if cfg.trace {
        per_layer(
            &mut values,
            S::LAYER,
            &tally,
            trace.as_ref(),
            &before,
            &after,
        );
    } else {
        end_to_end(&mut values, &tally);
    }
    if cfg.with_exact {
        let steps = tally.steps as f64;
        let msgs = after.ledger.total() - before.ledger.total();
        let bytes = after.wire.bytes_total - before.wire.bytes_total;
        values.insert("msgs_per_step".into(), ratio(msgs as f64, steps));
        values.insert("wire_bytes_per_step".into(), ratio(bytes as f64, steps));
        values.insert(
            "check_fail_frac".into(),
            ratio(checker.failed as f64, checker.attempted as f64),
        );
    }

    let tables: &[&[MetricDef]] = match (cfg.trace, cfg.with_exact) {
        (false, false) => &[END_TO_END],
        (false, true) => &[END_TO_END, EXACT],
        (true, false) => &[PER_LAYER],
        (true, true) => &[PER_LAYER, EXACT],
    };
    let metrics = tables
        .iter()
        .flat_map(|table| table.iter())
        .map(|d| (d, values.get(d.name).copied().unwrap_or(0.0)))
        .collect();
    RunReport {
        steps: tally.steps,
        attempted: checker.attempted,
        failed: checker.failed,
        first_failure: checker.first_failure,
        metrics,
    }
}

/// Time `build()` and the t = 0 ingest + `advance` several times; keep the
/// last set-up (and its feed) for the measured steps.
fn set_up<S: System>(
    cfg: &RunConfig,
    build: &impl Fn() -> S,
    checker: &mut Checker,
    tally: &mut Tally,
) -> (S, Box<dyn ValueFeed>) {
    let w = cfg.workload;
    let mut kept: Option<(S, Box<dyn ValueFeed>, Vec<TopkEvent>)> = None;
    let mut changes = Vec::new();
    for _ in 0..SETUPS {
        // The previous set-up is torn down before the next is timed.
        drop(kept.take());
        let mut feed = w.feed(cfg.seed);
        feed.fill_delta(0, &mut changes);
        let t0 = Instant::now();
        let mut sys = build();
        let t1 = Instant::now();
        sys.update_batch(&changes);
        let (events, t2) = {
            let events = sys.advance(0);
            let t2 = Instant::now();
            (events.to_vec(), t2)
        };
        tally.build_s.push((t1 - t0).as_secs_f64());
        tally.init_s.push((t2 - t1).as_secs_f64());
        kept = Some((sys, feed, events));
    }
    let (sys, feed, events) = kept.expect("at least one set-up");
    checker.observe(&changes, &events);
    checker.check(0, sys.topk(), sys.threshold(), S::THRESHOLD_IS_BAR);
    (sys, feed)
}

/// The measured steps.
fn drive<S: System>(
    cfg: &RunConfig,
    sys: &mut S,
    feed: &mut dyn ValueFeed,
    checker: &mut Checker,
    tally: &mut Tally,
    mut trace: Option<&mut Trace>,
    t: &mut u64,
) {
    let n = cfg.workload.n();
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    let mut events: Vec<TopkEvent> = Vec::new();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut checked_last = true;
    while cfg.max_steps.is_none_or(|m| *t < m) && start.elapsed() < deadline {
        *t += 1;
        let t = *t;
        let traced = trace.as_ref().is_some_and(|tr| !tr.is_full()) && (t / TRACE_BLOCK) % 2 == 1;

        let s0 = Instant::now();
        feed.fill_delta(t, &mut changes);
        let fill_end = Instant::now();
        let marks0 = if traced { sys.step_marks() } else { None };

        let u0 = Instant::now();
        sys.update_batch(&changes);
        let u1 = traced.then(Instant::now);
        events.clear();
        events.extend_from_slice(sys.advance(t));
        let a1 = Instant::now();

        let marks1 = if traced { sys.step_marks() } else { None };
        let c0 = Instant::now();
        checker.observe(&changes, &events);
        let last = cfg.max_steps == Some(t);
        checked_last = checker.due(t, !events.is_empty(), last);
        if checked_last {
            checker.check(t, sys.topk(), sys.threshold(), S::THRESHOLD_IS_BAR);
        }
        let c1 = Instant::now();

        let step_us = (a1 - u0).as_secs_f64() * 1e6;
        tally.steps += 1;
        tally.updates += changes.len() as u64;
        tally.events += events.len() as u64;
        tally.dense_steps += (2 * changes.len() > n) as u64;
        tally.step_us.record(step_us);
        let half = if traced {
            &mut tally.traced
        } else {
            &mut tally.untraced
        };
        half.0 += changes.len() as u64;
        half.1 += step_us;

        if let (true, Some(tr), Some(u1)) = (traced, trace.as_deref_mut(), u1) {
            let class = match (marks0, marks1) {
                (Some((_, r0)), Some((_, r1))) if r1 > r0 => StepClass::Reset,
                (Some((l0, _)), Some((l1, _))) if l1 != l0 => StepClass::Violation,
                (Some(_), Some(_)) => StepClass::Silent,
                _ if events.is_empty() => StepClass::Quiet,
                _ => StepClass::Eventful,
            };
            tr.record(t, SpanKind::Step, class, s0, c1);
            tr.record(t, SpanKind::Fill, class, s0, fill_end);
            tr.record(t, SpanKind::UpdateBatch, class, u0, u1);
            tr.record(t, SpanKind::Advance, class, u1, a1);
            tr.record(t, SpanKind::Check, class, c0, c1);
        }
    }
    // The final state is always checked.
    if !checked_last {
        checker.check(*t, sys.topk(), sys.threshold(), S::THRESHOLD_IS_BAR);
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(values: &mut BTreeMap<String, f64>, tally: &Tally) {
    let setup_s: Vec<f64> = tally
        .build_s
        .iter()
        .zip(&tally.init_s)
        .map(|(b, i)| b + i)
        .collect();
    let busy_s = tally.step_us.sum_us() / 1e6;
    values.insert("updates_per_s".into(), ratio(tally.updates as f64, busy_s));
    values.insert("step_p50_us".into(), tally.step_us.percentile(0.50));
    values.insert("setup_s".into(), median(&setup_s));
    values.insert("peak_rss_mb".into(), peak_rss_mb());
}

fn per_layer(
    values: &mut BTreeMap<String, f64>,
    layer: &str,
    tally: &Tally,
    trace: Option<&Trace>,
    before: &Counters,
    after: &Counters,
) {
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let steps = tally.steps as f64;
    let per_step = |delta: u64| ratio(delta as f64, steps);
    let (m0, m1) = (&before.metrics, &after.metrics);
    let (w0, w1) = (&before.wire, &after.wire);

    put("step_p99_us", tally.step_us.percentile(0.99));
    if let Some(tr) = trace {
        let p = |kind, class, q| percentile(&tr.durations_us(kind, class), q);
        put("streams.fill_delta_us.p50", p(SpanKind::Fill, None, 0.5));
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            put(
                &format!("{layer}.update_batch_us.{tag}"),
                p(SpanKind::UpdateBatch, None, q),
            );
            put(
                &format!("{layer}.advance_us.{tag}"),
                p(SpanKind::Advance, None, q),
            );
        }
        for (class, tag) in [
            (StepClass::Silent, "silent"),
            (StepClass::Violation, "violation"),
            (StepClass::Reset, "reset"),
            (StepClass::Quiet, "quiet"),
        ] {
            put(
                &format!("{layer}.advance_{tag}_us.p50"),
                p(SpanKind::Advance, Some(class), 0.5),
            );
        }
        let step = tr.total_us(SpanKind::Step);
        let children: f64 = [
            SpanKind::Fill,
            SpanKind::UpdateBatch,
            SpanKind::Advance,
            SpanKind::Check,
        ]
        .into_iter()
        .map(|k| tr.total_us(k))
        .sum();
        put("trace.step_self_frac", ratio(step - children, step));
        let rate = |(updates, us): (u64, f64)| ratio(updates as f64, us);
        let (traced, untraced) = (rate(tally.traced), rate(tally.untraced));
        if traced > 0.0 {
            put("trace.overhead_frac", ratio(untraced - traced, untraced));
        }
    }
    if layer == "session" {
        put("session.events_per_step", per_step(tally.events));
        put("session.dense_route_frac", per_step(tally.dense_steps));
    }

    let msgs = after.ledger.total() - before.ledger.total();
    let resets = (m1.resets - m0.resets) as f64;
    let handler_calls = (m1.handler_calls - m0.handler_calls) as f64;
    put("proto.msgs_per_step", per_step(msgs));
    put(
        "proto.silent_step_frac",
        1.0 - ratio(
            (m1.violation_steps - m0.violation_steps) as f64,
            (m1.steps - m0.steps) as f64,
        ),
    );
    put("proto.viol_up_per_step", per_step(m1.viol_up - m0.viol_up));
    put(
        "proto.handler_calls_per_kstep",
        1e3 * ratio(handler_calls, steps),
    );
    put(
        "proto.midpoint_resolve_frac",
        ratio(
            (m1.midpoint_updates - m0.midpoint_updates) as f64,
            handler_calls,
        ),
    );
    put("proto.resets_per_kstep", 1e3 * ratio(resets, steps));
    put(
        "proto.reset_rounds_per_reset",
        ratio((m1.reset_rounds - m0.reset_rounds) as f64, resets),
    );
    put(
        "proto.reset_up_per_reset",
        ratio((m1.reset_up - m0.reset_up) as f64, resets),
    );
    put(
        "proto.bcast_per_step",
        per_step(m1.total_bcast() - m0.total_bcast()),
    );

    let bytes = (w1.bytes_total - w0.bytes_total) as f64;
    let frames = (w1.frames_total - w0.frames_total) as f64;
    put(
        "net.micro_rounds_per_step",
        per_step(after.micro_rounds - before.micro_rounds),
    );
    put(
        "net.sync_frames_per_step",
        per_step(after.ledger.sync_frames - before.ledger.sync_frames),
    );
    put("net.wire_bytes_per_step", ratio(bytes, steps));
    put("net.wire_frames_per_step", ratio(frames, steps));
    put(
        "net.wire_overhead_frac",
        ratio((w1.overhead_bytes() - w0.overhead_bytes()) as f64, bytes),
    );
    put("net.frames_per_model_msg", ratio(frames, msgs as f64));
    put(
        "net.retransmit_frames",
        (w1.retransmit_frames - w0.retransmit_frames) as f64,
    );

    let shards = &after.shard_ledgers;
    if let (Some(&max), Some(&min)) = (shards.iter().max(), shards.iter().min()) {
        put("serve.shard_ledger_skew", ratio(max as f64, min as f64));
    }
    put("setup.build_s", median(&tally.build_s));
    put("setup.init_advance_s", median(&tally.init_s));
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
