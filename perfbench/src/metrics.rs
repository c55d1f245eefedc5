//! The metric catalogue: every number the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root repeats the
//! end-to-end and per-layer tables with regression bounds; a test keeps the
//! two in agreement.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off. Wall-clock
/// and memory numbers: compared against a bound, never exactly.
pub const END_TO_END: &[MetricDef] = &[
    // Observations committed ÷ time inside `update_batch` + `advance`.
    m("updates_per_s", "1/s", Higher),
    // Per-step latency of `update_batch` + `advance`.
    m("step_p50_us", "us", Lower),
    // `build()` + the t = 0 ingest and `advance` (the init FILTERRESET),
    // median of several set-ups in one run.
    m("setup_s", "s", Lower),
    // `VmHWM` of the run's process.
    m("peak_rss_mb", "MB", Lower),
];

/// Deterministic for a fixed (workload, seed, step count): compared for
/// exact equality by `--compare`. They are not in `BENCHMARK.json`'s
/// end-to-end list because each is 0 on some workload (`silent-100k` sends no
/// message, the in-process engines write no byte, a correct run fails no
/// check); the repetition report prints them next to the end-to-end table.
pub const EXACT: &[MetricDef] = &[
    // Model messages (`ledger().total()` delta ÷ steps): the paper's cost.
    m("msgs_per_step", "msg/step", Lower),
    // Socket bytes written (`wire().bytes_total` delta ÷ steps).
    m("wire_bytes_per_step", "B/step", Lower),
    // Failed ÷ attempted answer checks.
    m("check_fail_frac", "ratio", Lower),
];

/// One number per layer, from the traced run (`--trace 1`). A layer the
/// workload does not run reports 0, as does a class of step that never
/// occurred.
pub const PER_LAYER: &[MetricDef] = &[
    // The tail of the end-to-end step latency. Too noisy on a shared
    // 2-vCPU machine to hold a bound (see README.md), so it rides here.
    m("step_p99_us", "us", Lower),
    // Load generator: reported so that nobody mistakes it for system cost.
    m("streams.fill_delta_us.p50", "us", Lower),
    // `MonitorSession` (session workloads).
    m("session.update_batch_us.p50", "us", Lower),
    m("session.update_batch_us.p99", "us", Lower),
    m("session.advance_us.p50", "us", Lower),
    m("session.advance_us.p99", "us", Lower),
    m("session.advance_silent_us.p50", "us", Lower),
    m("session.advance_violation_us.p50", "us", Lower),
    m("session.advance_reset_us.p50", "us", Lower),
    m("session.events_per_step", "event/step", Lower),
    m("session.dense_route_frac", "ratio", Lower),
    // Algorithm 1 coordinator counters (`metrics()` deltas).
    m("proto.msgs_per_step", "msg/step", Lower),
    m("proto.silent_step_frac", "ratio", Higher),
    m("proto.viol_up_per_step", "msg/step", Lower),
    m("proto.handler_calls_per_kstep", "1/kstep", Lower),
    m("proto.midpoint_resolve_frac", "ratio", Higher),
    m("proto.resets_per_kstep", "1/kstep", Lower),
    m("proto.reset_rounds_per_reset", "round/reset", Lower),
    m("proto.reset_up_per_reset", "msg/reset", Lower),
    m("proto.bcast_per_step", "msg/step", Lower),
    // Transport: rounds, frames and bytes.
    m("net.micro_rounds_per_step", "round/step", Lower),
    m("net.sync_frames_per_step", "frame/step", Lower),
    m("net.wire_bytes_per_step", "B/step", Lower),
    m("net.wire_frames_per_step", "frame/step", Lower),
    m("net.wire_overhead_frac", "ratio", Lower),
    m("net.frames_per_model_msg", "frame/msg", Lower),
    m("net.retransmit_frames", "frame", Lower),
    // `TopkService` (the serve workload).
    m("serve.update_batch_us.p50", "us", Lower),
    m("serve.advance_us.p50", "us", Lower),
    m("serve.advance_us.p99", "us", Lower),
    m("serve.advance_quiet_us.p50", "us", Lower),
    m("serve.shard_ledger_skew", "ratio", Lower),
    // The two halves of `setup_s`.
    m("setup.build_s", "s", Lower),
    m("setup.init_advance_s", "s", Lower),
    // Throughput lost on traced steps against untraced steps of the same
    // run, and the share of a traced step outside its child spans.
    m("trace.overhead_frac", "ratio", Lower),
    m("trace.step_self_frac", "ratio", Lower),
];

/// Look a metric up in every table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(EXACT)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// Whether `--compare` must see the exact same value on both sides.
pub fn is_exact(name: &str) -> bool {
    EXACT.iter().any(|d| d.name == name)
}
