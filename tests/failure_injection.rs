//! Failure injection: regime switches, exact-boundary glitches, stuck
//! sensors and Δ-regime shifts — each run under the deep invariant auditor
//! (`topk_core::audit`), which cross-checks coordinator state, node state,
//! Lemma 2.2 filter validity and the `T±` certificate after every step.
//!
//! Fault plans are declared through the shared [`FaultSchedule`] vocabulary
//! (`topk_sim::faults`) — the same schedules drive the chaos-transport soak
//! in `tests/chaos_soak.rs`.

use topk_monitoring::core::audit::assert_audit_clean;
use topk_monitoring::net::behavior::CoordinatorBehavior as _;
use topk_monitoring::prelude::*;
use topk_monitoring::sim::{boundary_storm, FaultSchedule};

fn audit_run(
    mut feed: Box<dyn ValueFeed>,
    k: usize,
    steps: u64,
    seed: u64,
    context: &str,
) -> TopkMonitor {
    let n = feed.n();
    let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), seed);
    let mut row = vec![0u64; n];
    for t in 0..steps {
        feed.fill_step(t, &mut row);
        mon.step(t, &row);
        assert_audit_clean(&mon, &row, context);
        // No phase may survive a step — in particular no stuck
        // `Phase::Reset`.
        assert!(
            mon.coordinator().step_done(),
            "{context}: coordinator stuck mid-phase after t={t}"
        );
    }
    mon
}

#[test]
fn regime_switch_calm_to_chaos() {
    let n = 10;
    let calm = WorkloadSpec::RandomWalk {
        n,
        lo: 40_000,
        hi: 60_000,
        step_max: 10,
        lazy_p: 0.5,
    }
    .build(1);
    let chaos = WorkloadSpec::IidUniform {
        n,
        lo: 0,
        hi: 100_000,
    };
    let feed = FaultSchedule::new().switch_to(chaos, 2, 60).apply(calm);
    audit_run(feed, 3, 120, 9, "calm→chaos switch");
}

#[test]
fn glitch_exactly_at_the_threshold() {
    // Land values exactly on / one-off the filter threshold. With the ramp
    // 100,200,...,600 and k=2, the initial threshold is ⌊(500+400)/2⌋ = 450.
    let inner = WorkloadSpec::Ramp {
        n: 6,
        base: 100,
        gap: 100,
    }
    .build(0);
    let sched = FaultSchedule::new()
        .glitch(3, 0, 450) // non-top-k lands exactly ON M: no violation allowed
        .glitch(4, 0, 451) // one above: violation, midpoint update or reset
        .glitch(5, 5, 450) // top-k lands exactly ON M: no violation
        .glitch(6, 5, 449) // one below: violation
        .glitch(7, 0, 100) // back to normal
        .glitch(7, 5, 600);
    let mon = audit_run(sched.apply(inner), 2, 10, 4, "threshold glitches");
    let m = mon.metrics();
    assert!(
        m.violation_steps >= 2,
        "the off-by-one glitches must violate (got {})",
        m.violation_steps
    );
}

#[test]
fn glitch_forces_total_order_flip() {
    let inner = WorkloadSpec::Ramp {
        n: 5,
        base: 1000,
        gap: 1000,
    }
    .build(0);
    // At t=2 the entire order reverses.
    let sched = FaultSchedule::new()
        .glitch(2, 0, 9_000)
        .glitch(2, 1, 8_000)
        .glitch(2, 2, 7_000)
        .glitch(2, 3, 6_000)
        .glitch(2, 4, 5_000);
    let mon = audit_run(sched.apply(inner), 2, 6, 5, "total order flip");
    assert!(mon.metrics().resets >= 1, "a flip across k must reset");
}

#[test]
fn stuck_sensor_keeps_system_healthy() {
    let inner = WorkloadSpec::RandomWalk {
        n: 8,
        lo: 0,
        hi: 50_000,
        step_max: 1_000,
        lazy_p: 0.2,
    }
    .build(3);
    // The initially-hottest sensor flat-lines at t=20.
    let feed = FaultSchedule::new().stuck(0, 20).apply(inner);
    audit_run(feed, 2, 200, 6, "stuck sensor");
}

#[test]
fn affine_delta_shift_preserves_behaviour_shape() {
    // Scaling all values by 1024 scales Δ by 1024 but must not change which
    // steps violate (filters are midpoints — order-preserving transform).
    let spec = WorkloadSpec::RandomWalk {
        n: 8,
        lo: 0,
        hi: 4_000,
        step_max: 200,
        lazy_p: 0.2,
    };
    let base = audit_run(spec.build(7), 3, 150, 8, "unscaled");
    let scaled_feed = FaultSchedule::new().scale(1024, 0).apply(spec.build(7));
    let scaled = audit_run(scaled_feed, 3, 150, 8, "scaled");
    // Nearly identical violation pattern: scaling by a ≥ 2 maps the midpoint
    // ⌊(x+y)/2⌋ to a·⌊(x+y)/2⌋ + a/2 when x+y is odd, so values sitting
    // *exactly* on a threshold can flip between "at the boundary" and
    // "strictly beyond" — a bounded, half-unit edge effect. Everything else
    // commutes, so the counts must agree within a few boundary incidents.
    let dv = base
        .metrics()
        .violation_steps
        .abs_diff(scaled.metrics().violation_steps);
    let dr = base.metrics().resets.abs_diff(scaled.metrics().resets);
    assert!(dv <= 4, "violation-step drift {dv} too large");
    assert!(dr <= 4, "reset drift {dr} too large");
}

/// Mid-reset injection: glitches land exactly on the steps whose
/// observations trigger a reset (the reset runs *within* that step's
/// micro-rounds, so these are the values the k-select sweep actually
/// selects over) and on the immediately following recovery steps. The deep
/// auditor runs after every step and the `step_done` probe proves no
/// `Phase::Reset` ever survives its step.
#[test]
fn mid_reset_glitches_recover() {
    let n = 8;
    // t=2: total order flip → reset; inject a boundary tie right at the
    // flip. t=3: recovery step with another injected near-boundary value.
    // t=5: second flip back, with the glitch landing on the would-be
    // (k+1)-st rank — the reset's tie-break hot spot.
    let sched = FaultSchedule::new()
        .glitch(2, 0, 9_000)
        .glitch(2, 1, 8_000)
        .glitch(2, 2, 7_000)
        .glitch(2, 3, 6_000)
        .glitch(2, 4, 6_000) // tie at the k/k+1 boundary during the reset
        .glitch(2, 5, 5_000)
        .glitch(2, 6, 4_000)
        .glitch(2, 7, 3_000)
        .glitch(3, 4, 6_500) // recovery-step wiggle right above the new bar
        .glitch(5, 0, 1_000)
        .glitch(5, 1, 2_000)
        .glitch(5, 2, 3_000)
        .glitch(5, 3, 4_000)
        .glitch(5, 4, 5_000)
        .glitch(5, 5, 6_000)
        .glitch(5, 6, 7_000)
        .glitch(5, 7, 7_000); // tie at the top during the second reset
    let feed = sched.apply(
        WorkloadSpec::Ramp {
            n,
            base: 1_000,
            gap: 1_000,
        }
        .build(0),
    );
    let mon = audit_run(feed, 4, 10, 5, "mid-reset glitches");
    assert!(
        mon.metrics().resets >= 2,
        "both flips must reset (got {})",
        mon.metrics().resets
    );
}

/// A reset storm on the batched path: boundary churn forces a reset every
/// few steps for hundreds of steps; the auditor runs every step, and after
/// the storm the system settles back to silence (healthy filters, no
/// residual protocol state).
#[test]
fn batched_reset_storm_recovers_and_settles() {
    let n = 10;
    let feed = WorkloadSpec::BoundaryCross {
        n,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    }
    .build(3);
    let cfg = MonitorConfig::new(n, 1);
    let mut mon = {
        let mut row = vec![0u64; n];
        let mut feed = feed;
        let mut mon = TopkMonitor::new(cfg, 9);
        for t in 0..300 {
            feed.fill_step(t, &mut row);
            mon.step(t, &row);
            assert_audit_clean(&mon, &row, "batched reset storm");
            assert!(mon.coordinator().step_done(), "stuck mid-reset at t={t}");
        }
        assert!(
            mon.metrics().resets >= 5,
            "storm must reset repeatedly (got {})",
            mon.metrics().resets
        );
        mon
    };
    // Settle: constant values from here on ⇒ complete silence.
    let quiet: Vec<u64> = (0..n as u64).map(|i| 10_000 + i).collect();
    mon.step(300, &quiet);
    let after = mon.ledger().total();
    for t in 301..350 {
        mon.step(t, &quiet);
        assert_audit_clean(&mon, &quiet, "post-storm settle");
    }
    assert_eq!(
        mon.ledger().total(),
        after,
        "a healthy post-reset system is silent on a constant stream"
    );
}

/// The seeded boundary-storm generator (shared with the chaos soak): a
/// deterministic rain of glitches exactly on / one off / around the initial
/// filter threshold, audited every step, on two storm seeds.
#[test]
fn seeded_boundary_storm_survives_audits() {
    for seed in [21u64, 22] {
        let n = 10;
        // Ramp 100..=1000, k=3: initial threshold ⌊(800+700)/2⌋ = 750.
        let inner = WorkloadSpec::Ramp {
            n,
            base: 100,
            gap: 100,
        }
        .build(0);
        let sched = FaultSchedule::new().extend(boundary_storm(seed, n, 2, 80, 2, 750, 40));
        let mon = audit_run(sched.apply(inner), 3, 90, 13, "boundary storm");
        assert!(
            mon.metrics().violation_steps >= 5,
            "seed {seed}: a storm at the bar must violate repeatedly (got {})",
            mon.metrics().violation_steps
        );
    }
}

#[test]
fn long_soak_with_periodic_audits() {
    // 5k steps of a mixed workload with audits every step — the "leave it
    // running overnight" confidence test, shrunk to CI size.
    let n = 16;
    let feed = WorkloadSpec::Bursty {
        n,
        lo: 0,
        hi: 1 << 20,
        quiet_step: 8,
        burst_step: 1 << 14,
        p_enter_burst: 0.01,
        p_exit_burst: 0.1,
    }
    .build(11);
    let mon = audit_run(feed, 4, 5_000, 12, "bursty soak");
    // Soundness of the run itself: something happened, nothing leaked.
    let l = mon.ledger();
    assert!(l.total() > 0);
    assert_eq!(l.down, 0);
    assert_eq!(mon.metrics().total_up(), l.up);
    assert_eq!(mon.metrics().total_bcast(), l.broadcast);
}
