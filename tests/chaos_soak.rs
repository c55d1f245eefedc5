//! Chaos-transport long soak: reset storms and boundary churn driven
//! through a seeded fault-injecting transport ([`ChaosPolicy`]) under
//! rotating fault seeds, with a deep invariant audit every step.
//!
//! Three cross-checked arms per `(engine, chaos seed)`:
//!
//! 1. a **chaotic session** — the engine under soak behind the fault layer;
//! 2. a **fault-free session twin** — sequential engine, same stream — whose
//!    typed event stream, answers and thresholds the chaotic arm must match
//!    bit-for-bit at every committed step (the Las Vegas-exact pin);
//! 3. an **audited monitor twin** — a raw sequential [`TopkMonitor`] run
//!    under `topk_core::audit`, which cross-checks coordinator state, node
//!    filters, Lemma 2.2 validity and the `T±` certificate each step.
//!
//! The stream itself is hostile: a `BoundaryCross` oscillation that forces
//! a reset every few steps, with a seeded [`boundary_storm`] glitch rain
//! (shared `topk_sim::faults` vocabulary) landing values exactly on the
//! filter boundaries. Across the rotating seeds the soak must observe every
//! headline fault class at least once — drops, duplicates, stalls and
//! coordinator crash-restarts on the threaded slice; torn frames,
//! connection resets, half-opens and reconnects on the socket slice —
//! proving the recovery machinery (not the absence of faults) is what keeps
//! the arms identical.
//!
//! `CHAOS_SEED=<u64>` rotates the fault seeds from CI without recompiling.

use topk_monitoring::core::audit::assert_audit_clean;
use topk_monitoring::prelude::*;
use topk_monitoring::sim::{boundary_storm, FaultSchedule};

/// Rotating fault seeds: three deterministic derivations of `CHAOS_SEED`
/// (default 101) so each CI matrix entry exercises three distinct fault
/// patterns.
fn chaos_seeds() -> [u64; 3] {
    let base: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(101);
    [base, base ^ 0x5eed, base.wrapping_mul(0x9e37_79b9).max(1)]
}

/// One soak arm: `steps` of boundary churn + glitch rain on `engine` behind
/// `policy`, cross-checked per step against the fault-free sequential twin
/// and the audited monitor. Returns the chaotic run's recovery counters for
/// the caller's coverage gate.
fn soak_arm(engine: Engine, policy: ChaosPolicy, steps: u64) -> RecoveryMetrics {
    let n = 10;
    let k = 2;
    let spec = WorkloadSpec::BoundaryCross {
        n,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    // Boundary churn on top of the storm: seeded glitch rain around the
    // oscillation band, exactly on / one off the contested values.
    let sched = FaultSchedule::new().extend(boundary_storm(
        policy.seed ^ 0x910c,
        n,
        5,
        steps - 10,
        2,
        100,
        20,
    ));
    let ctx = format!("chaos soak (seed={}, {engine:?})", policy.seed);

    let run_seed = 47;
    let mut chaotic = MonitorBuilder::new(n, k)
        .seed(run_seed)
        .engine(engine)
        .chaos(policy)
        .build();
    let mut twin = MonitorBuilder::new(n, k)
        .seed(run_seed)
        .engine(Engine::Sequential)
        .build();
    let mut audited = TopkMonitor::new(MonitorConfig::new(n, k), run_seed);

    let mut feed_chaotic = sched.apply(spec.build(3));
    let mut feed_twin = sched.apply(spec.build(3));
    let mut feed_audited = sched.apply(spec.build(3));
    let mut row = vec![0u64; n];

    for t in 0..steps {
        chaotic.ingest(feed_chaotic.as_mut(), t);
        let ev_chaos: Vec<TopkEvent> = chaotic.advance(t).to_vec();
        twin.ingest(feed_twin.as_mut(), t);
        let ev_twin: Vec<TopkEvent> = twin.advance(t).to_vec();
        feed_audited.fill_step(t, &mut row);
        audited.step(t, &row);

        // Per-step audit of the committed protocol state…
        assert_audit_clean(&audited, &row, &ctx);
        // …and per-step identity of everything the model can observe.
        assert_eq!(ev_twin, ev_chaos, "t={t}: {ctx}: event stream diverged");
        assert_eq!(twin.topk(), chaotic.topk(), "t={t}: {ctx}: answer");
        assert_eq!(audited.topk(), chaotic.topk(), "t={t}: {ctx}: audit arm");
        assert_eq!(
            twin.threshold(),
            chaotic.threshold(),
            "t={t}: {ctx}: threshold"
        );
    }

    // The storm must actually storm: repeated violations and resets.
    let m = audited.metrics();
    assert!(
        m.resets >= 3,
        "{ctx}: boundary crossings must reset repeatedly (got {})",
        m.resets
    );
    let recovery = *chaotic.recovery().expect("chaotic engines expose recovery");
    assert!(
        recovery.injected_total() > 0,
        "{ctx}: no faults injected: {recovery:?}"
    );
    recovery
}

#[test]
fn chaos_soak_reset_storms_with_per_step_audits() {
    let mut total = RecoveryMetrics::default();
    let mut arms = 0u32;
    for chaos_seed in chaos_seeds() {
        let recovery = soak_arm(Engine::Threaded, ChaosPolicy::from_seed(chaos_seed), 160);
        total.injected_drops += recovery.injected_drops;
        total.injected_dups += recovery.injected_dups;
        total.injected_delays += recovery.injected_delays;
        total.injected_stalls += recovery.injected_stalls;
        total.injected_reply_drops += recovery.injected_reply_drops;
        total.restarts += recovery.restarts;
        total.retries += recovery.retries;
        arms += 1;
    }

    // Coverage gate: across the rotating seeds every headline fault class
    // fired at least once — the soak proved recovery, not fault absence.
    assert_eq!(arms, 3);
    assert!(total.injected_drops > 0, "no drops across soak: {total:?}");
    assert!(
        total.injected_dups > 0,
        "no duplicates across soak: {total:?}"
    );
    assert!(
        total.injected_stalls > 0,
        "no stalls across soak: {total:?}"
    );
    assert!(total.restarts > 0, "no restarts across soak: {total:?}");
    assert!(total.retries > 0, "faults never forced a retry: {total:?}");
}

#[test]
fn chaos_soak_socket_wire_storms_with_per_step_audits() {
    // The socket slice: the same hostile stream, but every frame crosses a
    // real loopback socket through the wire-level fault classes on top of
    // the in-process ones. Recovery rides `(t, run, m)` dedup, `Hello`
    // re-handshakes and snapshot + step re-run; the per-step pins are
    // identical to the threaded slice.
    let mut total = RecoveryMetrics::default();
    let mut arms = 0u32;
    for chaos_seed in chaos_seeds() {
        let recovery = soak_arm(Engine::Socket, ChaosPolicy::from_seed(chaos_seed), 120);
        total.injected_torn_frames += recovery.injected_torn_frames;
        total.injected_conn_resets += recovery.injected_conn_resets;
        total.injected_half_opens += recovery.injected_half_opens;
        total.injected_storms += recovery.injected_storms;
        total.reconnects += recovery.reconnects;
        total.redelivered_frames += recovery.redelivered_frames;
        total.stale_replies += recovery.stale_replies;
        arms += 1;
    }

    // Coverage gate for the wire classes: every one fired at least once
    // across the rotating seeds, every severed connection re-handshook, and
    // the dedup layer actually absorbed re-deliveries.
    assert_eq!(arms, 3);
    assert!(
        total.injected_torn_frames > 0,
        "no torn frames across socket soak: {total:?}"
    );
    assert!(
        total.injected_conn_resets > 0,
        "no connection resets across socket soak: {total:?}"
    );
    assert!(
        total.injected_half_opens > 0,
        "no half-opens across socket soak: {total:?}"
    );
    assert!(
        total.reconnects > 0,
        "wire faults never forced a reconnect: {total:?}"
    );
    assert!(
        total.redelivered_frames > 0,
        "reconnects never re-delivered a frame: {total:?}"
    );
}
