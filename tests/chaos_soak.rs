//! Chaos-transport long soak: reset storms and boundary churn driven
//! through a seeded fault-injecting transport ([`ChaosPolicy`]) under
//! rotating fault seeds, with a deep invariant audit every step.
//!
//! Three cross-checked arms per chaos seed:
//!
//! 1. a **chaotic session** — the socket engine behind the fault layer,
//!    every frame crossing a real loopback socket;
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
//! headline fault class at least once — drops, duplicates, stalls,
//! coordinator crash-restarts and retries; torn frames, connection resets,
//! half-opens, reconnects and re-deliveries — proving the recovery
//! machinery (not the absence of faults) is what keeps the arms identical.
//!
//! `CHAOS_SEED=<u64>` rotates the fault seeds from CI without recompiling.
//! For the seeds CI runs, the injected-fault counters are pinned exactly.

use topk_monitoring::core::audit::assert_audit_clean;
use topk_monitoring::prelude::*;
use topk_monitoring::sim::{boundary_storm, FaultSchedule};

/// `CHAOS_SEED`, default 101.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(101)
}

/// Rotating fault seeds: three deterministic derivations of `base` so each
/// CI matrix entry exercises three distinct fault patterns.
fn chaos_seeds(base: u64) -> [u64; 3] {
    [base, base ^ 0x5eed, base.wrapping_mul(0x9e37_79b9).max(1)]
}

/// The ten classes [`RecoveryMetrics::injected_total`] sums, in its order.
fn injected(r: &RecoveryMetrics) -> [u64; 10] {
    [
        r.injected_drops,
        r.injected_dups,
        r.injected_delays,
        r.injected_stalls,
        r.injected_reply_drops,
        r.restarts,
        r.injected_torn_frames,
        r.injected_conn_resets,
        r.injected_half_opens,
        r.injected_storms,
    ]
}

/// Injected faults per class, summed over the three arms, for each
/// `CHAOS_SEED` that CI runs. Every fault rolls once per
/// `(seed, t, run, m, shard)` staged wave, so these repeat exactly, and a
/// change to which nodes a round stages moves them (restarts roll per
/// `(t, run, m)` and do not move). Retries, stale replies, re-deliveries
/// and reconnects follow the wall clock and are not pinned. The test
/// prints the vector for the current seed to stderr (`-- --nocapture`).
const PINNED_INJECTED: [(u64, [u64; 10]); 3] = [
    (101, [163, 120, 66, 54, 101, 27, 54, 51, 36, 34]),
    (3511, [119, 121, 76, 32, 68, 28, 33, 37, 20, 32]),
    (77041, [117, 136, 76, 44, 75, 24, 41, 33, 31, 35]),
];

/// One soak arm: `steps` of boundary churn + glitch rain on the socket
/// engine behind `policy`, cross-checked per step against the fault-free
/// sequential twin and the audited monitor. Returns the chaotic run's
/// recovery counters for the caller's coverage gate.
fn soak_arm(policy: ChaosPolicy, steps: u64) -> RecoveryMetrics {
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
    let ctx = format!("chaos soak (seed={})", policy.seed);

    let run_seed = 47;
    let mut chaotic = MonitorBuilder::new(n, k)
        .seed(run_seed)
        .engine(Engine::Socket)
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
    // Recovery rides `(t, run, m)` dedup, `Hello` re-handshakes and
    // snapshot + step re-run; the per-step pins hold on every arm.
    let base = chaos_seed();
    let mut total = RecoveryMetrics::default();
    let mut arms = 0u32;
    for chaos_seed in chaos_seeds(base) {
        total.absorb(&soak_arm(ChaosPolicy::from_seed(chaos_seed), 120));
        arms += 1;
    }
    // The vector `PINNED_INJECTED` pins, shown under `--nocapture`.
    eprintln!(
        "CHAOS_SEED={base}: injected per class {:?}",
        injected(&total)
    );

    // Coverage gate: across the rotating seeds every headline fault class
    // fired at least once, every severed connection re-handshook, and the
    // dedup layer absorbed re-deliveries — the soak proved recovery, not
    // fault absence.
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
    assert!(
        total.injected_torn_frames > 0,
        "no torn frames across soak: {total:?}"
    );
    assert!(
        total.injected_conn_resets > 0,
        "no connection resets across soak: {total:?}"
    );
    assert!(
        total.injected_half_opens > 0,
        "no half-opens across soak: {total:?}"
    );
    assert!(
        total.reconnects > 0,
        "wire faults never forced a reconnect: {total:?}"
    );
    assert!(
        total.redelivered_frames > 0,
        "reconnects never re-delivered a frame: {total:?}"
    );
    if let Some((_, want)) = PINNED_INJECTED.iter().find(|(seed, _)| *seed == base) {
        assert_eq!(
            injected(&total),
            *want,
            "CHAOS_SEED={base}: injected faults per class moved: {total:?}"
        );
    }
}
