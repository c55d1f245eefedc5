//! Session-layer contract suite: the typed event stream is a *lossless*
//! view of the monitoring run.
//!
//! 1. **Replayability** (property-tested across the engines): feeding every `advance` batch into an [`EventReplay`]
//!    reconstructs exactly the session's polled `topk()`, its rank order,
//!    and its `threshold()` at every step — for any workload and any
//!    dense/sparse routing interleaving.
//! 2. **Zero-alloc steady state**: the buffer `advance` returns is reused —
//!    its capacity stops growing once the session has warmed up, on silent
//!    ticks *and* on steps that emit events.
//!
//! Run under rotated `PROPTEST_SEED`s in CI.

use proptest::prelude::*;

use topk_monitoring::prelude::*;

/// Drive a session over `steps` of `spec` (plus a churny tail), replaying
/// every event batch and asserting the reconstruction matches the polled
/// state at each step. Returns (events_total, resets_replayed).
fn assert_replay_reconstructs(
    spec: &WorkloadSpec,
    k: usize,
    seed: u64,
    steps: u64,
    engine: Engine,
) -> (u64, u64) {
    let n = spec.n();
    let mut session = MonitorBuilder::new(n, k).seed(seed).engine(engine).build();
    let mut feed = spec.build(seed ^ 0x5e55);
    let mut replay = EventReplay::new();
    let mut row = vec![0u64; n];
    let mut order = Vec::new();
    let mut events_total = 0u64;

    let mut check = |t: u64, session: &mut MonitorSession, row: &mut Vec<u64>| {
        let events = session.advance(t);
        events_total += events.len() as u64;
        assert!(
            events.iter().all(|e| e.t() == t),
            "t={t}: event stamped with foreign step"
        );
        replay.apply(events);
        assert_eq!(
            replay.topk(),
            session.topk(),
            "t={t}: replayed membership diverged from polled topk()"
        );
        assert_eq!(
            replay.by_rank(),
            session.topk_by_rank(),
            "t={t}: replayed rank order diverged"
        );
        assert_eq!(
            replay.threshold(),
            session.threshold(),
            "t={t}: replayed threshold diverged"
        );
        // The rank order itself must agree with ground truth: members
        // sorted by (value desc, id asc) over the pushed rows.
        order.clear();
        order.extend_from_slice(session.topk());
        order.sort_by(|a, b| row[b.idx()].cmp(&row[a.idx()]).then(a.cmp(b)));
        assert_eq!(
            order.as_slice(),
            session.topk_by_rank(),
            "t={t}: rank order diverged from ground truth"
        );
        assert!(is_valid_topk(row, session.topk()), "t={t}: invalid answer");
    };

    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    for t in 0..steps {
        feed.fill_delta(t, &mut changes);
        for &(id, v) in &changes {
            row[id.idx()] = v;
        }
        session.update_batch(changes.iter().copied());
        check(t, &mut session, &mut row);
    }
    // Churny iid tail: forces fresh protocol episodes (and usually resets)
    // through the same replay checks.
    let tail = WorkloadSpec::IidUniform {
        n,
        lo: 0,
        hi: 1 << 14,
    };
    let mut tail_feed = tail.build(seed ^ 0x7a11);
    for t in steps..steps + 25 {
        tail_feed.fill_delta(t, &mut changes);
        for &(id, v) in &changes {
            row[id.idx()] = v;
        }
        session.update_batch(changes.iter().copied());
        check(t, &mut session, &mut row);
    }
    (events_total, replay.resets())
}

/// Both in-process engines on a reset-heavy named workload, with fixed
/// seeds: replay reconstructs every arm, the two engines produce identical
/// event totals, and the replayed reset count matches the coordinator's
/// metrics.
#[test]
fn matrix_replay_reconstructs_reset_heavy_churn() {
    let spec = WorkloadSpec::BoundaryCross {
        n: 10,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    let mut per_engine = Vec::new();
    for engine in [Engine::Sequential, Engine::Threaded] {
        let (events, resets) = assert_replay_reconstructs(&spec, 1, 11, 200, engine);
        assert!(resets >= 3, "workload must be reset-heavy, got {resets}");
        per_engine.push((events, resets));
    }
    assert_eq!(
        per_engine[0], per_engine[1],
        "engines must emit identical event volumes"
    );
}

/// Replayed reset counts equal the coordinator's own accounting
/// (`metrics().resets` + the t = 0 initialization).
#[test]
fn replayed_resets_match_metrics() {
    let spec = WorkloadSpec::RotatingMax {
        n: 8,
        base: 100,
        bonus: 10_000,
    };
    let n = spec.n();
    let mut session = MonitorBuilder::new(n, 2).seed(5).build();
    let mut feed = spec.build(3);
    let mut replay = EventReplay::new();
    for t in 0..150 {
        session.ingest(&mut feed, t);
        replay.apply(session.advance(t));
    }
    assert_eq!(replay.resets(), session.metrics().resets + 1);
    assert_eq!(replay.topk(), session.topk());
}

/// Crash-restart losslessness: a restart-heavy [`ChaosPolicy`] crashes the
/// coordinator mid-step — including mid-`FILTERRESET` — many times over a
/// reset storm; the step re-runs from the committed snapshot, so the event
/// stream the session *publishes* must be exactly the fault-free stream: an
/// [`EventReplay`] reconstructs the polled state at every step, the
/// per-step batches match a fault-free twin bit-for-bit (in particular, a
/// re-run step never duplicates its `ResetCompleted`), and the replayed
/// reset count still equals the coordinator's own accounting.
#[test]
fn coordinator_restarts_mid_reset_replay_losslessly() {
    let spec = WorkloadSpec::BoundaryCross {
        n: 10,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    let n = spec.n();
    // Crash-heavy, plus enough drop/dup noise to also hit retry paths
    // during the re-run attempts.
    let policy = ChaosPolicy::from_seed(77).with_rates(20, 20, 10, 5, 10, 150);
    let mut chaotic = MonitorBuilder::new(n, 1).seed(11).chaos(policy).build();
    let mut twin = MonitorBuilder::new(n, 1)
        .seed(11)
        .engine(Engine::Sequential)
        .build();
    let mut feed_a = spec.build(13);
    let mut feed_b = spec.build(13);
    let mut replay = EventReplay::new();
    let mut resets_seen = 0u64;

    for t in 0..200 {
        chaotic.ingest(&mut feed_a, t);
        let events: Vec<TopkEvent> = chaotic.advance(t).to_vec();
        twin.ingest(&mut feed_b, t);
        assert_eq!(
            twin.advance(t),
            events.as_slice(),
            "t={t}: restart re-runs leaked into the published stream"
        );
        let resets_this_step = events
            .iter()
            .filter(|e| matches!(e, TopkEvent::ResetCompleted { .. }))
            .count() as u64;
        assert!(
            resets_this_step <= 1,
            "t={t}: a re-run step duplicated ResetCompleted"
        );
        resets_seen += resets_this_step;

        replay.apply(&events);
        assert_eq!(replay.topk(), chaotic.topk(), "t={t}: membership");
        assert_eq!(replay.by_rank(), chaotic.topk_by_rank(), "t={t}: ranks");
        assert_eq!(replay.threshold(), chaotic.threshold(), "t={t}: threshold");
    }

    assert!(resets_seen >= 3, "storm must reset repeatedly");
    assert_eq!(replay.resets(), resets_seen);
    assert_eq!(replay.resets(), chaotic.metrics().resets + 1);
    let recovery = chaotic.recovery().expect("chaotic engine is threaded");
    assert!(
        recovery.restarts > 0,
        "a 15% crash rate over 200 stormy steps must restart: {recovery:?}"
    );
    assert!(recovery.rerun_rounds > 0, "restarts must re-run rounds");
}

/// Zero-alloc steady state, silent regime: no updates ⇒ empty batches and
/// a frozen buffer capacity.
#[test]
fn event_buffer_is_reused_on_silent_ticks() {
    for engine in [Engine::Sequential, Engine::Threaded] {
        let mut session = MonitorBuilder::new(32, 4).seed(9).engine(engine).build();
        let ramp: Vec<(NodeId, Value)> =
            (0..32).map(|i| (NodeId(i), 100 * (i as u64 + 1))).collect();
        session.update_batch(ramp);
        session.advance(0);
        let cap = session.event_capacity();
        assert!(cap > 0, "initialization must have emitted events");
        for t in 1..500 {
            assert!(session.advance(t).is_empty(), "t={t}: silent tick emitted");
        }
        assert_eq!(
            session.event_capacity(),
            cap,
            "{engine:?}: steady state must not reallocate the event buffer"
        );
    }
}

/// Zero-alloc steady state, *eventful* regime: two members swap ranks
/// within their filters every step (zero messages, two RankChanged events)
/// — the buffer must still stop growing after warmup.
#[test]
fn event_buffer_is_reused_under_rank_churn() {
    let mut session = MonitorBuilder::new(4, 2).seed(3).build();
    session.update_batch([
        (NodeId(0), 20),
        (NodeId(1), 100),
        (NodeId(2), 40),
        (NodeId(3), 80),
    ]);
    session.advance(0);
    let msgs_after_init = session.ledger().total();
    // Warm one swap so the buffer has seen its steady-state event count.
    session.update_batch([(NodeId(1), 80), (NodeId(3), 100)]);
    session.advance(1);
    let cap = session.event_capacity();
    for t in 2..300 {
        let (hi, lo) = if t % 2 == 0 { (100, 80) } else { (80, 100) };
        session.update_batch([(NodeId(1), hi), (NodeId(3), lo)]);
        let events = session.advance(t);
        assert_eq!(
            events.len(),
            2,
            "t={t}: expected exactly the two rank swaps"
        );
        assert!(events
            .iter()
            .all(|e| matches!(e, TopkEvent::RankChanged { .. })));
    }
    assert_eq!(
        session.event_capacity(),
        cap,
        "rank churn must reuse the buffer"
    );
    assert_eq!(
        session.ledger().total(),
        msgs_after_init,
        "within-filter churn must stay message-free"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Arbitrary walks, k, seeds and engines: the event stream replays
    /// losslessly.
    #[test]
    fn arbitrary_walks_replay_losslessly(
        n in 2usize..14,
        k_off in 0usize..4,
        seed in 0u64..1000,
        step_max in 1u64..2000,
        engine_pick in 0u8..2,
    ) {
        let spec = WorkloadSpec::RandomWalk {
            n,
            lo: 0,
            hi: 1 << 16,
            step_max,
            lazy_p: 0.3,
        };
        let k = 1 + k_off.min(n - 1);
        let engine = if engine_pick == 0 { Engine::Sequential } else { Engine::Threaded };
        assert_replay_reconstructs(&spec, k, seed, 200, engine);
    }

    /// Natively sparse workloads (small batches → the sparse commit route,
    /// with occasional dense-routed bursts from the iid tail) replay
    /// losslessly too.
    #[test]
    fn sparse_walks_replay_losslessly(
        n in 4usize..32,
        seed in 0u64..1000,
        sparsity_pct in 1u64..50,
    ) {
        let spec = WorkloadSpec::default_sparse_walk(n, sparsity_pct as f64 / 100.0);
        assert_replay_reconstructs(&spec, 2, seed, 200, Engine::Sequential);
    }
}
