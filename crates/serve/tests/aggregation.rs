//! Metrics aggregation and fault-tolerance contracts of the serving layer.
//!
//! 1. **Twin decomposition**: each shard of a [`TopkService`] is an
//!    ordinary [`MonitorSession`] — rebuilding every shard from the
//!    service's published shape (`shard_dims` / `shard_seed` / `shard_of` /
//!    `local_of`) and driving the twins with the same routed updates
//!    reproduces each shard's [`RunMetrics`] and ledger bit-identically,
//!    and the service aggregate equals the counter-wise sum of the twins.
//! 2. **Wire arm** ([`Engine::Socket`]): the service's physical wire
//!    ledger is the sum of per-shard wire blocks and is mirrored into the
//!    aggregated `RunMetrics`.
//! 3. **Chaos**: shard-level fault injection and recovery mid-run never
//!    perturbs the merged answers — a chaotic service is event-for-event
//!    identical to its fault-free twin, while its recovery counters show
//!    the faults actually fired.
//!
//! [`MonitorSession`]: topk_core::session::MonitorSession
//! [`RunMetrics`]: topk_core::RunMetrics
//! [`Engine::Socket`]: topk_core::session::Engine::Socket

use topk_core::session::{Engine, MonitorBuilder, MonitorSession};
use topk_core::RunMetrics;
use topk_net::chaos::ChaosPolicy;
use topk_net::id::{NodeId, Value};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};
use topk_serve::{ServeBuilder, TopkService};

/// Deterministic churny update stream: every step moves a third of the
/// keys to a hashed value (enough traffic to exercise violations, handler
/// protocols and resets).
fn step_updates(keys: usize, t: u64) -> Vec<(NodeId, Value)> {
    (0..keys)
        .filter(|key| (key + t as usize).is_multiple_of(3))
        .map(|key| {
            let v = (key as u64 + 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(t.wrapping_mul(0x2545_f491_4f6c_dd1d));
            (NodeId(key as u32), v % 100_000)
        })
        .collect()
}

/// Rebuild every shard of `svc` as a standalone session twin, preserving
/// dimensions, derived seed, engine, and knobs (defaults here).
fn shard_twins(svc: &TopkService, engine: Engine) -> Vec<MonitorSession> {
    (0..svc.shard_count())
        .map(|s| {
            let (n_s, k_s) = svc.shard_dims(s);
            MonitorBuilder::new(n_s, k_s)
                .seed(svc.shard_seed(s))
                .engine(engine)
                .build()
        })
        .collect()
}

#[test]
fn shard_twins_reproduce_metrics_and_sums() {
    let (keys, k, shards) = (30, 4, 3);
    let mut svc = ServeBuilder::new(keys, k)
        .shards(shards)
        .seed(77)
        .engine(Engine::Sequential)
        .build();
    assert_eq!(svc.shard_count(), shards);
    let mut twins = shard_twins(&svc, Engine::Sequential);

    let steps = 60u64;
    for t in 0..steps {
        let updates = step_updates(keys, t);
        for &(key, v) in &updates {
            svc.update(key, v);
            twins[svc.shard_of(key)].update(svc.local_of(key), v);
        }
        svc.advance(t);
        for twin in &mut twins {
            twin.advance(t);
        }
    }

    // Per-shard: the published metrics and ledger are the twin's, exactly.
    let mut sum = RunMetrics::default();
    let mut ledger_sum = LedgerSnapshot::default();
    for (s, twin) in twins.iter().enumerate() {
        assert_eq!(
            svc.shard_metrics(s),
            *twin.metrics(),
            "shard {s}: metrics diverged from standalone twin"
        );
        assert_eq!(
            svc.shard_ledger(s),
            twin.ledger(),
            "shard {s}: ledger diverged from standalone twin"
        );
        sum.absorb(twin.metrics());
        ledger_sum = ledger_sum.plus(&twin.ledger());
    }

    // Aggregate: counter-wise sums of the shard blocks.
    assert_eq!(svc.metrics(), sum, "service metrics must sum shard blocks");
    assert_eq!(
        svc.ledger(),
        ledger_sum,
        "service ledger must sum shard ledgers"
    );
    assert_eq!(
        svc.metrics().steps,
        shards as u64 * steps,
        "steps counts shard-steps"
    );

    // Sequential shards: no transport, no recovery, no wire.
    assert_eq!(svc.recovery(), None);
    assert_eq!(svc.wire(), None);
    assert_eq!(svc.engine(), Engine::Sequential);
}

#[test]
fn socket_wire_ledger_sums_across_shards() {
    let (keys, k, shards) = (12, 2, 2);
    let mut svc = ServeBuilder::new(keys, k)
        .shards(shards)
        .seed(5)
        .engine(Engine::Socket)
        .build();
    assert_eq!(svc.engine(), Engine::Socket);
    for t in 0..25 {
        svc.update_batch(step_updates(keys, t));
        svc.advance(t);
    }
    let wire = svc.wire().expect("socket shards meter the wire");
    assert!(wire.frames_total > 0 && wire.bytes_total > 0);

    // The aggregate is the exact sum of the per-shard blocks, and the same
    // block is mirrored into the aggregated RunMetrics.
    let mut sum = WireMetrics::default();
    for s in 0..svc.shard_count() {
        sum.absorb(&svc.shard_metrics(s).wire);
    }
    assert_eq!(wire, sum, "service wire ledger must sum shard wire blocks");
    assert_eq!(svc.metrics().wire, sum, "RunMetrics.wire mirror diverged");
    assert!(
        svc.recovery().is_some(),
        "socket shards expose (all-zero) recovery counters"
    );
}

/// Drive a chaotic service and its fault-free socket twin through the
/// same stream, asserting the merged outputs never diverge. Returns the
/// chaotic service so callers can tighten additional pins.
fn assert_chaos_transparent(policy: ChaosPolicy, steps: u64) -> (TopkService, TopkService) {
    let (keys, k, shards) = (14, 3, 3);
    let seed = 9;
    let mut chaotic = ServeBuilder::new(keys, k)
        .shards(shards)
        .seed(seed)
        .chaos(policy)
        .build();
    // Chaos falls back to the socket engine; the fault-free twin must run
    // the same engine for bit-identical protocol streams.
    assert_eq!(chaotic.engine(), Engine::Socket);
    let mut calm = ServeBuilder::new(keys, k)
        .shards(shards)
        .seed(seed)
        .engine(Engine::Socket)
        .build();

    for t in 0..steps {
        let updates = step_updates(keys, t);
        chaotic.update_batch(updates.iter().copied());
        calm.update_batch(updates.iter().copied());
        let chaotic_events = chaotic.advance(t).to_vec();
        let calm_events = calm.advance(t);
        assert_eq!(
            chaotic_events, calm_events,
            "t={t}: shard recovery leaked into the merged event stream"
        );
        assert_eq!(chaotic.topk(), calm.topk(), "t={t}: answers diverged");
        assert_eq!(
            chaotic.threshold(),
            calm.threshold(),
            "t={t}: thresholds diverged"
        );
    }

    // The faults were real: injection counters fired somewhere in the fleet.
    let recovery = chaotic.recovery().expect("chaotic shards track recovery");
    let injected = recovery.injected_drops
        + recovery.injected_dups
        + recovery.injected_delays
        + recovery.injected_reply_drops
        + recovery.restarts;
    assert!(
        injected > 0,
        "chaos policy injected no faults in {steps} steps"
    );
    (chaotic, calm)
}

#[test]
fn chaos_recovery_never_perturbs_merged_answers() {
    // The full fault menu, coordinator restarts included. Restart re-runs
    // may re-roll a Las Vegas protocol (different message counts, same
    // committed answer), so this arm pins outputs, not message counters.
    let _ = assert_chaos_transparent(ChaosPolicy::from_seed(41), 80);
}

#[test]
fn restart_free_chaos_keeps_model_cost_identical() {
    // Without coordinator restarts every committed protocol exchange is
    // replayed bit-identically, so the pin tightens: the chaotic fleet's
    // scrubbed metrics equal the fault-free twin's exactly.
    let policy = ChaosPolicy::from_seed(43).with_rates(40, 40, 25, 10, 25, 0);
    let (chaotic, calm) = assert_chaos_transparent(policy, 80);
    assert_eq!(chaotic.recovery().unwrap().restarts, 0);
    let committed = RunMetrics {
        recovery: Default::default(),
        wire: Default::default(),
        ..chaotic.metrics()
    };
    let calm_committed = RunMetrics {
        recovery: Default::default(),
        wire: Default::default(),
        ..calm.metrics()
    };
    assert_eq!(committed, calm_committed, "model cost must be fault-free");
    assert_eq!(
        chaotic.ledger().total(),
        calm.ledger().total(),
        "model ledger must be fault-free"
    );
}
