//! Chaos-soak artifact: run a runtime engine behind a seeded
//! fault-injecting transport over a reset-storm workload, hard-assert
//! bit-identity with a fault-free sequential twin at every committed step,
//! and write the [`RecoveryMetrics`] (plus ledger and wall clock) as JSON so
//! CI archives one recovery trajectory per commit next to the
//! `BENCH_*.json` perf artifacts:
//!
//! * default (threaded engine): `results/CHAOS_<seed>.json` — the
//!   in-process fault classes (drop, dup, delay, stall, reply-drop,
//!   coordinator crash-restart);
//! * `CHAOS_ENGINE=socket`: `results/CHAOS_SOCKET_<seed>.json` — the same
//!   classes plus the wire-level ones ([`topk_net::WireChaos`]: torn
//!   frames, connection resets, half-open connections, reconnect storms)
//!   on real loopback-TCP frames, with the physical wire ledger in the
//!   artifact.
//!
//! Usage: `CHAOS_SEED=<u64> [CHAOS_ENGINE=socket] cargo run --release -p
//! topk-bench --bin chaos_soak [out_dir]` (defaults: seed 101, threaded,
//! `results/`). The binary *fails* (panics) if any committed step diverges
//! from the twin or if a headline fault class never fired — an artifact is
//! only produced by a soak that actually proved recovery.

use std::time::Instant;

use serde::Serialize;

use topk_core::{Engine, MonitorBuilder};
use topk_net::chaos::{ChaosPolicy, RecoveryMetrics};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};
use topk_sim::{boundary_storm, FaultSchedule};
use topk_streams::WorkloadSpec;

#[derive(Serialize)]
struct ChaosArm {
    /// This arm's fault seed (the report's `chaos_seed`, then a derived one).
    chaos_seed: u64,
    steps: u64,
    resets: u64,
    violation_steps: u64,
    recovery: RecoveryMetrics,
    retransmit_frames: u64,
    model_messages: u64,
    /// Physical wire ledger (socket engine only; `None` on threaded).
    wire: Option<WireMetrics>,
    wall_ms: f64,
}

#[derive(Serialize)]
struct ChaosReport {
    suite: String,
    engine: String,
    chaos_seed: u64,
    policy: ChaosPolicy,
    n: usize,
    k: usize,
    arms: Vec<ChaosArm>,
    injected_total: u64,
}

fn run_arm(engine: Engine, policy: ChaosPolicy, n: usize, k: usize) -> ChaosArm {
    let steps = 300u64;
    let spec = WorkloadSpec::BoundaryCross {
        n,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    let sched = FaultSchedule::new().extend(boundary_storm(
        policy.seed ^ 0x910c,
        n,
        5,
        steps - 10,
        2,
        100,
        20,
    ));
    let mut chaotic = MonitorBuilder::new(n, k)
        .seed(47)
        .engine(engine)
        .chaos(policy)
        .build();
    let mut twin = MonitorBuilder::new(n, k)
        .seed(47)
        .engine(Engine::Sequential)
        .build();
    let mut feed_a = sched.apply(spec.build(3));
    let mut feed_b = sched.apply(spec.build(3));

    let t0 = Instant::now();
    for t in 0..steps {
        chaotic.ingest(feed_a.as_mut(), t);
        let ev_a = chaotic.advance(t).to_vec();
        twin.ingest(feed_b.as_mut(), t);
        assert_eq!(
            twin.advance(t),
            ev_a.as_slice(),
            "t={t}: seed {}: event stream diverged from fault-free twin",
            policy.seed
        );
        assert_eq!(twin.topk(), chaotic.topk(), "t={t}: answer diverged");
        assert_eq!(
            twin.threshold(),
            chaotic.threshold(),
            "t={t}: threshold diverged"
        );
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let recovery = *chaotic.recovery().expect("chaotic engines expose recovery");
    let l: LedgerSnapshot = chaotic.ledger();
    ChaosArm {
        chaos_seed: policy.seed,
        steps,
        resets: chaotic.metrics().resets,
        violation_steps: chaotic.metrics().violation_steps,
        recovery,
        retransmit_frames: l.retransmit,
        model_messages: l.up + l.down + l.broadcast,
        wire: chaotic.wire().copied(),
        wall_ms,
    }
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    let chaos_seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(101);
    let engine = match std::env::var("CHAOS_ENGINE").as_deref() {
        Ok("socket") | Ok("Socket") => Engine::Socket,
        _ => Engine::Threaded,
    };
    let (n, k) = (10, 2);
    let policy = ChaosPolicy::from_seed(chaos_seed);

    // Two fault seeds: the requested one, and one derived from it the way
    // `tests/chaos_soak.rs` derives its second seed.
    let arms: Vec<ChaosArm> = [policy, ChaosPolicy::from_seed(chaos_seed ^ 0x5eed)]
        .into_iter()
        .map(|p| run_arm(engine, p, n, k))
        .collect();

    // Coverage gate: the artifact only exists if the soak actually soaked.
    let sum = |f: fn(&RecoveryMetrics) -> u64| arms.iter().map(|a| f(&a.recovery)).sum::<u64>();
    assert!(sum(|r| r.injected_drops) > 0, "no drops injected");
    assert!(sum(|r| r.injected_dups) > 0, "no duplicates injected");
    assert!(sum(|r| r.injected_stalls) > 0, "no stalls injected");
    assert!(sum(|r| r.restarts) > 0, "no coordinator restarts injected");
    assert!(arms.iter().all(|a| a.resets >= 3), "storm did not storm");
    if matches!(engine, Engine::Socket) {
        // The wire classes must all have fired, every severed connection
        // must have re-handshook, and the dedup layer must have absorbed
        // re-delivered frames.
        assert!(sum(|r| r.injected_torn_frames) > 0, "no torn frames");
        assert!(sum(|r| r.injected_conn_resets) > 0, "no connection resets");
        assert!(sum(|r| r.injected_half_opens) > 0, "no half-opens");
        assert!(sum(|r| r.reconnects) > 0, "no reconnects");
        assert!(sum(|r| r.redelivered_frames) > 0, "no re-deliveries");
        assert!(
            arms.iter()
                .all(|a| a.wire.is_some_and(|w| w.retransmit_bytes > 0)),
            "faulty wire traffic must land on the retransmit channel"
        );
    }
    let injected_total = arms.iter().map(|a| a.recovery.injected_total()).sum();

    let (engine_name, stem) = match engine {
        Engine::Socket => ("socket", format!("CHAOS_SOCKET_{chaos_seed}")),
        _ => ("threaded", format!("CHAOS_{chaos_seed}")),
    };
    let report = ChaosReport {
        suite: "chaos_soak".into(),
        engine: engine_name.into(),
        chaos_seed,
        policy,
        n,
        k,
        arms,
        injected_total,
    };
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = format!("{dir}/{stem}.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(&path, json + "\n").expect("write json");
    println!("wrote {path} (engine={engine_name}, injected_total={injected_total})");
}
