//! The repository's central runtime invariant: for identical behaviors and
//! inputs, the threaded execution (real OS threads + crossbeam channels)
//! produces a model ledger identical to the deterministic sequential
//! simulator — message for message, bit for bit.

use topk_monitoring::net::behavior::CoordinatorBehavior;
use topk_monitoring::net::threaded::ThreadedCluster;
use topk_monitoring::net::Runtime;
use topk_monitoring::prelude::*;

fn run_both(n: usize, k: usize, steps: usize, seed: u64, spec: &WorkloadSpec) {
    let trace = spec.record(seed, steps);
    let cfg = MonitorConfig::new(n, k);

    let mut seq = TopkMonitor::new(cfg, seed);
    for t in 0..trace.steps() {
        seq.step(t as u64, trace.step(t));
    }

    let (nodes, mut coord) = TopkMonitor::make_parts(cfg, seed);
    let mut cluster = ThreadedCluster::spawn(nodes);
    let mut topk_trail = Vec::new();
    for t in 0..trace.steps() {
        cluster.step(&mut coord, t as u64, trace.step(t));
        topk_trail.push(coord.topk().to_vec());
        assert!(is_valid_topk(trace.step(t), coord.topk()));
    }

    let s = seq.ledger();
    let c = cluster.ledger().snapshot();
    assert_eq!(s.up, c.up, "n={n} k={k} seed={seed}: up mismatch");
    assert_eq!(s.down, c.down, "n={n} k={k} seed={seed}: down mismatch");
    assert_eq!(
        s.broadcast, c.broadcast,
        "n={n} k={k} seed={seed}: broadcast mismatch"
    );
    assert_eq!(s.up_bits, c.up_bits, "payload bits must match");
    assert_eq!(s.broadcast_bits, c.broadcast_bits);
    assert_eq!(
        seq.topk(),
        *topk_trail.last().unwrap(),
        "final answers must agree"
    );
    drop(cluster);
}

#[test]
fn equivalence_small_configs() {
    let spec = WorkloadSpec::RandomWalk {
        n: 6,
        lo: 0,
        hi: 10_000,
        step_max: 500,
        lazy_p: 0.2,
    };
    for seed in 0..4 {
        run_both(6, 2, 120, seed, &spec);
    }
}

#[test]
fn equivalence_various_shapes() {
    for &(n, k) in &[(2usize, 1usize), (5, 4), (12, 3), (16, 8)] {
        let spec = WorkloadSpec::RandomWalk {
            n,
            lo: 0,
            hi: 20_000,
            step_max: 800,
            lazy_p: 0.1,
        };
        run_both(n, k, 100, 42, &spec);
    }
}

#[test]
fn equivalence_on_adversarial_churn() {
    let spec = WorkloadSpec::RotatingMax {
        n: 8,
        base: 100,
        bonus: 10_000,
    };
    run_both(8, 1, 60, 7, &spec);
    let spec2 = WorkloadSpec::BoundaryCross {
        n: 8,
        base: 1_000,
        spread: 100,
        amplitude: 80,
        period: 10,
    };
    run_both(8, 1, 80, 8, &spec2);
}

#[test]
fn equivalence_under_every_round_policy() {
    let spec = WorkloadSpec::IidUniform {
        n: 7,
        lo: 0,
        hi: 500,
    };
    let trace = spec.record(3, 80);
    let cfg = MonitorConfig::new(7, 3).with_policy(BroadcastPolicy::EveryRound);

    let mut seq = TopkMonitor::new(cfg, 5);
    for t in 0..trace.steps() {
        seq.step(t as u64, trace.step(t));
    }
    let (nodes, mut coord) = TopkMonitor::make_parts(cfg, 5);
    let mut cluster = ThreadedCluster::spawn(nodes);
    for t in 0..trace.steps() {
        cluster.step(&mut coord, t as u64, trace.step(t));
    }
    let s = seq.ledger();
    let c = cluster.ledger().snapshot();
    assert_eq!((s.up, s.broadcast), (c.up, c.broadcast));
    drop(cluster);
}
