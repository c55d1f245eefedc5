//! One million nodes, one coordinator, one push-based session.
//!
//! The regime the filter method targets at production scale: a huge fleet
//! where almost nothing changes per step. The session buffers only the
//! movers and routes each commit to the sparse execution path, so the
//! steady-state cost per step is O(#movers), independent of `n`, and the
//! one-time init FILTERRESET runs the batched k-select sweep —
//! `⌈log₂(n/(k+1))⌉ + k + 3` coordinator rounds instead of the
//! pseudocode's `(k+1)·(⌈log₂n⌉+1) + 1`. The example times the init step,
//! then drives the steady state.
//!
//! Run with: `cargo run --release --example million_nodes`

use std::time::Instant;

use topk_monitoring::prelude::*;

fn main() {
    let n = 1_000_000usize;
    let k = 8;
    // 100 movers/step on a 2⁴⁰ domain: boundary gaps dwarf the step size,
    // so steps are overwhelmingly silent (the paper's target regime).
    let spec = WorkloadSpec::SparseWalk {
        n,
        lo: 0,
        hi: 1 << 40,
        step_max: 64,
        sparsity: 0.0001,
    };
    println!("building session: n = {n}, k = {k} ...");
    let t0 = Instant::now();
    let mut session = MonitorBuilder::new(n, k).seed(42).build();
    let mut feed = spec.build(7);
    println!("  constructed in {:.2?}", t0.elapsed());

    session.ingest(&mut feed, 0);
    let t0 = Instant::now();
    let init_events = session.advance(0).len();
    let init = t0.elapsed();
    println!(
        "  init via batched reset (⌈log₂(n/(k+1))⌉+k+3 = {} rounds): {init:.2?}, \
         {} messages, {init_events} events",
        session.metrics().reset_rounds,
        session.ledger().total()
    );

    let after_init_msgs = session.ledger().total();
    let steps = 10_000u64;
    let mut events_seen = 0u64;
    let t0 = Instant::now();
    for t in 1..=steps {
        session.ingest(&mut feed, t);
        events_seen += session.advance(t).len() as u64;
    }
    let elapsed = t0.elapsed();

    let per_step_us = elapsed.as_micros() as f64 / steps as f64;
    println!("ran {steps} steps in {elapsed:.2?}");
    println!(
        "  {per_step_us:.1} µs/step ({:.0} steps/s)",
        1e6 / per_step_us
    );
    println!(
        "  silent steps: {} / {steps}, messages after init: {}, events: {events_seen}",
        session.silent_steps(),
        session.ledger().total() - after_init_msgs
    );
    println!("  top-{k}: {:?}", session.topk());

    // The answer stays exact: rebuild the final row from a delta-driven
    // twin (O(n + steps·movers), not 10k full-row copies) and check it.
    let mut twin = spec.build(7);
    let mut row = vec![0u64; n];
    let mut twin_changes: Vec<(NodeId, Value)> = Vec::new();
    for t in 0..=steps {
        twin.fill_delta(t, &mut twin_changes);
        for &(id, v) in &twin_changes {
            row[id.idx()] = v;
        }
    }
    assert!(
        is_valid_topk(&row, session.topk()),
        "answer must stay valid"
    );
    println!("  answer validated against an independently generated twin ✓");
}
