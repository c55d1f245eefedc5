//! Two million keys behind one ingest front door.
//!
//! The serving layer's hero regime: a key space too large (or too busy)
//! for one coordinator, hashed across shard sessions that each run the
//! paper's protocol on their slice — while [`TopkService`] answers about
//! the *global* top-k, exactly, via an S-way merge of shard candidate
//! lists. Ingest stays the push surface a single session has; the merge
//! adds `O(S + k·log S)` inspected candidates to a changed step and
//! nothing to a silent one.
//!
//! The run drives 2M keys × 4 shards through a sparse walk, then
//! validates the merged answer and the global threshold against an
//! independently reconstructed row.
//!
//! Run with: `cargo run --release --example sharded_service`

use std::time::Instant;

use topk_monitoring::prelude::*;

fn main() {
    let keys = 2_000_000usize;
    let k = 10;
    let shards = 4;
    // 200 movers/step on a 2⁴⁰ domain: boundary gaps dwarf the step size,
    // so most steps are globally silent (the paper's target regime).
    let spec = WorkloadSpec::SparseWalk {
        n: keys,
        lo: 0,
        hi: 1 << 40,
        step_max: 64,
        sparsity: 0.0001,
    };

    println!("building service: {keys} keys, k = {k}, {shards} shards ...");
    let t0 = Instant::now();
    let mut svc = ServeBuilder::new(keys, k).shards(shards).seed(42).build();
    let mut feed = spec.build(7);
    println!(
        "  constructed in {:.2?} (keys hashed; the init advance builds the shard sessions)",
        t0.elapsed()
    );
    for s in 0..svc.shard_count() {
        let (n_s, k_s) = svc.shard_dims(s);
        println!("  shard {s}: {n_s} keys, local k = {k_s} (= service k + 1)");
    }

    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    feed.fill_delta(0, &mut changes);
    svc.update_batch(changes.iter().copied());
    let t0 = Instant::now();
    let init_events = svc.advance(0).len();
    println!(
        "  init advance (every shard builds its session and runs its FILTERRESET): {:.2?}, \
         {} messages, {init_events} events",
        t0.elapsed(),
        svc.ledger().total()
    );

    let after_init_msgs = svc.ledger().total();
    let steps = 5_000u64;
    let mut events_seen = 0u64;
    let mut changed_steps = 0u64;
    let t0 = Instant::now();
    for t in 1..=steps {
        feed.fill_delta(t, &mut changes);
        svc.update_batch(changes.iter().copied());
        let events = svc.advance(t);
        events_seen += events.len() as u64;
        changed_steps += u64::from(!events.is_empty());
    }
    let elapsed = t0.elapsed();

    let per_step_us = elapsed.as_micros() as f64 / steps as f64;
    println!("ran {steps} steps in {elapsed:.2?}");
    println!(
        "  {per_step_us:.1} µs/step ({:.0} steps/s, ~200 movers routed per step)",
        1e6 / per_step_us
    );
    println!(
        "  event-bearing steps: {changed_steps} / {steps}, messages after init: {}, \
         events: {events_seen}",
        svc.ledger().total() - after_init_msgs
    );
    let top: Vec<u32> = svc.topk_by_rank().iter().map(|id| id.0).collect();
    println!("  global top-{k} by rank: {top:?}");
    println!(
        "  global threshold (exact {}-th best of {keys} keys): {}",
        k + 1,
        svc.threshold().expect("keys > k")
    );

    // The merged answer stays exact: rebuild the final row from a
    // delta-driven twin feed and check membership and the threshold
    // against ground truth.
    let mut twin = spec.build(7);
    let mut row = vec![0u64; keys];
    for t in 0..=steps {
        twin.fill_delta(t, &mut changes);
        for &(id, v) in &changes {
            row[id.idx()] = v;
        }
    }
    assert!(is_valid_topk(&row, svc.topk()), "answer must stay valid");
    let mut sorted = row.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(
        svc.threshold(),
        Some(sorted[k]),
        "threshold must be the exact global (k+1)-th order statistic"
    );
    println!("  answer + threshold validated against an independent twin ✓");

    println!("\nper-shard protocol cost (the global budget is their sum):");
    for s in 0..svc.shard_count() {
        let ledger = svc.shard_ledger(s);
        println!(
            "  shard {s}: {:>7} msgs  ({:>6} up, {:>6} bcast)",
            ledger.total(),
            ledger.up,
            ledger.broadcast
        );
    }
    println!(
        "  merge inspected {} candidates on the last changed step \
         (pool: {} shards × {} candidates)",
        svc.merge_offered(),
        svc.shard_count(),
        k + 1
    );
}
