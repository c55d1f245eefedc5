//! Allocation discipline of the sequential engine, pinned by a counting
//! global allocator: after warm-up, steady-state silent steps allocate
//! **nothing**, and — the fire-round-calendar/flat-node guarantee — a full
//! batched FILTERRESET (violation window, handler, k-select sweep, winner
//! rounds, epoch bookkeeping) allocates nothing either. Every buffer the
//! reset touches (runtime `ups`/visit/calendar/broadcast-log scratch, the
//! coordinator's k-select candidate set, winner and answer buffers) is
//! owned and reused.
//!
//! The serving layer inherits the discipline: a sharded [`TopkService`]
//! over sequential shards performs zero allocations on merged silent steps
//! — including steps that wiggle a member's value and force a full
//! candidate refresh + S-way re-merge (the slot handoff swaps buffers, the
//! merge reuses its aggregator, the event derivation reuses its scratch).
//!
//! The whole suite is one `#[test]` on purpose: Rust test binaries run
//! tests on concurrent threads, and a second test's allocations would
//! bleed into the counter (the counting allocator is process-global, so
//! the serve arm also proves the shard *worker threads* stay quiet).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use topk_monitoring::prelude::*;

/// System allocator wrapper counting every `alloc`/`realloc` call.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Order-flipping rows: `flip = false` is ascending-ish, `true` the exact
/// reverse — alternating them guarantees the gap certificate dies and a
/// reset runs on every flip.
fn row(n: usize, flip: bool) -> Vec<(NodeId, Value)> {
    (0..n)
        .map(|i| {
            let rank = if flip { n - 1 - i } else { i };
            (NodeId(i as u32), 1_000 + rank as u64 * 100)
        })
        .collect()
}

#[test]
fn silent_steps_and_batched_resets_allocate_nothing_after_warmup() {
    let n = 512;
    let k = 8;
    let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), 42);

    // Init = the first batched reset (warms every protocol buffer once).
    let init = row(n, false);
    mon.step_sparse(0, &init);
    let resets_at = |mon: &TopkMonitor| mon.metrics().resets;
    assert_eq!(resets_at(&mon), 0, "init reset is not counted as a reset");

    // --- Steady state: silent steps must not allocate. ---
    // A few warm-up silent steps (the empty change-list path), then count.
    let mut t = 1;
    for _ in 0..4 {
        mon.step_sparse(t, &[]);
        t += 1;
    }
    // In-filter movement (bottom nodes wiggling below the threshold) is
    // still a silent step and must also stay allocation-free.
    let wiggle: Vec<(NodeId, Value)> = vec![(NodeId(3), 1_001), (NodeId(5), 999)];
    mon.step_sparse(t, &wiggle);
    t += 1;

    let before = allocs();
    for i in 0..200u64 {
        if i % 3 == 0 {
            let w: Vec<(NodeId, Value)> = Vec::new();
            drop(w); // explicitly: the counted region itself must not alloc
            mon.step_sparse(t, &wiggle);
        } else {
            mon.step_sparse(t, &[]);
        }
        t += 1;
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state silent steps must perform zero allocations"
    );

    // --- Full batched resets: warm up the reset path, then count. ---
    // Each order flip kills the gap certificate and forces one reset; a few
    // warm-up flips let every protocol-phase buffer (ups scratch, calendar
    // buckets, broadcast log, k-select candidates, winner/answer vectors)
    // reach its high-water capacity.
    let rows = [row(n, false), row(n, true)];
    let mut flip = 1usize;
    for _ in 0..6 {
        mon.step_sparse(t, &rows[flip]);
        flip ^= 1;
        t += 1;
    }
    let resets_before = resets_at(&mon);
    let before = allocs();
    mon.step_sparse(t, &rows[flip]);
    t += 1;
    mon.step_sparse(t, &[]);
    assert_eq!(
        resets_at(&mon),
        resets_before + 1,
        "the counted flip must have run a full reset"
    );
    assert_eq!(
        allocs() - before,
        0,
        "a batched FILTERRESET after warm-up must perform zero allocations"
    );
    assert_eq!(mon.topk().len(), k);

    // --- Serving layer: merged silent steps allocate nothing either. ---
    let keys = 96;
    let mut svc = ServeBuilder::new(keys, 6)
        .shards(3)
        .seed(7)
        .engine(Engine::Sequential)
        .build();
    svc.update_batch((0..keys).map(|i| (NodeId(i as u32), 10_000 + i as u64 * 50)));
    let mut st = 0u64;
    svc.advance(st);
    let top = svc.topk_by_rank()[0];

    // Warm-up: silent ticks plus rank-stable member wiggles (each forces a
    // shard candidate refresh and a full S-way re-merge with no events).
    for _ in 0..6 {
        st += 1;
        svc.advance(st);
        st += 1;
        svc.update(top, 20_000 + st);
        svc.advance(st);
    }
    let cap = svc.event_capacity();
    let before = allocs();
    for i in 0..200u64 {
        st += 1;
        if i % 3 == 0 {
            svc.update(top, 30_000 + st); // member moves, rank holds: re-merge
        }
        assert!(
            svc.advance(st).is_empty(),
            "rank-stable wiggles must stay event-free"
        );
    }
    assert_eq!(
        allocs() - before,
        0,
        "merged silent steps must perform zero allocations across all threads"
    );
    assert_eq!(svc.event_capacity(), cap, "event buffer must stop growing");
    assert_eq!(svc.topk().len(), 6);
}
