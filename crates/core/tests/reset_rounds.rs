//! Round-accounting regression tests for FILTERRESET.
//!
//! The round schedule of a reset is **deterministic** — participants may or
//! may not send in any round, but the coordinator always runs the full
//! schedule — so these are exact pins, not bounds with slack: the batched
//! k-select sweep takes `⌈log₂(max(1, ⌊n/(k+1)⌋))⌉ + k + 3` coordinator
//! rounds per reset — the `O(log n + k)` claim. A separate assertion keeps
//! it under `4·(⌈log₂n⌉ + k)` so the complexity class can't silently
//! regress even if the exact schedule shifts by a constant. The
//! pseudocode's `k+1` sequential maximum searches would take
//! `(k+1)·(⌈log₂n⌉ + 1) + 1`; that formula stays as the arithmetic
//! reference the sweep is compared against.
//!
//! Rounds are counted by the coordinator itself ([`RunMetrics::reset_rounds`])
//! so the pin is runtime-independent; for the init step we cross-check the
//! metric against the sequential runtime's `micro_rounds_run`.

use topk_core::metrics::RunMetrics;
use topk_core::{Monitor, MonitorConfig, TopkMonitor};
use topk_net::rng::log2_ceil;

/// (n, k) grid covering tiny, boundary (k+1 == n) and wide configurations.
const GRID: &[(usize, usize)] = &[
    (2, 1),
    (3, 2),
    (8, 1),
    (8, 4),
    (8, 7),
    (64, 3),
    (100, 10),
    (1000, 1),
    (1000, 8),
    (4096, 32),
];

/// Rounds of the pseudocode's `k+1` sequential MAXIMUMPROTOCOL(n) searches,
/// winner announcements doubling as the next search's start signal.
fn pseudocode_rounds(n: usize, k: usize) -> u64 {
    (k as u64 + 1) * (log2_ceil(n as u64) as u64 + 1) + 1
}

fn batched_rounds(n: usize, k: usize) -> u64 {
    // The k-select sweep samples at bound ⌊n/(k+1)⌋ (schedule starts at
    // probability (k+1)/n), so its final round comes log₂(k+1) earlier
    // than a maximum search's.
    let bound = (n as u64 / (k as u64 + 1)).max(1);
    log2_ceil(bound) as u64 + k as u64 + 3
}

/// Run the `t = 0` init reset and return `(reset_rounds, micro_rounds_run)`.
fn init_reset(n: usize, k: usize, seed: u64) -> (u64, u64) {
    let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), seed);
    // Distinct values so the selection is unique (rounds don't depend on
    // the values, but the answer check below should be strict).
    let values: Vec<u64> = (0..n as u64)
        .map(|i| (i * 7919) % (131 * n as u64))
        .collect();
    mon.step(0, &values);
    assert_eq!(mon.topk(), topk_net::id::true_topk(&values, k));
    (mon.metrics().reset_rounds, mon.micro_rounds_run())
}

#[test]
fn batched_reset_rounds_exact_and_in_class() {
    for &(n, k) in GRID {
        for seed in [1u64, 42, 999] {
            let (rounds, micro) = init_reset(n, k, seed);
            assert_eq!(
                rounds,
                batched_rounds(n, k),
                "batched (n={n}, k={k}, seed={seed})"
            );
            assert_eq!(micro, rounds, "init step is reset-only (n={n}, k={k})");
            // The complexity-class guard: O(log n + k) with c = 4.
            let budget = 4 * (log2_ceil(n as u64) as u64 + k as u64);
            assert!(
                rounds <= budget,
                "batched reset (n={n}, k={k}): {rounds} rounds exceed 4·(⌈log₂n⌉+k) = {budget}"
            );
        }
    }
}

#[test]
fn batched_beats_legacy_for_every_grid_point_with_k_at_least_2() {
    // For k = 1 the two schedules tie or nearly tie; from k = 2 on the
    // batched sweep is strictly cheaper, increasingly so in k.
    for &(n, k) in GRID.iter().filter(|&&(_, k)| k >= 2) {
        assert!(
            batched_rounds(n, k) < pseudocode_rounds(n, k),
            "(n={n}, k={k}): batched {} vs pseudocode {}",
            batched_rounds(n, k),
            pseudocode_rounds(n, k)
        );
    }
    // And the asymptotic gap is the (k+1)× the sweep exists for: at
    // n = 4096, k = 32 the pseudocode schedule pays > 6× the batched rounds.
    assert!(pseudocode_rounds(4096, 32) > 6 * batched_rounds(4096, 32));
}

/// Fire-round calendar cost pin: a batched init reset *polls* each node
/// O(1) times, not once per sampling round. Exactly: the `ResetStart`
/// fan-out (`n`), one fire-phase visit for every node whose scheduled
/// round is ≥ 1 (`n − z`, `z` = round-0 firers ≥ 0), one poll per winner
/// announcement (`k + 1`), and the `ResetDone` fan-out (`n`) — so
/// `2n + k + 1 ≤ micro_polls ≤ 3n + k + 1`, vs the pre-calendar
/// `≈ n·⌈log₂(n/(k+1))⌉` sampling-round polls alone.
#[test]
fn batched_init_polls_each_node_a_constant_number_of_times() {
    for &(n, k) in GRID.iter().filter(|&&(n, k)| n > k + 1) {
        for seed in [1u64, 42, 999] {
            let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), seed);
            let values: Vec<u64> = (0..n as u64)
                .map(|i| (i * 7919) % (131 * n as u64))
                .collect();
            mon.step(0, &values);
            let polls = mon.micro_polls();
            let (n, k) = (n as u64, k as u64);
            assert!(
                polls <= 3 * n + k + 1,
                "(n={n}, k={k}, seed={seed}): {polls} polls exceed 3n+k+1"
            );
            assert!(
                polls >= 2 * n,
                "(n={n}, k={k}, seed={seed}): {polls} polls below the 2n floor"
            );
        }
    }
}

/// A violation step's window rounds poll each participant at most once:
/// with every node violating (full order flip), the whole step — violation
/// window, handler, reset — stays within a constant number of fan-outs
/// instead of paying ≈ n·⌈log₂(n−k)⌉ for the window alone.
#[test]
fn violation_step_polls_are_linear_not_n_log_n() {
    let (n, k) = (1024usize, 8usize);
    let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), 7);
    let mut values: Vec<u64> = (0..n as u64).map(|i| 1_000 + i * 100).collect();
    mon.step(0, &values);
    let after_init = mon.micro_polls();

    // Flip the total order: every node violates its filter.
    for (i, v) in values.iter_mut().enumerate() {
        *v = 1_000 + (n - i) as u64 * 100;
    }
    mon.step(1, &values);
    assert!(mon.metrics().resets >= 1, "the flip must force a reset");
    let step_polls = mon.micro_polls() - after_init;
    // Violation window ≤ n fire visits; handler ≤ start fan-out n + n fire
    // visits; reset ≤ start n + n + (k+1) + done n — comfortably ≤ 7n,
    // while one pre-calendar violation window alone cost ~n·log₂(n−k) ≈ 10n.
    assert!(
        step_polls <= 7 * n as u64,
        "all-violating step polled {step_polls} times (> 7n = {})",
        7 * n
    );
}

/// A violation-forced reset (not just init) follows the same schedule.
#[test]
fn mid_stream_reset_rounds_match_init_schedule() {
    let n = 64;
    let k = 4;
    let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), 7);
    let mut values: Vec<u64> = (0..n as u64).map(|i| 1_000 + i * 100).collect();
    mon.step(0, &values);
    let after_init = mon.metrics().reset_rounds;

    // Flip the total order: previous top-k collapse to the bottom — the gap
    // certificate cannot absorb this, forcing a reset.
    for (i, v) in values.iter_mut().enumerate() {
        *v = 1_000 + (n - i) as u64 * 100;
    }
    mon.step(1, &values);
    let m: &RunMetrics = mon.metrics();
    assert!(m.resets >= 1, "the order flip must force a reset");
    assert_eq!(
        m.reset_rounds - after_init,
        m.resets * batched_rounds(n, k),
        "every mid-stream reset must follow the schedule"
    );
    assert_eq!(mon.topk(), topk_net::id::true_topk(&values, k));
}
