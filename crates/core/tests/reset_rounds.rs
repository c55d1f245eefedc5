//! Round-accounting regression tests for FILTERRESET.
//!
//! The round schedule of a reset is **deterministic** — participants may or
//! may not send in any round, but the coordinator always runs the full
//! schedule — so these are exact pins, not bounds with slack: the batched
//! k-select sweep takes `⌈log₂(max(1, ⌊n/(k+1)⌋))⌉ + 2` coordinator
//! rounds per reset (the `ResetStart` round, the sampling rounds, and one
//! `ResetDone` broadcast). A separate assertion keeps it within
//! `⌈log₂n⌉ + 2`, with no `k` term, so the complexity class can't
//! silently regress even if the exact schedule shifts. The pseudocode's
//! `k+1` sequential maximum searches would take `(k+1)·(⌈log₂n⌉ + 1) + 1`;
//! that formula stays as the arithmetic reference the sweep is compared
//! against.
//!
//! Rounds are counted by the coordinator itself ([`RunMetrics::reset_rounds`])
//! so the pin is runtime-independent; for the init step we cross-check the
//! metric against the sequential runtime's `micro_rounds_run`.

use topk_core::metrics::RunMetrics;
use topk_core::msg::{DownMsg, UpMsg};
use topk_core::{CoordinatorMachine, Monitor, MonitorConfig, NodeMachine, NodeParams, TopkMonitor};
use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior};
use topk_net::id::NodeId;
use topk_net::rng::log2_ceil;
use topk_net::runtime::Runtime;
use topk_net::seq::SyncRuntime;

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
    log2_ceil(bound) as u64 + 2
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
            // The complexity-class guard: O(log n), no k term.
            let budget = log2_ceil(n as u64) as u64 + 2;
            assert!(
                rounds <= budget,
                "batched reset (n={n}, k={k}): {rounds} rounds exceed ⌈log₂n⌉+2 = {budget}"
            );
        }
    }
}

#[test]
fn batched_beats_pseudocode_on_every_grid_point() {
    // The sweep is strictly cheaper at every k, increasingly so in k.
    for &(n, k) in GRID {
        assert!(
            batched_rounds(n, k) < pseudocode_rounds(n, k),
            "(n={n}, k={k}): batched {} vs pseudocode {}",
            batched_rounds(n, k),
            pseudocode_rounds(n, k)
        );
    }
    // And the asymptotic gap is the (k+1)× the sweep exists for: at
    // n = 4096, k = 32 the pseudocode schedule pays > 40× the batched rounds.
    assert!(pseudocode_rounds(4096, 32) > 40 * batched_rounds(4096, 32));
}

/// Fire-round calendar cost pin: a batched init reset *polls* each node
/// twice, plus once per reporter. The `ResetStart` fan-out polls all `n`
/// nodes (a round-0 firer reports in that very poll). A later fire phase
/// polls only the participants that beat the last announced bar, and each
/// of them reports; the rest would only withdraw, so the round's cutoff
/// resolves them unpolled. The `ResetDone` fan-out polls all `n` again.
/// Hence `2n ≤ micro_polls ≤ 2n + reset_up`, where polling every scheduled
/// participant at its fire phase costs `≈ 3n`, and polling every
/// participant every round `≈ n·⌈log₂(n/(k+1))⌉`.
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
            let reporters = mon.metrics().reset_up;
            let n = n as u64;
            assert!(
                polls <= 2 * n + reporters,
                "(n={n}, k={k}, seed={seed}): {polls} polls exceed 2n + {reporters} reporters"
            );
            assert!(
                polls >= 2 * n,
                "(n={n}, k={k}, seed={seed}): {polls} polls below the 2n floor"
            );
        }
    }
}

/// The same bound for a mid-stream reset driven through `step_sparse`, the
/// path on which the sequential runtime holds its value row outside itself
/// for the length of the step. Swapping the k-th and (k+1)-th values makes
/// both nodes violate. Each violator is polled at most once in the
/// violation window, and the reset they force polls `2n` plus its
/// reporters.
#[test]
fn sparse_boundary_swap_reset_polls_reporters_only() {
    for (n, k) in [(1000usize, 8usize), (4096, 32)] {
        for seed in [1u64, 42, 999] {
            let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), seed);
            // Node i holds rank n − 1 − i, so node n − k is the k-th best.
            let mut values: Vec<u64> = (0..n as u64).map(|i| 1_000 + i * 100).collect();
            let all: Vec<(NodeId, u64)> = (0..n).map(|i| (NodeId(i as u32), values[i])).collect();
            mon.step_sparse(0, &all);

            let (kth, cut) = (n - k, n - k - 1);
            values.swap(kth, cut);
            let swap = [
                (NodeId(cut as u32), values[cut]),
                (NodeId(kth as u32), values[kth]),
            ];
            let (polls0, up0, resets0) = (
                mon.micro_polls(),
                mon.metrics().reset_up,
                mon.metrics().resets,
            );
            mon.step_sparse(1, &swap);
            assert_eq!(mon.metrics().resets - resets0, 1, "the swap must reset");
            assert_eq!(mon.topk(), topk_net::id::true_topk(&values, k));

            let polls = mon.micro_polls() - polls0;
            let reporters = mon.metrics().reset_up - up0;
            let violators = swap.len() as u64;
            let n = n as u64;
            assert!(
                polls <= 2 * n + reporters + violators,
                "(n={n}, k={k}, seed={seed}): {polls} polls exceed \
                 2n + {reporters} reporters + {violators} violators"
            );
            assert!(
                polls >= 2 * n,
                "(n={n}, k={k}, seed={seed}): {polls} polls below the 2n floor"
            );
        }
    }
}

/// Algorithm 1's coordinator with the cutoff cleared after every round, so
/// the runtime polls every due participant: the reference the skip is
/// measured against.
struct NoCutoff(CoordinatorMachine);

impl CoordinatorBehavior for NoCutoff {
    type Up = UpMsg;
    type Down = DownMsg;

    fn begin_step(&mut self, t: u64) {
        self.0.begin_step(t);
    }

    fn try_skip_silent_step(&mut self, t: u64) -> bool {
        self.0.try_skip_silent_step(t)
    }

    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, UpMsg)>,
        out: &mut CoordOut<DownMsg>,
    ) {
        self.0.micro_round(t, m, ups, out);
        out.cutoff = None;
    }

    fn step_done(&self) -> bool {
        self.0.step_done()
    }

    fn topk(&self) -> &[NodeId] {
        self.0.topk()
    }
}

/// The skip changes nothing but the number of polls: two raw sequential
/// runtimes over one multi-reset stream, one with the cutoff and one
/// without, agree on the ledger, the answer and the threshold at every
/// step, and on every node's value, filter, membership and RNG cursor at
/// the end, while the run with the cutoff polls strictly less.
#[test]
fn cutoff_changes_nothing_but_the_poll_count() {
    let (n, k) = (600usize, 5usize);
    let cfg = MonitorConfig::new(n, k);
    let params = NodeParams::shared(&cfg);
    let nodes = || -> Vec<NodeMachine> {
        (0..n)
            .map(|i| NodeMachine::new(NodeId(i as u32), &params, 23))
            .collect()
    };
    let mut with_cut = CoordinatorMachine::new(cfg);
    let mut without = NoCutoff(CoordinatorMachine::new(cfg));
    let mut rt_cut = SyncRuntime::new(nodes(), k);
    let mut rt_ref = SyncRuntime::new(nodes(), k);

    // Scrambled values with ties, so the bar's id tie-break matters.
    let mut values: Vec<u64> = (0..n as u64).map(|i| (i * 7919 % 997) / 3).collect();
    let mut lcg = 0x2545_f491_4f6c_dd1d_u64;
    let mut after_init = (0, 0);
    for t in 0..90u64 {
        if t > 0 && t % 3 == 0 {
            // The (k+1)-th best jumps past the maximum: a reset.
            let ranking = topk_net::id::true_ranking(&values);
            let top = values[ranking[0].idx()];
            values[ranking[k].idx()] = top + 1 + t % 2;
        } else if t > 0 {
            // A few small moves elsewhere: silent, midpoint or handler steps.
            for _ in 0..4 {
                lcg = lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let i = (lcg >> 33) as usize % n;
                values[i] = values[i].saturating_add(lcg >> 60).saturating_sub(7);
            }
        }
        rt_cut.step(&mut with_cut, t, &values);
        rt_ref.step(&mut without, t, &values);
        assert_eq!(
            rt_cut.ledger().snapshot(),
            rt_ref.ledger().snapshot(),
            "t={t}: ledger"
        );
        assert_eq!(with_cut.topk(), without.0.topk(), "t={t}: answer");
        assert_eq!(
            with_cut.current_threshold(),
            without.0.current_threshold(),
            "t={t}: threshold"
        );
        assert_eq!(with_cut.topk(), topk_net::id::true_topk(&values, k));
        if t == 0 {
            after_init = (rt_cut.micro_polls(), rt_ref.micro_polls());
        }
    }
    assert!(
        with_cut.metrics().resets >= 20,
        "the stream must reset often"
    );
    for (a, b) in rt_cut.nodes().iter().zip(rt_ref.nodes()) {
        assert_eq!(a.value(), b.value(), "{}: value", a.id());
        assert_eq!(a.threshold(), b.threshold(), "{}: threshold", a.id());
        assert_eq!(a.in_topk(), b.in_topk(), "{}: membership", a.id());
        assert_eq!(a.rng_draws(), b.rng_draws(), "{}: RNG cursor", a.id());
    }
    // Also after the dense init step: the diffed steps that follow run
    // with the runtime's row moved out of it.
    let cut = (rt_cut.micro_polls(), rt_cut.micro_polls() - after_init.0);
    let reference = (rt_ref.micro_polls(), rt_ref.micro_polls() - after_init.1);
    assert!(
        cut.0 < reference.0 && cut.1 < reference.1,
        "the cutoff must save polls (total, after init): {cut:?} vs {reference:?}"
    );
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
    // visits; reset ≤ start n + n fire visits + done n — comfortably ≤ 7n,
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
