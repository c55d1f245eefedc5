//! # topk-proto — distributed extremum protocols (§4 of Mäcker et al.)
//!
//! The paper's Algorithm 2 — a randomized Las Vegas protocol computing the
//! maximum (or minimum) value held by up to `N` nodes using
//! `E[#messages] ≤ 2·log₂N + 1` — plus the deterministic baselines used in
//! its lower-bound argument, iterated top-k selection, and the closed-form
//! analysis quantities.
//!
//! * [`extremum`] — driver-agnostic participant/aggregator state machines;
//! * [`kselect`] — batched top-`c` selection in one `⌈log₂(N/c)⌉ + 1`-round
//!   sweep (the engine behind the batched FILTERRESET);
//! * [`runner`] — standalone fixed-time executions with message accounting;
//! * [`baselines`] — sequential threshold probing (Theorem 4.3), poll-all,
//!   bisection;
//! * [`analysis`] — Theorem 4.2 / Lemma 4.1 bounds and harmonic numbers;
//! * [`schedule`] — the fire-round calendar: one-draw sampling of a
//!   participant's first-send round (what lets runtimes visit only that
//!   round's firers instead of polling every active participant);
//! * [`variants`] — ablations of the sampling schedule (why doubling?).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod baselines;
pub mod extremum;
pub mod kselect;
pub mod runner;
pub mod schedule;
pub mod variants;

pub use extremum::{
    Aggregator, BroadcastPolicy, MaxAggregator, MaxOrder, MaxParticipant, MinAggregator, MinOrder,
    MinParticipant, Participant, ProtocolOrder,
};
pub use kselect::{KSelectAggregator, MaxKSelectAggregator};
pub use runner::{
    run_extremum, run_kselect, run_kselect_scheduled, run_max, run_max_scheduled, run_min,
    select_topk, KSelectOutcome, ProtocolOutcome,
};
pub use schedule::FireDist;
pub use variants::{run_max_variant, GrowthSchedule, VariantOutcome};

#[cfg(test)]
mod statistical_tests {
    //! Seeded statistical checks of the §4 theorems. Tolerances are generous
    //! enough to be flake-free while still falsifying an incorrect
    //! implementation.

    use rand::seq::SliceRandom;
    use rand::Rng;

    use topk_net::id::NodeId;
    use topk_net::ledger::CommLedger;
    use topk_net::rng::substream_rng;

    use crate::analysis::expected_up_msgs_bound;
    use crate::extremum::BroadcastPolicy;
    use crate::runner::run_max;

    /// Mean up-message count over `trials` random permutations of `0..n`.
    fn mean_ups(n: usize, trials: u64, seed: u64) -> f64 {
        let mut rng = substream_rng(seed, 99);
        let mut values: Vec<u64> = (0..n as u64).collect();
        let mut total = 0u64;
        for trial in 0..trials {
            values.shuffle(&mut rng);
            let entries: Vec<(NodeId, u64)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (NodeId(i as u32), v))
                .collect();
            let mut ledger = CommLedger::new();
            let out = run_max(
                &entries,
                n as u64,
                BroadcastPolicy::OnChange,
                seed,
                trial,
                &mut ledger,
            );
            assert_eq!(out.winner.unwrap().value, n as u64 - 1);
            total += out.up_msgs;
        }
        total as f64 / trials as f64
    }

    #[test]
    fn expected_messages_within_theorem_bound() {
        for exp in [4u32, 6, 8, 10] {
            let n = 1usize << exp;
            let mean = mean_ups(n, 400, 0xfeed + exp as u64);
            let bound = expected_up_msgs_bound(n as u64);
            assert!(
                mean <= bound,
                "n={n}: measured mean {mean:.2} exceeds bound {bound:.2}"
            );
            // And the protocol is not trivially silent: at least one message
            // per run, and growth is logarithmic-ish (well below √n once n
            // is large enough for the asymptotics to bite).
            assert!(mean >= 1.0);
            if n >= 256 {
                assert!(mean <= (n as f64).sqrt());
            }
        }
    }

    #[test]
    fn message_count_scales_logarithmically() {
        let m16 = mean_ups(1 << 4, 300, 1);
        let m64 = mean_ups(1 << 6, 300, 2);
        let m256 = mean_ups(1 << 8, 300, 3);
        // Doubling the exponent should add roughly a constant, not multiply:
        // successive differences stay bounded.
        let d1 = m64 - m16;
        let d2 = m256 - m64;
        assert!(d1.abs() < 6.0 && d2.abs() < 6.0, "d1={d1:.2} d2={d2:.2}");
    }

    #[test]
    fn worst_case_input_still_bounded() {
        // Ascending values maximize survivals (every node beats all earlier
        // reporters): the classic stress input for the protocol.
        let n = 256usize;
        let entries: Vec<(NodeId, u64)> = (0..n).map(|i| (NodeId(i as u32), i as u64)).collect();
        let mut total = 0u64;
        let trials = 300u64;
        for trial in 0..trials {
            let mut ledger = CommLedger::new();
            let out = run_max(
                &entries,
                n as u64,
                BroadcastPolicy::OnChange,
                0xabc,
                trial,
                &mut ledger,
            );
            total += out.up_msgs;
        }
        let mean = total as f64 / trials as f64;
        assert!(
            mean <= expected_up_msgs_bound(n as u64),
            "mean {mean:.2} vs bound {:.2}",
            expected_up_msgs_bound(n as u64)
        );
    }

    #[test]
    fn high_probability_tail_decays() {
        // Theorem 4.2 (whp part): Pr[X > c·logN] should fall fast in c.
        let n = 256usize;
        let entries_base: Vec<u64> = (0..n as u64).collect();
        let mut rng = substream_rng(0x7a11, 0);
        let trials = 2000;
        let logn = (n as f64).log2();
        let mut exceed_3 = 0u32;
        let mut exceed_6 = 0u32;
        let mut values = entries_base.clone();
        for trial in 0..trials {
            values.shuffle(&mut rng);
            let entries: Vec<(NodeId, u64)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (NodeId(i as u32), v))
                .collect();
            let mut ledger = CommLedger::new();
            let out = run_max(
                &entries,
                n as u64,
                BroadcastPolicy::OnChange,
                0x7a11,
                trial,
                &mut ledger,
            );
            if out.up_msgs as f64 > 3.0 * logn {
                exceed_3 += 1;
            }
            if out.up_msgs as f64 > 6.0 * logn {
                exceed_6 += 1;
            }
        }
        let p3 = exceed_3 as f64 / trials as f64;
        let p6 = exceed_6 as f64 / trials as f64;
        assert!(p3 < 0.05, "Pr[X > 3 logN] = {p3}");
        assert!(p6 < 0.001, "Pr[X > 6 logN] = {p6}");
    }

    #[test]
    fn random_values_protocol_vs_duplicates() {
        // Heavy duplication must not break exactness.
        let mut rng = substream_rng(5, 5);
        for trial in 0..50u64 {
            let n = rng.gen_range(1..100usize);
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..5u64)).collect();
            let entries: Vec<(NodeId, u64)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (NodeId(i as u32), v))
                .collect();
            let expected = entries
                .iter()
                .map(|&(id, v)| topk_net::id::RankEntry::new(v, id))
                .max()
                .unwrap();
            let mut ledger = CommLedger::new();
            let out = run_max(
                &entries,
                n as u64,
                BroadcastPolicy::OnChange,
                trial,
                trial,
                &mut ledger,
            );
            let w = out.winner.unwrap();
            assert_eq!((w.value, w.id), (expected.value, expected.id));
        }
    }
}
