//! Batched k-select — all top-`c` values in **one** `⌈log₂(n/c)⌉ + 1`-round
//! sweep of the Algorithm 2 sampling machinery, instead of `c` sequential
//! maximum searches.
//!
//! Participants run the unchanged MAXIMUMPROTOCOL sampling schedule — in
//! round `r` every still-active participant sends its `(id, value)` with
//! probability `2^r / B` (probability 1 in the final round), so the node
//! side *is* [`Participant`](crate::extremum::Participant) — but invoked
//! at the k-select generalization
//! of the protocol bound: `B = ⌊N/c⌋` ([`sampling_bound`]) instead of `N`.
//! Algorithm 2 starts at `1/N` so the expected first-round report count
//! matches the *one* value it seeks; selecting `c` values wants `c`
//! expected first-round reports, i.e. start probability `c/N`. The final
//! round still sends with probability 1, so exactness is untouched, and
//! the sweep shortens to `⌈log₂(N/c)⌉ + 1` participant rounds.
//!
//! The coordinator differs from the maximum search: instead of the running
//! maximum it keeps the running top-`c` candidate set and announces the
//! current **`c`-th best** as the deactivation bar. A participant that
//! cannot beat the bar knows `c` distinct nodes hold better values, so it
//! can never be among the top `c` and withdraws — the same comparison the
//! max-protocol participant already performs against the running maximum.
//!
//! Correctness (Las Vegas, like Algorithm 2): a bar only ever exists once
//! `c` reports were received, every report is a true node value, and the
//! final round sends with probability 1 — so after `⌈log₂(N/c)⌉ + 1`
//! rounds every node not provably outside the top `c` has reported, and
//! [`KSelectAggregator::winners`] is the exact top-`c` (ties by node id,
//! total on arbitrary inputs). Only the message count is random:
//! `E[#up-messages] ≤ 2c·(log₂(N/c) + 1) + 2·log₂N + 1` — every winner
//! sends exactly once, and the rank-`i` loser sends with probability
//! ≈ `min(1, 2c/i)` before the bar catches it (see
//! `analysis::kselect_up_msgs_bound` for the derivation and why the
//! `log(N/c)` factor is inherent to bar-deactivated uniform doubling;
//! pinned statistically by `tests/message_bounds.rs`). This is the batching
//! idea of the communication-efficient top-k data structures of Biermeier
//! et al. (arXiv:1709.07259) applied to the paper's sampling protocol.
//!
//! Inside Algorithm 1 this replaces FILTERRESET's `k+1` sequential
//! MAXIMUMPROTOCOL(n) iterations (`(k+1)·(⌈log₂n⌉+1)` rounds,
//! `(k+1)·(2·log₂n + 1)` expected messages) with one
//! `⌈log₂(n/(k+1))⌉ + 2`-round protocol — see `topk-core`'s
//! coordinator.

use std::marker::PhantomData;

use topk_net::wire::Report;

use crate::extremum::{BroadcastPolicy, MaxOrder, ProtocolOrder};

/// The sampling-protocol bound for selecting the top `count` among up to
/// `n_bound` participants: `max(1, ⌊n_bound/count⌋)`. Build each
/// [`Participant`](crate::extremum::Participant) with this bound so the
/// round-`r` send probability is `≈ count·2^r / n_bound` — `count` expected
/// reports in round 0, doubling every round, probability 1 at round
/// [`KSelectAggregator::last_round`]. At `count = 1` this is Algorithm 2's
/// own `1/N` schedule.
pub fn sampling_bound(count: usize, n_bound: u64) -> u64 {
    assert!(count >= 1 && n_bound >= 1);
    (n_bound / count as u64).max(1)
}

/// Coordinator-side state of one batched k-select execution: the running
/// top-`count` candidate set plus the announcement bookkeeping for the
/// deactivation bar (the current `count`-th best).
///
/// The node side is the plain [`Participant`](crate::extremum::Participant)
/// of the extremum protocol — feed it the announced bar where it expects the
/// announced maximum.
#[derive(Debug, Clone)]
pub struct KSelectAggregator<O: ProtocolOrder = MaxOrder> {
    /// Best-first running top-`count` (strictly ordered by `O`, ties by id).
    candidates: Vec<Report>,
    count: usize,
    announced_bar: Option<Report>,
    n_bound: u64,
    reports_received: u64,
    _order: PhantomData<O>,
}

impl<O: ProtocolOrder> KSelectAggregator<O> {
    /// Select the top `count ≥ 1` values among up to `n_bound` participants.
    pub fn new(count: usize, n_bound: u64) -> Self {
        assert!(count >= 1, "must select at least one value");
        assert!(n_bound >= 1, "protocol bound must be positive");
        KSelectAggregator {
            candidates: Vec::with_capacity(count + 1),
            count,
            announced_bar: None,
            n_bound,
            reports_received: 0,
            _order: PhantomData,
        }
    }

    /// Index of the final participant round (send probability reaches 1):
    /// `⌈log₂(sampling_bound)⌉` — shorter than a maximum search's
    /// `⌈log₂N⌉` because the schedule starts at `count/N`.
    #[inline]
    pub fn last_round(&self) -> u32 {
        topk_net::rng::log2_ceil(sampling_bound(self.count, self.n_bound))
    }

    /// The selection size `c` this aggregator was built for.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Reset to the pristine just-constructed state, retaining the
    /// candidate buffer's capacity — lets a long-lived coordinator run one
    /// sweep per FILTERRESET without per-reset allocation.
    pub fn clear(&mut self) {
        self.candidates.clear();
        self.announced_bar = None;
        self.reports_received = 0;
    }

    /// Absorb one report; returns `true` iff the deactivation bar changed
    /// (i.e. the candidate set is full and the report entered it).
    pub fn absorb(&mut self, report: Report) -> bool {
        self.reports_received += 1;
        let bar_before = self.bar();
        // Best-first insertion position: first slot whose occupant does not
        // beat the report.
        let pos = self.candidates.partition_point(|&c| O::better(c, report));
        if pos >= self.count {
            return false; // cannot enter the top-`count`
        }
        self.candidates.insert(pos, report);
        self.candidates.truncate(self.count);
        self.bar() != bar_before
    }

    /// The current deactivation bar: the `count`-th best report, present
    /// only once `count` reports entered. A participant that cannot beat it
    /// is provably outside the top-`count`.
    #[inline]
    pub fn bar(&self) -> Option<Report> {
        (self.candidates.len() == self.count).then(|| self.candidates[self.count - 1])
    }

    /// What (if anything) to broadcast after the current round under
    /// `policy`. Call [`Self::mark_announced`] when the broadcast is
    /// actually emitted.
    pub fn pending_bar(&self, policy: BroadcastPolicy) -> Option<Report> {
        let bar = self.bar()?;
        match policy {
            BroadcastPolicy::OnChange => (self.announced_bar != Some(bar)).then_some(bar),
            BroadcastPolicy::EveryRound => Some(bar),
        }
    }

    /// Record that `pending_bar` was broadcast.
    pub fn mark_announced(&mut self) {
        self.announced_bar = self.bar();
    }

    /// The last bar marked announced, if any: every participant has been
    /// sent it (or a lower one), and one that cannot beat it withdraws.
    #[inline]
    pub fn announced_bar(&self) -> Option<Report> {
        self.announced_bar
    }

    /// The running top-`count` so far, best-first. Exact once the final
    /// round completed (every non-deactivated participant has sent).
    #[inline]
    pub fn winners(&self) -> &[Report] {
        &self.candidates
    }

    /// Number of reports received (the `Θ(c·log(N/c) + log N)` quantity).
    #[inline]
    pub fn reports_received(&self) -> u64 {
        self.reports_received
    }
}

/// Convenience alias: batched top-`c` selection by maximum value.
pub type MaxKSelectAggregator = KSelectAggregator<MaxOrder>;

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::id::NodeId;

    fn rep(id: u32, value: u64) -> Report {
        Report {
            id: NodeId(id),
            value,
        }
    }

    #[test]
    fn no_bar_until_count_reports() {
        let mut a: MaxKSelectAggregator = KSelectAggregator::new(3, 8);
        assert_eq!(a.bar(), None);
        assert!(!a.absorb(rep(0, 10)), "bar unchanged while filling");
        assert!(!a.absorb(rep(1, 20)));
        assert_eq!(a.bar(), None);
        assert!(a.absorb(rep(2, 5)), "third report creates the bar");
        assert_eq!(a.bar(), Some(rep(2, 5)));
        assert_eq!(a.reports_received(), 3);
    }

    #[test]
    fn bar_rises_as_better_reports_enter() {
        let mut a: MaxKSelectAggregator = KSelectAggregator::new(2, 8);
        a.absorb(rep(0, 10));
        a.absorb(rep(1, 20));
        assert_eq!(a.bar(), Some(rep(0, 10)));
        // A worse report neither enters nor moves the bar.
        assert!(!a.absorb(rep(2, 5)));
        assert_eq!(a.bar(), Some(rep(0, 10)));
        // A better one enters and lifts the bar.
        assert!(a.absorb(rep(3, 15)));
        assert_eq!(a.bar(), Some(rep(3, 15)));
        let vals: Vec<u64> = a.winners().iter().map(|w| w.value).collect();
        assert_eq!(vals, vec![20, 15]);
    }

    #[test]
    fn winners_are_best_first_with_id_tiebreak() {
        let mut a: MaxKSelectAggregator = KSelectAggregator::new(3, 8);
        for (id, v) in [(4u32, 7u64), (2, 9), (6, 9), (1, 3), (0, 7)] {
            a.absorb(rep(id, v));
        }
        let got: Vec<(u64, u32)> = a.winners().iter().map(|w| (w.value, w.id.0)).collect();
        // 9s first (lower id 2 before 6), then the 7s (id 0 before 4).
        assert_eq!(got, vec![(9, 2), (9, 6), (7, 0)]);
    }

    #[test]
    fn announcement_policies() {
        let mut a: MaxKSelectAggregator = KSelectAggregator::new(1, 4);
        assert_eq!(a.pending_bar(BroadcastPolicy::OnChange), None);
        a.absorb(rep(0, 3));
        assert_eq!(a.pending_bar(BroadcastPolicy::OnChange), Some(rep(0, 3)));
        assert_eq!(a.announced_bar(), None, "not announced until marked");
        a.mark_announced();
        assert_eq!(a.announced_bar(), Some(rep(0, 3)));
        assert_eq!(a.pending_bar(BroadcastPolicy::OnChange), None);
        assert_eq!(a.pending_bar(BroadcastPolicy::EveryRound), Some(rep(0, 3)));
        // A better report lifts the bar, but the announced one stays until
        // the next broadcast; `clear` forgets it.
        a.absorb(rep(1, 5));
        assert_eq!(a.announced_bar(), Some(rep(0, 3)));
        a.clear();
        assert_eq!(a.announced_bar(), None);
    }

    #[test]
    fn sampling_bound_generalizes_algorithm2() {
        assert_eq!(sampling_bound(1, 1024), 1024, "c = 1 is Algorithm 2");
        assert_eq!(sampling_bound(9, 1024), 113);
        assert_eq!(sampling_bound(9, 8), 1, "count ≥ n ⇒ probability-1 round 0");
        let a: MaxKSelectAggregator = KSelectAggregator::new(9, 1 << 20);
        assert_eq!(a.last_round(), topk_net::rng::log2_ceil((1 << 20) / 9));
    }

    #[test]
    fn count_one_degenerates_to_running_maximum() {
        let mut a: MaxKSelectAggregator = KSelectAggregator::new(1, 16);
        let mut m: crate::extremum::MaxAggregator = crate::extremum::Aggregator::new(16);
        for (id, v) in [(0u32, 5u64), (1, 9), (2, 7), (3, 9), (4, 11)] {
            a.absorb(rep(id, v));
            m.absorb(rep(id, v));
        }
        assert_eq!(a.winners()[0], m.result().unwrap());
        assert_eq!(a.bar(), m.result());
    }
}
