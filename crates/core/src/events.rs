//! Typed output events of a monitoring run — the push-based counterpart of
//! polling [`Monitor::topk`](crate::monitor::Monitor::topk).
//!
//! A [`crate::session::MonitorSession`] turns every committed time step into
//! a (usually empty) batch of [`TopkEvent`]s: membership changes
//! (`Entered` / `Left`), rank movements *within* the monitored set
//! (`RankChanged`), filter-threshold updates (`ThresholdUpdated`) and
//! completed `FILTERRESET` episodes (`ResetCompleted`). The contract is
//! **replayability**: feeding the event stream of any run — on any engine,
//! any dense/sparse interleaving — into an
//! [`EventReplay`] reconstructs exactly the answer and threshold the session
//! would report when polled at every step. `tests/session_events.rs`
//! property-tests that contract across the engines.
//!
//! Within one step's batch, events are emitted in a fixed order:
//! `ResetCompleted`, `ThresholdUpdated` / `ApproxBoundary`, then membership
//! events — every `Left` (ascending id), then every `Entered` (ascending
//! rank), then every `RankChanged` (ascending new rank). Replay does not
//! depend on the order; fixing it makes event streams directly comparable
//! across runs. The membership events come from one [`RankDiff`], which
//! both a session and the sharded service (`topk-serve`) drive.

use topk_net::id::{NodeId, Value};

use crate::coordinator::CoordinatorMachine;

/// One typed output event of a monitoring session.
///
/// `rank` is 1-based by *value* among the monitored set: rank 1 is the
/// largest monitored value (ties broken by ascending node id). Every event
/// carries the time step `t` that produced it, so a drained batch remains
/// self-describing after the step advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopkEvent {
    /// `id` joined the monitored top-k set at `rank`.
    Entered { t: u64, id: NodeId, rank: usize },
    /// `id` left the monitored top-k set.
    Left { t: u64, id: NodeId },
    /// `id` stayed in the set but moved from rank `from` to rank `to`.
    RankChanged {
        t: u64,
        id: NodeId,
        from: usize,
        to: usize,
    },
    /// The shared filter threshold `M` changed to `threshold` (midpoint
    /// update or post-reset rebroadcast).
    ThresholdUpdated { t: u64, threshold: Value },
    /// ε-approximate mode only: the k/k+1 boundary was crossed within the
    /// ε-band and the coordinator re-centered the epoch on `threshold`
    /// (also the new common filter threshold) instead of resetting. Emitted
    /// *instead of* [`TopkEvent::ThresholdUpdated`] for that step, so
    /// replay stays lossless about which rule fired — and so consumers can
    /// tell exact-certified thresholds from ε-tolerant ones.
    ApproxBoundary { t: u64, threshold: Value },
    /// A `FILTERRESET` episode (including the `t = 0` initialization)
    /// completed within this step.
    ResetCompleted { t: u64 },
}

impl TopkEvent {
    /// The time step that produced this event.
    pub fn t(&self) -> u64 {
        match *self {
            TopkEvent::Entered { t, .. }
            | TopkEvent::Left { t, .. }
            | TopkEvent::RankChanged { t, .. }
            | TopkEvent::ThresholdUpdated { t, .. }
            | TopkEvent::ApproxBoundary { t, .. }
            | TopkEvent::ResetCompleted { t } => t,
        }
    }
}

/// Reconstructs session state from a [`TopkEvent`] stream — the consumer
/// side of the replayability contract (and the reference implementation the
/// session-layer tests check the live session against).
#[derive(Debug, Clone, Default)]
pub struct EventReplay {
    /// Monitored members ordered by rank (index 0 = rank 1).
    by_rank: Vec<NodeId>,
    threshold: Option<Value>,
    resets: u64,
    band_hits: u64,
    /// Scratch for applying one step's rank assignments.
    staged: Vec<(usize, NodeId)>,
}

impl EventReplay {
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one step's event batch (any subset of one step's events is
    /// *not* meaningful — always apply whole batches as drained).
    pub fn apply(&mut self, events: &[TopkEvent]) {
        // Departures first: surviving members' final ranks are relative to
        // the post-departure set.
        for e in events {
            if let TopkEvent::Left { id, .. } = e {
                let pos = self
                    .by_rank
                    .iter()
                    .position(|m| m == id)
                    .expect("Left for a non-member");
                self.by_rank.remove(pos);
            }
        }
        // Collect explicit final ranks (Entered + RankChanged). Members
        // without an event keep their previous rank — the emitter guarantees
        // every rank shift is announced, so the combination is total.
        self.staged.clear();
        for e in events {
            match *e {
                TopkEvent::Entered { id, rank, .. } => self.staged.push((rank, id)),
                TopkEvent::RankChanged { id, to, .. } => {
                    let pos = self
                        .by_rank
                        .iter()
                        .position(|m| m == &id)
                        .expect("RankChanged for a non-member");
                    self.by_rank.remove(pos);
                    self.staged.push((to, id));
                }
                TopkEvent::ThresholdUpdated { threshold, .. } => {
                    self.threshold = Some(threshold);
                }
                TopkEvent::ApproxBoundary { threshold, .. } => {
                    self.threshold = Some(threshold);
                    self.band_hits += 1;
                }
                TopkEvent::ResetCompleted { .. } => self.resets += 1,
                TopkEvent::Left { .. } => {}
            }
        }
        // Re-insert by ascending final rank; unmoved members keep relative
        // order, so inserting at `rank - 1` lands everyone correctly.
        self.staged.sort_unstable();
        for &(rank, id) in &self.staged {
            assert!(rank >= 1 && rank <= self.by_rank.len() + 1, "rank gap");
            self.by_rank.insert(rank - 1, id);
        }
    }

    /// Members ordered by rank (index 0 = rank 1 = largest value).
    pub fn by_rank(&self) -> &[NodeId] {
        &self.by_rank
    }

    /// The reconstructed answer in [`Monitor::topk`] form: member ids,
    /// sorted ascending.
    ///
    /// [`Monitor::topk`]: crate::monitor::Monitor::topk
    pub fn topk(&self) -> Vec<NodeId> {
        let mut ids = self.by_rank.clone();
        ids.sort_unstable();
        ids
    }

    /// The reconstructed filter threshold.
    pub fn threshold(&self) -> Option<Value> {
        self.threshold
    }

    /// Completed resets seen so far (including initialization).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// ε-band boundary hits seen so far (always zero for exact-mode runs).
    pub fn band_hits(&self) -> u64 {
        self.band_hits
    }
}

/// The membership diff: the current members by rank, and the
/// `Left` / `Entered` / `RankChanged` events that turn it into the next
/// ranking. Its owner stages the next ranking best-first in
/// [`RankDiff::next_order`] and calls [`RankDiff::commit`]; every buffer is
/// reused, so a warmed-up diff allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RankDiff {
    /// Current members by rank (index 0 = rank 1 = largest value).
    order: Vec<NodeId>,
    /// The ranking being staged for the next commit.
    next: Vec<NodeId>,
    /// Scratch: `(id, rank)` of `order` / `next`, id-sorted.
    prev_by_id: Vec<(NodeId, usize)>,
    cur_by_id: Vec<(NodeId, usize)>,
    /// Scratch: `Entered` / `RankChanged` events keyed by rank.
    staged: Vec<(usize, TopkEvent)>,
    /// O(1) membership by id, kept in lockstep with `order`.
    member: Vec<bool>,
}

impl RankDiff {
    /// An empty ranking over ids `0..n`.
    pub fn new(n: usize) -> Self {
        RankDiff {
            member: vec![false; n],
            ..Self::default()
        }
    }

    /// Current members by rank (index 0 = rank 1 = largest value).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// O(1): is `id` a current member?
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.member[id.idx()]
    }

    /// The cleared buffer to stage the next ranking in, best first.
    pub fn next_order(&mut self) -> &mut Vec<NodeId> {
        self.next.clear();
        &mut self.next
    }

    /// Diff the staged ranking against the current one, append the step-`t`
    /// membership events to `events` — every `Left` (ascending id), then
    /// every `Entered` (ascending rank), then every `RankChanged`
    /// (ascending new rank) — and make the staged ranking current.
    pub fn commit(&mut self, t: u64, events: &mut Vec<TopkEvent>) {
        fn by_id(order: &[NodeId], out: &mut Vec<(NodeId, usize)>) {
            out.clear();
            out.extend(order.iter().enumerate().map(|(i, &id)| (id, i + 1)));
            out.sort_unstable_by_key(|&(id, _)| id);
        }
        by_id(&self.order, &mut self.prev_by_id);
        by_id(&self.next, &mut self.cur_by_id);

        // Merge the two id-sorted rank maps. Lefts go straight out
        // (ascending id); Entered/RankChanged are staged by rank.
        self.staged.clear();
        let (mut p, mut c) = (0, 0);
        loop {
            match (self.prev_by_id.get(p), self.cur_by_id.get(c)) {
                (Some(&(pid, from)), Some(&(cid, to))) if pid == cid => {
                    if from != to {
                        let e = TopkEvent::RankChanged {
                            t,
                            id: cid,
                            from,
                            to,
                        };
                        self.staged.push((to, e));
                    }
                    p += 1;
                    c += 1;
                }
                (Some(&(pid, _)), Some(&(cid, _))) if pid < cid => {
                    events.push(TopkEvent::Left { t, id: pid });
                    self.member[pid.idx()] = false;
                    p += 1;
                }
                (Some(&(pid, _)), None) => {
                    events.push(TopkEvent::Left { t, id: pid });
                    self.member[pid.idx()] = false;
                    p += 1;
                }
                (_, Some(&(cid, rank))) => {
                    self.staged
                        .push((rank, TopkEvent::Entered { t, id: cid, rank }));
                    self.member[cid.idx()] = true;
                    c += 1;
                }
                (None, None) => break,
            }
        }
        // Entered before RankChanged, each in ascending rank.
        self.staged
            .sort_unstable_by_key(|&(rank, e)| (!matches!(e, TopkEvent::Entered { .. }), rank));
        events.extend(self.staged.iter().map(|&(_, e)| e));
        std::mem::swap(&mut self.order, &mut self.next);
    }
}

/// Shared change-detector behind [`Monitor::drain_events`]: remembers the
/// last reported threshold / reset count and emits the protocol-level
/// events ([`TopkEvent::ResetCompleted`], [`TopkEvent::ThresholdUpdated`])
/// for whatever changed since. [`crate::monitor::Algorithm1`] embeds one;
/// membership and rank events are derived by the session layer, which owns
/// the value row needed to rank members.
///
/// [`Monitor::drain_events`]: crate::monitor::Monitor::drain_events
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EventCursor {
    threshold: Option<Value>,
    resets: u64,
    band_hits: u64,
}

impl EventCursor {
    /// Compare against the coordinator and append protocol events for step
    /// `t`. At most one reset completes per step, so a single
    /// `ResetCompleted` suffices.
    pub(crate) fn drain(&mut self, coord: &CoordinatorMachine, t: u64, out: &mut Vec<TopkEvent>) {
        // Completed resets = counted resets + the t = 0 initialization
        // (which sets the tracker but is excluded from `metrics.resets`).
        let resets = coord.metrics().resets + coord.tracker().is_some() as u64;
        if resets != self.resets {
            debug_assert_eq!(resets, self.resets + 1, "one reset max per step");
            out.push(TopkEvent::ResetCompleted { t });
            self.resets = resets;
        }
        let threshold = coord.current_threshold();
        let band_hits = coord.metrics().band_hits;
        if band_hits != self.band_hits {
            // ε-band step: exactly one conclusion per step, so a band hit
            // excludes both a reset and a plain midpoint update. Always
            // emitted — even when the re-centered boundary happens to equal
            // the previous threshold — so replay knows which rule fired.
            debug_assert_eq!(band_hits, self.band_hits + 1, "one band hit max per step");
            let th = threshold.expect("a band hit always sets a threshold");
            out.push(TopkEvent::ApproxBoundary { t, threshold: th });
            self.band_hits = band_hits;
            self.threshold = threshold;
        } else if threshold != self.threshold {
            let th = threshold.expect("threshold never reverts to None");
            out.push(TopkEvent::ThresholdUpdated { t, threshold: th });
            self.threshold = threshold;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_applies_membership_and_ranks() {
        let mut r = EventReplay::new();
        r.apply(&[
            TopkEvent::ResetCompleted { t: 0 },
            TopkEvent::ThresholdUpdated {
                t: 0,
                threshold: 50,
            },
            TopkEvent::Entered {
                t: 0,
                id: NodeId(3),
                rank: 1,
            },
            TopkEvent::Entered {
                t: 0,
                id: NodeId(1),
                rank: 2,
            },
        ]);
        assert_eq!(r.by_rank(), &[NodeId(3), NodeId(1)]);
        assert_eq!(r.topk(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(r.threshold(), Some(50));
        assert_eq!(r.resets(), 1);

        // n1 overtakes n3; n3 drops out for n7.
        r.apply(&[
            TopkEvent::Left {
                t: 1,
                id: NodeId(3),
            },
            TopkEvent::Entered {
                t: 1,
                id: NodeId(7),
                rank: 2,
            },
            TopkEvent::RankChanged {
                t: 1,
                id: NodeId(1),
                from: 2,
                to: 1,
            },
        ]);
        assert_eq!(r.by_rank(), &[NodeId(1), NodeId(7)]);
        assert_eq!(r.topk(), vec![NodeId(1), NodeId(7)]);
    }

    #[test]
    fn replay_counts_band_hits_and_tracks_their_threshold() {
        let mut r = EventReplay::new();
        r.apply(&[
            TopkEvent::ResetCompleted { t: 0 },
            TopkEvent::ThresholdUpdated {
                t: 0,
                threshold: 50,
            },
        ]);
        assert_eq!(r.band_hits(), 0);
        r.apply(&[TopkEvent::ApproxBoundary {
            t: 3,
            threshold: 47,
        }]);
        assert_eq!(r.band_hits(), 1);
        assert_eq!(r.threshold(), Some(47), "band hits move the threshold");
        assert_eq!(r.resets(), 1, "band hits are not resets");
    }

    #[test]
    fn event_t_accessor() {
        assert_eq!(TopkEvent::ResetCompleted { t: 9 }.t(), 9);
        assert_eq!(
            TopkEvent::Left {
                t: 4,
                id: NodeId(0)
            }
            .t(),
            4
        );
    }
}
