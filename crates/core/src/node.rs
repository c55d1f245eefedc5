//! The node-side state machine of Algorithm 1, in a flat one-cache-line
//! layout.
//!
//! A node stores O(1) state: its current value, its threshold filter
//! `(M, in_topk)`, and — while a protocol episode is live — the episode
//! kind plus its scheduled fire phase. It reacts to observations (filter
//! check + episode start on violation, lines 3–9) and to coordinator
//! broadcasts (protocol announcements, handler/reset start signals, filter
//! updates).
//!
//! # Fire-round calendar
//!
//! Algorithm 2 participants never act again after sending or deactivating,
//! so instead of flipping a `2^r/N` coin every round the node samples its
//! first-send round **once** when the episode starts (one draw from the
//! precomputed [`FireDist`](topk_proto::schedule::FireDist) in the shared
//! [`NodeParams`] block — distributionally identical, see
//! `topk_proto::schedule`) and announces the wake phase to the runtime via
//! [`RoundAction::wake_at`]. Announcements it skips are replayed at its
//! next poll; a dominating one simply withdraws the scheduled send — the
//! lazy form of line 8's deactivation. Protocol rounds therefore visit
//! only their scheduled firers.
//!
//! # Flat layout
//!
//! The seed node embedded a `MonitorConfig` copy, a boxed-enum episode
//! (`Participant` per protocol), and a ~136-byte ChaCha RNG — ~300 bytes
//! per node. The episode is now three packed fields (`flags` kind/bits,
//! `aux` fire phase, the implicit report `(id, value)`), the
//! config is one shared `Arc<NodeParams>`, and the RNG a two-word
//! counter-based splitmix64 substream ([`CounterRng`]) — the whole machine
//! fits in a cache line (`size_of` pinned below), which is what makes the
//! episode-start fan-outs at n = 10⁶ memory-bandwidth cheap.

use std::sync::Arc;

use topk_net::behavior::{NodeBehavior, ObserveAction, RoundAction};
use topk_net::id::{NodeId, Value};
use topk_net::rng::CounterRng;
use topk_net::wire::Report;

use topk_proto::extremum::{MaxOrder, MinOrder, ProtocolOrder};

use crate::msg::{DownMsg, UpMsg};
use crate::params::NodeParams;

/// Live episode kind — `flags & KIND_MASK`.
const KIND_IDLE: u8 = 0;
const KIND_VIOL_MIN: u8 = 1;
const KIND_VIOL_MAX: u8 = 2;
const KIND_HANDLER_MIN: u8 = 3;
const KIND_HANDLER_MAX: u8 = 4;
const KIND_RESET: u8 = 5;
const KIND_MASK: u8 = 0b0000_0111;
/// Participant still live: `aux` holds the absolute fire phase.
const ACTIVE: u8 = 0b0000_1000;
/// Filter membership side.
const IN_TOPK: u8 = 0b0010_0000;
/// Filter assigned (before the `t = 0` reset completes nothing violates).
const FILTER_OK: u8 = 0b0100_0000;

/// One distributed node of the monitoring system (flat layout — see the
/// module docs; the `size_of` pin lives in the tests below).
#[derive(Clone)]
pub struct NodeMachine {
    params: Arc<NodeParams>,
    value: Value,
    /// Filter threshold `M` (valid iff `FILTER_OK`).
    filter_m: Value,
    rng: CounterRng,
    id: NodeId,
    /// Scheduled fire phase (meaningful while `ACTIVE`).
    aux: u32,
    flags: u8,
}

impl NodeMachine {
    /// Build node `id` with its private RNG substream of `master_seed`,
    /// sharing the monitor-wide parameter block.
    pub fn new(id: NodeId, params: &Arc<NodeParams>, master_seed: u64) -> Self {
        assert!(id.idx() < params.n as usize);
        NodeMachine {
            params: Arc::clone(params),
            value: 0,
            filter_m: 0,
            rng: CounterRng::substream(master_seed, id.0 as u64),
            id,
            aux: 0,
            flags: 0,
        }
    }

    /// The node's current observation (test/debug accessor).
    pub fn value(&self) -> Value {
        self.value
    }

    /// Whether the node currently believes it is in the top-k.
    pub fn in_topk(&self) -> bool {
        self.flags & (FILTER_OK | IN_TOPK) == FILTER_OK | IN_TOPK
    }

    /// The node's current filter threshold, if initialized.
    pub fn threshold(&self) -> Option<Value> {
        (self.flags & FILTER_OK != 0).then_some(self.filter_m)
    }

    /// RNG draws consumed so far — with the fire-round calendar this is
    /// exactly one per protocol episode, and zero for probability-1
    /// schedules (`k = 1` min protocols, `n_bound = 1` participants).
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    #[inline]
    fn kind(&self) -> u8 {
        self.flags & KIND_MASK
    }

    #[inline]
    fn my_report(&self) -> Report {
        Report {
            id: self.id,
            value: self.value,
        }
    }

    /// Start a fresh episode at node-phase `phase_now`: sample the fire
    /// round once and schedule the send at `phase_now + r*` (round 0 of the
    /// episode is this very phase, so `r* = 0` fires in the current poll).
    fn start_episode(&mut self, kind: u8, phase_now: u32) {
        let dist = match kind {
            KIND_VIOL_MIN | KIND_HANDLER_MIN => &self.params.dist_min,
            KIND_VIOL_MAX | KIND_HANDLER_MAX => &self.params.dist_max,
            _ => &self.params.dist_reset,
        };
        let r = dist.sample(&mut self.rng);
        self.flags = (self.flags & !KIND_MASK) | kind | ACTIVE;
        self.aux = phase_now + r;
    }

    /// Lazy deactivation (Algorithm 2 line 8): withdraw the scheduled send
    /// if the announced report cannot be beaten.
    fn apply_announcement<O: ProtocolOrder>(&mut self, announced: Report) {
        if !O::better(self.my_report(), announced) {
            self.flags &= !ACTIVE;
        }
    }

    /// Resolve the schedule at node-phase `m`: fire if due, otherwise
    /// re-state the calendar entry.
    fn resolve(&mut self, m: u32) -> RoundAction<UpMsg> {
        if self.flags & ACTIVE == 0 {
            return RoundAction::idle();
        }
        debug_assert!(self.aux >= m, "missed the scheduled fire phase");
        if self.aux == m {
            self.flags &= !ACTIVE;
            let report = self.my_report();
            let up = match self.kind() {
                KIND_VIOL_MIN => UpMsg::ViolMin(report),
                KIND_VIOL_MAX => UpMsg::ViolMax(report),
                KIND_HANDLER_MIN | KIND_HANDLER_MAX => UpMsg::Handler(report),
                _ => UpMsg::Reset(report),
            };
            RoundAction {
                up: Some(up),
                engaged: false,
                wake_at: None,
            }
        } else {
            RoundAction {
                up: None,
                engaged: true,
                wake_at: Some(self.aux),
            }
        }
    }

    /// Apply one broadcast at node-phase `m` (scheduled nodes receive the
    /// rounds they skipped replayed in order, so `m` may be well past the
    /// broadcast's emission round — every handler below is insensitive to
    /// that lag; announcements only ever *withdraw* the scheduled send).
    fn apply_broadcast(&mut self, b: &DownMsg, m: u32) {
        match *b {
            DownMsg::ViolMinAnnounce(rep) => {
                if self.kind() == KIND_VIOL_MIN && self.flags & ACTIVE != 0 {
                    self.apply_announcement::<MinOrder>(rep);
                }
            }
            DownMsg::ViolMaxAnnounce(rep) => {
                if self.kind() == KIND_VIOL_MAX && self.flags & ACTIVE != 0 {
                    self.apply_announcement::<MaxOrder>(rep);
                }
            }
            DownMsg::HandlerAnnounce(rep) => match self.kind() {
                KIND_HANDLER_MIN if self.flags & ACTIVE != 0 => {
                    self.apply_announcement::<MinOrder>(rep);
                }
                KIND_HANDLER_MAX if self.flags & ACTIVE != 0 => {
                    self.apply_announcement::<MaxOrder>(rep);
                }
                _ => {}
            },
            DownMsg::ResetBar(rep) => {
                // The (k+1)-th-best bar: withdraw unless we beat it.
                if self.kind() == KIND_RESET && self.flags & ACTIVE != 0 {
                    self.apply_announcement::<MaxOrder>(rep);
                }
            }
            DownMsg::HandlerStartMin => {
                if self.in_topk() {
                    self.start_episode(KIND_HANDLER_MIN, m);
                }
            }
            DownMsg::HandlerStartMax => {
                if self.flags & (FILTER_OK | IN_TOPK) == FILTER_OK {
                    self.start_episode(KIND_HANDLER_MAX, m);
                }
            }
            DownMsg::Midpoint(new_m) | DownMsg::Band(new_m) => {
                // A band announcement is a midpoint to the node: adopt the
                // new common threshold, keep membership. The ε-tolerance is
                // entirely the coordinator's; nodes need no extra state.
                if self.flags & FILTER_OK != 0 {
                    self.filter_m = new_m;
                }
                self.flags &= !(KIND_MASK | ACTIVE);
            }
            DownMsg::ResetStart => {
                self.start_episode(KIND_RESET, m);
            }
            DownMsg::ResetDone { threshold, cut } => {
                // The top-k are exactly the reports that beat the sweep's
                // (k+1)-th best in the order it selected with, ties
                // included.
                let in_topk = MaxOrder::better(self.my_report(), cut);
                self.filter_m = threshold;
                self.flags &= !(KIND_MASK | ACTIVE | IN_TOPK);
                self.flags |= FILTER_OK;
                if in_topk {
                    self.flags |= IN_TOPK;
                }
            }
        }
    }

    /// Copy `at`'s protocol state: every field but the shared parameter
    /// block, the id and the RNG cursor.
    fn restore(&mut self, at: &Self) {
        self.value = at.value;
        self.filter_m = at.filter_m;
        self.aux = at.aux;
        self.flags = at.flags;
    }
}

impl NodeBehavior for NodeMachine {
    type Up = UpMsg;
    type Down = DownMsg;

    /// `observe` only stores the value and checks the filter: an unchanged
    /// value on an idle node can neither newly violate (the filter did not
    /// move) nor touch the RNG, so the runtime may skip the call — this is
    /// what makes Algorithm 1's silent steps O(#changed) instead of O(n).
    const SPARSE_OBSERVE: bool = true;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<UpMsg> {
        self.value = value;
        debug_assert!(
            self.kind() == KIND_IDLE,
            "protocol episodes must conclude within their step"
        );
        if self.flags & FILTER_OK == 0 {
            return ObserveAction::idle();
        }
        // With slack ε the filter is a hysteresis band around M:
        // [M−ε, ∞] for top-k, [−∞, M+ε] for the rest (ε = 0 is the
        // paper's exact algorithm).
        let in_top = self.flags & IN_TOPK != 0;
        let violated = if in_top {
            value.saturating_add(self.params.slack) < self.filter_m
        } else {
            value > self.filter_m.saturating_add(self.params.slack)
        };
        if !violated {
            return ObserveAction::idle();
        }
        // Lines 4–8: join the appropriate violation protocol; observe is
        // node-phase 0, so the round-0 coin is the `r* = 0` case of the
        // one-draw schedule and fires right here.
        self.start_episode(if in_top { KIND_VIOL_MIN } else { KIND_VIOL_MAX }, 0);
        let act = self.resolve(0);
        ObserveAction {
            up: act.up,
            engaged: act.engaged,
            wake_at: act.wake_at,
        }
    }

    // Inlinable into the runtimes' per-node loops, which are compiled in
    // other codegen units and crates: a full fan-out calls it once per
    // node. In paired `churn-100k` perfbench runs on a 2-vCPU VM the
    // attribute added 7–11 % to `updates_per_s` (25 of 30 pairs).
    #[inline]
    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        bcasts: &[DownMsg],
        ucast: Option<&DownMsg>,
    ) -> RoundAction<UpMsg> {
        debug_assert!(ucast.is_none(), "Algorithm 1 never unicasts");
        for b in bcasts {
            self.apply_broadcast(b, m);
        }
        self.resolve(m)
    }

    /// The flat layout makes a checkpoint a copy of the plain fields. Only
    /// the first checkpoint clones the node; after that the slot is
    /// overwritten in place and the shared `Arc` parameter block, which
    /// every node on every shard thread points at, is never touched.
    fn checkpoint(&self, slot: &mut Option<Self>) {
        match slot {
            Some(at) => at.restore(self),
            None => *slot = Some(self.clone()),
        }
    }

    /// Restore the step-start protocol state but keep the RNG cursor: an
    /// aborted attempt's draws are burned, so the re-run is a fresh
    /// Las Vegas trial rather than a replay of the crashed one.
    fn rollback(&mut self, at: &Self) {
        self.restore(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use topk_proto::extremum::BroadcastPolicy;

    fn params(n: usize, k: usize) -> Arc<NodeParams> {
        NodeParams::shared(&MonitorConfig::new(n, k).with_policy(BroadcastPolicy::OnChange))
    }

    fn node(id: u32, n: usize, k: usize, seed: u64) -> NodeMachine {
        NodeMachine::new(NodeId(id), &params(n, k), seed)
    }

    /// The whole point of the flat layout: every node fits in one cache
    /// line. Guard the bound so a future field does not silently blow the
    /// per-node footprint back up.
    #[test]
    fn node_machine_fits_in_a_cache_line() {
        let size = std::mem::size_of::<NodeMachine>();
        assert!(size < 64, "NodeMachine is {size} B, must stay under 64 B");
    }

    #[test]
    fn uninitialized_node_never_violates() {
        let mut node = node(0, 4, 2, 1);
        let act = node.observe(0, 123);
        assert!(act.up.is_none() && !act.engaged);
        assert_eq!(node.value(), 123);
        assert!(node.threshold().is_none());
    }

    /// The `ResetDone` of a reset whose `(k+1)`-th best is node `id` at
    /// `value`.
    fn done(threshold: Value, id: u32, value: Value) -> DownMsg {
        DownMsg::ResetDone {
            threshold,
            cut: Report {
                id: NodeId(id),
                value,
            },
        }
    }

    #[test]
    fn reset_flow_assigns_membership() {
        let mut node = node(2, 4, 2, 7);
        node.observe(0, 50);
        // ResetStart wakes the node as a participant.
        let act = node.micro_round(0, 1, &[DownMsg::ResetStart], None);
        // It may or may not send in round 0 — but it must be live.
        assert!(act.engaged || act.up.is_some());
        // Done: threshold 40, and the node beats the cut (node 3 at 30) ⇒
        // in top-k.
        let act = node.micro_round(0, 2, &[done(40, 3, 30)], None);
        assert!(act.up.is_none() && !act.engaged, "the reset is over");
        assert!(node.in_topk());
        assert_eq!(node.threshold(), Some(40));
    }

    #[test]
    fn rank_beyond_k_is_not_topk() {
        // k = 1 and the node is the cut itself (rank k+1 = 2).
        let mut node = node(1, 4, 1, 3);
        node.observe(0, 10);
        node.micro_round(0, 1, &[DownMsg::ResetStart], None);
        node.micro_round(0, 2, &[done(15, 1, 10)], None);
        assert!(!node.in_topk());
    }

    /// A boundary tie `v_k = v_{k+1} = M`: four nodes at 50 and k = 2, so
    /// the cut is node 2 and the threshold 50. Membership splits the tie by
    /// id exactly as the answer does (nodes 0 and 1 in, 2 and 3 out), which
    /// neither a `v > M` nor a `v ≥ M` rule can do.
    #[test]
    fn reset_splits_a_boundary_tie_like_the_answer() {
        let members: Vec<bool> = (0..4)
            .map(|id| {
                let mut node = node(id, 4, 2, 1);
                node.observe(0, 50);
                node.micro_round(0, 1, &[DownMsg::ResetStart], None);
                node.micro_round(0, 2, &[done(50, 2, 50)], None);
                assert_eq!(node.threshold(), Some(50));
                node.in_topk()
            })
            .collect();
        assert_eq!(members, [true, true, false, false]);
    }

    #[test]
    fn topk_node_violates_below_threshold_only() {
        let mut node = node(0, 8, 4, 5);
        node.observe(0, 100);
        node.micro_round(0, 1, &[DownMsg::ResetStart], None);
        node.micro_round(0, 2, &[done(60, 5, 20)], None);
        assert!(node.in_topk());
        // At the threshold: fine. Above: fine. Below: violation episode.
        assert!(node.observe(1, 60).up.is_none());
        assert!(!node.observe(2, 99).engaged);
        let act = node.observe(3, 59);
        // k=4 ⇒ min-protocol bound 4 ⇒ round 0 fires with prob 1/4; the node
        // is live either way.
        assert!(act.engaged || act.up.is_some());
        if act.engaged {
            let wake = act.wake_at.expect("live participants schedule a wake");
            assert!((1..=2).contains(&wake), "min-protocol(4) has rounds 0..=2");
        }
    }

    #[test]
    fn non_topk_node_violates_above_threshold_only() {
        let mut node = node(3, 8, 4, 5);
        node.observe(0, 10);
        node.micro_round(0, 1, &[DownMsg::ResetStart], None);
        // The cut (node 7 at 55) beats the node.
        node.micro_round(0, 2, &[done(60, 7, 55)], None);
        assert!(!node.in_topk());
        assert!(
            node.observe(1, 60).up.is_none(),
            "at threshold: no violation"
        );
        let act = node.observe(2, 61);
        assert!(
            act.engaged || act.up.is_some(),
            "above threshold: violation"
        );
    }

    #[test]
    fn violation_protocol_eventually_reports() {
        // k=1 ⇒ the min-protocol schedule is the probability-1 round 0: the
        // violator fires in `observe` itself, and consumes no randomness.
        let mut node = node(0, 16, 1, 11);
        node.observe(0, 100);
        node.micro_round(0, 1, &[DownMsg::ResetStart], None);
        node.micro_round(0, 2, &[done(50, 3, 20)], None);
        let draws_before = node.rng_draws();
        // Violate: value drops below 50. k=1 ⇒ bound 1 ⇒ sends immediately.
        let act = node.observe(1, 10);
        assert!(act.up.is_some(), "k=1 min protocol sends in round 0");
        match act.up.unwrap() {
            UpMsg::ViolMin(r) => {
                assert_eq!(r.value, 10);
                assert_eq!(r.id, NodeId(0));
            }
            other => panic!("expected ViolMin, got {other:?}"),
        }
        assert_eq!(
            node.rng_draws(),
            draws_before,
            "probability-1 schedules must perform zero draws"
        );
    }

    #[test]
    fn midpoint_updates_threshold_preserving_membership() {
        let mut node = node(0, 4, 2, 13);
        node.observe(0, 80);
        node.micro_round(0, 1, &[DownMsg::ResetStart], None);
        node.micro_round(0, 2, &[done(50, 1, 20)], None);
        assert!(node.in_topk());
        node.micro_round(1, 1, &[DownMsg::Midpoint(70)], None);
        assert!(node.in_topk(), "midpoint must not change membership");
        assert_eq!(node.threshold(), Some(70));
        // A band announcement behaves identically on the node side.
        node.micro_round(2, 1, &[DownMsg::Band(65)], None);
        assert!(node.in_topk(), "band must not change membership");
        assert_eq!(node.threshold(), Some(65));
    }

    #[test]
    fn handler_start_only_wakes_matching_side() {
        let mk = |id: u32, in_top: bool, seed: u64| {
            let mut node = node(id, 4, 2, seed);
            node.observe(0, if in_top { 100 } else { 10 });
            node.micro_round(0, 1, &[DownMsg::ResetStart], None);
            node.micro_round(0, 2, &[done(50, 3, 40)], None);
            node
        };
        let mut top = mk(0, true, 1);
        let mut bot = mk(1, false, 2);
        // HandlerStartMax wakes only the non-top-k node.
        let a = top.micro_round(1, 1, &[DownMsg::HandlerStartMax], None);
        assert!(a.up.is_none() && !a.engaged);
        let b = bot.micro_round(1, 1, &[DownMsg::HandlerStartMax], None);
        assert!(b.up.is_some() || b.engaged);
        // HandlerStartMin wakes only the top-k node.
        let mut top2 = mk(2, true, 3);
        let mut bot2 = mk(3, false, 4);
        let a2 = top2.micro_round(1, 1, &[DownMsg::HandlerStartMin], None);
        assert!(a2.up.is_some() || a2.engaged);
        let b2 = bot2.micro_round(1, 1, &[DownMsg::HandlerStartMin], None);
        assert!(b2.up.is_none() && !b2.engaged);
    }

    /// The lazy-deactivation path: a scheduled participant that receives a
    /// dominating announcement (possibly replayed late) withdraws instead
    /// of firing — and a non-dominating one leaves the schedule alone.
    #[test]
    fn replayed_dominating_announcement_withdraws_the_send() {
        // Find a seed whose reset schedule defers the send past round 0 so
        // the node parks on the calendar.
        for seed in 0..64 {
            let mut n = node(2, 64, 2, seed);
            n.observe(0, 500);
            let act = n.micro_round(0, 1, &[DownMsg::ResetStart], None);
            if act.up.is_some() {
                continue; // fired immediately — try another seed
            }
            let wake = act.wake_at.expect("deferred send must schedule");
            assert!(act.engaged && wake > 1);
            // The catch-up slice at fire time carries two bars: one beaten,
            // one dominating. The node must withdraw silently.
            let beaten = DownMsg::ResetBar(Report {
                id: NodeId(9),
                value: 100,
            });
            let dominating = DownMsg::ResetBar(Report {
                id: NodeId(9),
                value: 501,
            });
            let act = n.micro_round(0, wake, &[beaten, dominating], None);
            assert!(act.up.is_none() && !act.engaged, "dominated ⇒ withdraw");
            return;
        }
        panic!("no seed deferred the send — schedule distribution broken?");
    }

    /// A deferred participant left alone fires exactly at its wake phase
    /// with its report.
    #[test]
    fn deferred_send_fires_at_the_scheduled_phase() {
        for seed in 0..64 {
            let mut n = node(2, 64, 2, seed);
            n.observe(0, 500);
            let act = n.micro_round(0, 1, &[DownMsg::ResetStart], None);
            if act.up.is_some() {
                continue;
            }
            let wake = act.wake_at.unwrap();
            let act = n.micro_round(0, wake, &[], None);
            match act.up {
                Some(UpMsg::Reset(r)) => {
                    assert_eq!(r.value, 500);
                    assert_eq!(r.id, NodeId(2));
                }
                other => panic!("expected the scheduled Reset report, got {other:?}"),
            }
            assert!(!act.engaged, "a fired participant never acts again");
            return;
        }
        panic!("no seed deferred the send");
    }

    /// A step checkpoint into an occupied slot overwrites it in place
    /// without touching the shared parameter block, and a rollback from it
    /// restores the step-start state but keeps the RNG cursor.
    #[test]
    fn checkpoint_overwrites_its_slot_and_rollback_keeps_the_rng_cursor() {
        let params = params(4, 2);
        let mut node = NodeMachine::new(NodeId(2), &params, 7);
        let mut first = None;
        node.checkpoint(&mut first);
        assert!(first.is_some(), "the first checkpoint fills an empty slot");
        node.observe(0, 50);
        node.micro_round(0, 1, &[DownMsg::ResetStart], None);
        node.micro_round(0, 2, &[done(40, 3, 30)], None);
        // Step 1 checkpoints into an occupied slot. The slot's node holds a
        // parameter block of its own, so cloning the node, or the node
        // taking the slot's block, would move one of the two counts.
        let held = self::params(4, 2);
        let mut slot = Some(NodeMachine::new(NodeId(2), &held, 7));
        let counts = || (Arc::strong_count(&params), Arc::strong_count(&held));
        let refs = counts();
        node.checkpoint(&mut slot);
        assert_eq!(counts(), refs, "the checkpoint touched an Arc");
        // A violation starts an episode, which draws once.
        let draws = node.rng_draws();
        node.observe(1, 10);
        assert_eq!(node.rng_draws(), draws + 1);
        node.rollback(slot.as_ref().expect("the slot stays filled"));
        assert_eq!(counts(), refs, "the rollback touched an Arc");
        assert_eq!(node.value(), 50, "the step-start value is back");
        assert_eq!(node.threshold(), Some(40), "the filter is back");
        assert!(node.in_topk());
        assert_eq!(node.rng_draws(), draws + 1, "the burned draw stays burned");
        // The rolled-back node re-runs the step as a fresh trial.
        let act = node.observe(1, 10);
        assert!(act.up.is_some() || act.engaged, "the violation runs again");
        assert_eq!(node.rng_draws(), draws + 2);
    }
}
