//! Behavior traits shared by the sequential simulator and the socket
//! runtime.
//!
//! The paper's model is synchronous: at each time step every node observes a
//! new value, then an arbitrary multi-round protocol runs "between t and
//! t+1". We model that protocol as a sequence of *micro-rounds*:
//!
//! * **node-phase 0** — every node observes its new value and may emit one
//!   up-message (Algorithm 2 participants flip their round-0 coin here);
//! * **coordinator round `m`** — the coordinator consumes all up-messages of
//!   node-phase `m` and emits unicasts and/or broadcasts;
//! * **node-phase `m+1`** — nodes receive those messages and may emit again.
//!
//! Silence is observable for free (synchronous model); only actual payloads
//! are charged to the [`crate::ledger::CommLedger`]. A node that neither
//! holds protocol state nor is addressed by a broadcast/unicast is never
//! polled — it declares itself disengaged via [`RoundAction::engaged`],
//! which is a pure wall-clock optimization: a disengaged node's
//! `micro_round` is required to be a no-op (no state change, no RNG use).
//!
//! Both runtimes drive the *same* state machines through these traits, so a
//! single integration test pins their ledgers equal, and every experiment
//! can use the fast sequential path.
//!
//! # Sparse stepping
//!
//! The filter approach makes most steps communication-free; the sparse
//! execution path makes them (almost) *computation*-free too. A behavior
//! that opts in via [`NodeBehavior::SPARSE_OBSERVE`] guarantees that
//! `observe(t, v)` with `v` equal to the previous observation, on a node
//! that ended the last step disengaged, is a no-op — so the runtime may
//! skip the call entirely. [`crate::runtime::Runtime::step_sparse`] then
//! visits only nodes whose value changed plus the persistent engaged set,
//! for per-step cost `O(#changed + #engaged)` instead of `O(n)`, and
//! [`ValueFeed::fill_delta`] lets generators produce only the movers.

use crate::id::{NodeId, Value};
use crate::wire::{Report, WireSize};

/// What a node does upon observing its next stream value.
#[derive(Debug, Clone, Default)]
pub struct ObserveAction<U> {
    /// Immediate up-message (e.g. the naive baseline sends on change; an
    /// Algorithm 1 violator may send its round-0 report).
    pub up: Option<U>,
    /// `true` if the node holds protocol state and must be polled in
    /// subsequent micro-rounds even if no broadcast addresses it.
    pub engaged: bool,
    /// Fire-round calendar entry (requires `engaged`): `Some(m)` asserts
    /// that every micro-round before node-phase `m` is a contractual no-op
    /// for this node *provided* the broadcasts it skips are re-delivered,
    /// in emission order, the next time it is polled. The runtime then
    /// skips the node in silent and scoped rounds until phase `m` — see
    /// [`RoundAction::wake_at`] for the full contract.
    pub wake_at: Option<u32>,
}

impl<U> ObserveAction<U> {
    pub fn idle() -> Self {
        ObserveAction {
            up: None,
            engaged: false,
            wake_at: None,
        }
    }
}

/// What a node does in one micro-round.
#[derive(Debug, Clone, Default)]
pub struct RoundAction<U> {
    /// The node's up-message for this round, if it sends.
    pub up: Option<U>,
    /// Whether the node must keep being polled in following micro-rounds.
    pub engaged: bool,
    /// Fire-round calendar entry — the compute analogue of
    /// [`NodeBehavior::SPARSE_OBSERVE`]'s skip contract. `Some(m)` (only
    /// meaningful with `engaged == true`, and `m` must exceed the current
    /// phase) tells the runtime this node needs no poll before node-phase
    /// `m` of the **current step**: Algorithm 2 participants know their
    /// first-send round in advance (one draw from a fixed distribution —
    /// see `topk_proto::schedule`), and until it arrives they would only
    /// buffer announcements. The runtime buckets the node under phase `m`
    /// and, whenever it next polls the node (at `m`, or earlier because a
    /// [`RoundScope::All`] round or a unicast reaches it), delivers every
    /// broadcast since the node's previous poll — concatenated in emission
    /// order — instead of just the current round's. A node that opts in
    /// must therefore handle accumulated broadcast slices; everything it
    /// would have done in the skipped rounds (deactivation checks) must be
    /// expressible at delivery time. `None` with `engaged == true` keeps
    /// the classic poll-every-round behavior. Schedules do not survive the
    /// step: protocol episodes conclude within their time step, and any
    /// leftover calendar entry is dropped when the step ends.
    pub wake_at: Option<u32>,
}

impl<U> RoundAction<U> {
    pub fn idle() -> Self {
        RoundAction {
            up: None,
            engaged: false,
            wake_at: None,
        }
    }
}

/// Node-side behavior in the synchronous execution.
pub trait NodeBehavior: Send {
    /// Node → coordinator message type.
    type Up: WireSize + Send + 'static;
    /// Coordinator → node message type (broadcast or unicast).
    type Down: WireSize + Clone + Send + 'static;

    /// Contract flag for the sparse execution path: `true` asserts that
    /// calling [`NodeBehavior::observe`] with a value **equal to the node's
    /// previous observation**, while the node is disengaged, is a provable
    /// no-op — no state change, no RNG use, no message. The runtime then
    /// skips such calls entirely (`step` diffs against a cached row;
    /// `step_sparse` accepts change-lists). Behaviors whose `observe` can
    /// act on an unchanged value (e.g. time-driven senders) must leave this
    /// `false` and are always driven densely.
    const SPARSE_OBSERVE: bool = false;

    /// This node's identity.
    fn id(&self) -> NodeId;

    /// Observe the value for time step `t` (node-phase 0).
    fn observe(&mut self, t: u64, value: Value) -> ObserveAction<Self::Up>;

    /// Execute node-phase `m ≥ 1` of time step `t`. `bcasts` are the
    /// broadcasts emitted by the coordinator in round `m-1` (in emission
    /// order), `ucast` a unicast addressed to this node.
    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        bcasts: &[Self::Down],
        ucast: Option<&Self::Down>,
    ) -> RoundAction<Self::Up>;

    /// Write a rollback checkpoint of this node's protocol state into
    /// `slot`. The node's host takes one at its first frame of each time
    /// step, on every socket transport, so this runs once per visited node
    /// per step. The slot holds the previous checkpoint once there is one:
    /// overwrite it in place, without allocating and without touching state
    /// the nodes share. Leaving the slot empty (the default) declares that
    /// the behavior cannot be rolled back; a chaos-enabled cluster refuses
    /// it.
    fn checkpoint(&self, _slot: &mut Option<Self>)
    where
        Self: Sized,
    {
    }

    /// Restore the protocol state captured by [`NodeBehavior::checkpoint`]
    /// when a step attempt is aborted. Implementations must preserve any
    /// forward-only resources (e.g. the RNG cursor — a re-run is a fresh
    /// Las Vegas trial, not a replay of the old draws).
    fn rollback(&mut self, _at: &Self)
    where
        Self: Sized,
    {
        unreachable!("rollback called on a behavior without checkpoint support");
    }
}

/// Delivery scope of one micro-round's **broadcasts** — a transport
/// contract, not a model quantity. A broadcast is always charged to the
/// ledger as one full broadcast; the scope only tells the runtimes which
/// node polls they may *skip* because the emitter guarantees those nodes
/// ignore the payload (exactly like [`NodeBehavior::SPARSE_OBSERVE`]
/// licenses skipping no-op observes).
///
/// The emitter is responsible for the guarantee: a scope may only be
/// narrowed when a disengaged, un-addressed node receiving the round's
/// broadcasts would provably change no observable state and draw no
/// randomness. Algorithm 1's running-extremum / k-select-bar announcements
/// qualify (only live protocol participants react, and live ⟺ engaged);
/// its start/threshold signals do not (they re-activate or re-filter
/// arbitrary nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundScope {
    /// Deliver to every node — the default, always safe.
    #[default]
    All,
    /// Deliver only to engaged nodes (and unicast addressees): every other
    /// node is contractually a no-op for this round's broadcasts.
    Engaged,
}

/// Everything the coordinator emits at the end of one micro-round.
///
/// # The cutoff
///
/// [`CoordOut::cutoff`] is the second transport contract next to
/// [`RoundScope`], and like the scope the emitter owns its guarantee. A
/// cutoff `c` set on round `m` asserts: every node whose fire-round
/// calendar entry is due at node-phase `m + 1` and whose value does not
/// beat `c` in the [`RankEntry`](crate::id::RankEntry) order (higher value
/// first, ties to the lower id) would, if polled, withdraw with no message
/// and no draw, and the episode's concluding full fan-out leaves it in the
/// same state whether or not it was polled. The runtimes then resolve such
/// an entry without polling or framing the node, so a round costs one poll
/// per reporter instead of one per due participant. The value compared is
/// the runtime's cached row, so the cutoff is honoured only for
/// [`NodeBehavior::SPARSE_OBSERVE`] behaviors (the only ones whose values
/// both runtimes cache), and only in rounds that are neither a full
/// fan-out nor carry a unicast; otherwise every due node is polled.
/// Algorithm 1 sets it to the last announced k-select bar on every
/// sampling round of FILTERRESET: a participant below the bar withdraws on
/// replay.
#[derive(Debug, Clone)]
pub struct CoordOut<D> {
    /// Unicasts, each charged as one `Down` message.
    pub unicasts: Vec<(NodeId, D)>,
    /// Broadcasts, each charged as one `Broadcast` message. Usually 0 or 1;
    /// 2 when a min- and a max-protocol round conclude simultaneously.
    pub broadcasts: Vec<D>,
    /// Delivery scope of `broadcasts` (ledger cost unaffected).
    pub scope: RoundScope,
    /// Due calendar entries that do not beat this report are resolved
    /// unpolled (see the type docs; `None`, the default, polls them all).
    pub cutoff: Option<Report>,
}

impl<D> Default for CoordOut<D> {
    fn default() -> Self {
        CoordOut {
            unicasts: Vec::new(),
            broadcasts: Vec::new(),
            scope: RoundScope::All,
            cutoff: None,
        }
    }
}

impl<D> CoordOut<D> {
    pub fn empty() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.unicasts.is_empty() && self.broadcasts.is_empty()
    }

    pub fn bcast(d: D) -> Self {
        CoordOut {
            unicasts: Vec::new(),
            broadcasts: vec![d],
            scope: RoundScope::All,
            cutoff: None,
        }
    }

    /// Drop the round's messages but keep both buffers' capacity — the
    /// runtimes reuse one `CoordOut` across all micro-rounds of a run.
    /// The scope and the cutoff reset to the safe defaults.
    pub fn clear(&mut self) {
        self.unicasts.clear();
        self.broadcasts.clear();
        self.scope = RoundScope::All;
        self.cutoff = None;
    }
}

/// Coordinator-side behavior in the synchronous execution.
pub trait CoordinatorBehavior {
    type Up: WireSize + Send + 'static;
    type Down: WireSize + Clone + Send + 'static;

    /// Called once when time step `t` begins, before any micro-round.
    fn begin_step(&mut self, t: u64);

    /// Fast path: return `true` to skip the step's micro-rounds entirely.
    /// Only invoked when node-phase 0 produced no up-messages and no engaged
    /// node. Must return `true` only if running the rounds would provably
    /// exchange no messages and change no state (e.g. Algorithm 1 once
    /// initialized: no violation ⇒ silence through the whole window).
    fn try_skip_silent_step(&mut self, _t: u64) -> bool {
        false
    }

    /// Consume the up-messages of node-phase `m` (sorted by node id for
    /// determinism) and write the coordinator's output for round `m` into
    /// `out`.
    ///
    /// Both buffers are runtime-owned scratch: `ups` must be drained (the
    /// runtime clears any leftovers and reuses the allocation), and `out`
    /// arrives empty with its previous round's capacity intact — push into
    /// it instead of allocating fresh `Vec`s each round.
    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Self::Up)>,
        out: &mut CoordOut<Self::Down>,
    );

    /// `true` once the protocol exchange for the current step has concluded
    /// (no further micro-rounds are needed). Drivers stop when this holds
    /// *and* the last output was empty; they enforce a hard round guard.
    fn step_done(&self) -> bool;

    /// The coordinator's current answer: the monitored top-k node ids,
    /// sorted ascending.
    fn topk(&self) -> &[NodeId];

    /// Serialize the coordinator's committed state into `out` and return
    /// `true`, or return `false` if the behavior does not support
    /// snapshots (the default) or is mid-step. The recovery layer calls
    /// this after every committed step; a `true` result arms
    /// crash-restart injection.
    fn encode_snapshot(&self, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Restore state previously captured by
    /// [`CoordinatorBehavior::encode_snapshot`], simulating a coordinator
    /// process restart. Returns `false` if the bytes are rejected.
    fn restore_snapshot(&mut self, _bytes: &[u8]) -> bool {
        false
    }

    /// Sink for the transport's recovery counters, called after every
    /// committed step of a chaos-enabled run so they can surface through
    /// the behavior's own metrics.
    fn note_recovery(&mut self, _recovery: &crate::chaos::RecoveryMetrics) {}

    /// Sink for the socket transport's wire ledger
    /// ([`WireMetrics`](crate::ledger::WireMetrics)), called after every
    /// committed step of a socket run so bytes/frames-on-the-wire surface
    /// through the behavior's own metrics. Default: ignored (in-process
    /// runtimes put nothing on a wire).
    fn note_wire(&mut self, _wire: &crate::ledger::WireMetrics) {}
}

/// Hard upper bound on micro-rounds per time step — a bug detector, far above
/// any legitimate schedule. Algorithm 1 runs at most three protocol phases
/// per step (violation window, handler, reset sweep) of at most
/// `⌈log₂n⌉ + 2` rounds each, whatever `k`; the bound clears that at every
/// `k ≥ 1`, and a larger `k` only adds headroom.
pub fn max_micro_rounds(n: usize, k: usize) -> u32 {
    let l = crate::rng::log2_ceil(n.max(2) as u64) + 2;
    (k as u32 + 4) * l + 64
}

/// A value source feeding all `n` nodes one step at a time.
///
/// Implementations live in `topk-streams`; the trait lives here so runtimes
/// and algorithms need not depend on the generator crate.
pub trait ValueFeed: Send {
    /// Number of node streams.
    fn n(&self) -> usize;
    /// Fill `out[i]` with node `i`'s observation for time `t`.
    /// `out.len() == self.n()`. Called with strictly increasing `t`.
    fn fill_step(&mut self, t: u64, out: &mut [Value]);

    /// Delta form of [`ValueFeed::fill_step`]: replace `changes` with the
    /// `(id, value)` pairs of this step, in **ascending id order with at
    /// most one entry per node**. Every node whose value differs from step
    /// `t − 1` must appear; unchanged nodes *may* appear (a superset is
    /// allowed — consumers treat repeat values as no-ops). The first call
    /// must emit all `n` nodes.
    ///
    /// Drive a feed instance through *either* `fill_step` *or* `fill_delta`,
    /// not a mix: both advance the same generator state. Two instances built
    /// from the same spec and seed produce value-identical streams through
    /// either method — the dense/sparse equivalence tests rely on that.
    ///
    /// The default reports every node as changed (correct, `O(n)`); natively
    /// sparse generators override it to emit only movers.
    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        let mut row = vec![0 as Value; self.n()];
        self.fill_step(t, &mut row);
        emit_dense(changes, &row);
    }
}

/// Replace `changes` with a dense `(id, value)` list of `values` — the
/// canonical "first call emits every node" emission of the
/// [`ValueFeed::fill_delta`] contract, shared by every implementor.
pub fn emit_dense(changes: &mut Vec<(NodeId, Value)>, values: &[Value]) {
    changes.clear();
    changes.extend(
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (NodeId(i as u32), v)),
    );
}

impl ValueFeed for Box<dyn ValueFeed> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        (**self).fill_step(t, out)
    }
    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        (**self).fill_delta(t, changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_out_constructors() {
        let out: CoordOut<u32> = CoordOut::empty();
        assert!(out.is_empty());
        let out2 = CoordOut::bcast(7u32);
        assert!(!out2.is_empty());
        assert_eq!(out2.broadcasts, vec![7]);
    }

    #[test]
    fn micro_round_guard_scales() {
        assert!(max_micro_rounds(2, 1) >= 64);
        assert!(max_micro_rounds(1 << 20, 8) > 12 * 20);
        assert!(max_micro_rounds(1024, 1024) > 1024);
    }
}
