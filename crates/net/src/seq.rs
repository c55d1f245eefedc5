//! Deterministic sequential runtime — the conformance reference every other
//! engine is compared against, and the workhorse of all experiments.
//!
//! It keeps its own direct-call step loop (nodes are called, not framed),
//! but its micro-rounds follow the same visit rule as the transport
//! engines' driver ([`crate::driver::Cluster`]): one definition of which
//! nodes a round polls.
//!
//! Drives `n` [`NodeBehavior`]s and the [`CoordinatorBehavior`] lent to each
//! step through the synchronous micro-round schedule (see
//! [`crate::behavior`]), charging every model message to an internal
//! [`CommLedger`]. Like every [`Runtime`], it owns the nodes and borrows the
//! coordinator, so the caller keeps the coordinator's state between steps.
//! Node visit order is always ascending node id, and per-node RNG streams
//! are owned by the node state machines, so a run is a pure function of
//! `(behaviors, values)` — the transport engines produce the identical
//! ledger.
//!
//! # Sparsity
//!
//! Four mechanisms keep steps cheap:
//!
//! * **Within a step**: in a micro-round without broadcasts, only *engaged*
//!   nodes and unicast addressees are polled, iterating a persistent sorted
//!   index list of engaged nodes (never a full `0..n` scan). Disengaged
//!   nodes are contractually no-ops, so skipping them changes nothing
//!   observable. Rounds *with* broadcasts poll everyone unless the
//!   coordinator scoped them via [`crate::behavior::RoundScope`]
//!   (announcement rounds only live protocol participants react to), in
//!   which case the same narrow visit applies — broadcasts stay fully
//!   charged to the ledger either way.
//! * **Across steps** (opt-in via [`NodeBehavior::SPARSE_OBSERVE`]):
//!   [`Runtime::step_sparse`] accepts only the *changed* `(id, value)`
//!   pairs, and node-phase 0 is one walk ([`DeltaRow::apply_sparse`], the
//!   single phase-0 visit rule): in one ascending pass over the change-list
//!   and the engaged list it drops repeated values, updates the cached row
//!   and observes each node of changed ∪ engaged, so a silent step costs
//!   `O(#changed + #engaged)` instead of `O(n)`. The dense
//!   [`Runtime::step`] transparently becomes the same walk over a diff
//!   against the cached row ([`DeltaRow::diff`]) for opted-in behaviors, so
//!   every existing monitor benefits without code changes.
//! * **Within a protocol episode** (opt-in via
//!   [`crate::behavior::RoundAction::wake_at`]): a node that knows its
//!   fire round in advance (Algorithm 2 participants — one draw from a
//!   fixed distribution, see `topk_proto::schedule`) is parked in the
//!   [`crate::calendar::FireCalendar`] and skipped by silent and scoped
//!   rounds until that phase; the broadcasts it missed are replayed from
//!   the step's broadcast log when it is next polled. When the round
//!   carries a cutoff ([`CoordOut::cutoff`]), a due node whose cached
//!   value cannot beat it would only withdraw, and is resolved unpolled.
//!   A protocol round thus costs one poll per reporter, not one per
//!   active participant.
//! * **Across a full fan-out**: a round whose broadcasts reach every node,
//!   with no unicast and no live calendar entry (the driver's
//!   `uniform_fanout`; in Algorithm 1 every broadcast-to-all round, e.g.
//!   FILTERRESET's `ResetStart` and `ResetDone`), is one pass over the node
//!   array: each node gets the round's broadcasts straight from the
//!   coordinator output, with no per-node visit-rule work. The visits, the
//!   calendar and the ledger are those the shared rule would produce.
//!
//! All scratch buffers (`ups`, the [`CoordOut`] pair, visit lists, calendar
//! buckets, the broadcast log) are owned by the runtime and reused across
//! rounds and steps — the steady-state hot path performs no allocation.

use std::convert::Infallible;

use crate::behavior::{max_micro_rounds, CoordOut, CoordinatorBehavior, NodeBehavior};
use crate::calendar::FireCalendar;
use crate::chaos::RuntimeError;
use crate::delta::DeltaRow;
use crate::driver::{uniform_fanout, visit_round};
use crate::id::{NodeId, Value};
use crate::ledger::{ChannelKind, CommLedger};
use crate::runtime::Runtime;
use crate::wire::WireSize;

/// Sequential synchronous runtime over `n` node behaviors; the coordinator
/// is lent to each step.
pub struct SyncRuntime<NB: NodeBehavior> {
    nodes: Vec<NB>,
    ledger: CommLedger,
    /// Sorted indices of currently engaged nodes — persists across steps.
    engaged_idx: Vec<u32>,
    /// Scratch for rebuilding `engaged_idx` (swapped each phase).
    engaged_next: Vec<u32>,
    /// Cached last-observed value row + diff/filter logic shared with the
    /// transport driver (see [`crate::delta`]).
    delta_row: DeltaRow,
    /// Scratch: up-messages of the current node-phase.
    ups: Vec<(NodeId, NB::Up)>,
    /// Scratch: coordinator output, reused across micro-rounds.
    out: CoordOut<NB::Down>,
    /// Scratch: the visit list of a micro-round ([`visit_round`]).
    visit: Vec<u32>,
    /// Fire-round calendar: nodes that announced their wake phase, bucketed
    /// by phase, plus their broadcast-log replay cursors.
    calendar: FireCalendar,
    /// All broadcasts of the current step in emission order — the replay
    /// source for scheduled nodes' skipped rounds.
    bcast_log: Vec<NB::Down>,
    guard: u32,
    steps_run: u64,
    silent_steps: u64,
    micro_rounds_run: u64,
    observe_calls: u64,
    micro_polls: u64,
}

impl<NB: NodeBehavior> SyncRuntime<NB> {
    /// `guard_k` only sizes the runaway-protocol guard; pass the monitored
    /// `k` (or any upper bound).
    pub fn new(nodes: Vec<NB>, guard_k: usize) -> Self {
        let n = nodes.len();
        assert!(n > 0, "need at least one node");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.id(),
                NodeId(i as u32),
                "nodes must be dense, id-ordered"
            );
        }
        SyncRuntime {
            nodes,
            ledger: CommLedger::new(),
            engaged_idx: Vec::new(),
            engaged_next: Vec::new(),
            // The cached row backs diffing/sparse stepping only; non-sparse
            // behaviors never read it, so don't pay for it.
            delta_row: DeltaRow::new(n, NB::SPARSE_OBSERVE),
            ups: Vec::new(),
            out: CoordOut::empty(),
            visit: Vec::new(),
            calendar: FireCalendar::new(n),
            bcast_log: Vec::new(),
            guard: max_micro_rounds(n, guard_k),
            steps_run: 0,
            silent_steps: 0,
            micro_rounds_run: 0,
            observe_calls: 0,
            micro_polls: 0,
        }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    pub fn nodes(&self) -> &[NB] {
        &self.nodes
    }

    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Steps that exchanged no message and ran no micro-round.
    pub fn silent_steps(&self) -> u64 {
        self.silent_steps
    }

    pub fn micro_rounds_run(&self) -> u64 {
        self.micro_rounds_run
    }

    /// Total `observe` invocations so far — the sparse path's cost witness:
    /// with `SPARSE_OBSERVE` behaviors this grows by `#changed + #engaged`
    /// per step, not `n`.
    pub fn observe_calls(&self) -> u64 {
        self.observe_calls
    }

    /// Total `micro_round` invocations so far — the calendar's cost
    /// witness: with fire-round-scheduled behaviors a protocol round polls
    /// one node per reporter (at its fire phase), plus the full-fanout
    /// rounds, instead of every participant every round. A participant
    /// that a round's cutoff dooms to withdraw is not polled at all.
    pub fn micro_polls(&self) -> u64 {
        self.micro_polls
    }

    /// Indices of nodes currently engaged in a protocol episode (sorted).
    pub fn engaged_nodes(&self) -> &[u32] {
        &self.engaged_idx
    }

    /// One step: node-phase 0 as `phase0` walks it, then the micro-round
    /// schedule. `phase0` gets the cached row and the engaged list of the
    /// step before, calls [`Self::observe`] for each node it visits, in
    /// ascending id order, and returns whether any of them engaged. The
    /// row and the list are moved out of `self` while the step runs.
    fn run_step<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        phase0: impl FnOnce(&mut Self, &mut DeltaRow, &[u32]) -> bool,
    ) where
        CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
    {
        let mut dr = std::mem::take(&mut self.delta_row);
        let engaged = std::mem::take(&mut self.engaged_idx);
        self.engaged_next.clear();
        self.ups.clear();
        coord.begin_step(t);
        let any_engaged = phase0(self, &mut dr, &engaged);
        self.engaged_idx = std::mem::replace(&mut self.engaged_next, engaged);
        self.finish_step(coord, t, any_engaged, dr.row());
        self.delta_row = dr;
    }

    /// Node-phase 0 at node `i`: observe `value`, file the reply into the
    /// engaged list being rebuilt and charge its up-message. Returns
    /// whether the node engaged.
    #[inline]
    fn observe(&mut self, t: u64, i: u32, value: Value) -> bool {
        let act = self.nodes[i as usize].observe(t, value);
        self.observe_calls += 1;
        // Observe is node-phase 0; the log is empty.
        self.calendar
            .note_reply(i, act.engaged, act.wake_at, 0, 0, &mut self.engaged_next);
        if let Some(up) = act.up {
            self.ledger.count(ChannelKind::Up, up.wire_bits());
            self.ups.push((NodeId(i), up));
        }
        act.engaged
    }

    /// Node-phase 0 over every node: node `i` observes `values[i]`.
    fn observe_all(&mut self, t: u64, values: &[Value]) -> bool {
        let mut any_engaged = false;
        for (i, &value) in (0..).zip(values) {
            any_engaged |= self.observe(t, i, value);
        }
        any_engaged
    }

    /// Silent-step fast path plus the coordinator micro-round loop. `row`
    /// is the cached value row (empty for behaviors without
    /// `SPARSE_OBSERVE`) that every round's visit rule compares a cutoff
    /// against. It is passed in because a step holds the runtime's
    /// [`DeltaRow`] outside `self` while it runs.
    fn finish_step<CB>(&mut self, coord: &mut CB, t: u64, any_engaged: bool, row: &[Value])
    where
        CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
    {
        if !any_engaged && self.ups.is_empty() && coord.try_skip_silent_step(t) {
            self.steps_run += 1;
            self.silent_steps += 1;
            return;
        }

        let mut m: u32 = 0;
        loop {
            let mut out = std::mem::take(&mut self.out);
            let mut ups = std::mem::take(&mut self.ups);
            out.clear();
            coord.micro_round(t, m, &mut ups, &mut out);
            ups.clear();
            self.ups = ups;
            for (_, d) in &out.unicasts {
                self.ledger.count(ChannelKind::Down, d.wire_bits());
            }
            for b in &out.broadcasts {
                self.ledger.count(ChannelKind::Broadcast, b.wire_bits());
            }
            if out.is_empty() && coord.step_done() {
                self.out = out;
                break;
            }
            m += 1;
            self.micro_rounds_run += 1;
            assert!(
                m <= self.guard,
                "micro-round guard exceeded at t={t}: protocol failed to terminate"
            );
            self.deliver_phase(t, m, &mut out, row);
            self.out = out;
        }
        // Schedules and the broadcast log are step-local.
        self.calendar.end_step();
        self.bcast_log.clear();
        self.steps_run += 1;
    }

    /// Deliver the coordinator output of round `m-1` as node-phase `m` under
    /// the shared visit rule ([`crate::driver`]'s `visit_round`, the same
    /// rule the transport engines frame by) and collect the nodes'
    /// up-messages into `self.ups`. A uniform full fan-out (`uniform_fanout`
    /// beside it) is one pass over the node array: the same visits, without
    /// the rule's per-node index, schedule check, unicast peek and replay
    /// slice. `out` is runtime scratch: read here, cleared by the next round.
    fn deliver_phase(&mut self, t: u64, m: u32, out: &mut CoordOut<NB::Down>, row: &[Value]) {
        let mut next = std::mem::take(&mut self.engaged_next);
        next.clear();
        let (nodes, ups, ledger, polls) = (
            &mut self.nodes,
            &mut self.ups,
            &mut self.ledger,
            &mut self.micro_polls,
        );
        if let Some(log_len) = uniform_fanout(out, &self.calendar, &mut self.bcast_log) {
            for (i, node) in (0..).zip(nodes.iter_mut()) {
                let act = node.micro_round(t, m, &out.broadcasts, None);
                self.calendar
                    .note_reply(i, act.engaged, act.wake_at, m, log_len, &mut next);
                if let Some(up) = act.up {
                    ledger.count(ChannelKind::Up, up.wire_bits());
                    ups.push((NodeId(i), up));
                }
            }
            *polls += nodes.len() as u64;
        } else {
            let Ok(()) = visit_round::<_, Infallible>(
                nodes.len(),
                m,
                out,
                row,
                &self.engaged_idx,
                &mut self.calendar,
                &mut self.bcast_log,
                &mut self.visit,
                |cal, p| {
                    let act = nodes[p.i as usize].micro_round(t, m, p.bcasts, p.ucast);
                    *polls += 1;
                    cal.note_reply(p.i, act.engaged, act.wake_at, m, p.log_len, &mut next);
                    if let Some(up) = act.up {
                        ledger.count(ChannelKind::Up, up.wire_bits());
                        ups.push((NodeId(p.i), up));
                    }
                    Ok(())
                },
            );
        }
        self.engaged_next = std::mem::replace(&mut self.engaged_idx, next);
    }
}

impl<NB, CB> Runtime<CB> for SyncRuntime<NB>
where
    NB: NodeBehavior,
    CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
{
    fn try_step(&mut self, coord: &mut CB, t: u64, values: &[Value]) -> Result<(), RuntimeError> {
        assert_eq!(values.len(), self.nodes.len(), "one value per node");
        if NB::SPARSE_OBSERVE && self.delta_row.is_valid() {
            self.run_step(coord, t, |rt, dr, engaged| {
                let mut any_engaged = false;
                dr.diff(values, engaged, |i, v, _| {
                    any_engaged |= rt.observe(t, i, v)
                });
                any_engaged
            });
        } else {
            self.run_step(coord, t, |rt, dr, _| {
                if NB::SPARSE_OBSERVE {
                    dr.prime(values);
                }
                rt.observe_all(t, values)
            });
        }
        Ok(())
    }

    /// The sorted-ids check in [`DeltaRow`] is a hard release assert: a
    /// malformed list would silently corrupt protocol state.
    fn try_step_sparse(
        &mut self,
        coord: &mut CB,
        t: u64,
        changes: &[(NodeId, Value)],
    ) -> Result<(), RuntimeError> {
        assert!(
            NB::SPARSE_OBSERVE,
            "step_sparse requires a NodeBehavior with SPARSE_OBSERVE = true"
        );
        self.run_step(coord, t, |rt, dr, engaged| {
            let mut any_engaged = false;
            let first = dr.apply_sparse(changes, engaged, |i, v, _| {
                any_engaged |= rt.observe(t, i, v)
            });
            if first {
                any_engaged = rt.observe_all(t, dr.row());
            }
            any_engaged
        });
        Ok(())
    }

    fn row(&self) -> &[Value] {
        self.delta_row.row()
    }

    fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    fn silent_steps(&self) -> u64 {
        self.silent_steps
    }

    fn micro_rounds_run(&self) -> u64 {
        self.micro_rounds_run
    }
}
