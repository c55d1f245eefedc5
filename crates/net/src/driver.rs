//! The step driver of the transport engine.
//!
//! The paper's model is `n` nodes, one coordinator and synchronous rounds
//! with every message charged; Algorithm 1 does not care what carries a
//! frame. [`Cluster`] is that model's driver, written once. It stages
//! node-phase 0 from [`DeltaRow`]'s walk over dense rows and change-lists
//! (changed nodes observe their new value, engaged ones a value-less
//! cached observe), applies the round visit rule (`visit_round`:
//! [`FireCalendar`] skip plus broadcast-log replay, [`RoundScope`]
//! narrowing, the round's [`CoordOut::cutoff`] against the cached row),
//! charges `sync_frames` at dispatch intent and every model message to
//! its [`CommLedger`], and runs the recovery state machine. A
//! [`Transport`] only carries frames, one per endpoint and wave:
//! [`crate::socket`] writes them as length-prefixed bytes over loopback TCP
//! to node shards, one frame holding every polled node of the shard. Tests
//! plug scripted fakes in through the same trait.
//!
//! Node-phase 0 frames only changed ∪ engaged nodes for behaviors that opt
//! into [`NodeBehavior::SPARSE_OBSERVE`] (an engaged node whose value did
//! not move observes the value cached on its side), so `sync_frames` grows
//! by `O(#changed + #engaged)` per silent step, not `n`. The model ledger
//! (messages, payload bits, RNG streams) stays bit-identical to
//! [`crate::seq::SyncRuntime`], pinned by `tests/runtime_conformance.rs`.
//!
//! # Recovery state machine
//!
//! A [`ChaosPolicy`] arms seeded faults at dispatch, rolled once per
//! endpoint and wave, keyed by `(t, run, m, first node of the endpoint)`:
//! an endpoint frame's *first* delivery may be dropped, duplicated, delayed
//! past its wave, or stalled; its reply frame may be lost; the coordinator
//! may crash between micro-rounds; and a wire transport adds its own
//! classes through [`Transport::wire_fault`]. Recovery works in layers:
//!
//! * **Idempotent re-delivery** — every work frame carries the key
//!   `(t, run, m)`. The node side (`NodeHost`) processes each key at most
//!   once per node: a stale key is ignored, a repeated key re-sends the
//!   node's cached reply.
//! * **Reply deadlines with bounded retry** — [`Cluster`] collects each wave
//!   under the policy's deadline and re-sends the frames of endpoints that
//!   still owe replies (charged to [`ChannelKind::Retransmit`]) up to
//!   `max_retries` times before a typed [`RuntimeError::ReplyTimeout`]. A
//!   clean transport waits [`MAX_IDLE_TICKS`] × [`RECV_TICK_MS`] (30 s) of
//!   silence instead, so a wedged node fails typed rather than blocking
//!   forever.
//! * **Whole-step re-run** — an injected coordinator crash restores the
//!   last committed snapshot, rolls the model ledger back, fences the dead
//!   attempt with an abort wave (one abort and one ack per endpoint), and
//!   re-runs the step under `run + 1`. Protocol rounds are Las Vegas, so the
//!   re-run lands on the same committed answers.
//!
//! Without restarts, fault mixes leave the whole model ledger, including
//! `sync_frames`, bit-identical to a fault-free twin.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use crate::behavior::{
    max_micro_rounds, CoordOut, CoordinatorBehavior, NodeBehavior, RoundAction, RoundScope,
};
use crate::calendar::FireCalendar;
use crate::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError};
use crate::delta::DeltaRow;
use crate::id::{NodeId, Value};
use crate::ledger::{ChannelKind, CommLedger, LedgerSnapshot, WireMetrics};
use crate::runtime::Runtime;
use crate::wire::WireSize;

/// Node-phase index of the step-abort control frame — past every real
/// phase, so `(t, run, ABORT_M)` outranks all work of the aborted attempt.
pub const ABORT_M: u32 = u32::MAX;

/// Reply-collect tick of a clean transport; dead-endpoint detection runs
/// once per tick.
pub const RECV_TICK_MS: u64 = 200;

/// Idle collect ticks before a clean transport gives up with
/// [`RuntimeError::ReplyTimeout`] (150 × 200 ms = 30 s).
pub const MAX_IDLE_TICKS: u32 = 150;

/// Idempotency key `(t, run, m)` of one work frame: time step, step attempt
/// (bumped on every whole-step re-run) and node-phase (0 = observe).
pub type FrameKey = (u64, u32, u32);

/// What one work frame asks a node to do.
pub enum Work<'a, D> {
    /// Node-phase 0: observe a new value, or (`None`) replay the value
    /// cached on the node side.
    Observe(Option<Value>),
    /// Node-phase `m ≥ 1`: the broadcasts the node has not seen yet, in
    /// emission order, and an optional unicast addressed to it.
    Round {
        bcasts: &'a [D],
        ucast: Option<&'a D>,
    },
}

/// Origin and key of one reply frame. Its node entries land in the
/// caller's buffer; an abort ack is a frame keyed `(t, run, ABORT_M)` with
/// no entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyHead {
    /// The endpoint that sent the frame.
    pub e: usize,
    pub key: FrameKey,
}

/// One node's entry of a reply frame.
#[derive(Debug, Clone)]
pub struct Reply<U> {
    pub id: NodeId,
    pub up: Option<U>,
    pub engaged: bool,
    /// Fire-round calendar entry (see [`RoundAction::wake_at`]).
    pub wake_at: Option<u32>,
    /// Encoded bytes of `up` on the wire (0 on in-process transports).
    pub up_bytes: u64,
}

/// What carries frames between a [`Cluster`] and its nodes.
///
/// Nodes live in *endpoints*: the transport's fault domains (on the socket
/// transport, one shard connection per node range). The unit of transfer
/// is one endpoint's part of one wave: the driver stages every visited node's
/// work into its endpoint's frame, then seals and sends each endpoint's
/// frame once, and each endpoint answers with one reply frame. The driver
/// decides what to send, when to re-send and which faults to inject; the
/// transport encodes, moves and receives. Every method that touches a dead
/// endpoint returns [`RuntimeError::NodeDown`] instead of panicking.
pub trait Transport<NB: NodeBehavior>: Sized {
    /// A retained copy of one endpoint's sealed wave, kept for re-send.
    type Frame;

    /// Start the endpoints for `nodes` (dense, id-ordered). `chaos` is the
    /// armed fault schedule, if any: a wire transport takes its reply
    /// deadline and its own fault rates from it. Frames look the same
    /// either way, and every endpoint dedups, re-answers and aborts by key.
    fn spawn(nodes: Vec<NB>, chaos: Option<ChaosPolicy>) -> Result<Self, RuntimeError>;
    /// Number of endpoints.
    fn endpoints(&self) -> usize;
    /// The endpoint hosting node `i`.
    fn endpoint_of(&self, i: u32) -> usize;
    /// The first node of endpoint `e` (fault rolls, error attribution).
    fn first_node(&self, e: usize) -> NodeId;
    /// Whether endpoint `e`'s host (a shard thread) has exited.
    fn is_dead(&self, e: usize) -> bool;
    /// Add node `i`'s work to its endpoint's staged wave. A wave stages
    /// its nodes in ascending id order.
    fn stage(&mut self, i: u32, work: Work<'_, NB::Down>);
    /// Close endpoint `e`'s staged wave under `key`, ready to send; the
    /// next [`Transport::stage`] for `e` starts a new wave.
    fn seal(&mut self, e: usize, key: FrameKey);
    /// A re-sendable copy of endpoint `e`'s sealed wave.
    fn keep(&self, e: usize) -> Self::Frame;
    /// First delivery of endpoint `e`'s sealed wave; `stall_ms > 0` makes
    /// the endpoint sleep before processing it (off-model traffic, like an
    /// abort). May consume the sealed wave, so the driver calls
    /// [`Transport::keep`] first.
    fn send(&mut self, e: usize, stall_ms: u32) -> Result<(), RuntimeError>;
    /// Re-send a kept wave to endpoint `e` (off-model traffic).
    fn resend(&mut self, e: usize, frame: &Self::Frame) -> Result<(), RuntimeError>;
    /// Push buffered frames out.
    fn flush(&mut self) -> Result<(), RuntimeError> {
        Ok(())
    }
    /// Wait up to `timeout` for one reply frame from an endpoint `e` with
    /// `owed[e] > 0`, clearing `into` and filling it with the frame's node
    /// entries. `Ok(None)` means nothing arrived in time.
    fn recv(
        &mut self,
        owed: &[u32],
        timeout: Duration,
        into: &mut Vec<Reply<NB::Up>>,
    ) -> Result<Option<ReplyHead>, RuntimeError>;
    /// Charge a received reply's payload bytes to `kind` (wire transports).
    fn charge_reply(&mut self, _kind: ChannelKind, _up_bytes: u64) {}
    /// Send the abort of attempt `(t, run)` to endpoint `e`.
    fn send_abort(&mut self, e: usize, t: u64, run: u32) -> Result<(), RuntimeError>;
    /// Wire-level fault hook, called before (`sent == false`) and after
    /// endpoint `e`'s first delivery of its sealed wave. Returns `true`
    /// when the fault severed the connection and the transport has already
    /// reconnected and re-delivered the wave.
    fn wire_fault(
        &mut self,
        _e: usize,
        _key: FrameKey,
        _sent: bool,
        _policy: &ChaosPolicy,
        _recovery: &mut RecoveryMetrics,
    ) -> Result<bool, RuntimeError> {
        Ok(false)
    }
    /// The physical wire ledger, if this transport has a wire.
    fn wire(&self) -> Option<&WireMetrics> {
        None
    }
    /// Halt every endpoint and return the behaviors in id order (those of
    /// panicked endpoints are skipped).
    fn shutdown(self) -> Vec<NB>;
}

/// Outcome of one step attempt that did not commit.
enum AttemptError {
    /// Injected coordinator crash — recover and re-run the step.
    Crashed,
    /// A transport failure that no re-run can heal.
    Fatal(RuntimeError),
}

impl From<RuntimeError> for AttemptError {
    fn from(e: RuntimeError) -> Self {
        AttemptError::Fatal(e)
    }
}

/// One node poll of a micro-round, as decided by [`visit_round`].
pub(crate) struct Poll<'a, D> {
    pub i: u32,
    pub bcasts: &'a [D],
    pub ucast: Option<&'a D>,
    /// Broadcast-log length after this round's broadcasts.
    pub log_len: usize,
}

/// The uniform case of [`visit_round`]: a round whose broadcasts reach every
/// node ([`RoundScope::All`]), with no unicast and no live calendar entry.
/// Then every node, in id order, gets exactly this round's broadcasts and
/// no unicast, so a runtime that calls its nodes directly may serve the
/// round as one pass over its node array. In Algorithm 1 every
/// broadcast-to-all round is uniform (`ResetStart`, `ResetDone`,
/// `HandlerStartMin/Max`, `Midpoint`, `Band`): each is emitted when no
/// protocol episode is open, at init or once the protocol before it has
/// passed its probability-1 final round, so no calendar entry is live.
///
/// For a uniform round this appends the broadcasts to the step's `log`, as
/// [`visit_round`] would, and returns the log length each node's reply is
/// noted at ([`FireCalendar::note_reply`]). Otherwise it leaves `log`
/// alone and returns `None`, and the round goes through [`visit_round`].
pub(crate) fn uniform_fanout<D: Clone>(
    out: &CoordOut<D>,
    cal: &FireCalendar,
    log: &mut Vec<D>,
) -> Option<usize> {
    let uniform = !out.broadcasts.is_empty()
        && out.scope == RoundScope::All
        && out.unicasts.is_empty()
        && cal.is_empty();
    uniform.then(|| {
        log.extend(out.broadcasts.iter().cloned());
        log.len()
    })
}

/// The round visit rule, shared by [`crate::seq::SyncRuntime`] and
/// [`Cluster`]: deliver the coordinator output of round `m-1` as node-phase
/// `m`. This round's broadcasts are appended to the step's `log`, then
/// `poll` runs once per visited node in ascending id order.
///
/// A [`RoundScope::All`] broadcast reaches every node; otherwise only
/// engaged nodes, the calendar entries due at `m` and unicast addressees
/// are visited (skipped nodes are contractual no-ops), and in a round
/// without unicasts a due entry whose `row` value does not beat the
/// round's [`CoordOut::cutoff`] is resolved unpolled, so the round costs
/// one poll per reporter. `row` is the runtime's cached value row, empty
/// for behaviors without [`NodeBehavior::SPARSE_OBSERVE`], which therefore
/// ignore the cutoff. A scheduled node receives every broadcast since its
/// last poll, replayed from the log; everyone else gets this round's.
///
/// A full fan-out is *uniform* ([`uniform_fanout`]) when it carries no
/// unicast and finds the calendar empty; Algorithm 1's broadcast-to-all
/// rounds always are. [`crate::seq::SyncRuntime`] serves those as one pass
/// over its nodes; [`Cluster`] stages them here, node by node, like any
/// other round.
#[allow(clippy::too_many_arguments)] // the visit state is split across both runtimes' fields
pub(crate) fn visit_round<D: Clone, E>(
    n: usize,
    m: u32,
    out: &mut CoordOut<D>,
    row: &[Value],
    engaged: &[u32],
    cal: &mut FireCalendar,
    log: &mut Vec<D>,
    visit: &mut Vec<u32>,
    mut poll: impl FnMut(&mut FireCalendar, Poll<'_, D>) -> Result<(), E>,
) -> Result<(), E> {
    if out.unicasts.len() > 1 {
        out.unicasts.sort_by_key(|(id, _)| *id);
    }
    debug_assert!(
        out.unicasts.windows(2).all(|w| w[0].0 != w[1].0),
        "at most one unicast per node per round"
    );
    let full_fanout = !out.broadcasts.is_empty() && out.scope == RoundScope::All;
    let round_start = log.len();
    log.extend(out.broadcasts.iter().cloned());
    let log: &[D] = log;
    let unicasts = &out.unicasts;
    let mut u = unicasts.iter().peekable();
    let mut one = |cal: &mut FireCalendar, i: u32| {
        let ucast = match u.peek() {
            Some((id, _)) if id.0 == i => u.next().map(|(_, d)| d),
            _ => None,
        };
        let from = if cal.is_scheduled(i) {
            cal.seen(i)
        } else {
            round_start
        };
        let p = Poll {
            i,
            bcasts: &log[from..],
            ucast,
            log_len: log.len(),
        };
        poll(cal, p)
    };
    if full_fanout {
        for i in 0..n as u32 {
            one(cal, i)?;
        }
    } else if unicasts.is_empty() && !cal.has_due(m) {
        // Silent or engaged-scoped round with no scheduled firer due.
        for &i in engaged {
            one(cal, i)?;
        }
    } else {
        visit.clear();
        visit.extend_from_slice(engaged);
        let cutoff = out
            .cutoff
            .filter(|_| !row.is_empty() && unicasts.is_empty());
        cal.due_into(m, cutoff.map(|c| (c, row)), visit);
        visit.extend(unicasts.iter().map(|(id, _)| id.0));
        visit.sort_unstable();
        visit.dedup();
        for &i in visit.iter() {
            one(cal, i)?;
        }
    }
    Ok(())
}

/// The node-side endpoint of the recovery state machine, one per hosted
/// node, kept by the socket shards: the cached observation (for value-less
/// observes), the `(t, run, m)` cursor, the action answered to it, and the
/// step-start checkpoint an abort rolls back to.
pub(crate) struct NodeHost<NB: NodeBehavior> {
    pub node: NB,
    last: Value,
    cur: Option<FrameKey>,
    reply: Option<RoundAction<NB::Up>>,
    /// The step whose start `ck` holds.
    ck_t: Option<u64>,
    ck: Option<NB>,
}

impl<NB: NodeBehavior> NodeHost<NB> {
    pub fn new(node: NB) -> Self {
        NodeHost {
            node,
            last: 0,
            cur: None,
            reply: None,
            ck_t: None,
            ck: None,
        }
    }

    /// Answer one work entry keyed `key`. A key newer than the cursor runs
    /// the behavior and caches its action; the first such key of a step
    /// takes the step checkpoint first. The cursor's own key is a
    /// re-delivery and gets the cached action again without a run. An
    /// older key, or the key of an aborted attempt, gets `None`.
    pub fn answer(
        &mut self,
        key: FrameKey,
        work: Work<'_, NB::Down>,
    ) -> Option<&RoundAction<NB::Up>> {
        match self.cur {
            Some(c) if key < c => return None,
            Some(c) if key == c => return self.reply.as_ref(),
            _ => {}
        }
        let (t, _, m) = key;
        if self.ck_t.is_none_or(|s| s < t) {
            self.node.checkpoint(&mut self.ck);
            self.ck_t = Some(t);
        }
        let a = match work {
            Work::Observe(value) => {
                if let Some(v) = value {
                    self.last = v;
                }
                let a = self.node.observe(t, self.last);
                RoundAction {
                    up: a.up,
                    engaged: a.engaged,
                    wake_at: a.wake_at,
                }
            }
            Work::Round { bcasts, ucast } => self.node.micro_round(t, m, bcasts, ucast),
        };
        self.cur = Some(key);
        Some(self.reply.insert(a))
    }

    /// Discard every effect of attempt `(t, run)`: roll back to the step
    /// checkpoint (the RNG cursor keeps advancing — a re-run is a fresh Las
    /// Vegas trial) and move the cursor past the attempt. Idempotent.
    pub fn abort(&mut self, t: u64, run: u32) {
        let key = (t, run, ABORT_M);
        if self.cur.is_none_or(|c| key > c) {
            if self.ck_t == Some(t) {
                if let Some(snap) = &self.ck {
                    self.node.rollback(snap);
                }
            }
            self.cur = Some(key);
            self.reply = None;
        }
    }
}

/// The frame-carrying half of the driver: transport, ledger, the in-flight
/// wave and the fault schedule.
struct Link<NB: NodeBehavior, T: Transport<NB>> {
    transport: T,
    ledger: CommLedger,
    /// Armed fault schedule (`None` = clean transport).
    chaos: Option<ChaosPolicy>,
    recovery: RecoveryMetrics,
    /// Current step attempt (part of every frame key).
    run: u32,
    /// Per-node "reply outstanding" flags of the in-flight wave.
    pending: Vec<bool>,
    pending_count: usize,
    /// Per-endpoint count of outstanding node replies.
    owed: Vec<u32>,
    /// Endpoints staged in the current wave, in staging order.
    staged: Vec<usize>,
    /// Reply-drop already injected for (this wave, endpoint) — at most one
    /// per wave so retries converge.
    reply_dropped: Vec<bool>,
    /// Endpoint waves of the in-flight wave, kept for re-send (chaos only).
    wave: Vec<(usize, T::Frame)>,
    /// Delay-injected endpoint waves awaiting their late (stale) flush.
    delayed: Vec<(usize, T::Frame)>,
    /// Node entries of the reply frame being processed.
    replies: Vec<Reply<NB::Up>>,
    _nodes: PhantomData<fn() -> NB>,
}

impl<NB: NodeBehavior, T: Transport<NB>> Link<NB, T> {
    fn new(transport: T, n: usize, chaos: Option<ChaosPolicy>) -> Self {
        let endpoints = transport.endpoints();
        Link {
            transport,
            ledger: CommLedger::new(),
            chaos,
            recovery: RecoveryMetrics::default(),
            run: 0,
            pending: vec![false; n],
            pending_count: 0,
            owed: vec![0; endpoints],
            staged: Vec::new(),
            reply_dropped: vec![false; endpoints],
            wave: Vec::new(),
            delayed: Vec::new(),
            replies: Vec::new(),
            _nodes: PhantomData,
        }
    }

    /// Start a wave: flush delay-injected waves of earlier rounds (their
    /// keys are stale by now, so nodes ignore them — pure reorder noise) and
    /// reset the per-wave fault latches.
    fn begin_wave(&mut self) -> Result<(), RuntimeError> {
        debug_assert_eq!(self.pending_count, 0, "wave started with replies pending");
        self.wave.clear();
        if self.chaos.is_none() {
            return Ok(());
        }
        let mut delayed = std::mem::take(&mut self.delayed);
        let mut res = Ok(());
        for (e, frame) in &delayed {
            res = self.transport.resend(*e, frame);
            if res.is_err() {
                break;
            }
            self.ledger.count(ChannelKind::Retransmit, 0);
        }
        let flushed = !delayed.is_empty();
        delayed.clear();
        self.delayed = delayed;
        res?;
        if flushed {
            self.transport.flush()?;
        }
        self.reply_dropped.fill(false);
        Ok(())
    }

    /// Stage node `i`'s work into its endpoint's frame of the current
    /// wave. The sync frame is charged at send *intent*, so `sync_frames`
    /// counts node visits and matches a fault-free twin even when a
    /// delivery is suppressed.
    fn stage(&mut self, i: u32, work: Work<'_, NB::Down>) {
        debug_assert!(!self.pending[i as usize], "node framed twice in a wave");
        self.pending[i as usize] = true;
        self.pending_count += 1;
        self.ledger.count_sync();
        let e = self.transport.endpoint_of(i);
        if self.owed[e] == 0 {
            self.staged.push(e);
        }
        self.owed[e] += 1;
        self.transport.stage(i, work);
    }

    /// Seal and deliver every endpoint frame of the staged wave, then push
    /// them out.
    fn send_wave(&mut self, key: FrameKey) -> Result<(), RuntimeError> {
        let mut staged = std::mem::take(&mut self.staged);
        let res = staged.iter().try_for_each(|&e| self.dispatch(e, key));
        staged.clear();
        self.staged = staged;
        res?;
        self.transport.flush()
    }

    /// Deliver endpoint `e`'s sealed wave. Faults roll once per
    /// `(t, run, m, first node of e)`; everything the fault layer adds is
    /// charged to [`ChannelKind::Retransmit`].
    fn dispatch(&mut self, e: usize, key: FrameKey) -> Result<(), RuntimeError> {
        self.transport.seal(e, key);
        let Some(p) = self.chaos else {
            return self.transport.send(e, 0);
        };
        let (t, run, m) = key;
        let node = self.transport.first_node(e).0;
        self.wave.push((e, self.transport.keep(e)));
        if p.drop_frame(t, run, m, node) {
            self.recovery.injected_drops += 1;
            return Ok(());
        }
        if p.delay_frame(t, run, m, node) {
            // Held back past this wave: the retry path completes the wave,
            // and the late copy is flushed (and deduped) later.
            self.recovery.injected_delays += 1;
            self.delayed.push((e, self.transport.keep(e)));
            return Ok(());
        }
        if self
            .transport
            .wire_fault(e, key, false, &p, &mut self.recovery)?
        {
            self.note_redelivery();
            return Ok(());
        }
        let stall = if p.stall_frame(t, run, m, node) {
            self.recovery.injected_stalls += 1;
            p.stall_ms
        } else {
            0
        };
        if p.duplicate_frame(t, run, m, node) {
            self.recovery.injected_dups += 1;
            if let Some((_, frame)) = self.wave.last() {
                self.transport.resend(e, frame)?;
            }
            self.ledger.count(ChannelKind::Retransmit, 0);
        }
        self.transport.send(e, stall)?;
        if self
            .transport
            .wire_fault(e, key, true, &p, &mut self.recovery)?
        {
            self.note_redelivery();
        }
        Ok(())
    }

    fn note_redelivery(&mut self) {
        self.ledger.count(ChannelKind::Retransmit, 0);
        self.recovery.redelivered_frames += 1;
    }

    /// Re-send the wave of every endpoint that still owes replies.
    fn resend_pending(&mut self) -> Result<(), RuntimeError> {
        let mut resent = 0;
        for (e, frame) in &self.wave {
            if self.owed[*e] > 0 {
                self.transport.resend(*e, frame)?;
                self.ledger.count(ChannelKind::Retransmit, 0);
                resent += 1;
            }
        }
        self.transport.flush()?;
        self.recovery.redelivered_frames += resent;
        Ok(())
    }

    /// Charge the entries of the reply frame in hand to `kind`.
    fn charge_replies(&mut self, kind: ChannelKind) {
        for rep in self.replies.drain(..) {
            self.transport.charge_reply(kind, rep.up_bytes);
        }
    }

    /// A reply frame that matches no outstanding wave: count and charge it.
    fn discard(&mut self) {
        self.recovery.stale_replies += 1;
        self.charge_replies(ChannelKind::Retransmit);
    }

    /// A dead endpoint that still owes replies, named by its first node.
    fn dead_owed(&self) -> Option<RuntimeError> {
        (0..self.owed.len())
            .find(|&e| self.owed[e] > 0 && self.transport.is_dead(e))
            .map(|e| RuntimeError::NodeDown {
                id: self.transport.first_node(e),
            })
    }

    /// Fence attempt `(t, run)` on every endpoint: send the aborts, then
    /// wait for one ack per endpoint, re-sending to laggards (aborts are
    /// idempotent and re-acked).
    fn abort_wave(&mut self, t: u64) -> Result<(), RuntimeError> {
        let p = self.chaos.expect("abort waves exist only under chaos");
        self.delayed.clear();
        self.wave.clear();
        self.pending.fill(false);
        self.pending_count = 0;
        let run = self.run;
        // Each endpoint owes one ack.
        self.owed.fill(1);
        let mut waiting = self.owed.len();
        let tick = Duration::from_millis(p.deadline_ms.max(1));
        let mut attempts: u32 = 0;
        loop {
            for e in 0..self.owed.len() {
                if self.owed[e] > 0 {
                    self.transport.send_abort(e, t, run)?;
                    self.ledger.count(ChannelKind::Retransmit, 0);
                }
            }
            self.transport.flush()?;
            while waiting > 0 {
                let Some(head) = self.transport.recv(&self.owed, tick, &mut self.replies)? else {
                    break;
                };
                if head.key == (t, run, ABORT_M) && self.owed[head.e] > 0 {
                    self.owed[head.e] = 0;
                    waiting -= 1;
                } else {
                    self.discard();
                }
            }
            if waiting == 0 {
                return Ok(());
            }
            if let Some(e) = self.dead_owed() {
                return Err(e);
            }
            attempts += 1;
            if attempts > p.max_retries.saturating_mul(4) {
                return Err(RuntimeError::ReplyTimeout {
                    t,
                    m: ABORT_M,
                    waiting,
                });
            }
        }
    }
}

/// A running cluster of node endpoints behind transport `T`, plus the
/// coordinator-side driver state. See the module docs.
pub struct Cluster<NB: NodeBehavior, T: Transport<NB>> {
    link: Link<NB, T>,
    n: usize,
    /// Sorted ids of currently engaged every-round pollers — rebuilt from
    /// each phase's replies.
    engaged_idx: Vec<u32>,
    engaged_scratch: Vec<u32>,
    visit_scratch: Vec<u32>,
    calendar: FireCalendar,
    /// All broadcasts of the current step in emission order.
    bcast_log: Vec<NB::Down>,
    delta_row: DeltaRow,
    /// Node-phase 0 of the current step: `(id, Some(new value) | cached)`,
    /// kept so a re-run re-delivers identical observations.
    phase0: Vec<(u32, Option<Value>)>,
    ups_scratch: Vec<(NodeId, NB::Up)>,
    out: CoordOut<NB::Down>,
    steps_run: u64,
    silent_steps: u64,
    micro_rounds_run: u64,
    /// Remaining injected-crash budget for the current step.
    crashes_left: u32,
    /// Engaged set at the start of the current step, restored on re-run.
    engaged_mark: Vec<u32>,
    /// Last committed coordinator snapshot (chaos only).
    snapshot_buf: Vec<u8>,
    have_snapshot: bool,
}

impl<NB, T> Cluster<NB, T>
where
    NB: NodeBehavior + 'static,
    T: Transport<NB>,
{
    /// Start the endpoints, clean transport. Panics on a setup failure.
    pub fn spawn(nodes: Vec<NB>) -> Self {
        Self::launch(nodes, None, T::spawn)
    }

    /// Start the endpoints with a seeded fault schedule armed. Requires
    /// checkpoint-capable behaviors ([`NodeBehavior::checkpoint`] filling
    /// its slot) — step re-runs roll nodes back to their step-start state.
    pub fn spawn_chaotic(nodes: Vec<NB>, policy: ChaosPolicy) -> Self {
        let has_checkpoint = |node: &NB| {
            let mut slot = None;
            node.checkpoint(&mut slot);
            slot.is_some()
        };
        assert!(
            nodes.first().is_none_or(has_checkpoint),
            "chaos transport requires NodeBehavior::checkpoint support"
        );
        Self::launch(nodes, Some(policy), T::spawn)
    }

    pub(crate) fn launch(
        nodes: Vec<NB>,
        chaos: Option<ChaosPolicy>,
        start: impl FnOnce(Vec<NB>, Option<ChaosPolicy>) -> Result<T, RuntimeError>,
    ) -> Self {
        let n = nodes.len();
        assert!(n > 0, "need at least one node");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.id(),
                NodeId(i as u32),
                "nodes must be dense, id-ordered"
            );
        }
        let transport = start(nodes, chaos).unwrap_or_else(|e| panic!("cluster setup failed: {e}"));
        Cluster {
            link: Link::new(transport, n, chaos),
            n,
            engaged_idx: Vec::new(),
            engaged_scratch: Vec::new(),
            visit_scratch: Vec::new(),
            calendar: FireCalendar::new(n),
            bcast_log: Vec::new(),
            // The cached row backs diffing/sparse stepping only; non-sparse
            // behaviors never read it, so don't pay for it.
            delta_row: DeltaRow::new(n, NB::SPARSE_OBSERVE),
            phase0: Vec::new(),
            ups_scratch: Vec::new(),
            out: CoordOut::empty(),
            steps_run: 0,
            silent_steps: 0,
            micro_rounds_run: 0,
            crashes_left: 0,
            engaged_mark: Vec::new(),
            snapshot_buf: Vec::new(),
            have_snapshot: false,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// The transport (wire ledger, captures, shard layout).
    pub fn transport(&self) -> &T {
        &self.link.transport
    }

    pub fn ledger(&self) -> &CommLedger {
        &self.link.ledger
    }

    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Steps that exchanged no message and ran no micro-round.
    pub fn silent_steps(&self) -> u64 {
        self.silent_steps
    }

    /// Coordinator micro-rounds driven so far — counted exactly like
    /// [`crate::seq::SyncRuntime::micro_rounds_run`].
    pub fn micro_rounds_run(&self) -> u64 {
        self.micro_rounds_run
    }

    /// Indices of nodes currently engaged in a protocol episode (sorted).
    pub fn engaged_nodes(&self) -> &[u32] {
        &self.engaged_idx
    }

    /// Injected-fault and recovery counters (all zero on a clean transport).
    pub fn recovery(&self) -> &RecoveryMetrics {
        &self.link.recovery
    }

    /// Run the step from its staged phase-0 wave, re-running whole attempts
    /// after injected coordinator crashes until one commits.
    fn run_step<CB>(&mut self, coord: &mut CB, t: u64) -> Result<(), RuntimeError>
    where
        CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
    {
        let ledger_mark = self.link.ledger.snapshot();
        let rounds_mark = self.micro_rounds_run;
        if let Some(p) = self.link.chaos {
            self.engaged_mark.clear();
            self.engaged_mark.extend_from_slice(&self.engaged_idx);
            // Restarts need a committed snapshot to restore from.
            self.crashes_left = if self.have_snapshot {
                p.max_restarts_per_step
            } else {
                0
            };
        }
        self.link.run = 0;
        loop {
            let mut ups = std::mem::take(&mut self.ups_scratch);
            let mut out = std::mem::take(&mut self.out);
            let attempt = self.run_attempt(coord, t, &mut ups, &mut out);
            self.ups_scratch = ups;
            self.out = out;
            match attempt {
                Ok(silent) => {
                    if self.link.chaos.is_some() {
                        coord.note_recovery(&self.link.recovery);
                        self.snapshot_buf.clear();
                        self.have_snapshot = coord.encode_snapshot(&mut self.snapshot_buf);
                    }
                    if let Some(w) = self.link.transport.wire() {
                        coord.note_wire(w);
                    }
                    self.steps_run += 1;
                    if silent {
                        self.silent_steps += 1;
                    }
                    return Ok(());
                }
                Err(AttemptError::Crashed) => {
                    let t0 = Instant::now();
                    self.recover(coord, t, &ledger_mark, rounds_mark)?;
                    self.link.recovery.recovery_nanos += t0.elapsed().as_nanos() as u64;
                    self.link.run += 1;
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
            }
        }
    }

    /// One attempt at the step: phase-0 wave, silent fast path, then the
    /// coordinator micro-round loop. Returns `Ok(true)` for a silent step.
    fn run_attempt<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        ups: &mut Vec<(NodeId, NB::Up)>,
        out: &mut CoordOut<NB::Down>,
    ) -> Result<bool, AttemptError>
    where
        CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
    {
        coord.begin_step(t);
        self.link.begin_wave()?;
        for &(i, value) in &self.phase0 {
            self.link.stage(i, Work::Observe(value));
        }
        self.link.send_wave((t, self.link.run, 0))?;
        self.collect(t, 0, ups)?;

        if self.engaged_idx.is_empty()
            && self.calendar.is_empty()
            && ups.is_empty()
            && coord.try_skip_silent_step(t)
        {
            return Ok(true);
        }

        let guard = max_micro_rounds(self.n, 16) * 4;
        let mut m: u32 = 0;
        loop {
            out.clear();
            coord.micro_round(t, m, ups, out);
            ups.clear();
            for (_, d) in &out.unicasts {
                self.link.ledger.count(ChannelKind::Down, d.wire_bits());
            }
            for b in &out.broadcasts {
                self.link
                    .ledger
                    .count(ChannelKind::Broadcast, b.wire_bits());
            }
            if out.is_empty() && coord.step_done() {
                break;
            }
            m += 1;
            self.micro_rounds_run += 1;
            assert!(m <= guard, "micro-round guard exceeded at t={t}");
            if let Some(p) = self.link.chaos {
                if self.crashes_left > 0 && p.crash_coordinator(t, self.link.run, m) {
                    self.crashes_left -= 1;
                    return Err(AttemptError::Crashed);
                }
            }
            self.deliver_round(t, m, out)?;
            self.collect(t, m, ups)?;
        }
        // Schedules and the broadcast log are step-local.
        self.calendar.end_step();
        self.bcast_log.clear();
        Ok(false)
    }

    /// Frame the coordinator output of round `m-1` as node-phase `m` under
    /// the shared [`visit_round`] rule.
    fn deliver_round(
        &mut self,
        t: u64,
        m: u32,
        out: &mut CoordOut<NB::Down>,
    ) -> Result<(), RuntimeError> {
        self.link.begin_wave()?;
        let link = &mut self.link;
        visit_round(
            self.n,
            m,
            out,
            self.delta_row.row(),
            &self.engaged_idx,
            &mut self.calendar,
            &mut self.bcast_log,
            &mut self.visit_scratch,
            |_, p| {
                let work = Work::Round {
                    bcasts: p.bcasts,
                    ucast: p.ucast,
                };
                link.stage(p.i, work);
                Ok::<(), RuntimeError>(())
            },
        )?;
        self.link.send_wave((t, self.link.run, m))
    }

    /// Collect the in-flight wave's replies into `ups` (sorted by node id),
    /// charging `Some` payloads, rebuilding the engaged list and resolving
    /// calendar entries. Reply frames are matched against the key
    /// `(t, run, phase)` and the endpoints that still owe replies: stale or
    /// duplicate frames are discarded. On a chaotic transport each deadline
    /// re-sends the outstanding endpoint waves, up to the policy's retry
    /// budget; a clean transport gives up after [`MAX_IDLE_TICKS`] silent
    /// ticks. A dead endpoint surfaces as [`RuntimeError::NodeDown`].
    fn collect(
        &mut self,
        t: u64,
        phase: u32,
        ups: &mut Vec<(NodeId, NB::Up)>,
    ) -> Result<(), RuntimeError> {
        ups.clear();
        let log_len = self.bcast_log.len();
        let mut next = std::mem::take(&mut self.engaged_scratch);
        next.clear();
        let link = &mut self.link;
        let tick = Duration::from_millis(link.chaos.map_or(RECV_TICK_MS, |p| p.deadline_ms.max(1)));
        let mut idle: u32 = 0;
        let mut attempts: u32 = 0;
        let result = loop {
            if link.pending_count == 0 {
                break Ok(());
            }
            let head = match link.transport.recv(&link.owed, tick, &mut link.replies) {
                Ok(Some(head)) => head,
                Ok(None) => {
                    if let Some(e) = link.dead_owed() {
                        break Err(e);
                    }
                    let exhausted = match link.chaos {
                        Some(p) => {
                            attempts += 1;
                            attempts > p.max_retries
                        }
                        None => {
                            idle += 1;
                            idle >= MAX_IDLE_TICKS
                        }
                    };
                    if exhausted {
                        break Err(RuntimeError::ReplyTimeout {
                            t,
                            m: phase,
                            waiting: link.pending_count,
                        });
                    }
                    if link.chaos.is_some() {
                        if let Err(e) = link.resend_pending() {
                            break Err(e);
                        }
                        link.recovery.retries += 1;
                    }
                    continue;
                }
                Err(e) => break Err(e),
            };
            idle = 0;
            let e = head.e;
            if head.key != (t, link.run, phase) || link.owed[e] == 0 {
                link.discard();
                continue;
            }
            if let Some(p) = link.chaos {
                let node = link.transport.first_node(e).0;
                if !link.reply_dropped[e] && p.drop_reply(t, link.run, phase, node) {
                    // Lost after it arrived: charge it off-model and wait
                    // for the re-send to answer from the reply caches.
                    link.reply_dropped[e] = true;
                    link.recovery.injected_reply_drops += 1;
                    link.charge_replies(ChannelKind::Retransmit);
                    continue;
                }
            }
            for rep in link.replies.drain(..) {
                let idx = rep.id.idx();
                if link.pending.get(idx) != Some(&true) {
                    link.transport
                        .charge_reply(ChannelKind::Retransmit, rep.up_bytes);
                    continue;
                }
                link.pending[idx] = false;
                link.pending_count -= 1;
                link.owed[e] -= 1;
                self.calendar.note_reply(
                    rep.id.0,
                    rep.engaged,
                    rep.wake_at,
                    phase,
                    log_len,
                    &mut next,
                );
                if let Some(up) = rep.up {
                    link.transport.charge_reply(ChannelKind::Up, rep.up_bytes);
                    link.ledger.count(ChannelKind::Up, up.wire_bits());
                    ups.push((rep.id, up));
                }
            }
        };
        match result {
            Ok(()) => {
                next.sort_unstable();
                self.engaged_scratch = std::mem::replace(&mut self.engaged_idx, next);
                ups.sort_by_key(|(id, _)| *id);
                Ok(())
            }
            Err(e) => {
                self.engaged_scratch = next;
                Err(e)
            }
        }
    }

    /// Recover from an injected coordinator crash: restore the last
    /// committed snapshot, roll the model ledger and driver state back to
    /// the step's start, and fence the dead attempt with an abort wave.
    fn recover<CB>(
        &mut self,
        coord: &mut CB,
        t: u64,
        ledger_mark: &LedgerSnapshot,
        rounds_mark: u64,
    ) -> Result<(), RuntimeError>
    where
        CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
    {
        self.link.recovery.restarts += 1;
        self.link.recovery.rerun_rounds += self.micro_rounds_run - rounds_mark;
        if !coord.restore_snapshot(&self.snapshot_buf) {
            return Err(RuntimeError::RecoveryFailed {
                reason: "coordinator rejected its own committed snapshot",
            });
        }
        self.link.ledger.rollback_model(ledger_mark);
        self.micro_rounds_run = rounds_mark;
        self.engaged_idx.clear();
        self.engaged_idx.extend_from_slice(&self.engaged_mark);
        self.calendar.end_step();
        self.bcast_log.clear();
        self.link.abort_wave(t)
    }

    /// Shut the endpoints down and return the final behaviors in id order
    /// (those of panicked endpoints are skipped).
    pub fn shutdown(self) -> Vec<NB> {
        self.link.transport.shutdown()
    }

    /// Give up the transport itself (transport-specific teardown).
    pub(crate) fn into_transport(self) -> T {
        self.link.transport
    }
}

impl<NB, T, CB> Runtime<CB> for Cluster<NB, T>
where
    NB: NodeBehavior + 'static,
    T: Transport<NB>,
    CB: CoordinatorBehavior<Up = NB::Up, Down = NB::Down>,
{
    /// Frames only changed ∪ engaged nodes for `SPARSE_OBSERVE` behaviors.
    /// A dead endpoint, an exhausted retry budget, or a failed coordinator
    /// restore surfaces as a typed [`RuntimeError`].
    fn try_step(&mut self, coord: &mut CB, t: u64, values: &[Value]) -> Result<(), RuntimeError> {
        assert_eq!(values.len(), self.n, "one value per node");
        self.phase0.clear();
        let phase0 = &mut self.phase0;
        if NB::SPARSE_OBSERVE && self.delta_row.is_valid() {
            self.delta_row
                .diff(values, &self.engaged_idx, |i, v, changed| {
                    stage_observe(phase0, i, v, changed)
                });
        } else {
            if NB::SPARSE_OBSERVE {
                self.delta_row.prime(values);
            }
            stage_dense(phase0, values);
        }
        self.run_step(coord, t)
    }

    /// Repeating an unchanged value costs no frame.
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
        self.phase0.clear();
        let phase0 = &mut self.phase0;
        let first = self
            .delta_row
            .apply_sparse(changes, &self.engaged_idx, |i, v, changed| {
                stage_observe(phase0, i, v, changed)
            });
        if first {
            stage_dense(phase0, self.delta_row.row());
        }
        self.run_step(coord, t)
    }

    fn row(&self) -> &[Value] {
        self.delta_row.row()
    }

    fn ledger(&self) -> &CommLedger {
        &self.link.ledger
    }

    fn silent_steps(&self) -> u64 {
        self.silent_steps
    }

    fn micro_rounds_run(&self) -> u64 {
        self.micro_rounds_run
    }

    fn recovery(&self) -> Option<&RecoveryMetrics> {
        Some(&self.link.recovery)
    }

    fn wire(&self) -> Option<&WireMetrics> {
        self.link.transport.wire()
    }

    fn sync_frames(&self) -> Option<u64> {
        Some(self.link.ledger.sync_frames())
    }
}

/// Stage one node of the phase-0 wave as [`DeltaRow`]'s walk visits it: a
/// changed node gets its new value, an engaged node that did not change a
/// value-less cached observe.
#[inline]
fn stage_observe(phase0: &mut Vec<(u32, Option<Value>)>, i: u32, v: Value, changed: bool) {
    phase0.push((i, changed.then_some(v)));
}

/// Stage a dense phase-0 wave: node `i` observes `values[i]`.
fn stage_dense(phase0: &mut Vec<(u32, Option<Value>)>, values: &[Value]) {
    phase0.extend(values.iter().enumerate().map(|(i, &v)| (i as u32, Some(v))));
}
