//! The push-based session facade: one builder, one ingest surface, typed
//! output events — over every execution engine.
//!
//! The paper's model is event-driven: nodes *receive* new values, and the
//! coordinator only learns what the filters let through. The engine types
//! ([`TopkMonitor`], [`ThreadedTopkMonitor`], [`SocketTopkMonitor`]) still
//! expose that inverted — the caller owns a dense value row (or hand-builds
//! delta lists) and picks a concrete runtime up front. [`MonitorSession`] restores the paper's
//! shape:
//!
//! ```
//! use topk_core::session::MonitorBuilder;
//! use topk_net::id::NodeId;
//!
//! let mut session = MonitorBuilder::new(4, 2).seed(42).build();
//! session.update_batch([(NodeId(0), 20), (NodeId(1), 100), (NodeId(2), 40), (NodeId(3), 80)]);
//! let events = session.advance(0);
//! assert!(!events.is_empty(), "initialization emits Entered/Threshold events");
//! assert_eq!(session.topk(), &[NodeId(1), NodeId(3)]);
//! ```
//!
//! * **One builder.** [`MonitorBuilder`] carries every knob (`n`, `k`,
//!   slack, ε, [`HandlerMode`], [`BroadcastPolicy`], seed, chaos)
//!   plus an [`Engine`] choice, replacing the four-way constructor pick
//!   (`TopkMonitor` vs `ThreadedTopkMonitor`, dense vs sparse driving).
//! * **One ingest surface.** [`MonitorSession::update`] /
//!   [`MonitorSession::update_batch`] buffer observations; nothing reaches
//!   the monitor until [`MonitorSession::advance`] commits the time step.
//!   The session routes the commit to the engine's sparse path when the
//!   batch is small and to the dense diff otherwise — both are
//!   bit-identical (pinned by `tests/runtime_conformance.rs`), so routing
//!   is purely a cost choice.
//! * **Typed output.** `advance` returns the step's
//!   [`TopkEvent`]s, drained from a buffer that is reused across steps
//!   (steady-state silent ticks allocate nothing). Replaying the event
//!   stream reconstructs `topk()` and `threshold()` exactly — see
//!   [`crate::events::EventReplay`] and `tests/session_events.rs`.
//!
//! Cheap polling queries remain: [`MonitorSession::topk`] (a borrowed
//! slice), [`MonitorSession::in_topk`] (O(1)),
//! [`MonitorSession::threshold`], [`MonitorSession::metrics`].

use topk_net::behavior::{CoordinatorBehavior as _, ValueFeed};
use topk_net::chaos::{ChaosPolicy, RecoveryMetrics};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};
use topk_proto::extremum::BroadcastPolicy;

use crate::config::{ApproxMode, HandlerMode, MonitorConfig};
use crate::coordinator::CoordinatorMachine;
use crate::events::TopkEvent;
use crate::metrics::RunMetrics;
use crate::monitor::{Monitor, TopkMonitor};
use crate::socket::SocketTopkMonitor;
use crate::threaded::ThreadedTopkMonitor;

/// Which runtime executes the protocol under a [`MonitorSession`].
///
/// Every engine is bit-identical in everything the model observes (answers,
/// ledgers, node state, RNG streams — pinned by
/// `tests/runtime_conformance.rs`); the choice trades wall-clock shape, not
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Let the session pick among the three engines. Currently resolves to
    /// [`Engine::Sequential`] — the in-process runtime is the fastest at
    /// every scale we bench — but the policy may evolve without an API
    /// change; use an explicit variant to pin a runtime.
    #[default]
    Auto,
    /// The deterministic in-process runtime ([`TopkMonitor`]).
    Sequential,
    /// One OS thread per node, crossbeam-channel frames
    /// ([`ThreadedTopkMonitor`]) — the "real deployment" shape without
    /// leaving the process.
    Threaded,
    /// Node shards behind loopback-TCP sockets, every message a
    /// length-prefixed wire frame ([`SocketTopkMonitor`]). The only engine
    /// whose [`RunMetrics::wire`] ledger is non-zero: frames and bytes
    /// actually written, per channel.
    Socket,
}

impl Engine {
    /// The engine [`Engine::Auto`] currently resolves to.
    pub fn resolve(self) -> Engine {
        match self {
            Engine::Auto => Engine::Sequential,
            other => other,
        }
    }
}

/// Builder for [`MonitorSession`] — the single entry point of the crate.
///
/// ```
/// use topk_core::session::{Engine, MonitorBuilder};
/// use topk_core::HandlerMode;
///
/// let session = MonitorBuilder::new(64, 4)
///     .seed(7)
///     .slack(0)
///     .handler_mode(HandlerMode::Tight)
///     .engine(Engine::Auto)
///     .build();
/// assert_eq!(session.config().n, 64);
/// ```
#[derive(Debug, Clone)]
pub struct MonitorBuilder {
    cfg: MonitorConfig,
    seed: u64,
    engine: Engine,
    chaos: Option<ChaosPolicy>,
}

impl MonitorBuilder {
    /// Monitor the top `k` of `n` nodes (`1 ≤ k ≤ n`). All other knobs
    /// start at their [`MonitorConfig::new`] defaults, seed 0,
    /// [`Engine::Auto`].
    pub fn new(n: usize, k: usize) -> Self {
        MonitorBuilder {
            cfg: MonitorConfig::new(n, k),
            seed: 0,
            engine: Engine::Auto,
            chaos: None,
        }
    }

    /// Master seed for the per-node protocol RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Approximation slack `ε ≥ 0` (see [`MonitorConfig::slack`]).
    pub fn slack(mut self, slack: u64) -> Self {
        self.cfg.slack = slack;
        self
    }

    /// ε-approximation tolerance of the coordinator's boundary band (see
    /// [`ApproxMode`]). `eps = 0` keeps exact mode — bit-identical to a
    /// builder that never called this knob. `eps > 0` lets the coordinator
    /// absorb k/(k+1) boundary crossings of width ≤ ε by re-centering the
    /// epoch with one broadcast instead of running `FILTERRESET`; answers
    /// stay correct up to ε-indistinguishable boundary values
    /// (arXiv 1601.04448). Negative tolerances are unrepresentable: the
    /// knob takes a `u64` by design.
    ///
    /// Precondition (checked by [`Self::try_build`]): the node-side
    /// hysteresis must stay inside the band, `slack ≤ eps`.
    pub fn epsilon(mut self, eps: u64) -> Self {
        self.cfg = self.cfg.with_epsilon(eps);
        self
    }

    /// Handler faithfulness (see [`HandlerMode`]).
    pub fn handler_mode(mut self, mode: HandlerMode) -> Self {
        self.cfg.handler_mode = mode;
        self
    }

    /// Protocol announcement policy (see [`BroadcastPolicy`]).
    pub fn policy(mut self, policy: BroadcastPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Execution engine (see [`Engine`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Run the transport through a seeded fault-injection layer (see
    /// [`ChaosPolicy`]). Supported by the threaded engine (in-process frame
    /// faults) and the socket engine (the same classes plus the wire-level
    /// [`topk_net::WireChaos`] faults: torn frames, connection resets,
    /// half-open connections, reconnect storms). [`Engine::Socket`] keeps
    /// its choice; every other engine selection falls back to
    /// [`Engine::Threaded`]. Committed answers, thresholds and events stay
    /// identical to a fault-free twin; the injected faults surface in
    /// [`MonitorSession::recovery`] and the `Retransmit` ledger channel.
    pub fn chaos(mut self, policy: ChaosPolicy) -> Self {
        self.chaos = Some(policy);
        self
    }

    /// The [`MonitorConfig`] this builder will hand the engine.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// The master seed ([`Self::seed`]).
    pub fn build_seed(&self) -> u64 {
        self.seed
    }

    /// The selected engine, unresolved ([`Self::engine`]).
    pub fn build_engine(&self) -> Engine {
        self.engine
    }

    /// The chaos policy, if any ([`Self::chaos`]).
    pub fn build_chaos(&self) -> Option<ChaosPolicy> {
        self.chaos
    }

    /// A copy of this builder retargeted at a `(n, k)` instance of a
    /// different size, every other knob (slack, ε-approximation mode,
    /// handler mode, policy, seed, engine, chaos)
    /// preserved. This is how the sharded serving layer (`topk-serve`)
    /// stamps out per-shard sessions from one template builder — each
    /// shard inherits the template's ε, so per-shard bands compose into
    /// the service-level guarantee.
    pub fn sized(&self, n: usize, k: usize) -> MonitorBuilder {
        let mut cfg = MonitorConfig::new(n, k);
        cfg.policy = self.cfg.policy;
        cfg.handler_mode = self.cfg.handler_mode;
        cfg.slack = self.cfg.slack;
        cfg.approx = self.cfg.approx;
        MonitorBuilder {
            cfg,
            seed: self.seed,
            engine: self.engine,
            chaos: self.chaos,
        }
    }

    /// Assemble the session, or report why the knob combination is invalid.
    ///
    /// Two combinations are rejected (see [`BuildError`]): an ε-band
    /// narrower than the node-side hysteresis (`slack > ε` with approximate
    /// mode enabled), and a [`ChaosPolicy`] on an explicitly selected
    /// [`Engine::Sequential`] (no transport to fault). `ε < 0` needs no
    /// check — the [`Self::epsilon`] knob takes a `u64`, so negative
    /// tolerances are unrepresentable by construction.
    pub fn try_build(&self) -> Result<MonitorSession, BuildError> {
        if let ApproxMode::Band { epsilon } = self.cfg.approx {
            if self.cfg.slack > epsilon {
                return Err(BuildError::SlackExceedsEpsilon {
                    slack: self.cfg.slack,
                    epsilon,
                });
            }
        }
        if self.chaos.is_some() && self.engine == Engine::Sequential {
            return Err(BuildError::ChaosOnSequential);
        }
        Ok(self.assemble())
    }

    /// Assemble the session. Borrowing (not consuming) the builder makes it
    /// a reusable template: call `build` repeatedly for independent
    /// sessions with identical configuration.
    ///
    /// # Panics
    ///
    /// On the invalid knob combinations [`Self::try_build`] rejects.
    pub fn build(&self) -> MonitorSession {
        match self.try_build() {
            Ok(session) => session,
            Err(e) => panic!("invalid monitor configuration: {e}"),
        }
    }

    fn assemble(&self) -> MonitorSession {
        let (cfg, seed, chaos) = (self.cfg, self.seed, self.chaos);
        let engine: Box<dyn EngineOps> = match self.engine.resolve() {
            Engine::Socket => Box::new(SocketTopkMonitor::start(cfg, seed, chaos)),
            Engine::Sequential if chaos.is_none() => Box::new(TopkMonitor::new(cfg, seed)),
            // Chaos needs a transport: every other selection runs threaded.
            _ => Box::new(ThreadedTopkMonitor::start(cfg, seed, chaos)),
        };
        MonitorSession {
            engine,
            cfg: self.cfg,
            row: vec![0; self.cfg.n],
            started: false,
            dense_pending: false,
            pending: Vec::new(),
            pending_sorted: true,
            events: Vec::new(),
            order: Vec::new(),
            order_scratch: Vec::new(),
            prev_by_id: Vec::new(),
            cur_by_id: Vec::new(),
            staged_ranks: Vec::new(),
            member_mask: vec![false; self.cfg.n],
            touched_member: false,
            prev_ledger_total: 0,
            last_t: None,
            feed_scratch: Vec::new(),
        }
    }
}

/// Why a [`MonitorBuilder`] knob combination cannot be assembled into a
/// session. Returned by [`MonitorBuilder::try_build`];
/// [`MonitorBuilder::build`] panics with the same message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// ε-approximate mode requires the node-side hysteresis to stay inside
    /// the coordinator's band: `slack ≤ ε`. The coordinator certifies a
    /// band hit from the extrema the filters report; with `slack > ε`
    /// those extrema can themselves be off by more than the band is wide,
    /// voiding the ε-indistinguishability guarantee.
    SlackExceedsEpsilon { slack: u64, epsilon: u64 },
    /// A [`ChaosPolicy`] was combined with an explicitly selected
    /// [`Engine::Sequential`]: the sequential runtime has no transport
    /// layer to inject faults into. Pick [`Engine::Threaded`],
    /// [`Engine::Socket`], or leave [`Engine::Auto`] (which falls back to
    /// the threaded runtime under chaos).
    ChaosOnSequential,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BuildError::SlackExceedsEpsilon { slack, epsilon } => write!(
                f,
                "slack {slack} exceeds the ε-band width {epsilon}; \
                 the ε-indistinguishability guarantee needs slack ≤ ε"
            ),
            BuildError::ChaosOnSequential => write!(
                f,
                "chaos policy on Engine::Sequential: the sequential runtime \
                 has no transport layer to inject faults into"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// What a session needs from its engine beyond [`Monitor`] — implemented
/// by [`TopkMonitor`] and by every [`crate::cluster::ClusterTopkMonitor`],
/// so the session holds one boxed engine and never matches on its kind.
pub(crate) trait EngineOps: Monitor {
    fn kind(&self) -> Engine;
    fn coordinator(&self) -> &CoordinatorMachine;
    fn silent_steps(&self) -> u64;
    fn micro_rounds_run(&self) -> u64;
    /// Transport recovery counters (`None` without a transport).
    fn recovery(&self) -> Option<&RecoveryMetrics> {
        None
    }
    /// The physical wire ledger (`None` without a wire).
    fn wire(&self) -> Option<&WireMetrics> {
        None
    }
    /// Transport sync frames (`None` without a transport).
    fn sync_frames(&self) -> Option<u64> {
        None
    }
}

impl EngineOps for TopkMonitor {
    fn kind(&self) -> Engine {
        Engine::Sequential
    }

    fn coordinator(&self) -> &CoordinatorMachine {
        TopkMonitor::coordinator(self)
    }

    fn silent_steps(&self) -> u64 {
        TopkMonitor::silent_steps(self)
    }

    fn micro_rounds_run(&self) -> u64 {
        TopkMonitor::micro_rounds_run(self)
    }
}

/// A running push-based monitoring session — the stable public handle over
/// Algorithm 1 on any [`Engine`].
///
/// Lifecycle per time step: buffer observations with
/// [`update`](Self::update) / [`update_batch`](Self::update_batch) (or pull
/// them from a [`ValueFeed`] with [`ingest`](Self::ingest)), then commit
/// with [`advance`](Self::advance) and react to the returned
/// [`TopkEvent`]s. Nodes that never received an update observe `0`.
///
/// Updates are *observations*, not messages: buffering them models the
/// step's new values arriving at the distributed nodes. What the protocol
/// actually communicates is decided by the filters, exactly as in the
/// paper, and is what [`ledger`](Self::ledger) counts.
pub struct MonitorSession {
    engine: Box<dyn EngineOps>,
    cfg: MonitorConfig,
    /// Committed value row (updated by the commit itself, so it always
    /// mirrors what the engine has seen).
    row: Vec<Value>,
    /// Whether the first step has been committed (engines need a dense
    /// first row).
    started: bool,
    /// `true` when a whole-row update is pending (dense route forced).
    dense_pending: bool,
    /// Buffered `(id, value)` updates since the last commit.
    pending: Vec<(NodeId, Value)>,
    /// `pending` is id-sorted as pushed (skip the commit sort when true).
    pending_sorted: bool,
    /// Reusable event buffer; `advance` returns a borrow of it.
    events: Vec<TopkEvent>,
    /// Current members by rank (index 0 = rank 1 = largest value).
    order: Vec<NodeId>,
    /// Scratch: next step's order during the membership diff.
    order_scratch: Vec<NodeId>,
    /// Scratch: `(id, rank)` of the previous / current order, id-sorted.
    prev_by_id: Vec<(NodeId, usize)>,
    cur_by_id: Vec<(NodeId, usize)>,
    /// Scratch: rank-sorted `Entered` / `RankChanged` staging.
    staged_ranks: Vec<(usize, TopkEvent)>,
    /// O(1) membership, kept in lockstep with `order`.
    member_mask: Vec<bool>,
    /// A buffered update touched a current member since the last commit
    /// (rank events can occur without any message traffic).
    touched_member: bool,
    /// Ledger total after the previous commit — membership and threshold
    /// provably cannot change without message traffic, so an unchanged
    /// total skips all event derivation.
    prev_ledger_total: u64,
    last_t: Option<u64>,
    /// Scratch for [`Self::ingest`].
    feed_scratch: Vec<(NodeId, Value)>,
}

impl MonitorSession {
    /// Buffer one observation: node `id` will observe `value` when the next
    /// [`advance`](Self::advance) commits. Later updates for the same node
    /// within one step win.
    pub fn update(&mut self, id: NodeId, value: Value) {
        assert!(id.idx() < self.cfg.n, "node {id} out of range");
        if let Some(&(last, _)) = self.pending.last() {
            self.pending_sorted &= last < id;
        }
        self.pending.push((id, value));
    }

    /// Buffer a batch of observations (any order, duplicates allowed —
    /// last write per node wins).
    pub fn update_batch(&mut self, updates: impl IntoIterator<Item = (NodeId, Value)>) {
        for (id, value) in updates {
            self.update(id, value);
        }
    }

    /// Buffer a whole-row update: node `i` observes `values[i]`. Forces the
    /// dense commit route; point updates buffered in the same step are
    /// applied *on top* regardless of call order.
    pub fn update_row(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.cfg.n, "one value per node");
        self.row.copy_from_slice(values);
        self.dense_pending = true;
        self.touched_member = true;
    }

    /// Pull one step's changes from a [`ValueFeed`] into the buffer (the
    /// generator-side adapter: any `WorkloadSpec`-built feed drives a
    /// session directly). `t` must be the step the next `advance` commits.
    pub fn ingest(&mut self, feed: &mut dyn ValueFeed, t: u64) {
        assert_eq!(feed.n(), self.cfg.n, "feed size must match session");
        let mut scratch = std::mem::take(&mut self.feed_scratch);
        feed.fill_delta(t, &mut scratch);
        self.update_batch(scratch.iter().copied());
        self.feed_scratch = scratch;
    }

    /// Commit the buffered updates as time step `t` (strictly increasing),
    /// run the protocol exchange, and return the step's events.
    ///
    /// Routing: the first commit and whole-row updates take the engine's
    /// dense path (a diff against its cached row); small batches — at most
    /// half the fleet — take the sparse path, so a silent tick costs
    /// `O(#changed + #engaged)`. Both paths are bit-identical, and the
    /// returned buffer is reused across steps (no steady-state allocation).
    pub fn advance(&mut self, t: u64) -> &[TopkEvent] {
        assert!(
            self.last_t.is_none_or(|last| t > last),
            "advance requires strictly increasing t (last {:?}, got {t})",
            self.last_t
        );
        self.commit_pending();

        let first = !self.started;
        if first || self.dense_pending || 2 * self.pending.len() > self.cfg.n {
            // Dense diff (and the mandatory dense first step).
            let row = std::mem::take(&mut self.row);
            self.engine.step(t, &row);
            self.row = row;
        } else {
            let pending = std::mem::take(&mut self.pending);
            self.engine.step_sparse(t, &pending);
            self.pending = pending;
        }
        self.started = true;
        self.dense_pending = false;
        self.pending.clear();
        self.pending_sorted = true;
        self.last_t = Some(t);

        // Protocol-level events straight from the monitor's cursor.
        self.events.clear();
        let mut events = std::mem::take(&mut self.events);
        self.engine.drain_events(t, &mut events);
        self.events = events;

        // Membership / rank events, derived — but only when they can have
        // changed: any membership or threshold change costs messages, and
        // silent rank shuffles require an update touching a member.
        let total = self.engine.ledger().total();
        if first || total != self.prev_ledger_total || self.touched_member {
            self.derive_membership_events(t);
        }
        self.prev_ledger_total = total;
        self.touched_member = false;
        &self.events
    }

    /// Sort (stable) + last-wins dedup the pending buffer, patch it onto
    /// the committed row, and flag touched members. A buffer pushed in
    /// strictly ascending id order (`pending_sorted` — every feed-driven
    /// ingest) is duplicate-free by construction, so both passes are
    /// skipped on the hot path.
    fn commit_pending(&mut self) {
        if !self.pending_sorted {
            self.pending.sort_by_key(|&(id, _)| id);
            let mut w = 0;
            for r in 0..self.pending.len() {
                let entry = self.pending[r];
                if w > 0 && self.pending[w - 1].0 == entry.0 {
                    self.pending[w - 1] = entry;
                } else {
                    self.pending[w] = entry;
                    w += 1;
                }
            }
            self.pending.truncate(w);
        }
        debug_assert!(self.pending.windows(2).all(|w| w[0].0 < w[1].0));
        for &(id, v) in &self.pending {
            self.touched_member |= self.member_mask[id.idx()];
            self.row[id.idx()] = v;
        }
    }

    /// Recompute the rank order from the engine's answer and the committed
    /// row; diff against the previous order into `Left` / `Entered` /
    /// `RankChanged` events (ranks are 1-based by descending value, ties by
    /// ascending id).
    fn derive_membership_events(&mut self, t: u64) {
        let members = self.engine.coordinator().topk();
        self.order_scratch.clear();
        self.order_scratch.extend_from_slice(members);
        let row = &self.row;
        self.order_scratch
            .sort_by(|a, b| row[b.idx()].cmp(&row[a.idx()]).then(a.cmp(b)));

        self.prev_by_id.clear();
        self.prev_by_id
            .extend(self.order.iter().enumerate().map(|(i, &id)| (id, i + 1)));
        self.prev_by_id.sort_unstable_by_key(|&(id, _)| id);
        self.cur_by_id.clear();
        self.cur_by_id.extend(
            self.order_scratch
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i + 1)),
        );
        self.cur_by_id.sort_unstable_by_key(|&(id, _)| id);

        // Merge the two id-sorted rank maps. Lefts go straight out
        // (ascending id); Entered/RankChanged are staged and emitted in
        // rank order.
        self.staged_ranks.clear();
        let (mut p, mut c) = (0, 0);
        while p < self.prev_by_id.len() || c < self.cur_by_id.len() {
            match (self.prev_by_id.get(p), self.cur_by_id.get(c)) {
                (Some(&(pid, _)), Some(&(cid, rank))) if pid == cid => {
                    let (_, from) = self.prev_by_id[p];
                    if from != rank {
                        self.staged_ranks.push((
                            rank,
                            TopkEvent::RankChanged {
                                t,
                                id: cid,
                                from,
                                to: rank,
                            },
                        ));
                    }
                    p += 1;
                    c += 1;
                }
                (Some(&(pid, _)), Some(&(cid, _))) if pid < cid => {
                    self.events.push(TopkEvent::Left { t, id: pid });
                    self.member_mask[pid.idx()] = false;
                    p += 1;
                }
                (Some(&(pid, _)), None) => {
                    self.events.push(TopkEvent::Left { t, id: pid });
                    self.member_mask[pid.idx()] = false;
                    p += 1;
                }
                (_, Some(&(cid, rank))) => {
                    self.staged_ranks
                        .push((rank, TopkEvent::Entered { t, id: cid, rank }));
                    self.member_mask[cid.idx()] = true;
                    c += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        // Entered before RankChanged, each in ascending rank.
        self.staged_ranks
            .sort_unstable_by_key(|&(rank, e)| (!matches!(e, TopkEvent::Entered { .. }), rank));
        self.events
            .extend(self.staged_ranks.iter().map(|&(_, e)| e));

        std::mem::swap(&mut self.order, &mut self.order_scratch);
    }

    /// Drive the session over a [`ValueFeed`] for `steps` consecutive time
    /// steps (continuing after the last committed `t`); returns the ledger
    /// delta. The per-step events remain queryable only for the final step
    /// (via [`events`](Self::events)) — use the `ingest` + `advance` loop
    /// to react to every step.
    pub fn run_feed(&mut self, feed: &mut dyn ValueFeed, steps: u64) -> LedgerSnapshot {
        let before = self.engine.ledger();
        let start = self.last_t.map_or(0, |t| t + 1);
        for t in start..start + steps {
            self.ingest(feed, t);
            self.advance(t);
        }
        self.engine.ledger().since(&before)
    }

    // ── cheap queries ────────────────────────────────────────────────

    /// Current answer: top-k node ids, sorted ascending (borrowed — no
    /// allocation, unlike [`Monitor::topk`]).
    pub fn topk(&self) -> &[NodeId] {
        self.engine.coordinator().topk()
    }

    /// Current members ordered by rank (index 0 = rank 1 = largest value,
    /// ties by ascending id) — the order the session's rank events speak
    /// about.
    pub fn topk_by_rank(&self) -> &[NodeId] {
        &self.order
    }

    /// O(1): is `id` currently monitored as top-k?
    pub fn in_topk(&self, id: NodeId) -> bool {
        self.member_mask[id.idx()]
    }

    /// O(1): the committed value of node `id` (what the engine has seen;
    /// buffered updates not yet committed by [`advance`](Self::advance)
    /// are not reflected). Nodes never updated observe `0`.
    pub fn value(&self, id: NodeId) -> Value {
        self.row[id.idx()]
    }

    /// The whole committed value row (`n` entries, indexed by node id).
    /// The serving layer reads member values from here when it rebuilds a
    /// shard's merge candidates.
    pub fn committed_row(&self) -> &[Value] {
        &self.row
    }

    /// The shared filter threshold `M`, once initialized.
    pub fn threshold(&self) -> Option<Value> {
        self.engine.coordinator().current_threshold()
    }

    /// Phase-attributed protocol counters.
    pub fn metrics(&self) -> &RunMetrics {
        self.engine.coordinator().metrics()
    }

    /// Transport fault-injection and recovery counters (`None` on the
    /// sequential engine; all-zero on a threaded or socket engine without a
    /// [`ChaosPolicy`]).
    pub fn recovery(&self) -> Option<&RecoveryMetrics> {
        self.engine.recovery()
    }

    /// The physical wire ledger (`None` on the in-process engines; the
    /// socket engine counts every frame and byte it writes, per channel).
    /// The same block is mirrored into [`RunMetrics::wire`] at each step.
    pub fn wire(&self) -> Option<&WireMetrics> {
        self.engine.wire()
    }

    /// Message counters (model cost).
    pub fn ledger(&self) -> LedgerSnapshot {
        self.engine.ledger()
    }

    /// The events of the most recent [`advance`](Self::advance).
    pub fn events(&self) -> &[TopkEvent] {
        &self.events
    }

    /// The configuration this session runs.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.cfg.n
    }

    /// Monitored positions.
    pub fn k(&self) -> usize {
        self.cfg.k
    }

    /// The engine this session resolved to.
    pub fn engine(&self) -> Engine {
        self.engine.kind()
    }

    /// The last committed time step.
    pub fn last_t(&self) -> Option<u64> {
        self.last_t
    }

    /// Steps that exchanged no message.
    pub fn silent_steps(&self) -> u64 {
        self.engine.silent_steps()
    }

    /// Coordinator micro-rounds executed so far (identical accounting on
    /// both engines).
    pub fn micro_rounds_run(&self) -> u64 {
        self.engine.micro_rounds_run()
    }

    /// Transport sync frames (`None` on the sequential engine, which has no
    /// transport layer). Charged at dispatch intent on both transports, so
    /// the threaded and socket counts are bit-identical.
    pub fn sync_frames(&self) -> Option<u64> {
        self.engine.sync_frames()
    }

    /// Capacity of the reusable event buffer — the zero-alloc steady-state
    /// witness asserted by `tests/session_events.rs` (it must stop growing
    /// once the session has warmed up).
    pub fn event_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Tear the session down, returning the underlying [`Monitor`] (joins
    /// node threads on the threaded engine via its `Drop`).
    pub fn into_monitor(self) -> Box<dyn Monitor> {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::id::true_topk;

    fn drain_to_vec(events: &[TopkEvent]) -> Vec<TopkEvent> {
        events.to_vec()
    }

    #[test]
    fn builder_defaults_and_knobs() {
        let b = MonitorBuilder::new(10, 3)
            .seed(9)
            .slack(5)
            .handler_mode(HandlerMode::Faithful)
            .policy(BroadcastPolicy::EveryRound)
            .engine(Engine::Sequential);
        assert_eq!(b.config().slack, 5);
        assert_eq!(b.config().handler_mode, HandlerMode::Faithful);
        assert_eq!(b.config().policy, BroadcastPolicy::EveryRound);
        let s = b.build();
        assert_eq!(s.engine(), Engine::Sequential);
        assert_eq!((s.n(), s.k()), (10, 3));
        assert_eq!(Engine::Auto.resolve(), Engine::Sequential);
    }

    #[test]
    fn epsilon_knob_propagates_and_sized_preserves_it() {
        let b = MonitorBuilder::new(32, 4).seed(2).epsilon(12);
        assert_eq!(b.config().approx, ApproxMode::Band { epsilon: 12 });
        let shard = b.sized(8, 2);
        assert_eq!(
            shard.config().approx,
            ApproxMode::Band { epsilon: 12 },
            "sized() must carry the ε knob to per-shard builders"
        );
        assert_eq!(
            b.epsilon(0).config().approx,
            ApproxMode::Exact,
            "ε = 0 normalizes back to exact mode"
        );
    }

    #[test]
    fn try_build_rejects_slack_wider_than_band() {
        let err = match MonitorBuilder::new(8, 2).epsilon(3).slack(5).try_build() {
            Err(e) => e,
            Ok(_) => panic!("slack 5 > ε 3 must be rejected"),
        };
        assert_eq!(
            err,
            BuildError::SlackExceedsEpsilon {
                slack: 5,
                epsilon: 3
            }
        );
        assert!(!err.to_string().is_empty());
        // slack ≤ ε is fine, and exact mode never checks slack against ε.
        assert!(MonitorBuilder::new(8, 2)
            .epsilon(3)
            .slack(3)
            .try_build()
            .is_ok());
        assert!(MonitorBuilder::new(8, 2).slack(50).try_build().is_ok());
    }

    #[test]
    fn try_build_rejects_chaos_on_explicit_sequential() {
        let policy = ChaosPolicy::from_seed(5);
        let err = match MonitorBuilder::new(4, 1)
            .engine(Engine::Sequential)
            .chaos(policy)
            .try_build()
        {
            Err(e) => e,
            Ok(_) => panic!("chaos on explicit Sequential must be rejected"),
        };
        assert_eq!(err, BuildError::ChaosOnSequential);
        // Engine::Auto keeps the documented fallback to Threaded.
        let s = MonitorBuilder::new(4, 1).chaos(policy).try_build().unwrap();
        assert_eq!(s.engine(), Engine::Threaded);
    }

    #[test]
    #[should_panic(expected = "invalid monitor configuration")]
    fn build_panics_on_invalid_combination() {
        let _ = MonitorBuilder::new(8, 2).epsilon(1).slack(2).build();
    }

    #[test]
    fn push_updates_produce_membership_events() {
        let mut s = MonitorBuilder::new(4, 2).seed(42).build();
        s.update_batch([
            (NodeId(0), 20),
            (NodeId(1), 100),
            (NodeId(2), 40),
            (NodeId(3), 80),
        ]);
        let events = drain_to_vec(s.advance(0));
        assert!(events.contains(&TopkEvent::ResetCompleted { t: 0 }));
        assert!(events.contains(&TopkEvent::Entered {
            t: 0,
            id: NodeId(1),
            rank: 1
        }));
        assert!(events.contains(&TopkEvent::Entered {
            t: 0,
            id: NodeId(3),
            rank: 2
        }));
        assert_eq!(s.topk(), &[NodeId(1), NodeId(3)]);
        assert_eq!(s.topk_by_rank(), &[NodeId(1), NodeId(3)]);
        assert!(s.in_topk(NodeId(1)) && !s.in_topk(NodeId(0)));

        // n2 overtakes n3.
        s.update(NodeId(2), 500);
        let events = drain_to_vec(s.advance(1));
        assert!(events.contains(&TopkEvent::Left {
            t: 1,
            id: NodeId(3)
        }));
        assert!(events.contains(&TopkEvent::Entered {
            t: 1,
            id: NodeId(2),
            rank: 1
        }));
        assert_eq!(s.topk(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn silent_ticks_emit_nothing_and_reuse_the_buffer() {
        let mut s = MonitorBuilder::new(6, 2).seed(7).build();
        s.update_row(&[10, 60, 30, 50, 20, 40]);
        s.advance(0);
        let cap = s.event_capacity();
        for t in 1..100 {
            assert!(s.advance(t).is_empty(), "no updates ⇒ no events");
        }
        assert_eq!(s.event_capacity(), cap, "steady state must not allocate");
        assert_eq!(s.silent_steps(), 99);
    }

    #[test]
    fn rank_changes_surface_without_messages() {
        let mut s = MonitorBuilder::new(4, 2).seed(3).build();
        s.update_row(&[20, 100, 40, 80]);
        s.advance(0);
        assert_eq!(s.topk_by_rank(), &[NodeId(1), NodeId(3)]);
        let before = s.ledger().total();
        // Swap the two members' relative order strictly above the threshold:
        // zero messages, but ranks move.
        s.update_batch([(NodeId(1), 81), (NodeId(3), 99)]);
        let events = drain_to_vec(s.advance(1));
        assert_eq!(s.ledger().total(), before, "within-filter moves are free");
        assert_eq!(
            events,
            vec![
                TopkEvent::RankChanged {
                    t: 1,
                    id: NodeId(3),
                    from: 2,
                    to: 1
                },
                TopkEvent::RankChanged {
                    t: 1,
                    id: NodeId(1),
                    from: 1,
                    to: 2
                },
            ]
        );
        assert_eq!(s.topk_by_rank(), &[NodeId(3), NodeId(1)]);
    }

    #[test]
    fn last_write_wins_within_a_step() {
        let mut s = MonitorBuilder::new(3, 1).seed(1).build();
        s.update_batch([(NodeId(0), 5), (NodeId(1), 50), (NodeId(2), 10)]);
        s.update(NodeId(1), 1); // overrides the 50
        s.update(NodeId(2), 99);
        s.advance(0);
        assert_eq!(s.topk(), &[NodeId(2)]);
    }

    #[test]
    fn feed_adapter_matches_legacy_drive() {
        use topk_streams::WorkloadSpec;
        let spec = WorkloadSpec::default_walk(12);
        let cfg = MonitorConfig::new(12, 3);
        let mut legacy = TopkMonitor::new(cfg, 5);
        let mut legacy_feed = spec.build(9);
        let mut row = vec![0u64; 12];

        let mut s = MonitorBuilder::new(12, 3).seed(5).build();
        let mut feed = spec.build(9);
        for t in 0..200 {
            legacy_feed.fill_step(t, &mut row);
            legacy.step(t, &row);
            s.ingest(&mut feed, t);
            s.advance(t);
            assert_eq!(s.topk(), legacy.topk().as_slice(), "t={t}");
        }
        assert_eq!(s.ledger().total(), legacy.ledger().total());
        assert_eq!(s.threshold(), legacy.coordinator().current_threshold());
    }

    #[test]
    fn run_feed_continues_time() {
        use topk_streams::WorkloadSpec;
        let spec = WorkloadSpec::default_walk(8);
        let mut s = MonitorBuilder::new(8, 2).seed(4).build();
        let mut feed = spec.build(2);
        s.run_feed(&mut feed, 50);
        assert_eq!(s.last_t(), Some(49));
        s.run_feed(&mut feed, 10);
        assert_eq!(s.last_t(), Some(59));
        let mut row = vec![0u64; 8];
        let mut twin = spec.build(2);
        for t in 0..60 {
            twin.fill_step(t, &mut row);
        }
        assert!(crate::monitor::is_valid_topk(&row, s.topk()));
    }

    #[test]
    fn threaded_engine_is_bit_identical() {
        let mut seq = MonitorBuilder::new(8, 3)
            .seed(11)
            .engine(Engine::Sequential)
            .build();
        let mut thr = MonitorBuilder::new(8, 3)
            .seed(11)
            .engine(Engine::Threaded)
            .build();
        let rows: [&[u64]; 4] = [
            &[5, 80, 20, 70, 10, 60, 30, 40],
            &[5, 80, 20, 70, 10, 60, 30, 40],
            &[90, 80, 20, 70, 10, 60, 30, 40],
            &[90, 10, 20, 70, 95, 60, 30, 40],
        ];
        for (t, row) in rows.iter().enumerate() {
            seq.update_row(row);
            thr.update_row(row);
            let (a, b) = (
                drain_to_vec(seq.advance(t as u64)),
                drain_to_vec(thr.advance(t as u64)),
            );
            assert_eq!(a, b, "t={t}: event streams diverged");
            assert_eq!(seq.topk(), thr.topk());
        }
        assert_eq!(seq.ledger().total(), thr.ledger().total());
        assert_eq!(seq.micro_rounds_run(), thr.micro_rounds_run());
        assert!(seq.sync_frames().is_none());
        assert!(thr.sync_frames().is_some());
        assert_eq!(
            seq.topk().to_vec(),
            true_topk(rows[3], 3),
            "strict boundary ⇒ unique answer"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_t_rejected() {
        let mut s = MonitorBuilder::new(2, 1).build();
        s.advance(5);
        s.advance(5);
    }
}
