//! The [`Monitor`] trait — the public face every monitoring algorithm
//! (Algorithm 1, the baselines, the ordered extension) implements — and
//! [`Algorithm1`], the paper's algorithm assembled over any [`Runtime`].
//!
//! Algorithm 1 is one coordinator state machine and `n` node state
//! machines; what carries their messages is a parameter. [`Algorithm1<R>`]
//! holds the coordinator and lends it to runtime `R` for every step, so
//! the one [`Monitor`] impl below serves every engine. The engine names
//! are aliases: [`TopkMonitor`] (the sequential runtime, here) and
//! [`crate::socket::SocketTopkMonitor`]; each alias adds only its
//! engine-specific constructors and accessors.

use topk_net::behavior::{CoordinatorBehavior as _, ValueFeed};
use topk_net::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError};
use topk_net::driver::{Cluster, Transport};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::LedgerSnapshot;
use topk_net::runtime::Runtime;
use topk_net::seq::SyncRuntime;

use crate::config::MonitorConfig;
use crate::coordinator::CoordinatorMachine;
use crate::events::{EventCursor, TopkEvent};
use crate::metrics::RunMetrics;
use crate::node::NodeMachine;
use crate::session::Engine;

/// A continuous top-k-position monitoring algorithm.
///
/// Contract: after `step(t, values)` returns, `topk()` is a *valid* top-k
/// set for `values` — the minimum value over members is ≥ the maximum over
/// non-members (equality only at ties). When the k-th and (k+1)-st values
/// are distinct, the set is unique and must equal the ground truth.
pub trait Monitor: Send {
    /// Short identifier for tables.
    fn name(&self) -> &'static str;
    /// Process the observations of time step `t` (strictly increasing `t`).
    fn step(&mut self, t: u64, values: &[Value]);
    /// Delta form of [`Monitor::step`]: process step `t` given only the
    /// `(id, value)` pairs that changed since `t − 1` (ascending ids; the
    /// first step must carry all `n` nodes) — the entry point sparse feeds
    /// drive via [`topk_net::behavior::ValueFeed::fill_delta`].
    ///
    /// The default accepts exactly the *dense* change-lists the default
    /// `fill_delta` produces (all `n` nodes present) and forwards to `step`.
    /// Every in-repo monitor overrides it: [`TopkMonitor`] with its native
    /// `O(#changed + #engaged)` path, the baselines via a [`RowCache`]
    /// (correct with any feed, dense cost). Monitors outside this crate
    /// should do one or the other.
    fn step_sparse(&mut self, t: u64, changes: &[(NodeId, Value)]) {
        assert_eq!(
            changes.len(),
            self.n(),
            "{}: no sparse path; default step_sparse needs dense change-lists \
             (drive this monitor with fill_step + step instead)",
            self.name()
        );
        debug_assert!(changes
            .iter()
            .enumerate()
            .all(|(i, &(id, _))| id.idx() == i));
        let row: Vec<Value> = changes.iter().map(|&(_, v)| v).collect();
        self.step(t, &row);
    }
    /// Current answer: top-k node ids, sorted ascending.
    fn topk(&self) -> Vec<NodeId>;
    /// Message counters accumulated so far.
    fn ledger(&self) -> LedgerSnapshot;
    /// Number of nodes.
    fn n(&self) -> usize;
    /// Monitored positions.
    fn k(&self) -> usize;
    /// Append the protocol-level [`TopkEvent`]s this monitor can attribute
    /// to the step that just completed — [`TopkEvent::ResetCompleted`] and
    /// [`TopkEvent::ThresholdUpdated`] for Algorithm 1 — clearing its
    /// internal "changed since last drain" cursor. Membership and rank
    /// events are *not* produced here: they are derived by the session
    /// layer ([`crate::session::MonitorSession`]), which ranks members by
    /// the value row its engine caches ([`Runtime::row`]).
    ///
    /// The default is a no-op: monitors without protocol-level state (the
    /// baselines) report nothing, and a session over them still emits the
    /// derived membership events.
    fn drain_events(&mut self, _t: u64, _out: &mut Vec<TopkEvent>) {}
}

/// Drive any monitor over a feed for `steps` steps; returns the ledger delta.
pub fn run_monitor(
    monitor: &mut dyn Monitor,
    feed: &mut dyn ValueFeed,
    steps: u64,
) -> LedgerSnapshot {
    assert_eq!(feed.n(), monitor.n());
    let before = monitor.ledger();
    let mut row = vec![0 as Value; monitor.n()];
    for t in 0..steps {
        feed.fill_step(t, &mut row);
        monitor.step(t, &row);
    }
    monitor.ledger().since(&before)
}

/// Delta-driven counterpart of [`run_monitor`]: pulls change-lists via
/// [`ValueFeed::fill_delta`] and steps via [`Monitor::step_sparse`]. With a
/// natively sparse feed and a sparse monitor the whole loop is
/// `O(#changed + #engaged)` per step; with a default (dense-emitting) feed
/// any monitor works, falling back to its dense path.
pub fn run_monitor_sparse(
    monitor: &mut dyn Monitor,
    feed: &mut dyn ValueFeed,
    steps: u64,
) -> LedgerSnapshot {
    assert_eq!(feed.n(), monitor.n());
    let before = monitor.ledger();
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    for t in 0..steps {
        feed.fill_delta(t, &mut changes);
        monitor.step_sparse(t, &changes);
    }
    monitor.ledger().since(&before)
}

/// Cached full-value row for monitors without a native sparse path: patch a
/// change-list onto it and hand the dense row to `step`. Correct for any
/// change-list (O(n) per step, like the dense path it feeds).
#[derive(Debug, Clone, Default)]
pub struct RowCache {
    row: Vec<Value>,
    started: bool,
}

impl RowCache {
    /// Apply `changes` for step `t`; returns the full current row.
    /// The first call must carry all `n` nodes (the `fill_delta` contract).
    pub fn patch(&mut self, changes: &[(NodeId, Value)]) -> &[Value] {
        if !self.started {
            assert!(
                changes
                    .iter()
                    .enumerate()
                    .all(|(i, &(id, _))| id.idx() == i),
                "first change-list must cover ids 0..n in order"
            );
            self.row = changes.iter().map(|&(_, v)| v).collect();
            self.started = true;
        } else {
            for &(id, v) in changes {
                self.row[id.idx()] = v;
            }
        }
        &self.row
    }
}

/// The fallback [`Monitor::step_sparse`] body for monitors that keep a
/// [`RowCache`] in a `sparse_row` field: patch the change-list onto the
/// cached row and run the dense `step`. A macro (not a default method)
/// because the take/patch/restore dance needs the concrete type's field.
#[macro_export]
macro_rules! row_cache_step_sparse {
    () => {
        /// Correct sparse driving for a monitor without a native sparse
        /// path: patch the cached row and run the dense step (same O(n)
        /// cost as the dense drive).
        fn step_sparse(&mut self, t: u64, changes: &[(topk_net::id::NodeId, topk_net::id::Value)]) {
            let mut cache = std::mem::take(&mut self.sparse_row);
            self.step(t, cache.patch(changes));
            self.sparse_row = cache;
        }
    };
}

/// Any engine that can carry Algorithm 1, chosen at run time.
pub type DynRuntime = dyn Runtime<CoordinatorMachine> + Send;

/// Algorithm 1 of the paper, assembled: one [`CoordinatorMachine`] and `n`
/// [`NodeMachine`]s behind runtime `R`, which borrows the coordinator for
/// each step.
///
/// The runtime is the last field, so `Box<Algorithm1<R>>` coerces to
/// `Box<Algorithm1<DynRuntime>>` — how [`crate::session::MonitorSession`]
/// holds whichever engine it was built with. This is the *engine* type;
/// new code should usually build a session via
/// [`crate::session::MonitorBuilder`] instead — the session adds
/// push-based ingestion committed through the sparse path, and the typed
/// event stream on top of the identical execution.
pub struct Algorithm1<R: ?Sized> {
    coord: CoordinatorMachine,
    cfg: MonitorConfig,
    engine: Engine,
    events: EventCursor,
    rt: R,
}

/// Algorithm 1 on the deterministic sequential runtime.
pub type TopkMonitor = Algorithm1<SyncRuntime<NodeMachine>>;

impl<R: Runtime<CoordinatorMachine>> Algorithm1<R> {
    /// Build the node machines and the coordinator for `(cfg, seed)` and
    /// hand the nodes to the runtime `start` makes of them. All nodes
    /// share one [`crate::params::NodeParams`] block (flat layout).
    fn assemble(
        cfg: MonitorConfig,
        seed: u64,
        engine: Engine,
        start: impl FnOnce(Vec<NodeMachine>) -> R,
    ) -> Self {
        let params = crate::params::NodeParams::shared(&cfg);
        let nodes = (0..cfg.n)
            .map(|i| NodeMachine::new(NodeId(i as u32), &params, seed))
            .collect();
        Algorithm1 {
            coord: CoordinatorMachine::new(cfg),
            cfg,
            engine,
            events: EventCursor::default(),
            rt: start(nodes),
        }
    }
}

impl<R: ?Sized + Runtime<CoordinatorMachine>> Algorithm1<R> {
    /// The coordinator (tracker/threshold accessors for tests and tools).
    pub fn coordinator(&self) -> &CoordinatorMachine {
        &self.coord
    }

    /// Phase-attributed event counters of the coordinator.
    pub fn metrics(&self) -> &RunMetrics {
        self.coord.metrics()
    }

    /// The configuration this monitor runs.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// The engine this monitor runs on (never [`Engine::Auto`]).
    pub(crate) fn engine(&self) -> Engine {
        self.engine
    }

    /// The runtime carrying the nodes.
    pub(crate) fn runtime(&self) -> &R {
        &self.rt
    }

    /// Steps that exchanged no message and ran no micro-round.
    pub fn silent_steps(&self) -> u64 {
        self.rt.silent_steps()
    }

    /// Coordinator micro-rounds executed so far (all phases) — the runtime's
    /// round-complexity witness, counted identically on every engine;
    /// reset-phase rounds alone are in [`RunMetrics::reset_rounds`].
    pub fn micro_rounds_run(&self) -> u64 {
        self.rt.micro_rounds_run()
    }

    /// Fallible form of [`Monitor::step`]: a transport failure the recovery
    /// layer cannot mask (a dead endpoint, retries exhausted) surfaces as a
    /// typed [`RuntimeError`] instead of a panic.
    pub fn try_step(&mut self, t: u64, values: &[Value]) -> Result<(), RuntimeError> {
        self.rt.try_step(&mut self.coord, t, values)
    }

    /// Fallible form of [`Monitor::step_sparse`].
    pub fn try_step_sparse(
        &mut self,
        t: u64,
        changes: &[(NodeId, Value)],
    ) -> Result<(), RuntimeError> {
        self.rt.try_step_sparse(&mut self.coord, t, changes)
    }
}

impl<R: ?Sized + Runtime<CoordinatorMachine> + Send> Monitor for Algorithm1<R> {
    fn name(&self) -> &'static str {
        match self.engine {
            Engine::Auto | Engine::Sequential => "topk-filter",
            Engine::Socket => "topk-filter-socket",
        }
    }

    fn step(&mut self, t: u64, values: &[Value]) {
        self.rt.step(&mut self.coord, t, values);
    }

    fn step_sparse(&mut self, t: u64, changes: &[(NodeId, Value)]) {
        self.rt.step_sparse(&mut self.coord, t, changes);
    }

    fn topk(&self) -> Vec<NodeId> {
        self.coord.topk().to_vec()
    }

    fn ledger(&self) -> LedgerSnapshot {
        self.rt.ledger().snapshot()
    }

    fn n(&self) -> usize {
        self.cfg.n
    }

    fn k(&self) -> usize {
        self.cfg.k
    }

    fn drain_events(&mut self, t: u64, out: &mut Vec<TopkEvent>) {
        self.events.drain(&self.coord, t, out);
    }
}

impl TopkMonitor {
    /// Algorithm 1 for `cfg` on the sequential runtime; `seed` is the
    /// master seed of the per-node protocol RNG streams.
    pub fn new(cfg: MonitorConfig, seed: u64) -> Self {
        Self::assemble(cfg, seed, Engine::Sequential, |nodes| {
            SyncRuntime::new(nodes, cfg.k)
        })
    }

    /// Node states (test/debug introspection).
    pub fn nodes(&self) -> &[NodeMachine] {
        self.rt.nodes()
    }

    /// Total node `observe` calls — `O(#changed + #engaged)` per step on
    /// the sparse path, `n` per step only on the very first (init) step.
    pub fn observe_calls(&self) -> u64 {
        self.rt.observe_calls()
    }

    /// Round-poll counter of the underlying runtime — the fire-round
    /// calendar's cost witness: a protocol round polls one node per
    /// reporter (at its scheduled fire phase), plus the full-fanout
    /// rounds, instead of every active participant every round. A reset
    /// polls `2n + reporters` times.
    pub fn micro_polls(&self) -> u64 {
        self.rt.micro_polls()
    }
}

/// The transport engine: nodes behind [`Cluster`] over transport `T`.
impl<T: Transport<NodeMachine>> Algorithm1<Cluster<NodeMachine, T>> {
    /// Start the node endpoints — behind a seeded fault-injection layer
    /// when `chaos` is set. Seeds and behaviors match [`TopkMonitor::new`]
    /// exactly, so the monitors are interchangeable twins.
    pub(crate) fn start(
        cfg: MonitorConfig,
        seed: u64,
        engine: Engine,
        chaos: Option<ChaosPolicy>,
    ) -> Self {
        Self::assemble(cfg, seed, engine, |nodes| match chaos {
            Some(policy) => Cluster::spawn_chaotic(nodes, policy),
            None => Cluster::spawn(nodes),
        })
    }

    /// Fault-injection and recovery counters (all zero without a
    /// [`ChaosPolicy`]). Mirrored into [`RunMetrics::recovery`] at each
    /// committed step.
    pub fn recovery(&self) -> &RecoveryMetrics {
        self.rt.recovery()
    }

    /// Transport-level synchronization frames sent so far (excluded from
    /// model cost), charged at dispatch intent: `#changed + #engaged` per
    /// silent step, identical on every transport.
    pub fn sync_frames(&self) -> u64 {
        self.rt.ledger().sync_frames()
    }

    /// Shut down the endpoints and return the final node state machines
    /// (for state-equality assertions against a sequential twin).
    pub fn shutdown(self) -> Vec<NodeMachine> {
        self.rt.shutdown()
    }
}

/// Check that `set` is a *tolerance-`tol` valid* top-k set for `values`:
/// `min_{i∈set} v_i + tol ≥ max_{j∉set} v_j`. With `tol = 0` this is exact
/// validity; a slack-`ε` monitor guarantees `tol = 2ε` (see
/// [`crate::config::MonitorConfig::slack`]).
pub fn is_eps_valid_topk(values: &[Value], set: &[NodeId], tol: Value) -> bool {
    if set.is_empty() {
        return values.is_empty();
    }
    let mut member = vec![false; values.len()];
    for id in set {
        if id.idx() >= values.len() {
            return false;
        }
        member[id.idx()] = true;
    }
    let min_in = values
        .iter()
        .enumerate()
        .filter(|(i, _)| member[*i])
        .map(|(_, &v)| v)
        .min()
        .unwrap();
    let max_out = values
        .iter()
        .enumerate()
        .filter(|(i, _)| !member[*i])
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0);
    min_in.saturating_add(tol) >= max_out
}

/// Check that `set` (sorted ids) is a *valid* top-k set for `values`:
/// `min_{i∈set} v_i ≥ max_{j∉set} v_j`. Unique ground truth ⇒ equality with
/// [`topk_net::id::true_topk`]; boundary ties admit any valid choice.
pub fn is_valid_topk(values: &[Value], set: &[NodeId]) -> bool {
    if set.is_empty() {
        return values.is_empty();
    }
    let mut member = vec![false; values.len()];
    for id in set {
        if id.idx() >= values.len() {
            return false;
        }
        member[id.idx()] = true;
    }
    let min_in = values
        .iter()
        .enumerate()
        .filter(|(i, _)| member[*i])
        .map(|(_, &v)| v)
        .min()
        .unwrap();
    let max_out = values
        .iter()
        .enumerate()
        .filter(|(i, _)| !member[*i])
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0);
    min_in >= max_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::id::true_topk;

    #[test]
    fn valid_topk_checker() {
        let values = vec![10, 50, 20, 40, 30];
        assert!(is_valid_topk(&values, &[NodeId(1), NodeId(3)]));
        assert!(!is_valid_topk(&values, &[NodeId(0), NodeId(1)]));
        // Tie at the boundary: both choices valid.
        let tied = vec![10, 30, 30];
        assert!(is_valid_topk(&tied, &[NodeId(1)]));
        assert!(is_valid_topk(&tied, &[NodeId(2)]));
        assert!(!is_valid_topk(&tied, &[NodeId(0)]));
    }

    #[test]
    fn monitor_initializes_to_truth() {
        let cfg = MonitorConfig::new(8, 3);
        let mut mon = TopkMonitor::new(cfg, 42);
        let values: Vec<u64> = vec![5, 80, 20, 70, 10, 60, 30, 40];
        mon.step(0, &values);
        assert_eq!(mon.topk(), true_topk(&values, 3));
        assert!(mon.ledger().total() > 0, "initialization communicates");
    }

    #[test]
    fn constant_stream_is_silent_after_init() {
        let cfg = MonitorConfig::new(6, 2);
        let mut mon = TopkMonitor::new(cfg, 7);
        let values: Vec<u64> = vec![10, 60, 30, 50, 20, 40];
        mon.step(0, &values);
        let after_init = mon.ledger().total();
        for t in 1..200 {
            mon.step(t, &values);
        }
        assert_eq!(
            mon.ledger().total(),
            after_init,
            "no movement ⇒ no messages"
        );
        assert_eq!(mon.topk(), true_topk(&values, 2));
        assert_eq!(mon.silent_steps(), 199);
    }

    #[test]
    fn movement_within_filters_is_silent() {
        let cfg = MonitorConfig::new(4, 2);
        let mut mon = TopkMonitor::new(cfg, 3);
        // top-2 = {n1:100, n3:80}; bottom = {n0:20, n2:40}; threshold = 60.
        mon.step(0, &[20, 100, 40, 80]);
        let after_init = mon.ledger().total();
        // Wiggle everyone strictly within their side of 60.
        mon.step(1, &[25, 90, 45, 85]);
        mon.step(2, &[10, 110, 59, 61]);
        mon.step(3, &[0, 61, 0, 100]);
        assert_eq!(mon.ledger().total(), after_init);
        assert_eq!(mon.topk(), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn boundary_swap_updates_answer() {
        let cfg = MonitorConfig::new(4, 2);
        let mut mon = TopkMonitor::new(cfg, 9);
        mon.step(0, &[20, 100, 40, 80]);
        assert_eq!(mon.topk(), vec![NodeId(1), NodeId(3)]);
        // n2 rockets above everyone; n3 collapses.
        mon.step(1, &[20, 100, 500, 10]);
        assert_eq!(mon.topk(), vec![NodeId(1), NodeId(2)]);
        // And the tracker reflects a fresh epoch.
        assert!(mon.coordinator().tracker().is_some());
    }

    #[test]
    fn degenerate_k_equals_n_never_communicates() {
        let cfg = MonitorConfig::new(3, 3);
        let mut mon = TopkMonitor::new(cfg, 1);
        for t in 0..50 {
            mon.step(t, &[t, 2 * t + 1, 100 - t]);
        }
        assert_eq!(mon.ledger().total(), 0);
        assert_eq!(mon.topk(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn single_node_k1() {
        let cfg = MonitorConfig::new(1, 1);
        let mut mon = TopkMonitor::new(cfg, 1);
        for t in 0..20 {
            mon.step(t, &[t * 17]);
        }
        assert_eq!(mon.ledger().total(), 0);
        assert_eq!(mon.topk(), vec![NodeId(0)]);
    }

    #[test]
    fn engine_names_are_pinned() {
        // Sim tables and the sparse-equivalence suite key on these names.
        let cfg = MonitorConfig::new(4, 2);
        assert_eq!(TopkMonitor::new(cfg, 1).name(), "topk-filter");
        let socket = crate::SocketTopkMonitor::new(cfg, 1);
        assert_eq!(socket.name(), "topk-filter-socket");
    }

    #[test]
    fn run_monitor_helper_drives_feed() {
        use topk_net::trace::{TraceMatrix, TraceReplay};
        let trace = TraceMatrix::from_rows(&[vec![1, 5, 3], vec![2, 6, 3], vec![9, 6, 3]]);
        let mut feed = TraceReplay::new(trace);
        let mut mon = TopkMonitor::new(MonitorConfig::new(3, 1), 5);
        let delta = run_monitor(&mut mon, &mut feed, 3);
        assert!(delta.total() > 0);
        assert_eq!(mon.topk(), vec![NodeId(0)]);
    }
}
