//! [`ClusterTopkMonitor`] — Algorithm 1 on a transport engine: the node
//! machines live behind a [`Transport`] (OS threads, or socket shards), the
//! coordinator is driven from the caller's thread by the one step driver,
//! [`topk_net::driver::Cluster`].
//!
//! Same [`Monitor`] contract as [`TopkMonitor`], same ledgers, same answers
//! — the engines are bit-identical for equal `(cfg, seed)` and inputs
//! (pinned by `tests/runtime_conformance.rs`). The transport-specific
//! names are aliases: [`crate::threaded::ThreadedTopkMonitor`] and
//! [`crate::socket::SocketTopkMonitor`].

use topk_net::behavior::CoordinatorBehavior;
use topk_net::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError};
use topk_net::driver::{Cluster, Transport};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};

use crate::config::MonitorConfig;
use crate::coordinator::CoordinatorMachine;
use crate::events::{EventCursor, TopkEvent};
use crate::metrics::RunMetrics;
use crate::monitor::{Monitor, TopkMonitor};
use crate::node::NodeMachine;
use crate::session::{Engine, EngineOps};

/// A transport that can carry Algorithm 1, with its engine identity.
pub trait ClusterTransport: Transport<NodeMachine, Frame: Send> + Send + 'static {
    /// The [`Engine`] this transport implements.
    const ENGINE: Engine;
    /// The [`Monitor::name`] of monitors on this transport.
    const NAME: &'static str;
}

/// Algorithm 1 on a transport engine — a [`Monitor`] whose nodes live
/// behind transport `T`.
///
/// This is the *engine* type; new code should usually build a
/// [`crate::session::MonitorSession`] with the matching [`Engine`] instead
/// of constructing it directly.
pub struct ClusterTopkMonitor<T: Transport<NodeMachine>> {
    pub(crate) cluster: Cluster<NodeMachine, T>,
    coord: CoordinatorMachine,
    cfg: MonitorConfig,
    events: EventCursor,
}

impl<T: ClusterTransport> ClusterTopkMonitor<T> {
    /// Start the node endpoints. Seeds and behaviors match
    /// [`TopkMonitor::new`] exactly, so the monitors are interchangeable
    /// twins.
    pub fn new(cfg: MonitorConfig, seed: u64) -> Self {
        Self::start(cfg, seed, None)
    }

    /// The same monitor behind a chaos-injecting transport: every frame and
    /// reply crosses a seeded fault layer (see [`ChaosPolicy`]; the socket
    /// engine adds the wire classes of [`topk_net::WireChaos`]). Every
    /// *committed* step produces answers, thresholds and events identical
    /// to the fault-free twin (pinned by the chaos arms of
    /// `tests/runtime_conformance.rs`); only the recovery counters and the
    /// retransmit channels record that faults happened.
    pub fn new_chaotic(cfg: MonitorConfig, seed: u64, policy: ChaosPolicy) -> Self {
        Self::start(cfg, seed, Some(policy))
    }

    pub(crate) fn start(cfg: MonitorConfig, seed: u64, chaos: Option<ChaosPolicy>) -> Self {
        let (nodes, coord) = TopkMonitor::make_parts(cfg, seed);
        let cluster = match chaos {
            Some(policy) => Cluster::spawn_chaotic(nodes, policy),
            None => Cluster::spawn(nodes),
        };
        Self::from_cluster(cluster, coord, cfg)
    }
}

impl<T: Transport<NodeMachine>> ClusterTopkMonitor<T> {
    pub(crate) fn from_cluster(
        cluster: Cluster<NodeMachine, T>,
        coord: CoordinatorMachine,
        cfg: MonitorConfig,
    ) -> Self {
        ClusterTopkMonitor {
            cluster,
            coord,
            cfg,
            events: EventCursor::default(),
        }
    }

    /// The coordinator (tracker/threshold accessors for tests and tools).
    pub fn coordinator(&self) -> &CoordinatorMachine {
        &self.coord
    }

    /// Fault-injection and recovery counters (all zero without a
    /// [`ChaosPolicy`]). Mirrored into [`RunMetrics::recovery`] at each
    /// committed step.
    pub fn recovery(&self) -> &RecoveryMetrics {
        self.cluster.recovery()
    }

    /// Fallible form of [`Monitor::step`]: a transport failure the recovery
    /// layer cannot mask (a dead endpoint, retries exhausted) surfaces as a
    /// typed [`RuntimeError`] instead of a panic.
    pub fn try_step(&mut self, t: u64, values: &[Value]) -> Result<(), RuntimeError> {
        self.cluster.try_step(&mut self.coord, t, values)
    }

    /// Fallible form of [`Monitor::step_sparse`].
    pub fn try_step_sparse(
        &mut self,
        t: u64,
        changes: &[(NodeId, Value)],
    ) -> Result<(), RuntimeError> {
        self.cluster.try_step_sparse(&mut self.coord, t, changes)
    }

    /// Phase-attributed event counters of the coordinator — same accessor
    /// surface as [`TopkMonitor::metrics`].
    pub fn metrics(&self) -> &RunMetrics {
        self.coord.metrics()
    }

    /// Coordinator micro-rounds executed so far (all phases) — counted
    /// identically to [`TopkMonitor::micro_rounds_run`].
    pub fn micro_rounds_run(&self) -> u64 {
        self.cluster.micro_rounds_run()
    }

    /// Steps that exchanged no message and ran no micro-round.
    pub fn silent_steps(&self) -> u64 {
        self.cluster.silent_steps()
    }

    /// Transport-level synchronization frames sent so far (excluded from
    /// model cost), charged at dispatch intent: `#changed + #engaged` per
    /// silent step, identical on every transport.
    pub fn sync_frames(&self) -> u64 {
        self.cluster.ledger().sync_frames()
    }

    /// The configuration this monitor runs.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Shut down the endpoints and return the final node state machines
    /// (for state-equality assertions against a sequential twin).
    pub fn shutdown(self) -> Vec<NodeMachine> {
        self.cluster.shutdown()
    }
}

impl<T: ClusterTransport> Monitor for ClusterTopkMonitor<T> {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn step(&mut self, t: u64, values: &[Value]) {
        self.cluster.step(&mut self.coord, t, values);
    }

    fn step_sparse(&mut self, t: u64, changes: &[(NodeId, Value)]) {
        self.cluster.step_sparse(&mut self.coord, t, changes);
    }

    fn topk(&self) -> Vec<NodeId> {
        self.coord.topk().to_vec()
    }

    fn ledger(&self) -> LedgerSnapshot {
        self.cluster.ledger().snapshot()
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

impl<T: ClusterTransport> EngineOps for ClusterTopkMonitor<T> {
    fn kind(&self) -> Engine {
        T::ENGINE
    }

    fn coordinator(&self) -> &CoordinatorMachine {
        &self.coord
    }

    fn silent_steps(&self) -> u64 {
        self.cluster.silent_steps()
    }

    fn micro_rounds_run(&self) -> u64 {
        self.cluster.micro_rounds_run()
    }

    fn recovery(&self) -> Option<&RecoveryMetrics> {
        Some(self.cluster.recovery())
    }

    fn wire(&self) -> Option<&WireMetrics> {
        self.cluster.transport().wire()
    }

    fn sync_frames(&self) -> Option<u64> {
        Some(self.cluster.ledger().sync_frames())
    }
}
