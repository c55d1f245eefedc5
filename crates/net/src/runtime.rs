//! The step surface every engine implements.
//!
//! In the paper's model the coordinator and the `n` nodes are fixed state
//! machines and whatever carries their messages is a parameter. A
//! [`Runtime`] is that parameter: it owns the node behaviors and borrows
//! the coordinator for each step, so one monitor type can hold the
//! coordinator and run it on any engine — the direct-call
//! [`crate::seq::SyncRuntime`] or the transport driver
//! [`crate::driver::Cluster`]. The trait is object safe; a monitor that
//! picks its engine at run time holds a `dyn Runtime<CB>`, and everything
//! inside a step stays statically dispatched.

use crate::chaos::{RecoveryMetrics, RuntimeError};
use crate::id::{NodeId, Value};
use crate::ledger::{CommLedger, WireMetrics};

/// One engine's step surface over coordinator type `CB`.
pub trait Runtime<CB> {
    /// Execute one synchronous time step against `coord`, one observation
    /// per node. Behaviors that opt into
    /// [`crate::behavior::NodeBehavior::SPARSE_OBSERVE`] are diffed against
    /// the runtime's cached row, so only changed ∪ engaged nodes are
    /// visited. A transport failure the runtime cannot mask surfaces as a
    /// typed [`RuntimeError`]; the in-process runtime never fails. `t`
    /// must increase strictly from step to step: a transport keys every
    /// frame by `(t, run, m)`, and a node ignores a key older than the
    /// last one it answered and answers that one again from its cache.
    fn try_step(&mut self, coord: &mut CB, t: u64, values: &[Value]) -> Result<(), RuntimeError>;

    /// Execute one step given only the values that changed since `t − 1`
    /// (ascending ids, at most one entry per node; repeating an unchanged
    /// value is permitted and costs nothing). Requires `SPARSE_OBSERVE`.
    /// The first step must carry all `n` nodes. Bit-identical to
    /// [`Runtime::try_step`] driven with the corresponding full rows;
    /// validation and the node-phase-0 walk live in
    /// [`crate::delta::DeltaRow`].
    fn try_step_sparse(
        &mut self,
        coord: &mut CB,
        t: u64,
        changes: &[(NodeId, Value)],
    ) -> Result<(), RuntimeError>;

    /// Panicking form of [`Runtime::try_step`].
    fn step(&mut self, coord: &mut CB, t: u64, values: &[Value]) {
        if let Err(e) = self.try_step(coord, t, values) {
            panic!("runtime failed at t={t}: {e}");
        }
    }

    /// Panicking form of [`Runtime::try_step_sparse`].
    fn step_sparse(&mut self, coord: &mut CB, t: u64, changes: &[(NodeId, Value)]) {
        if let Err(e) = self.try_step_sparse(coord, t, changes) {
            panic!("runtime failed at t={t}: {e}");
        }
    }

    /// The value row the runtime caches for
    /// [`crate::behavior::NodeBehavior::SPARSE_OBSERVE`] behaviors: entry
    /// `i` is the value node `i` last observed, so after a step it is that
    /// step's full row, and before the first step it is all zero. Behaviors
    /// without `SPARSE_OBSERVE` keep no row, and it is empty.
    fn row(&self) -> &[Value];

    /// The model ledger: every message charged so far.
    fn ledger(&self) -> &CommLedger;

    /// Steps that exchanged no message and ran no micro-round.
    fn silent_steps(&self) -> u64;

    /// Coordinator micro-rounds driven so far, counted identically on
    /// every engine.
    fn micro_rounds_run(&self) -> u64;

    /// Fault-injection and recovery counters (`None` without a transport).
    fn recovery(&self) -> Option<&RecoveryMetrics> {
        None
    }

    /// The physical wire ledger (`None` without a wire).
    fn wire(&self) -> Option<&WireMetrics> {
        None
    }

    /// Transport sync frames, charged at dispatch intent (`None` without a
    /// transport).
    fn sync_frames(&self) -> Option<u64> {
        None
    }
}
