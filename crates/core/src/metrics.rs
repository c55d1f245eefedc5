//! Event counters of one Algorithm 1 run, split by protocol phase.
//!
//! The coordinator counts every up-message it receives and every broadcast
//! it emits, attributed to the phase that caused it; tests assert the sums
//! equal the runtime ledger exactly (so the breakdown is complete, not
//! approximate). These counters feed experiment E12 (violations-per-epoch
//! vs the `log Δ` bound) and the message-breakdown tables.

use serde::{Deserialize, Serialize};
use topk_net::chaos::RecoveryMetrics;
use topk_net::ledger::WireMetrics;

/// Phase-attributed message and event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Time steps processed.
    pub steps: u64,
    /// Steps in which at least one violation report arrived.
    pub violation_steps: u64,
    /// Up-messages from violation-phase protocols (lines 5/7).
    pub viol_up: u64,
    /// Broadcast announcements of the violation-phase protocols.
    pub viol_bcast: u64,
    /// `FILTERVIOLATIONHANDLER` invocations.
    pub handler_calls: u64,
    /// Extra full-group protocols the handler ran (lines 23/25).
    pub handler_protocols: u64,
    /// Up-messages of those handler protocols.
    pub handler_up: u64,
    /// Broadcasts of those handler protocols (start + announcements).
    pub handler_bcast: u64,
    /// Successful midpoint updates (line 33).
    pub midpoint_updates: u64,
    /// Midpoint threshold broadcasts (== midpoint_updates).
    pub midpoint_bcast: u64,
    /// `FILTERRESET` executions, excluding the `t = 0` initialization.
    pub resets: u64,
    /// Up-messages inside resets (including initialization).
    pub reset_up: u64,
    /// Broadcasts inside resets: start, per-round announcements, winner
    /// announcements, final threshold (including initialization).
    pub reset_bcast: u64,
    /// Coordinator micro-rounds spent inside resets (including the round
    /// that broadcasts `ResetStart` and the `t = 0` initialization). This is
    /// the FILTERRESET *round* complexity — `⌈log₂(n/(k+1))⌉ + k + 3` per
    /// k-select reset, against the pseudocode's `(k+1)·(⌈log₂n⌉+1) + 1`
    /// for `k+1` sequential maximum searches — counted
    /// identically on every runtime (it lives in the coordinator, not the
    /// driver) and pinned by `crates/core/tests/reset_rounds.rs`.
    pub reset_rounds: u64,
    /// ε-band hits (approximate mode only): boundary crossings the
    /// coordinator absorbed by re-centering the epoch instead of running
    /// `FILTERRESET`. Each hit is exactly one avoided reset — the
    /// competitive-ratio accounting of the follow-up paper
    /// (arXiv 1601.04448): an exact twin on the same trace pays
    /// `Θ(reset)` messages wherever this counter pays one broadcast.
    /// Always zero in exact mode and at `ε = 0`.
    pub band_hits: u64,
    /// Band threshold broadcasts (== band_hits: every hit announces the
    /// re-centered boundary once, scoped like a midpoint update).
    pub band_bcast: u64,
    /// Transport fault-injection and recovery counters (all zero except on
    /// a chaos-enabled threaded runtime). Not part of the model cost and
    /// excluded from the phase totals; the committed protocol counters
    /// above stay comparable to a fault-free twin by zeroing this block
    /// (`RunMetrics { recovery: Default::default(), ..m }`).
    pub recovery: RecoveryMetrics,
    /// Physical wire ledger (all zero except on the socket runtime):
    /// frames and bytes actually written to the transport, per model
    /// channel plus totals. Like [`RunMetrics::recovery`] this describes
    /// the execution substrate, not the model cost — it is excluded from
    /// the snapshot codec and from the phase totals, and comparisons
    /// against an in-process twin zero it the same way
    /// (`RunMetrics { wire: Default::default(), ..m }`).
    pub wire: WireMetrics,
}

impl RunMetrics {
    /// Counter-wise accumulate `other` into `self`, including the embedded
    /// [`RecoveryMetrics`] and [`WireMetrics`] blocks — the aggregation
    /// step of the sharded serving layer: `topk-serve` folds its S shards'
    /// metrics into one service-level block with S calls. Every field is a
    /// pure sum, so `steps` becomes shard-steps (S × the wall-clock step
    /// count when every shard advances in lockstep); divide by the shard
    /// count for per-shard averages.
    pub fn absorb(&mut self, other: &RunMetrics) {
        self.steps += other.steps;
        self.violation_steps += other.violation_steps;
        self.viol_up += other.viol_up;
        self.viol_bcast += other.viol_bcast;
        self.handler_calls += other.handler_calls;
        self.handler_protocols += other.handler_protocols;
        self.handler_up += other.handler_up;
        self.handler_bcast += other.handler_bcast;
        self.midpoint_updates += other.midpoint_updates;
        self.midpoint_bcast += other.midpoint_bcast;
        self.resets += other.resets;
        self.reset_up += other.reset_up;
        self.reset_bcast += other.reset_bcast;
        self.reset_rounds += other.reset_rounds;
        self.band_hits += other.band_hits;
        self.band_bcast += other.band_bcast;
        self.recovery.absorb(&other.recovery);
        self.wire.absorb(&other.wire);
    }

    /// Total up-messages attributed across phases.
    pub fn total_up(&self) -> u64 {
        self.viol_up + self.handler_up + self.reset_up
    }

    /// Total broadcasts attributed across phases.
    pub fn total_bcast(&self) -> u64 {
        self.viol_bcast
            + self.handler_bcast
            + self.midpoint_bcast
            + self.band_bcast
            + self.reset_bcast
    }

    /// Resets the ε-band avoided: every band hit is a certified boundary
    /// crossing that this configuration answered with one broadcast where
    /// the exact rule fires `FILTERRESET` — the numerator side of the
    /// competitive comparison against an exact twin on the same trace.
    pub fn avoided_resets(&self) -> u64 {
        self.band_hits
    }

    /// Total model messages (Algorithm 1 sends no unicasts).
    pub fn total(&self) -> u64 {
        self.total_up() + self.total_bcast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_phases() {
        let m = RunMetrics {
            viol_up: 3,
            handler_up: 2,
            reset_up: 5,
            viol_bcast: 1,
            handler_bcast: 2,
            midpoint_bcast: 4,
            reset_bcast: 8,
            ..Default::default()
        };
        assert_eq!(m.total_up(), 10);
        assert_eq!(m.total_bcast(), 15);
        assert_eq!(m.total(), 25);
    }
}
