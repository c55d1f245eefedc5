//! Seeded fault injection for the socket runtime — the chaos half of the
//! transport's recovery story (the recovery half is the step driver,
//! [`crate::driver::Cluster`]).
//!
//! The paper's model assumes a *perfect* synchronous transport: every frame
//! delivered exactly once, instantly. A [`ChaosPolicy`] breaks that promise
//! on purpose — dropping, duplicating, delaying (and thereby reordering)
//! frames, dropping replies, stalling node shards past the reply deadline,
//! and crash-restarting the coordinator mid-step — so the recovery
//! machinery (reply deadlines with bounded retry, idempotent `(t, run, m)`
//! frame re-delivery, whole-step re-run, coordinator snapshot/restore) can
//! be exercised and pinned.
//!
//! The same policy additionally drives a [`WireChaos`] layer that attacks
//! the TCP connection itself: torn
//! (truncated) frames, mid-stream connection resets, half-open connections
//! (frame delivered, connection severed before the reply can travel), and
//! reconnect storms (spurious extra connections raced against the real
//! re-handshake). Recovery rides the same semantics — severed shards
//! re-connect and re-handshake via `Hello`, re-delivered frames dedup on
//! the `(t, run, m)` key, and the committed outcome stays bit-identical.
//!
//! Faults are **seeded and deterministic**: every decision is a pure
//! function of `(policy seed, fault class, t, run, m, node)`, computed as
//! one draw from a [`CounterRng`] substream. The driver rolls once per
//! endpoint and wave, with the endpoint's first node as `node`, so on the
//! socket runtime faults roll per shard. The schedule therefore does not
//! depend on thread timing, and two runs with the same policy inject
//! the same faults at the same frame coordinates (wall-clock-dependent
//! *recovery* counters — retries, redelivered frames — may still differ,
//! which is why tests pin injected-fault counters and committed outcomes,
//! not retry counts).
//!
//! Faults apply only to a frame's *first* delivery; retransmissions and the
//! abort/ack control plane are clean, so a policy below the
//! stall-everything threshold always makes progress. The safety argument
//! for re-running work is the paper's own: protocol rounds are Las Vegas,
//! so a re-run consumes a fresh RNG segment but lands on the same (exact)
//! extrema, winners, and thresholds — see the chaos arms of
//! `tests/runtime_conformance.rs`.

use serde::{Deserialize, Serialize};

use crate::id::NodeId;
use crate::rng::{derive_seed, CounterRng};
use rand_chacha::rand_core::RngCore;

// Fault classes — independent decision substreams of the policy seed.
const CLASS_DROP: u64 = 1;
const CLASS_DUP: u64 = 2;
const CLASS_DELAY: u64 = 3;
const CLASS_STALL: u64 = 4;
const CLASS_REPLY_DROP: u64 = 5;
const CLASS_CRASH: u64 = 6;
// Wire-level classes (attack the socket connection itself).
const CLASS_TORN: u64 = 7;
const CLASS_RESET: u64 = 8;
const CLASS_HALF_OPEN: u64 = 9;
const CLASS_STORM: u64 = 10;

/// The coordinator "node" index for crash decisions (no real node owns it).
const COORD: u32 = u32::MAX;

/// A seeded, deterministic fault-injection schedule for the socket
/// runtime. All rates are per-mille per frame (or per coordinator round for
/// [`ChaosPolicy::crash_coordinator`]); `0` disables the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPolicy {
    /// Master seed of the fault schedule.
    pub seed: u64,
    /// P(drop a frame's first delivery) — recovered by deadline + resend.
    pub drop_permille: u16,
    /// P(deliver a frame twice) — the duplicate is deduped by the node.
    pub dup_permille: u16,
    /// P(hold a frame back past its wave) — the late copy arrives after
    /// newer-keyed frames (reorder) and is deduped; the wave recovers by
    /// resend.
    pub delay_permille: u16,
    /// P(node shard stalls [`ChaosPolicy::stall_ms`] before processing).
    pub stall_permille: u16,
    /// P(a node's reply is lost on the driver side).
    pub reply_drop_permille: u16,
    /// P(coordinator crash before delivering a micro-round) — recovered by
    /// snapshot restore + whole-step re-run.
    pub restart_permille: u16,
    /// P(a frame's first delivery is torn mid-write: the wire carries a
    /// truncated copy and the connection is severed). Socket runtime only.
    pub torn_permille: u16,
    /// P(the connection is reset before a frame's first delivery — the
    /// frame never reaches the wire). Socket runtime only.
    pub reset_permille: u16,
    /// P(half-open fault: the frame is delivered in full but the
    /// connection is severed before the reply can travel back). Socket
    /// runtime only.
    pub half_open_permille: u16,
    /// P(a severed shard's re-handshake is raced by a reconnect storm of
    /// spurious extra connections, accepted and immediately closed).
    /// Conditional on a sever having fired for the frame. Socket runtime
    /// only.
    pub storm_permille: u16,
    /// How long an injected stall sleeps.
    pub stall_ms: u32,
    /// Reply deadline before the driver retries a wave.
    pub deadline_ms: u64,
    /// Maximum retry cycles per wave before [`RuntimeError::ReplyTimeout`].
    pub max_retries: u32,
    /// Maximum injected coordinator restarts within one time step.
    pub max_restarts_per_step: u32,
}

impl ChaosPolicy {
    /// A moderate all-faults-enabled policy: every fault class fires often
    /// enough to be exercised by a few hundred steps, yet far below the
    /// stall-everything threshold (recovery always converges within the
    /// retry budget).
    pub fn from_seed(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            drop_permille: 30,
            dup_permille: 30,
            delay_permille: 20,
            stall_permille: 12,
            reply_drop_permille: 20,
            restart_permille: 15,
            torn_permille: 10,
            reset_permille: 10,
            half_open_permille: 8,
            storm_permille: 250,
            stall_ms: 20,
            deadline_ms: 40,
            max_retries: 25,
            max_restarts_per_step: 3,
        }
    }

    /// A policy that injects nothing (useful as a twin baseline: same code
    /// paths, zero faults).
    pub fn quiet(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            delay_permille: 0,
            stall_permille: 0,
            reply_drop_permille: 0,
            restart_permille: 0,
            torn_permille: 0,
            reset_permille: 0,
            half_open_permille: 0,
            storm_permille: 0,
            stall_ms: 0,
            deadline_ms: 200,
            max_retries: 25,
            max_restarts_per_step: 0,
        }
    }

    /// Override the per-class rates (builder style).
    pub fn with_rates(
        mut self,
        drop: u16,
        dup: u16,
        delay: u16,
        stall: u16,
        reply_drop: u16,
        restart: u16,
    ) -> Self {
        self.drop_permille = drop;
        self.dup_permille = dup;
        self.delay_permille = delay;
        self.stall_permille = stall;
        self.reply_drop_permille = reply_drop;
        self.restart_permille = restart;
        self
    }

    /// Override the wire-fault rates (builder style).
    pub fn with_wire_rates(mut self, torn: u16, reset: u16, half_open: u16, storm: u16) -> Self {
        self.torn_permille = torn;
        self.reset_permille = reset;
        self.half_open_permille = half_open;
        self.storm_permille = storm;
        self
    }

    /// Override the timing knobs (builder style).
    pub fn with_timing(mut self, stall_ms: u32, deadline_ms: u64, max_retries: u32) -> Self {
        self.stall_ms = stall_ms;
        self.deadline_ms = deadline_ms;
        self.max_retries = max_retries;
        self
    }

    /// One deterministic per-mille trial of `class` at frame coordinates
    /// `(t, run, m, node)` — a single [`CounterRng`] draw, independent of
    /// call order.
    #[inline]
    fn roll(&self, class: u64, t: u64, run: u32, m: u32, node: u32, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        let coord = t ^ ((run as u64) << 52) ^ ((m as u64) << 34) ^ ((node as u64) << 2);
        let mut rng = CounterRng::substream(derive_seed(self.seed, class), coord);
        rng.next_u64() % 1000 < permille as u64
    }

    /// Should this frame's first delivery be dropped?
    pub fn drop_frame(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.roll(CLASS_DROP, t, run, m, node, self.drop_permille)
    }

    /// Should this frame be delivered twice?
    pub fn duplicate_frame(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.roll(CLASS_DUP, t, run, m, node, self.dup_permille)
    }

    /// Should this frame be held back past its wave (delay + reorder)?
    pub fn delay_frame(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.roll(CLASS_DELAY, t, run, m, node, self.delay_permille)
    }

    /// Should the node stall before processing this frame?
    pub fn stall_frame(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.roll(CLASS_STALL, t, run, m, node, self.stall_permille)
    }

    /// Should this node's reply to phase `m` be lost?
    pub fn drop_reply(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.roll(CLASS_REPLY_DROP, t, run, m, node, self.reply_drop_permille)
    }

    /// Should the coordinator crash before delivering round `m`?
    pub fn crash_coordinator(&self, t: u64, run: u32, m: u32) -> bool {
        self.roll(CLASS_CRASH, t, run, m, COORD, self.restart_permille)
    }
}

/// Wire-level fault decisions for the socket runtime, seeded from the same
/// [`ChaosPolicy`] counter-RNG substreams as the in-process classes — the
/// fault pattern on the wire is a pure function of the policy seed and the
/// frame coordinates `(t, run, m, node)`, independent of thread timing.
///
/// The four classes attack `write_frame`/`read_frame` in
/// [`crate::socket`]: a **torn frame** puts a truncated copy on the wire
/// and severs the connection (the shard's `read_frame` sees
/// `WireError::TruncatedFrame`/EOF), a **connection reset** severs before
/// the frame is written (the frame is simply lost), a **half-open** fault
/// delivers the frame in full but severs before the reply can travel, and
/// a **reconnect storm** races the shard's re-handshake with spurious
/// extra connections that are accepted and immediately shut down. All four
/// recover through reconnect + `Hello` re-handshake + `(t, run, m)`-keyed
/// re-delivery; faulty traffic is charged to
/// [`ChannelKind::Retransmit`](crate::ledger::ChannelKind::Retransmit).
#[derive(Debug, Clone, Copy)]
pub struct WireChaos {
    policy: ChaosPolicy,
}

impl WireChaos {
    /// Wrap a policy; decisions delegate to its seed's wire substreams.
    pub fn new(policy: ChaosPolicy) -> Self {
        WireChaos { policy }
    }

    /// True when every wire-fault class is disabled.
    pub fn is_quiet(&self) -> bool {
        self.policy.torn_permille == 0
            && self.policy.reset_permille == 0
            && self.policy.half_open_permille == 0
    }

    /// Should this frame's first delivery be torn mid-write (truncated
    /// bytes on the wire, then a sever)?
    pub fn torn_frame(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.policy
            .roll(CLASS_TORN, t, run, m, node, self.policy.torn_permille)
    }

    /// Should the connection be reset before this frame is written?
    pub fn conn_reset(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.policy
            .roll(CLASS_RESET, t, run, m, node, self.policy.reset_permille)
    }

    /// Should the connection go half-open after this frame (delivered in
    /// full, severed before the reply)?
    pub fn half_open(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.policy.roll(
            CLASS_HALF_OPEN,
            t,
            run,
            m,
            node,
            self.policy.half_open_permille,
        )
    }

    /// Should the sever fired at these coordinates be followed by a
    /// reconnect storm (spurious extra connections raced against the real
    /// re-handshake)?
    pub fn reconnect_storm(&self, t: u64, run: u32, m: u32, node: u32) -> bool {
        self.policy
            .roll(CLASS_STORM, t, run, m, node, self.policy.storm_permille)
    }
}

/// Counters of injected faults and of the recovery work they caused.
///
/// Injected-fault counters are deterministic functions of the policy seed
/// and the run's frame schedule; recovery counters (`retries`,
/// `redelivered_frames`, `stale_replies`, `recovery_nanos`) additionally
/// depend on wall-clock timing and may vary between identical runs. The
/// block flows into `RunMetrics` (and from there into
/// `MonitorSession::metrics`) via
/// [`CoordinatorBehavior::note_recovery`](crate::behavior::CoordinatorBehavior::note_recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryMetrics {
    /// Frames whose first delivery was suppressed.
    pub injected_drops: u64,
    /// Frames delivered twice on purpose.
    pub injected_dups: u64,
    /// Frames held back past their wave (delay + reorder).
    pub injected_delays: u64,
    /// Frames processed only after an injected node stall.
    pub injected_stalls: u64,
    /// Node replies lost on the driver side.
    pub injected_reply_drops: u64,
    /// Injected coordinator crash-restarts.
    pub restarts: u64,
    /// Frames torn mid-write on the wire (truncated bytes + sever).
    pub injected_torn_frames: u64,
    /// Connections reset before a frame's first delivery.
    pub injected_conn_resets: u64,
    /// Half-open faults (frame delivered, connection severed before the
    /// reply).
    pub injected_half_opens: u64,
    /// Reconnect storms raced against shard re-handshakes.
    pub injected_storms: u64,
    /// Successful shard re-handshakes after a sever (real reconnects plus
    /// storm connections accepted and discarded).
    pub reconnects: u64,
    /// Deadline-triggered wave retry cycles.
    pub retries: u64,
    /// Frames re-sent by retry cycles.
    pub redelivered_frames: u64,
    /// Replies discarded as stale or duplicate (dedup hits).
    pub stale_replies: u64,
    /// Coordinator micro-rounds discarded and re-run after restarts.
    pub rerun_rounds: u64,
    /// Wall-clock nanoseconds spent inside restart recovery.
    pub recovery_nanos: u64,
}

impl RecoveryMetrics {
    /// Counter-wise accumulate `other` into `self` — the aggregation step
    /// of the sharded serving layer (`topk-serve` sums its shards'
    /// recovery counters into one service-level block).
    pub fn absorb(&mut self, other: &RecoveryMetrics) {
        self.injected_drops += other.injected_drops;
        self.injected_dups += other.injected_dups;
        self.injected_delays += other.injected_delays;
        self.injected_stalls += other.injected_stalls;
        self.injected_reply_drops += other.injected_reply_drops;
        self.restarts += other.restarts;
        self.injected_torn_frames += other.injected_torn_frames;
        self.injected_conn_resets += other.injected_conn_resets;
        self.injected_half_opens += other.injected_half_opens;
        self.injected_storms += other.injected_storms;
        self.reconnects += other.reconnects;
        self.retries += other.retries;
        self.redelivered_frames += other.redelivered_frames;
        self.stale_replies += other.stale_replies;
        self.rerun_rounds += other.rerun_rounds;
        self.recovery_nanos += other.recovery_nanos;
    }

    /// Total injected faults of every class (in-process and wire).
    pub fn injected_total(&self) -> u64 {
        self.injected_drops
            + self.injected_dups
            + self.injected_delays
            + self.injected_stalls
            + self.injected_reply_drops
            + self.restarts
            + self.injected_torn_frames
            + self.injected_conn_resets
            + self.injected_half_opens
            + self.injected_storms
    }
}

/// Typed failure of the socket runtime (a dead node shard, a reply
/// deadline exhausted beyond the retry budget, a failed restart, or a
/// broken socket transport) — surfaced instead of an `unwrap` panic or a
/// hung `recv` in the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A node shard died (its thread panicked or its connection closed).
    /// `id` is the shard's first node, not necessarily the node that
    /// failed.
    NodeDown { id: NodeId },
    /// A wave could not complete within the retry budget.
    ReplyTimeout { t: u64, m: u32, waiting: usize },
    /// Coordinator snapshot restore failed during crash recovery.
    RecoveryFailed { reason: &'static str },
    /// The socket transport failed outside any single node's fault domain
    /// (listener setup, accept, handshake, or reconnect).
    Transport { what: String },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NodeDown { id } => {
                write!(f, "the node shard whose first node is {id} is down")
            }
            RuntimeError::ReplyTimeout { t, m, waiting } => write!(
                f,
                "reply deadline exhausted at t={t} phase {m} ({waiting} nodes unresponsive)"
            ),
            RuntimeError::RecoveryFailed { reason } => {
                write!(f, "coordinator recovery failed: {reason}")
            }
            RuntimeError::Transport { what } => {
                write!(f, "socket transport failed: {what}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_deterministic_and_seed_separated() {
        let a = ChaosPolicy::from_seed(7);
        let b = ChaosPolicy::from_seed(8);
        let mut diverged = false;
        for t in 0..200u64 {
            for node in 0..8u32 {
                assert_eq!(
                    a.drop_frame(t, 0, 1, node),
                    a.drop_frame(t, 0, 1, node),
                    "same coordinates must reproduce"
                );
                diverged |= a.drop_frame(t, 0, 1, node) != b.drop_frame(t, 0, 1, node);
            }
        }
        assert!(diverged, "distinct seeds must produce distinct schedules");
    }

    #[test]
    fn rates_roughly_match_permille() {
        let p = ChaosPolicy::quiet(3).with_rates(100, 0, 0, 0, 0, 0);
        let trials = 20_000u64;
        let hits = (0..trials).filter(|&t| p.drop_frame(t, 0, 1, 0)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.1).abs() < 0.02, "drop rate {rate} ≉ 0.1");
    }

    #[test]
    fn classes_are_independent_substreams() {
        let p = ChaosPolicy::from_seed(11).with_rates(500, 500, 0, 0, 0, 0);
        let mut differ = false;
        for t in 0..64u64 {
            differ |= p.drop_frame(t, 0, 1, 2) != p.duplicate_frame(t, 0, 1, 2);
        }
        assert!(differ, "fault classes must not share one coin");
    }

    #[test]
    fn quiet_policy_injects_nothing() {
        let p = ChaosPolicy::quiet(5);
        for t in 0..100u64 {
            assert!(!p.drop_frame(t, 0, 1, 0));
            assert!(!p.crash_coordinator(t, 0, 1));
        }
    }

    #[test]
    fn recovery_metrics_total() {
        let r = RecoveryMetrics {
            injected_drops: 1,
            injected_dups: 2,
            injected_delays: 3,
            injected_stalls: 4,
            injected_reply_drops: 5,
            restarts: 6,
            ..Default::default()
        };
        assert_eq!(r.injected_total(), 21);
    }

    #[test]
    fn wire_classes_are_deterministic_and_independent() {
        let w = WireChaos::new(ChaosPolicy::from_seed(13).with_wire_rates(400, 400, 400, 400));
        let mut differ = false;
        for t in 0..64u64 {
            assert_eq!(
                w.torn_frame(t, 1, 2, 3),
                w.torn_frame(t, 1, 2, 3),
                "same coordinates must reproduce"
            );
            differ |= w.torn_frame(t, 1, 2, 3) != w.conn_reset(t, 1, 2, 3);
            differ |= w.half_open(t, 1, 2, 3) != w.reconnect_storm(t, 1, 2, 3);
        }
        assert!(differ, "wire classes must not share one coin");
    }

    #[test]
    fn quiet_wire_chaos_injects_nothing() {
        let w = WireChaos::new(ChaosPolicy::quiet(9));
        assert!(w.is_quiet());
        for t in 0..100u64 {
            assert!(!w.torn_frame(t, 0, 1, 0));
            assert!(!w.conn_reset(t, 0, 1, 0));
            assert!(!w.half_open(t, 0, 1, 0));
            assert!(!w.reconnect_storm(t, 0, 1, 0));
        }
    }

    #[test]
    fn runtime_error_displays() {
        let e = RuntimeError::NodeDown { id: NodeId(3) };
        assert_eq!(
            e.to_string(),
            "the node shard whose first node is n3 is down"
        );
        let e = RuntimeError::ReplyTimeout {
            t: 7,
            m: 2,
            waiting: 1,
        };
        assert!(e.to_string().contains("t=7 phase 2"), "{e}");
        let e = RuntimeError::RecoveryFailed {
            reason: "no snapshot",
        };
        assert!(e.to_string().contains("no snapshot"), "{e}");
        let e = RuntimeError::Transport {
            what: "accept".into(),
        };
        assert!(e.to_string().contains("accept"), "{e}");
    }
}
