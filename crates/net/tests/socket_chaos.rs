//! Failure-path and chaos semantics of the socket runtime, pinned against
//! instrumented mock behaviors:
//!
//! * a shard thread that dies mid-step surfaces as a typed
//!   [`RuntimeError::NodeDown`] naming the shard's first node — never a
//!   hung receive, never a driver panic — on both the clean and the
//!   chaotic transport, and dropping the cluster afterwards still joins
//!   every surviving thread;
//! * a reply frame the driver cannot decode is a typed
//!   [`RuntimeError::Transport`] on the step it arrives;
//! * a poisoned capture-tap mutex (a panicking holder) is recovered instead
//!   of propagated, so byte capture keeps working after the panic;
//! * the idempotent re-delivery layer applies each frame's effects exactly
//!   once no matter how often the chaos layer duplicates or re-sends it,
//!   dropped frames and replies are recovered by retransmission without
//!   touching the model ledger, and a [`ChaosPolicy`]'s fault pattern is a
//!   pure function of its seed.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction};
use topk_net::chaos::{ChaosPolicy, RuntimeError};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::socket::SocketCluster;

use common::{with_watchdog, Msg, GARBLED};

/// Counting node with a panic trigger: tallies observe/micro-round side
/// effects in shared atomics (checkpoint clones share the counters —
/// effects are *external*, which is exactly what "applied exactly once"
/// must mean under re-delivery), reports every observation above
/// `threshold`, and panics its shard thread on an observation equal to
/// `poison` (`u64::MAX` = never).
#[derive(Clone)]
struct CountingNode {
    id: NodeId,
    threshold: Value,
    observes: Arc<AtomicU64>,
    polls: Arc<AtomicU64>,
    poison: Value,
}

impl NodeBehavior for CountingNode {
    type Up = Msg;
    type Down = Msg;

    const SPARSE_OBSERVE: bool = true;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
        assert_ne!(value, self.poison, "poisoned observation");
        self.observes.fetch_add(1, Ordering::Relaxed);
        if value > self.threshold {
            ObserveAction {
                up: Some(Msg(value)),
                engaged: false,
                wake_at: None,
            }
        } else {
            ObserveAction::idle()
        }
    }

    fn micro_round(
        &mut self,
        _t: u64,
        _m: u32,
        _bcasts: &[Msg],
        _ucast: Option<&Msg>,
    ) -> RoundAction<Msg> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        RoundAction::idle()
    }

    fn checkpoint(&self, slot: &mut Option<Self>) {
        *slot = Some(self.clone());
    }

    fn rollback(&mut self, at: &Self) {
        *self = at.clone();
    }
}

/// Coordinator that runs `rounds_per_step` silent micro-rounds whenever any
/// report arrived (and skips truly silent steps).
struct SinkCoord {
    rounds_per_step: u32,
    cur_round: u32,
}

impl SinkCoord {
    fn new(rounds_per_step: u32) -> Self {
        SinkCoord {
            rounds_per_step,
            cur_round: 0,
        }
    }
}

impl CoordinatorBehavior for SinkCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.cur_round = 0;
    }

    fn try_skip_silent_step(&mut self, _t: u64) -> bool {
        true
    }

    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Msg)>,
        _out: &mut CoordOut<Msg>,
    ) {
        ups.clear();
        self.cur_round = m + 1;
    }

    fn step_done(&self) -> bool {
        self.cur_round >= self.rounds_per_step
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

/// `n` counting nodes plus their per-node observe and poll tallies.
fn counting_nodes(
    n: usize,
    threshold: Value,
    poison: Value,
) -> (Vec<CountingNode>, Vec<Arc<AtomicU64>>, Vec<Arc<AtomicU64>>) {
    let observes: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let polls: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes = (0..n)
        .map(|i| CountingNode {
            id: NodeId(i as u32),
            threshold,
            observes: observes[i].clone(),
            polls: polls[i].clone(),
            poison,
        })
        .collect();
    (nodes, observes, polls)
}

/// The nodes of the failure-path tests: every value above 2 reports.
fn fragile_nodes(n: usize, poison: Value) -> Vec<CountingNode> {
    counting_nodes(n, 2, poison).0
}

fn tally(v: &[Arc<AtomicU64>]) -> Vec<u64> {
    v.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// Row `t` of the chaos tests: every node crosses the report threshold 60
/// on odd steps and falls back below it on even ones.
fn churn_row(n: usize, t: u64) -> Vec<Value> {
    (0..n as u64).map(|i| 10 + i + 100 * (t % 2)).collect()
}

/// A shard thread that panics mid-step surfaces as `Err(NodeDown)` on the
/// clean socket transport — a typed error, not a hung `recv_timeout` loop —
/// naming the dead shard by its first node, and dropping the cluster
/// afterwards joins every surviving shard thread instead of wedging on the
/// dead one.
#[test]
fn dead_shard_becomes_typed_error_and_drop_joins() {
    with_watchdog(60, || {
        // Eight nodes in four shards of two: node 7 lives in shard 3,
        // whose first node is 6.
        let mut cluster = SocketCluster::spawn(fragile_nodes(8, 666));
        assert_eq!(cluster.shards(), 4);
        let mut coord = SinkCoord::new(1);
        cluster
            .try_step(&mut coord, 0, &[1, 2, 3, 4, 5, 6, 7, 8])
            .expect("healthy step");

        // Only node 7 changes, so only shard 3 is framed — it dies before
        // replying and the reply wave times out onto the typed path.
        let err = cluster
            .try_step(&mut coord, 1, &[1, 2, 3, 4, 5, 6, 7, 666])
            .expect_err("node 7 panicked its shard");
        assert_eq!(err, RuntimeError::NodeDown { id: NodeId(6) });
        assert_eq!(
            err.to_string(),
            "the node shard whose first node is n6 is down"
        );

        // The dead shard must not wedge teardown: Drop halts survivors and
        // joins all handles, skipping the panicked one.
        drop(cluster);
    });
}

/// Same pin on the chaotic transport: the fault layer adds re-send
/// retries, but a shard whose thread is gone is still a typed `NodeDown`,
/// never an infinite retry loop.
#[test]
fn dead_shard_is_typed_error_under_chaos_too() {
    with_watchdog(60, || {
        let policy = ChaosPolicy::quiet(5);
        let mut cluster = SocketCluster::spawn_chaotic(fragile_nodes(4, 666), policy);
        let mut coord = SinkCoord::new(1);
        cluster
            .try_step(&mut coord, 0, &[1, 2, 3, 4])
            .expect("healthy step");

        let err = cluster
            .try_step(&mut coord, 1, &[1, 2, 3, 666])
            .expect_err("node 3 panicked its shard");
        assert_eq!(err, RuntimeError::NodeDown { id: NodeId(3) });
        drop(cluster);
    });
}

/// A node without a checkpoint: the default `checkpoint` leaves the slot
/// empty.
struct Plain(NodeId);

impl NodeBehavior for Plain {
    type Up = Msg;
    type Down = Msg;

    fn id(&self) -> NodeId {
        self.0
    }

    fn observe(&mut self, _t: u64, _value: Value) -> ObserveAction<Msg> {
        ObserveAction::idle()
    }

    fn micro_round(&mut self, _: u64, _: u32, _: &[Msg], _: Option<&Msg>) -> RoundAction<Msg> {
        RoundAction::idle()
    }
}

/// A fault schedule re-runs steps, and a re-run rolls the nodes back, so a
/// behavior that cannot be rolled back is refused before any shard starts.
#[test]
#[should_panic(expected = "chaos transport requires NodeBehavior::checkpoint support")]
fn chaos_refuses_a_behavior_without_a_checkpoint() {
    let nodes = (0..4).map(|i| Plain(NodeId(i))).collect();
    SocketCluster::spawn_chaotic(nodes, ChaosPolicy::quiet(5));
}

/// A reply frame the driver cannot decode — here a node's report whose
/// codec wrote an overlong varint — fails the step it arrives on with a
/// typed `Transport` error naming the shard, instead of leaving the driver
/// to wait out the idle timeout for a reply that was already read.
#[test]
fn undecodable_reply_is_a_typed_transport_error() {
    with_watchdog(5, || {
        let mut cluster = SocketCluster::spawn(fragile_nodes(4, u64::MAX));
        let mut coord = SinkCoord::new(1);
        cluster
            .try_step(&mut coord, 0, &[1, 2, 3, 4])
            .expect("healthy step");

        // Node 3 reports the garbled value; shard 3 answers with it.
        let err = cluster
            .try_step(&mut coord, 1, &[1, 2, 3, GARBLED])
            .expect_err("the reply frame cannot be decoded");
        let RuntimeError::Transport { what } = &err else {
            panic!("expected a transport error, got {err:?}");
        };
        assert!(
            what.contains("shard 3"),
            "the error names the shard: {what}"
        );
        drop(cluster);
    });
}

/// Regression for the tap-poisoning panic path: a thread that panics while
/// holding a capture-tap mutex must not take the driver down with it. The
/// driver's write and read taps both recover the poison (`into_inner`), so
/// stepping continues and `total_bytes` still sees every byte, including
/// those captured after the panic.
#[test]
fn poisoned_capture_tap_is_recovered_not_propagated() {
    with_watchdog(60, || {
        let mut cluster = SocketCluster::spawn_captured(fragile_nodes(4, u64::MAX));
        let mut coord = SinkCoord::new(1);
        cluster
            .try_step(&mut coord, 0, &[1, 2, 3, 4])
            .expect("healthy step");
        let taps = cluster.capture().expect("captured cluster has taps");
        let before = taps.total_bytes();
        assert!(before > 0, "the first step crossed the sockets");

        // Poison one tap in each direction: a panicking lock-holder leaves
        // PoisonError behind for every later lock().
        for tap in [&taps.to_shard[0], &taps.from_shard[0]] {
            let t = tap.clone();
            std::thread::spawn(move || {
                let _guard = t.lock().unwrap();
                panic!("poisoning the tap on purpose");
            })
            .join()
            .expect_err("the poisoner must panic");
        }

        // The driver keeps appending to both taps through the poison …
        cluster
            .try_step(&mut coord, 1, &[4, 3, 2, 1])
            .expect("stepping through a poisoned tap");
        // … and the accessor still reads every byte.
        let after = taps.total_bytes();
        assert!(
            after > before,
            "capture must keep growing after the poison ({before} → {after})"
        );
        drop(cluster);
    });
}

/// Under a duplicate-everything policy every shard frame crosses the wire
/// twice, yet the `(t, run, m)` idempotency key makes the second delivery a
/// strict no-op: per-node observe/poll tallies and the model ledger match a
/// fault-free twin exactly; only the `Retransmit` channel records the noise.
#[test]
fn duplicated_frames_apply_exactly_once() {
    with_watchdog(60, || {
        let n = 8;
        let dup_policy = ChaosPolicy::quiet(5).with_rates(0, 1000, 0, 0, 0, 0);
        let (nodes, c_obs, c_polls) = counting_nodes(n, 60, u64::MAX);
        let mut chaotic = SocketCluster::spawn_chaotic(nodes, dup_policy);
        let (nodes, f_obs, f_polls) = counting_nodes(n, 60, u64::MAX);
        let mut clean = SocketCluster::spawn(nodes);
        let (mut coord_a, mut coord_b) = (SinkCoord::new(2), SinkCoord::new(2));
        for t in 0..6u64 {
            let row = churn_row(n, t);
            chaotic.step(&mut coord_a, t, &row);
            clean.step(&mut coord_b, t, &row);
        }

        assert!(
            chaotic.recovery().injected_dups > 0,
            "a 100% dup rate must inject: {:?}",
            chaotic.recovery()
        );
        let (a, b) = (chaotic.ledger().snapshot(), clean.ledger().snapshot());
        assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
        assert_eq!(a.sync_frames, b.sync_frames, "dups are not model frames");
        assert_eq!(b.retransmit, 0);
        assert!(a.retransmit > 0, "dups are charged to Retransmit");

        drop(chaotic);
        drop(clean);
        assert_eq!(tally(&c_obs), tally(&f_obs), "observe effects exactly once");
        assert_eq!(
            tally(&c_polls),
            tally(&f_polls),
            "round effects exactly once"
        );
    });
}

/// Dropped frames and dropped replies are recovered by deadline-driven
/// retransmission: the committed model traffic still matches the fault-free
/// twin, and the recovery counters show both the faults and the cure.
#[test]
fn dropped_frames_recover_via_retransmission() {
    with_watchdog(60, || {
        let n = 6;
        let drop_policy = ChaosPolicy::quiet(11)
            .with_rates(250, 0, 0, 0, 250, 0)
            .with_timing(0, 25, 50);
        let mut chaotic =
            SocketCluster::spawn_chaotic(counting_nodes(n, 60, u64::MAX).0, drop_policy);
        let mut clean = SocketCluster::spawn(counting_nodes(n, 60, u64::MAX).0);
        let (mut coord_a, mut coord_b) = (SinkCoord::new(2), SinkCoord::new(2));
        for t in 0..8u64 {
            let row = churn_row(n, t);
            chaotic.step(&mut coord_a, t, &row);
            clean.step(&mut coord_b, t, &row);
        }
        let r = *chaotic.recovery();
        assert!(r.injected_drops > 0, "drops must occur: {r:?}");
        assert!(r.injected_reply_drops > 0, "reply drops must occur: {r:?}");
        assert!(r.retries > 0, "drops force deadline retries: {r:?}");
        assert!(r.redelivered_frames > 0, "retries resend pending frames");
        let (a, b) = (chaotic.ledger().snapshot(), clean.ledger().snapshot());
        assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
        assert_eq!(a.sync_frames, b.sync_frames, "intent-charged, drop or not");
        assert_eq!(a.total_bits(), b.total_bits());
    });
}

/// The fault schedule is a pure function of `(policy, coordinates)`: two
/// clusters under the same seeded policy inject the identical fault pattern,
/// wire classes included, and end with identical ledgers; a different seed
/// diverges.
#[test]
fn chaos_fault_pattern_is_seed_deterministic() {
    with_watchdog(60, || {
        let run = |seed: u64| {
            let policy = ChaosPolicy::from_seed(seed).with_rates(120, 120, 80, 0, 80, 0);
            let mut cluster =
                SocketCluster::spawn_chaotic(counting_nodes(6, 60, u64::MAX).0, policy);
            let mut coord = SinkCoord::new(2);
            for t in 0..10u64 {
                cluster.step(&mut coord, t, &churn_row(6, t));
            }
            let r = *cluster.recovery();
            let l = cluster.ledger().snapshot();
            // Injection counters are pure rolls; the model ledger is the
            // committed protocol. (Retry/retransmission counts depend on
            // wall-clock deadlines — not pinned here.)
            (
                (
                    r.injected_drops,
                    r.injected_dups,
                    r.injected_delays,
                    r.injected_reply_drops,
                    r.injected_torn_frames,
                    r.injected_conn_resets,
                    r.injected_half_opens,
                ),
                (l.up, l.down, l.broadcast, l.sync_frames, l.up_bits),
            )
        };
        let (r1, l1) = run(3);
        let (r2, l2) = run(3);
        assert_eq!(r1, r2, "same seed ⇒ same fault pattern");
        assert_eq!(l1, l2);
        let (r3, _) = run(4);
        assert_ne!(r1, r3, "different seed ⇒ different fault pattern");
    });
}
