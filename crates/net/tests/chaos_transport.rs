//! Transport-level chaos semantics, pinned against instrumented mock
//! behaviors: a panicking node thread surfaces as a typed
//! [`RuntimeError::NodeDown`] (never a hang, never a poisoned join), the
//! idempotent re-delivery layer applies each frame's effects exactly once no
//! matter how often the chaos layer duplicates or re-sends it, dropped
//! frames are recovered by retransmission without touching the model
//! ledger, and a [`ChaosPolicy`]'s fault pattern is a pure function of its
//! seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction};
use topk_net::chaos::{ChaosPolicy, RuntimeError};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::threaded::ThreadedCluster;
use topk_net::wire::WireSize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg(u64);

impl WireSize for Msg {
    fn wire_bits(&self) -> u32 {
        16
    }
}

/// Counting node: tallies observe/micro-round side effects in shared
/// atomics (checkpoint clones share the counters — effects are *external*,
/// which is exactly what "applied exactly once" must mean under re-delivery)
/// and reports every observation above a threshold.
#[derive(Clone)]
struct CountingNode {
    id: NodeId,
    threshold: Value,
    observes: Arc<AtomicU64>,
    polls: Arc<AtomicU64>,
    /// Panic trigger for the typed-error test (`u64::MAX` = never).
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

    fn checkpoint(&self) -> Option<Self> {
        Some(self.clone())
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

fn spawn_counting(
    n: usize,
    threshold: Value,
    poison: Value,
    chaos: Option<ChaosPolicy>,
) -> (
    ThreadedCluster<CountingNode>,
    Vec<Arc<AtomicU64>>,
    Vec<Arc<AtomicU64>>,
) {
    let observes: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let polls: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes: Vec<_> = (0..n)
        .map(|i| CountingNode {
            id: NodeId(i as u32),
            threshold,
            observes: observes[i].clone(),
            polls: polls[i].clone(),
            poison,
        })
        .collect();
    let cluster = match chaos {
        Some(policy) => ThreadedCluster::spawn_chaotic(nodes, policy),
        None => ThreadedCluster::spawn(nodes),
    };
    (cluster, observes, polls)
}

/// A node thread that panics mid-step surfaces as `Err(NodeDown)` — a typed
/// error, not a driver panic and not a hung `recv` — and dropping the
/// cluster afterwards still joins every thread cleanly.
#[test]
fn panicking_node_becomes_typed_error_and_drop_joins() {
    let n = 4;
    let (mut cluster, _, _) = spawn_counting(n, u64::MAX, 666, None);
    let mut coord = SinkCoord {
        rounds_per_step: 1,
        cur_round: 0,
    };
    cluster
        .try_step(&mut coord, 0, &[1, 2, 3, 4])
        .expect("healthy step");

    let err = cluster
        .try_step(&mut coord, 1, &[1, 666, 3, 4])
        .expect_err("node 1 panicked");
    assert_eq!(err, RuntimeError::NodeDown { id: NodeId(1) });
    assert_eq!(err.to_string(), "node thread n1 is down");

    // The dead node must not wedge teardown: Drop sends Halt to survivors
    // and joins all handles, skipping the panicked one.
    drop(cluster);
}

/// Under a duplicate-everything policy every frame crosses the channel
/// twice, yet the `(t, run, m)` idempotency key makes the second delivery a
/// strict no-op: per-node observe/poll tallies and the model ledger match a
/// fault-free twin exactly; only the `Retransmit` channel records the noise.
#[test]
fn duplicated_frames_apply_exactly_once() {
    let n = 8;
    let steps: Vec<Vec<Value>> = (0..6u64)
        .map(|t| (0..n as u64).map(|i| 10 + i + 100 * (t % 2)).collect())
        .collect();

    let dup_policy = ChaosPolicy::quiet(5).with_rates(0, 1000, 0, 0, 0, 0);
    let (mut chaotic, c_obs, c_polls) = spawn_counting(n, 60, u64::MAX, Some(dup_policy));
    let (mut clean, f_obs, f_polls) = spawn_counting(n, 60, u64::MAX, None);
    let mut coord_a = SinkCoord {
        rounds_per_step: 2,
        cur_round: 0,
    };
    let mut coord_b = SinkCoord {
        rounds_per_step: 2,
        cur_round: 0,
    };
    for (t, row) in steps.iter().enumerate() {
        chaotic.step(&mut coord_a, t as u64, row);
        clean.step(&mut coord_b, t as u64, row);
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
    let tally = |v: &[Arc<AtomicU64>]| -> Vec<u64> {
        v.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    };
    assert_eq!(tally(&c_obs), tally(&f_obs), "observe effects exactly once");
    assert_eq!(
        tally(&c_polls),
        tally(&f_polls),
        "round effects exactly once"
    );
}

/// Dropped frames and dropped replies are recovered by deadline-driven
/// retransmission: the committed model traffic still matches the fault-free
/// twin, and the recovery counters show both the faults and the cure.
#[test]
fn dropped_frames_recover_via_retransmission() {
    let n = 6;
    let drop_policy = ChaosPolicy::quiet(11)
        .with_rates(250, 0, 0, 0, 250, 0)
        .with_timing(0, 25, 50);
    let (mut chaotic, _, _) = spawn_counting(n, 60, u64::MAX, Some(drop_policy));
    let (mut clean, _, _) = spawn_counting(n, 60, u64::MAX, None);
    let mut coord_a = SinkCoord {
        rounds_per_step: 2,
        cur_round: 0,
    };
    let mut coord_b = SinkCoord {
        rounds_per_step: 2,
        cur_round: 0,
    };
    for t in 0..8u64 {
        let row: Vec<Value> = (0..n as u64).map(|i| 10 + i + 100 * (t % 2)).collect();
        chaotic.step(&mut coord_a, t, &row);
        clean.step(&mut coord_b, t, &row);
    }
    let r = *chaotic.recovery();
    assert!(r.injected_drops > 0, "drops must occur: {r:?}");
    assert!(r.retries > 0, "drops force deadline retries: {r:?}");
    assert!(r.redelivered_frames > 0, "retries resend pending frames");
    let (a, b) = (chaotic.ledger().snapshot(), clean.ledger().snapshot());
    assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
    assert_eq!(a.sync_frames, b.sync_frames, "intent-charged, drop or not");
    assert_eq!(a.total_bits(), b.total_bits());
}

/// The fault schedule is a pure function of `(policy, coordinates)`: two
/// clusters under the same seeded policy inject the identical fault pattern
/// and end with identical recovery counters and ledgers; a different seed
/// diverges.
#[test]
fn chaos_fault_pattern_is_seed_deterministic() {
    let run = |seed: u64| {
        let policy = ChaosPolicy::from_seed(seed).with_rates(120, 120, 80, 0, 80, 0);
        let (mut cluster, _, _) = spawn_counting(6, 60, u64::MAX, Some(policy));
        let mut coord = SinkCoord {
            rounds_per_step: 2,
            cur_round: 0,
        };
        for t in 0..10u64 {
            let row: Vec<Value> = (0..6u64).map(|i| 10 + i + 100 * (t % 2)).collect();
            cluster.step(&mut coord, t, &row);
        }
        let r = *cluster.recovery();
        let l = cluster.ledger().snapshot();
        // Injection counters are pure rolls; the model ledger is the
        // committed protocol. (Retry/retransmission counts also agree in
        // practice, but depend on wall-clock deadlines — not pinned here.)
        (
            (
                r.injected_drops,
                r.injected_dups,
                r.injected_delays,
                r.injected_reply_drops,
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
}
