//! Frame accounting of the delta-driven threaded transport: on a silent
//! step the cluster delivers observation frames only to movers ∪ engaged
//! nodes (`sync_frames` is O(changed), not n), a broadcast round is the
//! full-fan-out exception, and superset change-lists cost no extra frames.
//! Instrumented with a counting `NodeBehavior` wrapper whose per-node
//! tallies survive the node threads (atomics behind `Arc`s).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction};
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

/// Change-driven mock node: reports whenever its value *changes* to
/// something above `threshold`, then echoes for `echo_rounds`. `observe`
/// with an unchanged value is a strict no-op, so the behavior legitimately
/// declares `SPARSE_OBSERVE`.
struct LevelNode {
    id: NodeId,
    threshold: Value,
    echo_rounds: u32,
    last: Value,
    remaining: u32,
    /// Per-node observe tally (survives the node thread via the Arc).
    observes: Arc<AtomicU64>,
    /// Per-node micro-round tally.
    polls: Arc<AtomicU64>,
}

impl NodeBehavior for LevelNode {
    type Up = Msg;
    type Down = Msg;

    const SPARSE_OBSERVE: bool = true;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
        self.observes.fetch_add(1, Ordering::Relaxed);
        let changed = value != self.last;
        self.last = value;
        if changed && value > self.threshold {
            self.remaining = self.echo_rounds;
            ObserveAction {
                up: Some(Msg(value)),
                engaged: self.remaining > 0,
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
        ucast: Option<&Msg>,
    ) -> RoundAction<Msg> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        if let Some(u) = ucast {
            return RoundAction {
                up: Some(Msg(u.0 + 1)),
                engaged: self.remaining > 0,
                wake_at: None,
            };
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            RoundAction {
                up: Some(Msg(self.remaining as u64)),
                engaged: self.remaining > 0,
                wake_at: None,
            }
        } else {
            RoundAction::idle()
        }
    }
}

/// Coordinator that runs a fixed number of silent micro-rounds per step
/// (enough for the mock echoes to drain), skips silent steps, and can be
/// scripted to broadcast in round 0 of chosen time steps.
struct SinkCoord {
    rounds_per_step: u32,
    cur_round: u32,
    bcast_steps: Vec<u64>,
}

impl CoordinatorBehavior for SinkCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.cur_round = 0;
    }

    fn try_skip_silent_step(&mut self, t: u64) -> bool {
        !self.bcast_steps.contains(&t)
    }

    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Msg)>,
        out: &mut CoordOut<Msg>,
    ) {
        ups.clear();
        self.cur_round = m + 1;
        if m == 0 && self.bcast_steps.contains(&t) {
            out.broadcasts.push(Msg(777));
        }
    }

    fn step_done(&self) -> bool {
        self.cur_round >= self.rounds_per_step
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

struct Harness {
    cluster: ThreadedCluster<LevelNode>,
    coord: SinkCoord,
    observes: Vec<Arc<AtomicU64>>,
    polls: Vec<Arc<AtomicU64>>,
}

fn harness(n: usize, threshold: Value, echo_rounds: u32, bcast_steps: Vec<u64>) -> Harness {
    let observes: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let polls: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes = (0..n)
        .map(|i| LevelNode {
            id: NodeId(i as u32),
            threshold,
            echo_rounds,
            last: 0,
            remaining: 0,
            observes: observes[i].clone(),
            polls: polls[i].clone(),
        })
        .collect();
    Harness {
        cluster: ThreadedCluster::spawn(nodes),
        coord: SinkCoord {
            rounds_per_step: 3,
            cur_round: 0,
            bcast_steps,
        },
        observes,
        polls,
    }
}

impl Harness {
    fn total_polls(&self) -> u64 {
        self.polls.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }
}

/// Silent steps frame only the movers: after the dense init, an unchanged
/// row costs zero frames and zero observe calls; a 3-mover row costs
/// exactly 3 frames, delivered exactly to those movers.
#[test]
fn silent_step_frames_only_movers() {
    let n = 64;
    let mut h = harness(n, u64::MAX, 0, vec![]);
    let mut row: Vec<Value> = vec![5; n];
    h.cluster.step(&mut h.coord, 0, &row);
    assert_eq!(h.cluster.ledger().sync_frames(), n as u64, "init is dense");

    // Unchanged row: zero frames, zero observes — O(changed), not n.
    h.cluster.step(&mut h.coord, 1, &row);
    h.cluster.step(&mut h.coord, 2, &row);
    assert_eq!(h.cluster.ledger().sync_frames(), n as u64);

    // Three movers: exactly three frames, addressed to exactly those nodes.
    row[7] = 6;
    row[42] = 9;
    row[63] = 1;
    h.cluster.step(&mut h.coord, 3, &row);
    assert_eq!(h.cluster.ledger().sync_frames(), n as u64 + 3);
    let h2 = h;
    drop(h2.cluster);
    let counts = h2
        .observes
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect::<Vec<_>>();
    for (i, &c) in counts.iter().enumerate() {
        let expect = if [7, 42, 63].contains(&i) { 2 } else { 1 };
        assert_eq!(c, expect, "node {i}: init + mover observes only");
    }
}

/// An engaged node is framed on the next step even without a value change
/// (the value-less cached-observe frame), and its echo rounds are framed
/// only to it.
#[test]
fn engaged_nodes_framed_without_changes() {
    let n = 16;
    let mut h = harness(n, 100, 2, vec![]);
    let mut row: Vec<Value> = vec![1; n];
    h.cluster.step(&mut h.coord, 0, &row);
    let after_init = h.cluster.ledger().sync_frames();
    assert_eq!(after_init, n as u64);

    // Node 3 fires: 1 observation frame + 2 echo-round frames (only node 3
    // is framed in the silent rounds; the third round has no engaged nodes
    // left, so nobody is framed).
    row[3] = 500;
    h.cluster.step(&mut h.coord, 1, &row);
    assert_eq!(h.cluster.ledger().sync_frames(), after_init + 1 + 2);
    assert_eq!(h.cluster.ledger().up(), 3, "report + two echoes");
    assert!(h.cluster.engaged_nodes().is_empty(), "episode concluded");
    assert_eq!(h.total_polls(), 2, "only node 3's echo rounds polled");

    // Steady again: unchanged row, nobody engaged ⇒ zero frames.
    h.cluster.step(&mut h.coord, 2, &row);
    assert_eq!(h.cluster.ledger().sync_frames(), after_init + 3);
}

/// A broadcast round is the full-fan-out exception: every node thread must
/// receive the payload, so the round costs exactly n frames even though
/// node-phase 0 framed nobody.
#[test]
fn broadcast_round_is_full_fanout() {
    let n = 32;
    let mut h = harness(n, u64::MAX, 0, vec![2]);
    let row: Vec<Value> = vec![5; n];
    h.cluster.step(&mut h.coord, 0, &row);
    h.cluster.step(&mut h.coord, 1, &row);
    let before = h.cluster.ledger().sync_frames();
    assert_eq!(before, n as u64, "silent steps framed nobody");

    // t=2: phase 0 frames nobody (no movers), but the scripted broadcast
    // must reach all n nodes.
    h.cluster.step(&mut h.coord, 2, &row);
    let after = h.cluster.ledger().sync_frames();
    assert_eq!(after - before, n as u64, "broadcast fans out to every node");
    assert_eq!(h.cluster.ledger().broadcast(), 1);
    assert_eq!(h.total_polls(), n as u64, "every node ran the round");
}

/// Superset change-lists (unchanged values repeated, as the fill_delta
/// contract permits) cost no frames: the transport filters against the
/// driver's cached row.
#[test]
fn superset_changes_cost_no_frames() {
    let n = 8;
    let mut h = harness(n, u64::MAX, 0, vec![]);
    let init: Vec<(NodeId, Value)> = (0..n).map(|i| (NodeId(i as u32), 50)).collect();
    h.cluster.step_sparse(&mut h.coord, 0, &init);
    assert_eq!(h.cluster.ledger().sync_frames(), n as u64);

    // Repeat three unchanged values plus one real mover: one frame.
    h.cluster.step_sparse(
        &mut h.coord,
        1,
        &[
            (NodeId(1), 50),
            (NodeId(2), 50),
            (NodeId(5), 60),
            (NodeId(7), 50),
        ],
    );
    assert_eq!(h.cluster.ledger().sync_frames(), n as u64 + 1);
    drop(h.cluster);
    let counts = h
        .observes
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect::<Vec<_>>();
    assert_eq!(counts[5], 2, "the real mover was observed");
    assert_eq!(counts[1], 1, "repeated values were filtered out");
    assert_eq!(counts[2], 1);
    assert_eq!(counts[7], 1);
}

/// The observe-call pattern of the counting nodes matches across a dense
/// and a sparse drive of the same step sequence — the transport is one
/// code path behind two entry points.
#[test]
fn dense_and_sparse_drives_frame_identically() {
    let steps: Vec<Vec<Value>> = vec![
        vec![1, 2, 3, 4, 5, 6],
        vec![1, 2, 3, 4, 5, 6],
        vec![900, 2, 3, 4, 5, 6],
        vec![900, 2, 3, 4, 5, 800],
        vec![1, 2, 3, 4, 5, 800],
    ];

    let mut dense = harness(6, 100, 2, vec![]);
    for (t, row) in steps.iter().enumerate() {
        dense.cluster.step(&mut dense.coord, t as u64, row);
    }

    let mut sparse = harness(6, 100, 2, vec![]);
    let mut prev: Option<Vec<Value>> = None;
    for (t, row) in steps.iter().enumerate() {
        let changes: Vec<(NodeId, Value)> = match &prev {
            None => row
                .iter()
                .enumerate()
                .map(|(i, &v)| (NodeId(i as u32), v))
                .collect(),
            Some(p) => row
                .iter()
                .zip(p.iter())
                .enumerate()
                .filter(|(_, (new, old))| new != old)
                .map(|(i, (&v, _))| (NodeId(i as u32), v))
                .collect(),
        };
        sparse
            .cluster
            .step_sparse(&mut sparse.coord, t as u64, &changes);
        prev = Some(row.clone());
    }

    let a = dense.cluster.ledger().snapshot();
    let b = sparse.cluster.ledger().snapshot();
    assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
    assert_eq!(a.total_bits(), b.total_bits());
    assert_eq!(a.sync_frames, b.sync_frames, "identical frame traffic");

    let counts = |h: Harness| {
        drop(h.cluster);
        h.observes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        counts(dense),
        counts(sparse),
        "identical per-node observe patterns"
    );
}
