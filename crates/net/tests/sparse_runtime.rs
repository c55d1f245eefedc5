//! Sparse-stepping runtime semantics: the `O(#changed + #engaged)` visit
//! rule of `step_sparse`, the diffing dense wrapper, and the zero-observe
//! guarantee for unchanged nodes — instrumented with a counting
//! `NodeBehavior` wrapper.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::seq::SyncRuntime;
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
}

impl NodeBehavior for LevelNode {
    type Up = Msg;
    type Down = Msg;

    const SPARSE_OBSERVE: bool = true;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
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

/// Counting wrapper: forwards everything, tallying `observe` and
/// `micro_round` invocations per node.
struct CountingNode<NB> {
    inner: NB,
    observes: Arc<AtomicU64>,
    polls: Arc<AtomicU64>,
}

impl<NB: NodeBehavior> NodeBehavior for CountingNode<NB> {
    type Up = NB::Up;
    type Down = NB::Down;

    const SPARSE_OBSERVE: bool = NB::SPARSE_OBSERVE;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn observe(&mut self, t: u64, value: Value) -> ObserveAction<Self::Up> {
        self.observes.fetch_add(1, Ordering::Relaxed);
        self.inner.observe(t, value)
    }

    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        bcasts: &[Self::Down],
        ucast: Option<&Self::Down>,
    ) -> RoundAction<Self::Up> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.inner.micro_round(t, m, bcasts, ucast)
    }
}

/// Coordinator that runs a fixed number of silent micro-rounds per step
/// (enough for the mock echoes to drain) and skips silent steps on request.
struct SinkCoord {
    rounds_per_step: u32,
    cur_round: u32,
    skip_silent: bool,
}

impl CoordinatorBehavior for SinkCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.cur_round = 0;
    }

    fn try_skip_silent_step(&mut self, _t: u64) -> bool {
        self.skip_silent
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

#[allow(clippy::type_complexity)]
fn counted_nodes(
    n: usize,
    threshold: Value,
    echo_rounds: u32,
) -> (Vec<CountingNode<LevelNode>>, Arc<AtomicU64>, Arc<AtomicU64>) {
    let observes = Arc::new(AtomicU64::new(0));
    let polls = Arc::new(AtomicU64::new(0));
    let nodes = (0..n)
        .map(|i| CountingNode {
            inner: LevelNode {
                id: NodeId(i as u32),
                threshold,
                echo_rounds,
                last: 0,
                remaining: 0,
            },
            observes: observes.clone(),
            polls: polls.clone(),
        })
        .collect();
    (nodes, observes, polls)
}

fn rt(
    n: usize,
    threshold: Value,
) -> (
    SyncRuntime<CountingNode<LevelNode>>,
    SinkCoord,
    Arc<AtomicU64>,
    Arc<AtomicU64>,
) {
    let (nodes, observes, polls) = counted_nodes(n, threshold, 0);
    (
        SyncRuntime::new(nodes, 1),
        SinkCoord {
            rounds_per_step: 3,
            cur_round: 0,
            skip_silent: true,
        },
        observes,
        polls,
    )
}

#[test]
fn silent_step_performs_zero_observe_calls() {
    let (mut rt, mut coord, observes, polls) = rt(64, 1_000);
    let row: Vec<Value> = (1..=64).collect();
    rt.step(&mut coord, 0, &row);
    assert_eq!(observes.load(Ordering::Relaxed), 64, "first step is dense");
    // Identical row again: the diffing wrapper must visit *nobody*.
    rt.step(&mut coord, 1, &row);
    rt.step(&mut coord, 2, &row);
    assert_eq!(
        observes.load(Ordering::Relaxed),
        64,
        "unchanged nodes must not be observed"
    );
    assert_eq!(polls.load(Ordering::Relaxed), 0);
    // Every step was silent (nobody ever crossed the threshold), including
    // the dense first one.
    assert_eq!(rt.silent_steps(), 3);
    assert_eq!(rt.observe_calls(), 64);
}

#[test]
fn dense_step_visits_only_changed_nodes() {
    let (mut rt, mut coord, observes, _polls) = rt(100, u64::MAX);
    let mut row: Vec<Value> = vec![5; 100];
    rt.step(&mut coord, 0, &row);
    let after_init = observes.load(Ordering::Relaxed);
    assert_eq!(after_init, 100);
    // Change 3 values; only those three observe calls may happen.
    row[7] = 6;
    row[42] = 9;
    row[99] = 1;
    rt.step(&mut coord, 1, &row);
    assert_eq!(observes.load(Ordering::Relaxed), after_init + 3);
}

#[test]
fn step_sparse_matches_dense_step_exactly() {
    let steps: Vec<Vec<Value>> = vec![
        vec![1, 2, 3, 4, 5, 6],
        vec![1, 2, 3, 4, 5, 6],
        vec![900, 2, 3, 4, 5, 6],
        vec![900, 2, 3, 4, 5, 800],
        vec![900, 2, 3, 4, 5, 800],
        vec![1, 2, 3, 4, 5, 6],
    ];

    let (dense_nodes, _, _) = counted_nodes(6, 100, 2);
    let mut dense = SyncRuntime::new(dense_nodes, 1);
    let mut dense_coord = SinkCoord {
        rounds_per_step: 3,
        cur_round: 0,
        skip_silent: false,
    };
    for (t, row) in steps.iter().enumerate() {
        dense.step(&mut dense_coord, t as u64, row);
    }

    let (sparse_nodes, sparse_obs, _) = counted_nodes(6, 100, 2);
    let mut sparse = SyncRuntime::new(sparse_nodes, 1);
    let mut sparse_coord = SinkCoord {
        rounds_per_step: 3,
        cur_round: 0,
        skip_silent: false,
    };
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
        sparse.step_sparse(&mut sparse_coord, t as u64, &changes);
        prev = Some(row.clone());
    }

    let a = dense.ledger().snapshot();
    let b = sparse.ledger().snapshot();
    assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
    assert_eq!(a.total_bits(), b.total_bits());
    assert_eq!(dense.micro_rounds_run(), sparse.micro_rounds_run());
    // The sparse run observed far fewer nodes: 6 (init) + 1 + 2 + 0 + 5 changed.
    assert!(
        sparse_obs.load(Ordering::Relaxed) < 6 * steps.len() as u64,
        "sparse path must not scan every node every step"
    );
}

#[test]
fn engaged_nodes_are_revisited_without_changes() {
    // echo_rounds = 2 keeps a triggered node engaged across micro-rounds;
    // the engaged set must carry it through silent rounds via the index
    // list (not a Vec<bool> scan).
    let (nodes, _obs, polls) = counted_nodes(8, 100, 2);
    let mut rt = SyncRuntime::new(nodes, 1);
    let mut coord = SinkCoord {
        rounds_per_step: 3,
        cur_round: 0,
        skip_silent: true,
    };
    let mut row: Vec<Value> = vec![1; 8];
    rt.step(&mut coord, 0, &row);
    row[3] = 500; // trigger node 3: 1 report + 2 echo rounds
    rt.step(&mut coord, 1, &row);
    assert_eq!(rt.ledger().up(), 3);
    // Only node 3 was ever polled in micro-rounds (its two echo rounds).
    assert_eq!(polls.load(Ordering::Relaxed), 2);
    assert!(rt.engaged_nodes().is_empty(), "episode concluded");
}

#[test]
fn run_feed_sparse_matches_run_feed() {
    use topk_net::behavior::ValueFeed;
    use topk_net::trace::{TraceMatrix, TraceReplay};
    let trace = TraceMatrix::from_rows(&[
        vec![1, 2, 3, 4],
        vec![1, 2, 3, 4],
        vec![500, 2, 3, 4],
        vec![500, 2, 3, 600],
        vec![500, 2, 3, 600],
    ]);

    let mk_rt = || {
        let (nodes, _, _) = counted_nodes(4, 100, 1);
        let coord = SinkCoord {
            rounds_per_step: 3,
            cur_round: 0,
            skip_silent: true,
        };
        (SyncRuntime::new(nodes, 1), coord)
    };

    // The same feed driven as dense rows and as change-lists.
    let (mut dense, mut dense_coord) = mk_rt();
    let mut feed = TraceReplay::new(trace.clone());
    let mut row = vec![0; 4];
    for t in 0..5 {
        feed.fill_step(t, &mut row);
        dense.step(&mut dense_coord, t, &row);
    }
    let d = dense.ledger().snapshot();
    let (mut sparse, mut sparse_coord) = mk_rt();
    let mut feed = TraceReplay::new(trace);
    let mut changes = Vec::new();
    for t in 0..5 {
        feed.fill_delta(t, &mut changes);
        sparse.step_sparse(&mut sparse_coord, t, &changes);
    }
    let s = sparse.ledger().snapshot();

    assert_eq!((d.up, d.down, d.broadcast), (s.up, s.down, s.broadcast));
    assert_eq!(d.total_bits(), s.total_bits());
    // With a SPARSE_OBSERVE behavior, the dense drive diffs internally, so
    // both paths visit exactly the same (minimal) node set.
    assert_eq!(sparse.observe_calls(), dense.observe_calls());
    assert_eq!(sparse.observe_calls(), 4 + 1 + 1, "init + two movers");
}

#[test]
#[should_panic(expected = "first sparse step must provide a value for every node")]
fn first_sparse_step_requires_full_coverage() {
    let (nodes, _, _) = counted_nodes(4, 100, 0);
    let mut rt = SyncRuntime::new(nodes, 1);
    let mut coord = SinkCoord {
        rounds_per_step: 3,
        cur_round: 0,
        skip_silent: true,
    };
    rt.step_sparse(&mut coord, 0, &[(NodeId(1), 5)]);
}
