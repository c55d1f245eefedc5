//! Delivery-scope contract ([`RoundScope`]): a scoped broadcast round polls
//! only the nodes engaged at that round on **both** runtimes,
//! while the ledger charges every broadcast in full regardless of scope —
//! scoping is transport, never model cost.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topk_net::behavior::{
    CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction, RoundScope,
};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::seq::SyncRuntime;
use topk_net::socket::SocketCluster;

use common::{with_watchdog, Msg};

/// Node that engages for `value` micro-rounds when observing `value > 0`
/// and tallies every `micro_round` poll (Arc so the count survives the
/// shard threads).
struct ScopeNode {
    id: NodeId,
    engaged_rounds: u32,
    polls: Arc<AtomicU64>,
}

impl NodeBehavior for ScopeNode {
    type Up = Msg;
    type Down = Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
        self.engaged_rounds = value as u32;
        ObserveAction {
            up: None,
            engaged: self.engaged_rounds > 0,
            wake_at: None,
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
        if self.engaged_rounds > 0 {
            self.engaged_rounds -= 1;
        }
        RoundAction {
            up: None,
            engaged: self.engaged_rounds > 0,
            wake_at: None,
        }
    }
}

/// Coordinator scripted with one `(scope, broadcast)` per micro-round.
struct ScriptCoord {
    script: Vec<RoundScope>,
    done: bool,
}

impl CoordinatorBehavior for ScriptCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.done = false;
    }

    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Msg)>,
        out: &mut CoordOut<Msg>,
    ) {
        ups.clear();
        if let Some(&scope) = self.script.get(m as usize) {
            out.broadcasts.push(Msg(m as u64));
            out.scope = scope;
        } else {
            self.done = true;
        }
    }

    fn step_done(&self) -> bool {
        self.done
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

const N: usize = 6;

fn parts() -> (Vec<ScopeNode>, Vec<Arc<AtomicU64>>, ScriptCoord) {
    let counters: Vec<Arc<AtomicU64>> = (0..N).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes = (0..N)
        .map(|i| ScopeNode {
            id: NodeId(i as u32),
            engaged_rounds: 0,
            polls: Arc::clone(&counters[i]),
        })
        .collect();
    let coord = ScriptCoord {
        // Round 0: unscoped broadcast (everyone). Rounds 1 and 2:
        // engaged-scoped.
        script: vec![RoundScope::All, RoundScope::Engaged, RoundScope::Engaged],
        done: false,
    };
    (nodes, counters, coord)
}

/// Node 0 engages for 3 rounds and node 3 for 2; the rest stay disengaged.
const VALUES: [Value; N] = [3, 0, 0, 2, 0, 0];

/// Expected per-node `micro_round` polls for the script above:
/// * the All round polls everyone once;
/// * the first Engaged round polls 0 and 3, after which 3 disengages;
/// * the second Engaged round polls only 0.
const EXPECTED_POLLS: [u64; N] = [3, 1, 1, 2, 1, 1];

#[test]
fn sequential_runtime_narrows_scoped_broadcast_rounds() {
    let (nodes, counters, mut coord) = parts();
    let mut rt = SyncRuntime::new(nodes, 4);
    rt.step(&mut coord, 0, &VALUES);
    let polls: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    assert_eq!(
        polls, EXPECTED_POLLS,
        "seq visit sets must follow the scope"
    );
    // Scope never touches the model ledger: all 3 broadcasts fully charged.
    assert_eq!(rt.ledger().broadcast(), 3);
    assert_eq!(rt.ledger().snapshot().broadcast_bits, 3 * 16);
}

#[test]
fn socket_runtime_narrows_scoped_broadcast_rounds_identically() {
    with_watchdog(60, || {
        let (nodes, counters, mut coord) = parts();
        let mut cluster = SocketCluster::spawn(nodes);
        cluster.step(&mut coord, 0, &VALUES);
        let polls: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(
            polls, EXPECTED_POLLS,
            "socket visit sets must follow the scope"
        );
        assert_eq!(cluster.ledger().broadcast(), 3);
        // Frames mirror the narrowed visits: n observes + (n) + (2) + (1).
        assert_eq!(
            cluster.ledger().sync_frames(),
            (N + N + 2 + 1) as u64,
            "scoped rounds frame only the engaged nodes"
        );
        cluster.shutdown();
    });
}
