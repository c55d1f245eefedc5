//! Unit tests of the runtime semantics themselves, using mock behaviors:
//! the visit rule (engaged ∪ addressed ∪ broadcast), message accounting
//! placement, silent-step skipping, the micro-round guard, and
//! sequential/socket agreement for arbitrary mock protocols.

mod common;

use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::seq::SyncRuntime;
use topk_net::socket::SocketCluster;

use common::{with_watchdog, Msg};

/// Mock node: echoes for `echo_rounds` micro-rounds after observing a value
/// above `threshold`; counts how often it was polled.
struct EchoNode {
    id: NodeId,
    threshold: Value,
    echo_rounds: u32,
    remaining: u32,
    polls: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl NodeBehavior for EchoNode {
    type Up = Msg;
    type Down = Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
        if value > self.threshold {
            self.remaining = self.echo_rounds;
            ObserveAction {
                up: Some(Msg(value)),
                engaged: self.remaining > 0,
                wake_at: None,
            }
        } else {
            self.remaining = 0;
            ObserveAction::idle()
        }
    }

    fn micro_round(
        &mut self,
        _t: u64,
        _m: u32,
        bcasts: &[Msg],
        ucast: Option<&Msg>,
    ) -> RoundAction<Msg> {
        self.polls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // A unicast ping demands one reply, which adds up the round's
        // broadcasts too, so the coordinator sees what the addressee got.
        // Broadcasts alone don't wake this mock.
        if let Some(u) = ucast {
            let heard: u64 = bcasts.iter().map(|b| b.0).sum();
            return RoundAction {
                up: Some(Msg(u.0 + 1 + heard)),
                engaged: self.remaining > 0,
                wake_at: None,
            };
        }
        // Dormant unless mid-echo.
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

/// Mock coordinator: runs a fixed number of micro-rounds per step, can
/// emit a broadcast and unicasts on command, and records every
/// up-message as `(round, sender, payload)`.
struct ScriptCoord {
    rounds_per_step: u32,
    cur_round: u32,
    bcast_at: Option<u32>,
    ucast_at: Option<(u32, NodeId)>,
    ups_seen: Vec<(u32, NodeId, u64)>,
    skip_when_silent: bool,
}

impl CoordinatorBehavior for ScriptCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.cur_round = 0;
    }

    fn try_skip_silent_step(&mut self, _t: u64) -> bool {
        self.skip_when_silent
    }

    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Msg)>,
        out: &mut CoordOut<Msg>,
    ) {
        self.ups_seen
            .extend(ups.drain(..).map(|(id, up)| (m, id, up.0)));
        self.cur_round = m + 1;
        if self.bcast_at == Some(m) {
            out.broadcasts.push(Msg(1000 + m as u64));
        }
        if let Some((at, id)) = self.ucast_at {
            if at == m {
                out.unicasts.push((id, Msg(2000)));
            }
        }
    }

    fn step_done(&self) -> bool {
        self.cur_round >= self.rounds_per_step
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

fn nodes(
    n: usize,
    threshold: Value,
    echo_rounds: u32,
) -> (Vec<EchoNode>, std::sync::Arc<std::sync::atomic::AtomicU64>) {
    let polls = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let ns = (0..n)
        .map(|i| EchoNode {
            id: NodeId(i as u32),
            threshold,
            echo_rounds,
            remaining: 0,
            polls: polls.clone(),
        })
        .collect();
    (ns, polls)
}

#[test]
fn silent_step_skips_and_costs_nothing() {
    let (ns, polls) = nodes(8, 100, 2);
    let mut coord = ScriptCoord {
        rounds_per_step: 3,
        cur_round: 0,
        bcast_at: None,
        ucast_at: None,
        ups_seen: Vec::new(),
        skip_when_silent: true,
    };
    let mut rt = SyncRuntime::new(ns, 1);
    rt.step(&mut coord, 0, &[1, 2, 3, 4, 5, 6, 7, 8]); // all below threshold
    assert_eq!(rt.ledger().total(), 0);
    assert_eq!(rt.silent_steps(), 1);
    assert_eq!(polls.load(std::sync::atomic::Ordering::Relaxed), 0);
}

#[test]
fn engaged_nodes_are_polled_without_broadcast() {
    let (ns, polls) = nodes(4, 100, 2);
    let mut coord = ScriptCoord {
        rounds_per_step: 3,
        cur_round: 0,
        bcast_at: None,
        ucast_at: None,
        ups_seen: Vec::new(),
        skip_when_silent: true,
    };
    let mut rt = SyncRuntime::new(ns, 1);
    // Node 2 fires: observe up + 2 echo rounds = 3 ups; only node 2 polled.
    rt.step(&mut coord, 0, &[0, 0, 500, 0]);
    assert_eq!(rt.ledger().up(), 3);
    assert_eq!(rt.ledger().broadcast(), 0);
    // Polled exactly twice (its two echo rounds) — the others never.
    assert_eq!(polls.load(std::sync::atomic::Ordering::Relaxed), 2);
}

#[test]
fn broadcast_reaches_every_node() {
    let (ns, polls) = nodes(5, u64::MAX, 0);
    let mut coord = ScriptCoord {
        rounds_per_step: 2,
        cur_round: 0,
        bcast_at: Some(0),
        ucast_at: None,
        ups_seen: Vec::new(),
        skip_when_silent: false, // force the rounds to run
    };
    let mut rt = SyncRuntime::new(ns, 1);
    rt.step(&mut coord, 0, &[0; 5]);
    assert_eq!(rt.ledger().broadcast(), 1);
    // All 5 polled at the broadcast round; round 2 has no out and no
    // engagement, so nobody is polled again.
    assert_eq!(polls.load(std::sync::atomic::Ordering::Relaxed), 5);
}

#[test]
fn unicast_is_delivered_and_charged() {
    let (ns, polls) = nodes(4, u64::MAX, 0);
    let mut coord = ScriptCoord {
        rounds_per_step: 2,
        cur_round: 0,
        bcast_at: None,
        ucast_at: Some((0, NodeId(3))),
        ups_seen: Vec::new(),
        skip_when_silent: false,
    };
    let mut rt = SyncRuntime::new(ns, 1);
    rt.step(&mut coord, 0, &[0; 4]);
    // One down (the ping), one up (the reply).
    assert_eq!(rt.ledger().down(), 1);
    assert_eq!(rt.ledger().up(), 1);
    assert_eq!(polls.load(std::sync::atomic::Ordering::Relaxed), 1);
}

#[test]
fn ups_are_delivered_sorted_by_node_id() {
    struct OrderCheckCoord {
        done: bool,
        seen: Vec<u32>,
    }
    impl CoordinatorBehavior for OrderCheckCoord {
        type Up = Msg;
        type Down = Msg;
        fn begin_step(&mut self, _t: u64) {
            self.done = false;
        }
        fn micro_round(
            &mut self,
            _t: u64,
            _m: u32,
            ups: &mut Vec<(NodeId, Msg)>,
            _out: &mut CoordOut<Msg>,
        ) {
            self.seen.extend(ups.drain(..).map(|(id, _)| id.0));
            self.done = true;
        }
        fn step_done(&self) -> bool {
            self.done
        }
        fn topk(&self) -> &[NodeId] {
            &[]
        }
    }
    let (ns, _polls) = nodes(6, 10, 0);
    let mut coord = OrderCheckCoord {
        done: false,
        seen: Vec::new(),
    };
    let mut rt = SyncRuntime::new(ns, 1);
    rt.step(&mut coord, 0, &[50, 60, 5, 70, 5, 80]); // nodes 0,1,3,5 fire
    assert_eq!(coord.seen, vec![0, 1, 3, 5]);
}

#[test]
#[should_panic(expected = "micro-round guard exceeded")]
fn runaway_coordinator_is_caught() {
    struct NeverDone;
    impl CoordinatorBehavior for NeverDone {
        type Up = Msg;
        type Down = Msg;
        fn begin_step(&mut self, _t: u64) {}
        fn micro_round(
            &mut self,
            _t: u64,
            _m: u32,
            _ups: &mut Vec<(NodeId, Msg)>,
            _out: &mut CoordOut<Msg>,
        ) {
        }
        fn step_done(&self) -> bool {
            false
        }
        fn topk(&self) -> &[NodeId] {
            &[]
        }
    }
    let (ns, _p) = nodes(2, 0, 0);
    let mut rt = SyncRuntime::new(ns, 1);
    rt.step(&mut NeverDone, 0, &[1, 2]);
}

#[test]
fn socket_matches_sequential_for_mock_protocol() {
    let mk_nodes = || nodes(6, 50, 3).0;
    let mk_coord = || ScriptCoord {
        rounds_per_step: 5,
        cur_round: 0,
        bcast_at: Some(1),
        ucast_at: Some((2, NodeId(4))),
        ups_seen: Vec::new(),
        skip_when_silent: true,
    };
    let steps: Vec<Vec<Value>> = vec![
        vec![0, 0, 0, 0, 0, 0],
        vec![100, 0, 0, 0, 0, 0],
        vec![0, 200, 0, 300, 0, 0],
        vec![0, 0, 0, 0, 0, 0],
        vec![99, 98, 97, 51, 50, 49],
    ];
    let mut seq_coord = mk_coord();
    let mut seq = SyncRuntime::new(mk_nodes(), 1);
    for (t, row) in steps.iter().enumerate() {
        seq.step(&mut seq_coord, t as u64, row);
    }
    let (b, ups_seen) = with_watchdog(60, move || {
        let mut coord = mk_coord();
        let mut cluster = SocketCluster::spawn(mk_nodes());
        for (t, row) in steps.iter().enumerate() {
            cluster.step(&mut coord, t as u64, row);
        }
        (cluster.ledger().snapshot(), coord.ups_seen)
    });
    let a = seq.ledger().snapshot();
    assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
    assert_eq!(a.total_bits(), b.total_bits());
    assert_eq!(seq_coord.ups_seen, ups_seen);
}

/// A round that broadcasts and unicasts at once: every node gets the
/// broadcast, and the addressee gets it together with its unicast in one
/// poll (it is no uniform full fan-out, whose nodes get no unicast). Both
/// runtimes agree on ledgers, polls and replies.
#[test]
fn broadcast_and_unicast_in_one_round_reach_the_addressee() {
    let mk_coord = || ScriptCoord {
        rounds_per_step: 2,
        cur_round: 0,
        bcast_at: Some(0),
        ucast_at: Some((0, NodeId(2))),
        ups_seen: Vec::new(),
        skip_when_silent: false,
    };
    let (ns, polls) = nodes(5, u64::MAX, 0);
    let mut coord = mk_coord();
    let mut seq = SyncRuntime::new(ns, 1);
    seq.step(&mut coord, 0, &[0; 5]);
    // Ping 2000 + 1, plus broadcast 1000 of round 0.
    assert_eq!(coord.ups_seen, vec![(1, NodeId(2), 3001)]);
    let a = seq.ledger().snapshot();
    assert_eq!((a.up, a.down, a.broadcast), (1, 1, 1));
    let seq_polls = polls.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(seq_polls, 5, "one poll per node");
    assert_eq!(seq.micro_polls(), seq_polls);

    let (b, socket_polls, ups_seen) = with_watchdog(60, move || {
        let (ns, polls) = nodes(5, u64::MAX, 0);
        let mut coord = mk_coord();
        let mut cluster = SocketCluster::spawn(ns);
        cluster.step(&mut coord, 0, &[0; 5]);
        let b = cluster.ledger().snapshot();
        cluster.shutdown();
        let polls = polls.load(std::sync::atomic::Ordering::Relaxed);
        (b, polls, coord.ups_seen)
    });
    assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
    assert_eq!(a.total_bits(), b.total_bits());
    assert_eq!(socket_polls, seq_polls);
    assert_eq!(ups_seen, coord.ups_seen);
}
