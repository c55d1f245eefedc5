//! The step driver's recovery counters, pinned over a scripted in-memory
//! fake [`Transport`] whose `recv` times out instantly. On real transports
//! these counters (retries, re-sent frames, stale replies) depend on wall
//! clock; here the script decides exactly which reply is late or lost, so
//! the counts are exact. The fake hosts one node per endpoint, where the
//! socket transport hosts a node range per shard.

use std::collections::VecDeque;
use std::time::Duration;

use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction};
use topk_net::chaos::{ChaosPolicy, RuntimeError};
use topk_net::driver::{Cluster, FrameKey, Reply, ReplyHead, Transport, Work, ABORT_M};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::wire::WireSize;

#[derive(Debug, Clone, Copy)]
struct Msg;

impl WireSize for Msg {
    fn wire_bits(&self) -> u32 {
        8
    }
}

/// What the fake transport does wrong.
#[derive(Debug, Clone, Copy, Default)]
struct Script {
    /// Lose the reply to this node's first delivery (a re-send answers).
    lose_first_reply_of: Option<u32>,
    /// Before each phase-0 reply of attempt `run > 0`, deliver a late copy
    /// keyed to attempt `run - 1`.
    echo_older_run: bool,
    /// Never answer this node.
    mute: Option<u32>,
}

/// Placeholder behavior: the fake transport answers for the nodes, so the
/// behavior only carries the script and an id.
#[derive(Clone)]
struct ScriptedNode {
    id: NodeId,
    script: Script,
}

impl NodeBehavior for ScriptedNode {
    type Up = Msg;
    type Down = Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, _value: Value) -> ObserveAction<Msg> {
        ObserveAction::idle()
    }

    fn micro_round(&mut self, _t: u64, _m: u32, _b: &[Msg], _u: Option<&Msg>) -> RoundAction<Msg> {
        RoundAction::idle()
    }

    fn checkpoint(&self, slot: &mut Option<Self>) {
        *slot = Some(self.clone());
    }

    fn rollback(&mut self, at: &Self) {
        *self = at.clone();
    }
}

struct FakeTransport {
    nodes: Vec<ScriptedNode>,
    script: Script,
    staged: (u32, FrameKey),
    /// Reply frames in arrival order: the node and the key it echoes.
    queue: VecDeque<(u32, FrameKey)>,
    lost: bool,
}

impl FakeTransport {
    fn deliver(&mut self, i: u32, key: FrameKey, first: bool) {
        if self.script.mute == Some(i) {
            return;
        }
        if first && !self.lost && self.script.lose_first_reply_of == Some(i) {
            self.lost = true;
            return;
        }
        let (t, run, m) = key;
        if self.script.echo_older_run && run > 0 && m == 0 {
            self.queue.push_back((i, (t, run - 1, m)));
        }
        self.queue.push_back((i, key));
    }
}

impl Transport<ScriptedNode> for FakeTransport {
    type Frame = (u32, FrameKey);

    fn spawn(nodes: Vec<ScriptedNode>, _chaos: Option<ChaosPolicy>) -> Result<Self, RuntimeError> {
        Ok(FakeTransport {
            script: nodes[0].script,
            nodes,
            staged: (0, (0, 0, 0)),
            queue: VecDeque::new(),
            lost: false,
        })
    }

    fn endpoints(&self) -> usize {
        self.nodes.len()
    }

    fn endpoint_of(&self, i: u32) -> usize {
        i as usize
    }

    fn first_node(&self, e: usize) -> NodeId {
        NodeId(e as u32)
    }

    fn is_dead(&self, _e: usize) -> bool {
        false
    }

    fn stage(&mut self, i: u32, _work: Work<'_, Msg>) {
        self.staged.0 = i;
    }

    fn seal(&mut self, _e: usize, key: FrameKey) {
        self.staged.1 = key;
    }

    fn keep(&self, _e: usize) -> (u32, FrameKey) {
        self.staged
    }

    fn send(&mut self, e: usize, _stall_ms: u32) -> Result<(), RuntimeError> {
        self.deliver(e as u32, self.staged.1, true);
        Ok(())
    }

    fn resend(&mut self, e: usize, frame: &(u32, FrameKey)) -> Result<(), RuntimeError> {
        self.deliver(e as u32, frame.1, false);
        Ok(())
    }

    fn recv(
        &mut self,
        _owed: &[u32],
        _timeout: Duration,
        into: &mut Vec<Reply<Msg>>,
    ) -> Result<Option<ReplyHead>, RuntimeError> {
        into.clear();
        let Some((i, key)) = self.queue.pop_front() else {
            return Ok(None);
        };
        if key.2 != ABORT_M {
            into.push(Reply {
                id: NodeId(i),
                up: None,
                engaged: false,
                wake_at: None,
                up_bytes: 0,
            });
        }
        Ok(Some(ReplyHead { e: i as usize, key }))
    }

    fn send_abort(&mut self, e: usize, t: u64, run: u32) -> Result<(), RuntimeError> {
        self.queue.push_back((e as u32, (t, run, ABORT_M)));
        Ok(())
    }

    fn shutdown(self) -> Vec<ScriptedNode> {
        self.nodes
    }
}

/// Coordinator that always runs two micro-rounds (so a crash at round 1
/// can fire) and snapshots trivially.
#[derive(Default)]
struct TwoRounds {
    done_rounds: u32,
}

impl CoordinatorBehavior for TwoRounds {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.done_rounds = 0;
    }

    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Msg)>,
        _out: &mut CoordOut<Msg>,
    ) {
        ups.clear();
        self.done_rounds = m + 1;
    }

    fn step_done(&self) -> bool {
        self.done_rounds >= 2
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }

    fn encode_snapshot(&self, _out: &mut Vec<u8>) -> bool {
        true
    }

    fn restore_snapshot(&mut self, _bytes: &[u8]) -> bool {
        true
    }
}

fn nodes(n: u32, script: Script) -> Vec<ScriptedNode> {
    (0..n)
        .map(|i| ScriptedNode {
            id: NodeId(i),
            script,
        })
        .collect()
}

/// A quiet policy: the chaotic code path (deadlines, re-sends, keyed
/// frames) with no injected fault.
fn quiet() -> ChaosPolicy {
    ChaosPolicy::quiet(1)
}

#[test]
fn one_lost_reply_costs_exactly_one_resend() {
    let script = Script {
        lose_first_reply_of: Some(1),
        ..Script::default()
    };
    let mut cluster: Cluster<_, FakeTransport> = Cluster::spawn_chaotic(nodes(3, script), quiet());
    let mut coord = TwoRounds::default();
    cluster
        .try_step(&mut coord, 0, &[1, 2, 3])
        .expect("step recovers");
    let r = cluster.recovery();
    assert_eq!(r.retries, 1, "{r:?}");
    assert_eq!(r.redelivered_frames, 1, "{r:?}");
    assert_eq!(r.stale_replies, 0, "{r:?}");
    assert_eq!(
        r.injected_total(),
        0,
        "the transport lost it, not the policy"
    );
    assert_eq!(cluster.ledger().retransmit(), 1);
    assert_eq!(cluster.ledger().sync_frames(), 3, "one sync frame per node");
}

#[test]
fn reply_keyed_to_an_older_run_is_discarded_as_stale() {
    let script = Script {
        echo_older_run: true,
        ..Script::default()
    };
    let mut policy = quiet();
    policy.restart_permille = 1000;
    policy.max_restarts_per_step = 1;
    let mut cluster: Cluster<_, FakeTransport> = Cluster::spawn_chaotic(nodes(2, script), policy);
    let mut coord = TwoRounds::default();
    // Step 0 commits the first snapshot; step 1 crashes once at round 1
    // and re-runs as attempt 1, whose phase-0 replies are each preceded by
    // a late copy keyed to attempt 0.
    cluster.try_step(&mut coord, 0, &[5, 6]).expect("step 0");
    cluster
        .try_step(&mut coord, 1, &[5, 6])
        .expect("step 1 re-runs");
    let r = cluster.recovery();
    assert_eq!(r.restarts, 1, "{r:?}");
    assert_eq!(
        r.stale_replies, 2,
        "one late attempt-0 reply per node: {r:?}"
    );
    assert_eq!(r.retries, 0, "{r:?}");
    assert_eq!(cluster.steps_run(), 2);
    assert_eq!(
        cluster.ledger().sync_frames(),
        4,
        "the aborted attempt's frames are rolled back with the model ledger"
    );
}

#[test]
fn idle_clean_transport_times_out_instead_of_hanging() {
    let script = Script {
        mute: Some(0),
        ..Script::default()
    };
    let mut cluster: Cluster<_, FakeTransport> = Cluster::spawn(nodes(2, script));
    let mut coord = TwoRounds::default();
    let err = cluster
        .try_step(&mut coord, 7, &[1, 2])
        .expect_err("a node that never answers");
    assert_eq!(
        err,
        RuntimeError::ReplyTimeout {
            t: 7,
            m: 0,
            waiting: 1
        }
    );
}
