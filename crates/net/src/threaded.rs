//! Threaded transport: every node is an OS thread, frames are owned Rust
//! values on `crossbeam-channel` — the "real distributed execution"
//! counterpart of [`crate::seq::SyncRuntime`] without leaving the process.
//!
//! The step driver — visit rule, ledger accounting, fault injection and the
//! recovery state machine — is [`crate::driver::Cluster`];
//! [`ThreadedCluster`] is that driver over [`ThreadTransport`]. This module
//! only moves frames: one channel per node thread, one shared reply
//! channel. Each thread hosts its node in a `NodeHost`, which caches the
//! last observed value (for value-less cached observes) and, on a chaotic
//! transport, the `(t, run, m)` cursor, reply cache and step checkpoint.
//! Every node thread is its own endpoint: an endpoint wave is one node's
//! work, faults roll per node, and an abort wave sends one abort per node.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::behavior::{NodeBehavior, RoundAction};
use crate::chaos::{ChaosPolicy, RuntimeError};
use crate::driver::{
    Admit, Cluster, FrameKey, NodeHost, Reply, ReplyHead, Transport, Work, ABORT_M,
};
use crate::id::{NodeId, Value};

/// The step driver over node threads.
pub type ThreadedCluster<NB> = Cluster<NB, ThreadTransport<NB>>;

/// Owned payload of one work frame.
#[derive(Clone)]
enum Payload<D> {
    Observe(Option<Value>),
    Round { bcasts: Vec<D>, ucast: Option<D> },
}

/// One keyed unit of node work, as it crosses a channel.
#[derive(Clone)]
pub struct WorkFrame<D> {
    key: FrameKey,
    /// Injected stall: sleep this long before processing (0 on re-sends).
    stall_ms: u32,
    payload: Payload<D>,
}

enum NodeFrame<D> {
    Work(WorkFrame<D>),
    /// Discard every effect of attempt `(t, run)` and acknowledge.
    Abort {
        t: u64,
        run: u32,
    },
    Halt,
}

/// A node thread's answer to a work frame, or (`act: None`) its abort ack.
struct Answer<U> {
    id: NodeId,
    key: FrameKey,
    act: Option<RoundAction<U>>,
}

/// Channels to one thread per node.
pub struct ThreadTransport<NB: NodeBehavior> {
    to_nodes: Vec<Sender<NodeFrame<NB::Down>>>,
    from_nodes: Receiver<Answer<NB::Up>>,
    handles: Vec<JoinHandle<NB>>,
    /// The staged work frame of each node (= endpoint).
    staged: Vec<Option<WorkFrame<NB::Down>>>,
}

impl<NB: NodeBehavior> ThreadTransport<NB> {
    fn post(&self, i: usize, frame: NodeFrame<NB::Down>) -> Result<(), RuntimeError> {
        self.to_nodes[i]
            .send(frame)
            .map_err(|_| RuntimeError::NodeDown {
                id: NodeId(i as u32),
            })
    }

    fn halt(&mut self) {
        for tx in self.to_nodes.drain(..) {
            let _ = tx.send(NodeFrame::Halt);
        }
    }
}

impl<NB: NodeBehavior + 'static> Transport<NB> for ThreadTransport<NB> {
    type Frame = WorkFrame<NB::Down>;

    fn spawn(nodes: Vec<NB>, chaos: Option<ChaosPolicy>) -> Result<Self, RuntimeError> {
        let recoverable = chaos.is_some();
        let (reply_tx, reply_rx) = unbounded();
        let mut to_nodes = Vec::with_capacity(nodes.len());
        let mut handles = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            let reply = reply_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("topk-node-{i}"))
                .spawn(move || node_main(node, rx, reply, recoverable))
                .expect("spawn node thread");
            to_nodes.push(tx);
            handles.push(handle);
        }
        let staged = (0..handles.len()).map(|_| None).collect();
        Ok(ThreadTransport {
            to_nodes,
            from_nodes: reply_rx,
            handles,
            staged,
        })
    }

    fn endpoints(&self) -> usize {
        self.handles.len()
    }

    fn endpoint_of(&self, i: u32) -> usize {
        i as usize
    }

    fn first_node(&self, e: usize) -> NodeId {
        NodeId(e as u32)
    }

    fn is_dead(&self, e: usize) -> bool {
        self.handles[e].is_finished()
    }

    fn stage(&mut self, i: u32, work: Work<'_, NB::Down>) {
        let payload = match work {
            Work::Observe(value) => Payload::Observe(value),
            Work::Round { bcasts, ucast } => Payload::Round {
                bcasts: bcasts.to_vec(),
                ucast: ucast.cloned(),
            },
        };
        self.staged[i as usize] = Some(WorkFrame {
            key: (0, 0, 0),
            stall_ms: 0,
            payload,
        });
    }

    fn seal(&mut self, e: usize, key: FrameKey) {
        if let Some(frame) = self.staged[e].as_mut() {
            frame.key = key;
        }
    }

    fn keep(&self, e: usize) -> WorkFrame<NB::Down> {
        self.staged[e].clone().expect("a staged frame")
    }

    fn send(&mut self, e: usize, stall_ms: u32) -> Result<(), RuntimeError> {
        let mut frame = self.staged[e].take().expect("a staged frame");
        frame.stall_ms = stall_ms;
        self.post(e, NodeFrame::Work(frame))
    }

    fn resend(&mut self, e: usize, frame: &WorkFrame<NB::Down>) -> Result<(), RuntimeError> {
        self.post(e, NodeFrame::Work(frame.clone()))
    }

    fn recv(
        &mut self,
        _owed: &[u32],
        timeout: Duration,
        into: &mut Vec<Reply<NB::Up>>,
    ) -> Result<Option<ReplyHead>, RuntimeError> {
        into.clear();
        let a = match self.from_nodes.recv_timeout(timeout) {
            Ok(a) => a,
            Err(RecvTimeoutError::Timeout) => return Ok(None),
            Err(RecvTimeoutError::Disconnected) => return Err(RuntimeError::AllNodesDown),
        };
        if let Some(act) = a.act {
            into.push(Reply {
                id: a.id,
                up: act.up,
                engaged: act.engaged,
                wake_at: act.wake_at,
                up_bytes: 0,
            });
        }
        Ok(Some(ReplyHead {
            e: a.id.idx(),
            key: a.key,
        }))
    }

    fn send_abort(&mut self, e: usize, t: u64, run: u32) -> Result<(), RuntimeError> {
        self.post(e, NodeFrame::Abort { t, run })
    }

    fn shutdown(mut self) -> Vec<NB> {
        self.halt();
        self.handles
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect()
    }
}

impl<NB: NodeBehavior> Drop for ThreadTransport<NB> {
    fn drop(&mut self) {
        self.halt();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Node thread main loop: frame-driven, no shared state.
fn node_main<NB: NodeBehavior>(
    node: NB,
    rx: Receiver<NodeFrame<NB::Down>>,
    reply: Sender<Answer<NB::Up>>,
    recoverable: bool,
) -> NB {
    let mut host: NodeHost<NB, RoundAction<NB::Up>> = NodeHost::new(node);
    let id = host.node.id();
    let send = |key: FrameKey, act: Option<RoundAction<NB::Up>>| {
        let _ = reply.send(Answer { id, key, act });
    };
    while let Ok(frame) = rx.recv() {
        match frame {
            NodeFrame::Work(w) => {
                if w.stall_ms > 0 {
                    std::thread::sleep(Duration::from_millis(w.stall_ms as u64));
                }
                match host.admit(w.key, recoverable) {
                    Admit::Stale => continue,
                    Admit::Repeat(cached) => {
                        if let Some(a) = cached {
                            send(w.key, Some(a.clone()));
                        }
                        continue;
                    }
                    Admit::Run => {}
                }
                let work = match &w.payload {
                    Payload::Observe(value) => Work::Observe(*value),
                    Payload::Round { bcasts, ucast } => Work::Round {
                        bcasts,
                        ucast: ucast.as_ref(),
                    },
                };
                let act = host.run(w.key, work);
                if recoverable {
                    host.commit(w.key, act.clone());
                }
                send(w.key, Some(act));
            }
            NodeFrame::Abort { t, run } => {
                host.abort(t, run);
                // Always ack — abort re-delivery must re-ack.
                send((t, run, ABORT_M), None);
            }
            NodeFrame::Halt => break,
        }
    }
    host.node
}
