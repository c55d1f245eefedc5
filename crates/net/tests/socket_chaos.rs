//! Failure-path semantics of the socket runtime, pinned against
//! instrumented mock behaviors: a shard thread that dies mid-step surfaces
//! as a typed [`RuntimeError::NodeDown`] — never a hung receive, never a
//! driver panic — on both the clean and the chaotic transport, dropping the
//! cluster afterwards still joins every surviving thread, a reply frame the
//! driver cannot decode is a typed [`RuntimeError::Transport`] on the step
//! it arrives, and a poisoned capture-tap mutex (a panicking holder) is
//! recovered instead of propagated, so byte capture keeps working after the
//! panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use topk_net::behavior::{CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction};
use topk_net::chaos::{ChaosPolicy, RuntimeError};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::socket::{FrameCodec, SocketCluster, WireError};
use topk_net::wire::{get_varint, put_varint, WireSize};

/// Fail fast instead of wedging the test binary: run `body` on a helper
/// thread and panic if it has not finished within `secs` seconds (the point
/// of these tests is precisely that nothing ever blocks forever).
fn with_watchdog<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = body();
        let _ = tx.send(());
        out
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => handle.join().expect("watchdog body panicked"),
        Err(_) => panic!("test body exceeded {secs}s watchdog"),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg(u64);

/// The one value [`Msg`]'s codec mis-encodes, as an overlong varint that no
/// decoder accepts.
const GARBLED: u64 = 0xbad;

impl WireSize for Msg {
    fn wire_bits(&self) -> u32 {
        16
    }
}

impl FrameCodec for Msg {
    fn encode_frame(&self, buf: &mut Vec<u8>) {
        if self.0 == GARBLED {
            buf.extend_from_slice(&[0x80; 10]);
            buf.push(0x01);
        } else {
            put_varint(buf, self.0);
        }
    }

    fn decode_frame(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_varint(buf).map(Msg).ok_or(WireError::Malformed {
            what: "truncated msg varint".into(),
        })
    }
}

/// Reporting node with a panic trigger: any observation equal to `poison`
/// panics the shard thread mid-step (`u64::MAX` = never).
#[derive(Clone)]
struct FragileNode {
    id: NodeId,
    threshold: Value,
    observes: Arc<AtomicU64>,
    poison: Value,
}

impl NodeBehavior for FragileNode {
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
        RoundAction::idle()
    }

    fn checkpoint(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn rollback(&mut self, at: &Self) {
        *self = at.clone();
    }
}

/// Coordinator that runs one silent micro-round whenever any report arrived
/// (and skips truly silent steps).
struct SinkCoord {
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
        self.cur_round >= 1
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

fn fragile_nodes(n: usize, poison: Value) -> Vec<FragileNode> {
    (0..n)
        .map(|i| FragileNode {
            id: NodeId(i as u32),
            threshold: 2,
            observes: Arc::new(AtomicU64::new(0)),
            poison,
        })
        .collect()
}

/// A shard thread that panics mid-step surfaces as `Err(NodeDown)` on the
/// clean socket transport — a typed error, not a hung `recv_timeout` loop —
/// and dropping the cluster afterwards joins every surviving shard thread
/// instead of wedging on the dead one.
#[test]
fn dead_shard_becomes_typed_error_and_drop_joins() {
    with_watchdog(60, || {
        let mut cluster = SocketCluster::spawn(fragile_nodes(4, 666));
        let mut coord = SinkCoord { cur_round: 0 };
        cluster
            .try_step(&mut coord, 0, &[1, 2, 3, 4])
            .expect("healthy step");

        // Only node 3 changes, so only node 3 is framed — its shard dies
        // before replying and the reply wave times out onto the typed path.
        let err = cluster
            .try_step(&mut coord, 1, &[1, 2, 3, 666])
            .expect_err("node 3 panicked its shard");
        assert_eq!(err, RuntimeError::NodeDown { id: NodeId(3) });

        // The dead shard must not wedge teardown: Drop halts survivors and
        // joins all handles, skipping the panicked one.
        drop(cluster);
    });
}

/// Same pin on the chaotic transport: the recoverable wire adds reconnect
/// budgets and re-send retries, but a shard whose thread is gone is still a
/// typed `NodeDown`, never an infinite retry loop.
#[test]
fn dead_shard_is_typed_error_under_chaos_too() {
    with_watchdog(60, || {
        let policy = ChaosPolicy::quiet(5);
        let mut cluster = SocketCluster::spawn_chaotic(fragile_nodes(4, 666), policy);
        let mut coord = SinkCoord { cur_round: 0 };
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

/// A reply frame the driver cannot decode — here a node's report whose
/// codec wrote an overlong varint — fails the step it arrives on with a
/// typed `Transport` error naming the shard, instead of leaving the driver
/// to wait out the idle timeout for a reply that was already read.
#[test]
fn undecodable_reply_is_a_typed_transport_error() {
    with_watchdog(5, || {
        let mut cluster = SocketCluster::spawn(fragile_nodes(4, u64::MAX));
        let mut coord = SinkCoord { cur_round: 0 };
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
        let mut coord = SinkCoord { cur_round: 0 };
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
