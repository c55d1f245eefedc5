//! Golden-frame snapshot: the exact wire bytes of a fixed 3-step socket
//! run, per connection, in order, pinned against a checked-in hex
//! snapshot (`tests/golden/wire_frames.hex`). Any drift in the frame
//! layout, the length prefix, the varint codec, or the visit rule shows up
//! here as a byte-level diff — a visible protocol break, never a silent
//! one.
//!
//! The run covers every frame kind: `Hello` handshakes, dense `Observe`
//! fan-out, value-less `ObserveCached` re-observation of an engaged node,
//! `Round` frames carrying broadcasts and a unicast, scope-narrowed
//! delivery, and the replies each of those provokes. Shard topology is a
//! pure function of `n`, so the per-connection streams are reproducible
//! byte for byte.
//!
//! To regenerate after an *intentional* protocol change:
//! `UPDATE_GOLDEN=1 cargo test -p topk-net --test wire_golden` — then
//! review the diff like any other code change.

mod common;

use topk_net::behavior::{
    CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction, RoundScope,
};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::socket::SocketCluster;

use common::{with_watchdog, Msg};

/// Deterministic node: a value above 100 reports and stays engaged for two
/// echo rounds (so the next step re-observes it via a cached frame path
/// when its value holds still).
struct EchoNode {
    id: NodeId,
    last: Value,
    remaining: u32,
}

impl NodeBehavior for EchoNode {
    type Up = Msg;
    type Down = Msg;

    const SPARSE_OBSERVE: bool = true;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
        let changed = value != self.last;
        self.last = value;
        if changed && value > 100 {
            self.remaining = 2;
            ObserveAction {
                up: Some(Msg(value)),
                engaged: true,
                wake_at: None,
            }
        } else if self.remaining > 0 {
            // Re-observed while still engaged (the cached-observe path).
            ObserveAction {
                up: None,
                engaged: true,
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
        bcasts: &[Msg],
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
                up: Some(Msg(self.remaining as u64 + bcasts.len() as u64)),
                engaged: self.remaining > 0,
                wake_at: None,
            }
        } else {
            RoundAction::idle()
        }
    }
}

/// Scripted coordinator: two micro-rounds per non-silent step; at `t = 1`
/// round 0 it broadcasts `777` to everyone (full fan-out) and unicasts
/// `55` to node 4; at `t = 2` round 0 it broadcasts `888` engaged-scoped.
struct ScriptCoord {
    cur: u32,
}

impl CoordinatorBehavior for ScriptCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.cur = 0;
    }

    fn try_skip_silent_step(&mut self, _t: u64) -> bool {
        true
    }

    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Msg)>,
        out: &mut CoordOut<Msg>,
    ) {
        ups.clear();
        self.cur = m + 1;
        if m == 0 {
            match t {
                1 => {
                    out.broadcasts.push(Msg(777));
                    out.unicasts.push((NodeId(4), Msg(55)));
                    out.scope = RoundScope::All;
                }
                2 => {
                    out.broadcasts.push(Msg(888));
                    out.scope = RoundScope::Engaged;
                }
                _ => {}
            }
        }
    }

    fn step_done(&self) -> bool {
        self.cur >= 2
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Run the fixed 3-step scenario and render every connection's bytes, both
/// directions, as stable `dir[shard]: hex` lines.
fn run_and_render() -> String {
    let n = 6;
    let nodes = (0..n)
        .map(|i| EchoNode {
            id: NodeId(i as u32),
            last: 0,
            remaining: 0,
        })
        .collect();
    let mut cluster: SocketCluster<EchoNode> = SocketCluster::spawn_captured(nodes);
    let mut coord = ScriptCoord { cur: 0 };

    // t=0: dense init (all six observed, nobody reports).
    cluster.step(&mut coord, 0, &[10, 20, 30, 40, 50, 60]);
    // t=1: node 2 fires (value 500 > 100), echoes through the scripted
    // broadcast + unicast round.
    cluster.step(&mut coord, 1, &[10, 20, 500, 40, 50, 60]);
    // t=2: node 2 unchanged but still engaged → cached observe; scoped
    // broadcast reaches only the engaged set.
    cluster.step(&mut coord, 2, &[10, 20, 500, 40, 50, 60]);

    let taps = cluster.capture().expect("captured cluster");
    let shards = cluster.shards();
    let (_nodes, wire) = cluster.shutdown_with_metrics();

    // Every byte the driver counted is a byte some tap captured: the wire
    // ledger and the physical streams agree exactly.
    assert_eq!(
        taps.total_bytes(),
        wire.bytes_total,
        "wire ledger must equal the sum of captured connection bytes"
    );

    let mut out = String::new();
    for s in 0..shards {
        let c2s = taps.to_shard[s].lock().unwrap();
        out.push_str(&format!("c2s[{s}]: {}\n", hex(&c2s)));
    }
    for s in 0..shards {
        let s2c = taps.from_shard[s].lock().unwrap();
        out.push_str(&format!("s2c[{s}]: {}\n", hex(&s2c)));
    }
    out
}

#[test]
fn wire_bytes_match_golden_snapshot() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_frames.hex");
    let rendered = with_watchdog(60, run_and_render);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(golden_path).parent().unwrap()).unwrap();
        std::fs::write(golden_path, &rendered).unwrap();
        eprintln!("golden snapshot rewritten: {golden_path}");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "wire bytes drifted from the golden snapshot; if the protocol \
         change is intentional, regenerate with UPDATE_GOLDEN=1 and review \
         the diff"
    );
}

/// The same scenario run twice produces identical bytes — the snapshot is
/// meaningful because the transport is deterministic, not accidentally so.
#[test]
fn wire_bytes_are_reproducible() {
    with_watchdog(60, || assert_eq!(run_and_render(), run_and_render()));
}
