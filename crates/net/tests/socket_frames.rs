//! The socket transport's frame and byte accounting and torn-stream
//! robustness.
//!
//! Frame side: each shard gets at most one work frame per wave and answers
//! with one reply frame. On a silent step the driver frames only
//! changed ∪ engaged nodes (`sync_frames` grows by O(#changed), not n, and
//! a superset change-list costs nothing extra) and the bytes written are
//! O(#changed + #engaged) — an unchanged row writes *zero* bytes. A
//! broadcast round is the full-fan-out exception, a `RoundScope`-narrowed
//! one frames only the shards of the scoped nodes, and a
//! `FireCalendar`-scheduled node is polled exactly once, at its fire
//! phase, with the broadcasts it skipped replayed inside that one frame.
//! All of this is asserted on both the driver's `sync_frames` and
//! [`topk_net::ledger::WireMetrics`], i.e. on real bytes.
//!
//! Stream side (PR 6's decode-never-panics suite extended from buffers to
//! streams): proptests that [`topk_net::socket::read_frame`] never panics
//! and returns the right typed [`WireError`] on truncated length prefixes,
//! oversized declared lengths, and mid-frame EOF.
//!
//! Every socket-spawning test runs under a watchdog ([`with_watchdog`]) so
//! a hung accept or a lost reply fails the test in seconds instead of
//! wedging `cargo test -q` (the clusters themselves bind port 0, never a
//! fixed port).

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use topk_net::behavior::{
    CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction, RoundScope,
};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::WireMetrics;
use topk_net::runtime::Runtime;
use topk_net::socket::{
    read_frame, write_frame, SocketCluster, WireError, FRAME_PREFIX_LEN, MAX_FRAME_LEN,
};

use common::{with_watchdog, Msg};

/// Change-driven mock node: a value change above `threshold` starts an
/// `echo_rounds` engagement; a value in `1..=49` schedules a calendar fire
/// at node-phase `value` instead. `observe` with an unchanged value is a
/// strict no-op, so the behavior legitimately declares `SPARSE_OBSERVE`.
struct LevelNode {
    id: NodeId,
    threshold: Value,
    echo_rounds: u32,
    last: Value,
    remaining: u32,
    wake: Option<u32>,
    observes: Arc<AtomicU64>,
    polls: Arc<AtomicU64>,
    /// Broadcast payloads delivered at this node's polls, in order.
    delivered: Arc<AtomicU64>,
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
        self.wake = None;
        self.remaining = 0;
        if changed && (1..=49).contains(&value) {
            self.wake = Some(value as u32);
            return ObserveAction {
                up: None,
                engaged: true,
                wake_at: Some(value as u32),
            };
        }
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
        m: u32,
        bcasts: &[Msg],
        ucast: Option<&Msg>,
    ) -> RoundAction<Msg> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.delivered
            .fetch_add(bcasts.len() as u64, Ordering::Relaxed);
        if let Some(w) = self.wake {
            return if m == w {
                self.wake = None;
                RoundAction {
                    up: Some(Msg(1000 + self.id.0 as u64)),
                    engaged: false,
                    wake_at: None,
                }
            } else {
                RoundAction {
                    up: None,
                    engaged: true,
                    wake_at: Some(w),
                }
            };
        }
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

/// Coordinator running a fixed number of micro-rounds per step, with an
/// optional scripted `(payload, scope)` broadcast per round of chosen time
/// steps; skips fully silent steps.
struct SinkCoord {
    rounds_per_step: u32,
    cur_round: u32,
    /// `(t, round, payload, scope)` broadcast script.
    bcast_script: Vec<(u64, u32, u64, RoundScope)>,
}

impl CoordinatorBehavior for SinkCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.cur_round = 0;
    }

    fn try_skip_silent_step(&mut self, t: u64) -> bool {
        !self.bcast_script.iter().any(|&(st, ..)| st == t)
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
        for &(st, sm, payload, scope) in &self.bcast_script {
            if st == t && sm == m {
                out.broadcasts.push(Msg(payload));
                out.scope = scope;
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

struct Harness {
    cluster: SocketCluster<LevelNode>,
    coord: SinkCoord,
    observes: Vec<Arc<AtomicU64>>,
    polls: Vec<Arc<AtomicU64>>,
    delivered: Vec<Arc<AtomicU64>>,
}

fn harness(
    n: usize,
    threshold: Value,
    echo_rounds: u32,
    bcast_script: Vec<(u64, u32, u64, RoundScope)>,
) -> Harness {
    let observes: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let polls: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let delivered: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let nodes = (0..n)
        .map(|i| LevelNode {
            id: NodeId(i as u32),
            threshold,
            echo_rounds,
            last: 0,
            remaining: 0,
            wake: None,
            observes: observes[i].clone(),
            polls: polls[i].clone(),
            delivered: delivered[i].clone(),
        })
        .collect();
    Harness {
        cluster: SocketCluster::spawn(nodes),
        coord: SinkCoord {
            rounds_per_step: 3,
            cur_round: 0,
            bcast_script,
        },
        observes,
        polls,
        delivered,
    }
}

fn counts(v: &[Arc<AtomicU64>]) -> Vec<u64> {
    v.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// Silent steps write bytes O(#changed), not O(n): after a dense init an
/// unchanged row writes zero frames *and zero bytes*, and a row with three
/// movers on three shards writes exactly 3 work frames plus their 3
/// replies.
#[test]
fn silent_step_bytes_are_o_changed() {
    with_watchdog(60, || {
        let n = 64;
        let mut h = harness(n, u64::MAX, 0, vec![]);
        let mut row: Vec<Value> = vec![5; n];
        h.cluster.step(&mut h.coord, 0, &row);
        let after_init = *h.cluster.wire();
        assert_eq!(
            after_init.frames_total,
            3 * h.cluster.shards() as u64,
            "init: one hello, one work frame and one reply per shard"
        );
        assert_eq!(h.cluster.ledger().sync_frames(), n as u64, "init is dense");

        // Unchanged rows: zero frames and zero bytes cross the sockets.
        h.cluster.step(&mut h.coord, 1, &row);
        h.cluster.step(&mut h.coord, 2, &row);
        assert_eq!(*h.cluster.wire(), after_init, "silence is byte-free");
        assert_eq!(h.cluster.ledger().sync_frames(), n as u64);

        // Three movers on shards 0, 2 and 3 (values above the
        // calendar-script range, below the report threshold): exactly 3
        // work frames + 3 replies.
        row[7] = 60;
        row[42] = 90;
        row[63] = 51;
        h.cluster.step(&mut h.coord, 3, &row);
        assert_eq!(h.cluster.ledger().sync_frames(), n as u64 + 3);
        let w = h.cluster.wire();
        assert_eq!(w.frames_total - after_init.frames_total, 6);
        assert!(
            w.bytes_total - after_init.bytes_total <= 6 * 32,
            "mover frames are small: {} bytes for 3 movers",
            w.bytes_total - after_init.bytes_total
        );
        let observes = counts(&h.observes);
        drop(h.cluster);
        for (i, &c) in observes.iter().enumerate() {
            let expect = if [7, 42, 63].contains(&i) { 2 } else { 1 };
            assert_eq!(c, expect, "node {i}: init + mover observes only");
        }
    });
}

/// An engaged node is framed (bytes written) on the next step even without
/// a value change, and its echo rounds write frames only for it —
/// O(#engaged) bytes while everyone else stays byte-silent.
#[test]
fn engaged_node_bytes_are_o_engaged() {
    with_watchdog(60, || {
        let n = 16;
        let mut h = harness(n, 100, 2, vec![]);
        let row: Vec<Value> = vec![60; n];
        h.cluster.step(&mut h.coord, 0, &row);
        let base = h.cluster.wire().frames_total;
        let after_init = h.cluster.ledger().sync_frames();
        assert_eq!(after_init, n as u64);

        // Node 3 fires and echoes twice: 1 observe + 2 round frames out,
        // 3 replies back — 6 frames total, all for node 3. The third round
        // has no engaged node left, so nobody is framed in it.
        let mut row2 = row.clone();
        row2[3] = 500;
        h.cluster.step(&mut h.coord, 1, &row2);
        assert_eq!(h.cluster.ledger().up(), 3, "report + two echoes");
        assert_eq!(h.cluster.ledger().sync_frames(), after_init + 1 + 2);
        assert_eq!(h.cluster.wire().frames_total - base, 6);
        assert_eq!(h.cluster.wire().frames_sent(topk_net::ChannelKind::Up), 3);
        assert!(h.cluster.engaged_nodes().is_empty(), "episode concluded");

        // Steady again: zero frames, zero bytes.
        let settled = *h.cluster.wire();
        h.cluster.step(&mut h.coord, 2, &row2);
        assert_eq!(*h.cluster.wire(), settled);
        assert_eq!(h.cluster.ledger().sync_frames(), after_init + 3);
        let polls = counts(&h.polls);
        drop(h.cluster);
        assert_eq!(polls[3], 2, "only node 3's echo rounds polled");
        assert_eq!(polls.iter().sum::<u64>(), 2);
    });
}

/// A broadcast round is the full-fan-out exception, and `RoundScope`
/// narrowing is measured on the wire: a `RoundScope::All` broadcast frames
/// every node (n sync frames, every node polled) in one broadcast copy per
/// shard, although node-phase 0 framed nobody, while the same broadcast
/// under `RoundScope::Engaged` with nobody engaged writes zero node
/// frames.
#[test]
fn round_scope_narrowing_measured_in_bytes() {
    with_watchdog(60, || {
        let n = 32;
        // t=2: full-fanout broadcast; t=3: engaged-scoped broadcast.
        let script = vec![
            (2u64, 0u32, 777u64, RoundScope::All),
            (3, 0, 888, RoundScope::Engaged),
        ];
        let mut h = harness(n, u64::MAX, 0, script);
        let row: Vec<Value> = vec![5; n];
        h.cluster.step(&mut h.coord, 0, &row);
        h.cluster.step(&mut h.coord, 1, &row);
        let before = *h.cluster.wire();
        assert_eq!(before.broadcast_frames, 0);
        let sync_before = h.cluster.ledger().sync_frames();
        assert_eq!(sync_before, n as u64, "silent steps framed nobody");

        // Full fan-out: every node framed, in one work frame, one reply and
        // one broadcast copy per shard.
        h.cluster.step(&mut h.coord, 2, &row);
        assert_eq!(
            h.cluster.ledger().sync_frames() - sync_before,
            n as u64,
            "broadcast fans out to every node"
        );
        let w = *h.cluster.wire();
        let shards = h.cluster.shards() as u64;
        assert_eq!(w.frames_total - before.frames_total, 2 * shards);
        assert_eq!(w.broadcast_frames, shards, "one broadcast copy per shard");
        assert_eq!(h.cluster.ledger().broadcast(), 1, "model charges once");

        // Engaged-scoped broadcast with nobody engaged: zero node frames —
        // the model ledger still charges the broadcast in full.
        h.cluster.step(&mut h.coord, 3, &row);
        assert_eq!(h.cluster.ledger().sync_frames(), sync_before + n as u64);
        let w2 = *h.cluster.wire();
        assert_eq!(
            w2.frames_total, w.frames_total,
            "scoped round framed nobody"
        );
        assert_eq!(w2.broadcast_frames, w.broadcast_frames);
        assert_eq!(
            h.cluster.ledger().broadcast(),
            2,
            "model unaffected by scope"
        );
        let polls = counts(&h.polls);
        drop(h.cluster);
        assert_eq!(
            polls.iter().sum::<u64>(),
            n as u64,
            "only the fanout polled"
        );
    });
}

/// A `FireCalendar`-scheduled node is framed exactly once, at its fire
/// phase, and the broadcasts emitted during the rounds it skipped are
/// replayed inside that one frame — the skip rule is bytes never written.
#[test]
fn scheduled_node_framed_once_at_fire_phase() {
    with_watchdog(60, || {
        let n = 8;
        // Broadcasts (engaged-scoped, so they don't force a fanout) in
        // rounds 0 and 1 of t=1; node 2 schedules its fire at phase 2.
        let script = vec![
            (1u64, 0u32, 41u64, RoundScope::Engaged),
            (1, 1, 42, RoundScope::Engaged),
        ];
        let mut h = harness(n, u64::MAX, 0, script);
        let row: Vec<Value> = vec![0; n];
        h.cluster.step(&mut h.coord, 0, &row);
        let base = h.cluster.wire().frames_total;

        // Node 2 observes "2" → schedules wake at node-phase 2.
        let mut row2 = row.clone();
        row2[2] = 2;
        h.cluster.step(&mut h.coord, 1, &row2);
        let w = h.cluster.wire();
        // 1 observe frame + 1 fire-phase round frame out, 2 replies back.
        assert_eq!(w.frames_total - base, 4, "scheduled node framed once");
        assert_eq!(
            h.cluster.ledger().up(),
            1,
            "exactly the fire-phase report reached the coordinator"
        );
        let polls = counts(&h.polls);
        let delivered = counts(&h.delivered);
        drop(h.cluster);
        assert_eq!(polls[2], 1, "one poll: the fire phase");
        assert_eq!(polls.iter().sum::<u64>(), 1, "nobody else polled");
        assert_eq!(
            delivered[2], 2,
            "both skipped broadcasts replayed in the fire frame"
        );
    });
}

/// Superset change-lists (unchanged values repeated, as the fill_delta
/// contract permits) cost no frames: the driver filters them against its
/// cached row, so only the real mover is framed and observed.
#[test]
fn superset_changes_cost_no_frames() {
    with_watchdog(60, || {
        let n = 8;
        let mut h = harness(n, u64::MAX, 0, vec![]);
        let init: Vec<(NodeId, Value)> = (0..n).map(|i| (NodeId(i as u32), 50)).collect();
        h.cluster.step_sparse(&mut h.coord, 0, &init);
        assert_eq!(h.cluster.ledger().sync_frames(), n as u64);
        let after_init = h.cluster.wire().frames_total;

        // Repeat three unchanged values plus one real mover: one node
        // framed, one work frame and its reply on the wire.
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
        assert_eq!(h.cluster.wire().frames_total - after_init, 2);
        let observes = counts(&h.observes);
        drop(h.cluster);
        assert_eq!(observes[5], 2, "the real mover was observed");
        assert_eq!(observes[1], 1, "repeated values were filtered out");
        assert_eq!(observes[2], 1);
        assert_eq!(observes[7], 1);
    });
}

/// The dense and sparse entry points drive the identical byte stream, model
/// ledger and per-node observe pattern — the socket transport is one code
/// path behind two entry points.
#[test]
fn dense_and_sparse_drives_write_identical_bytes() {
    with_watchdog(60, || {
        let steps: Vec<Vec<Value>> = vec![
            vec![51, 52, 53, 54, 55, 56],
            vec![51, 52, 53, 54, 55, 56],
            vec![900, 52, 53, 54, 55, 56],
            vec![900, 52, 53, 54, 55, 800],
            vec![51, 52, 53, 54, 55, 800],
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
        assert_eq!(
            dense.cluster.wire(),
            sparse.cluster.wire(),
            "identical byte streams"
        );
        let (a, b) = (
            dense.cluster.ledger().snapshot(),
            sparse.cluster.ledger().snapshot(),
        );
        assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
        assert_eq!(a.total_bits(), b.total_bits());
        assert_eq!(a.sync_frames, b.sync_frames, "identical frame traffic");
        assert_eq!(
            counts(&dense.observes),
            counts(&sparse.observes),
            "identical per-node observe patterns"
        );
    });
}

/// A `WireMetrics` invariant the driver maintains: model-attributed bytes
/// never exceed the total, and the overhead split is exact.
#[test]
fn wire_overhead_split_is_exact() {
    with_watchdog(60, || {
        let n = 12;
        let mut h = harness(n, 100, 2, vec![(1, 0, 9, RoundScope::All)]);
        let mut row: Vec<Value> = vec![50; n];
        h.cluster.step(&mut h.coord, 0, &row);
        row[5] = 700;
        h.cluster.step(&mut h.coord, 1, &row);
        let w: WireMetrics = *h.cluster.wire();
        assert!(w.model_bytes() <= w.bytes_total);
        assert_eq!(w.overhead_bytes(), w.bytes_total - w.model_bytes());
        assert!(w.up_frames > 0 && w.broadcast_frames == h.cluster.shards() as u64);
    });
}

proptest! {
    /// Arbitrary byte streams never panic the frame reader: every outcome
    /// is `Ok` or a typed `WireError`.
    #[test]
    fn arbitrary_streams_never_panic(bytes in proptest::collection::vec(0u8..=0xff, 0..256)) {
        let mut r: &[u8] = &bytes;
        let mut payload = Vec::new();
        loop {
            match read_frame(&mut r, &mut payload) {
                Ok(()) => {}
                Err(
                    WireError::TruncatedPrefix { .. }
                    | WireError::TruncatedFrame { .. }
                    | WireError::Oversized { .. },
                ) => break,
                Err(other) => prop_assert!(false, "byte-slice read can only truncate: {other}"),
            }
        }
    }

    /// A valid frame truncated at *any* byte boundary yields the matching
    /// typed error: inside the prefix → `TruncatedPrefix`, inside the
    /// payload → `TruncatedFrame`; never a panic, never a bogus `Ok`.
    #[test]
    fn truncation_at_every_cut_is_typed(
        payload in proptest::collection::vec(0u8..=0xff, 1..64),
        cut_seed in 0usize..4096,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let cut = cut_seed % wire.len(); // 0 ≤ cut < full length
        let mut r: &[u8] = &wire[..cut];
        let mut out = Vec::new();
        let err = read_frame(&mut r, &mut out).unwrap_err();
        if cut < FRAME_PREFIX_LEN {
            prop_assert_eq!(err, WireError::TruncatedPrefix { have: cut });
        } else {
            prop_assert_eq!(
                err,
                WireError::TruncatedFrame { declared: payload.len(), have: cut - FRAME_PREFIX_LEN }
            );
        }
    }

    /// Oversized declared lengths are rejected up front — no allocation,
    /// no read past the prefix.
    #[test]
    fn oversized_lengths_rejected(extra in 1u64..u64::from(u32::MAX) - MAX_FRAME_LEN as u64) {
        let declared = (MAX_FRAME_LEN as u64 + extra) as u32;
        let mut wire = declared.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xab; 8]);
        let mut r: &[u8] = &wire;
        let mut out = Vec::new();
        prop_assert_eq!(
            read_frame(&mut r, &mut out),
            Err(WireError::Oversized { declared: declared as usize, max: MAX_FRAME_LEN })
        );
        prop_assert!(out.capacity() < MAX_FRAME_LEN);
    }

    /// Round-trip: any sequence of payloads framed then read back is
    /// identical, ending in a clean EOF.
    #[test]
    fn frame_stream_roundtrip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=0xff, 0..128), 0..8)
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut r: &[u8] = &wire;
        let mut out = Vec::new();
        for p in &payloads {
            read_frame(&mut r, &mut out).unwrap();
            prop_assert_eq!(&out, p);
        }
        prop_assert!(read_frame(&mut r, &mut out).unwrap_err().is_clean_eof());
    }
}
