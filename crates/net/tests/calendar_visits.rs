//! Fire-round calendar contract ([`RoundAction::wake_at`]), pinned on both
//! runtimes with counting/recording behaviors:
//!
//! * a scheduled node is **not** polled in silent or engaged-scoped rounds
//!   before its wake phase — a protocol round visits `O(#due firers)`,
//!   not `O(#active)`;
//! * the broadcasts it skipped are replayed, in emission order, the next
//!   time it is polled (at the wake phase, or earlier in a full-fanout
//!   round);
//! * every-round engaged nodes keep the classic per-round delivery;
//! * the sequential and socket runtimes poll the same nodes the same
//!   number of times and deliver identical broadcast sequences, and the
//!   model ledger is unaffected by scheduling;
//! * a round's cutoff ([`CoordOut::cutoff`]) resolves a due node that
//!   cannot beat it without a poll or a frame, on both runtimes, for
//!   sparse-observing behaviors only, and never in a full fan-out.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use topk_net::behavior::{
    CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction, RoundScope,
};
use topk_net::id::{NodeId, RankEntry, Value};
use topk_net::runtime::Runtime;
use topk_net::seq::SyncRuntime;
use topk_net::socket::SocketCluster;
use topk_net::wire::Report;

use common::{with_watchdog, Msg};

/// Per-node record of `(phase, broadcast payloads delivered at that poll)`.
type DeliveryLog = Arc<Mutex<Vec<(u32, Vec<u64>)>>>;

/// Scripted node. The observed value selects the episode:
/// * `0` — stay idle;
/// * `1..=49` — schedule a send at node-phase `value` (fire-round calendar);
/// * `100 + r` — classic every-round engagement for `r` rounds.
///
/// Every poll is tallied and its delivered broadcast payloads recorded, so
/// tests can assert both visit counts and replay order.
struct CalNode {
    id: NodeId,
    wake: Option<u32>,
    echo_rounds: u32,
    polls: Arc<AtomicU64>,
    deliveries: DeliveryLog,
}

impl NodeBehavior for CalNode {
    type Up = Msg;
    type Down = Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
        self.wake = None;
        self.echo_rounds = 0;
        match value {
            0 => ObserveAction::idle(),
            v @ 1..=49 => {
                self.wake = Some(v as u32);
                ObserveAction {
                    up: None,
                    engaged: true,
                    wake_at: Some(v as u32),
                }
            }
            v => {
                self.echo_rounds = (v - 100) as u32;
                ObserveAction {
                    up: None,
                    engaged: self.echo_rounds > 0,
                    wake_at: None,
                }
            }
        }
    }

    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        bcasts: &[Msg],
        _ucast: Option<&Msg>,
    ) -> RoundAction<Msg> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.deliveries
            .lock()
            .unwrap()
            .push((m, bcasts.iter().map(|b| b.0).collect()));
        if let Some(w) = self.wake {
            return if m == w {
                // Fire: one report, episode over.
                self.wake = None;
                RoundAction {
                    up: Some(Msg(1000 + self.id.0 as u64)),
                    engaged: false,
                    wake_at: None,
                }
            } else {
                // Early poll (full fan-out): re-state the schedule.
                RoundAction {
                    up: None,
                    engaged: true,
                    wake_at: Some(w),
                }
            };
        }
        if self.echo_rounds > 0 {
            self.echo_rounds -= 1;
            RoundAction {
                up: Some(Msg(self.echo_rounds as u64)),
                engaged: self.echo_rounds > 0,
                wake_at: None,
            }
        } else {
            RoundAction::idle()
        }
    }
}

/// Coordinator scripted with one optional `(payload, scope)` broadcast and
/// one optional cutoff per round, running `rounds` micro-rounds per step;
/// records which node ids reported in which round.
struct ScriptCoord {
    rounds: u32,
    cur: u32,
    script: Vec<Option<(u64, RoundScope)>>,
    cutoffs: Vec<Option<Report>>,
    ups_by_round: Vec<(u32, Vec<u32>)>,
}

impl ScriptCoord {
    fn new(rounds: u32, script: Vec<Option<(u64, RoundScope)>>) -> Self {
        ScriptCoord {
            rounds,
            cur: 0,
            script,
            cutoffs: Vec::new(),
            ups_by_round: Vec::new(),
        }
    }
}

impl CoordinatorBehavior for ScriptCoord {
    type Up = Msg;
    type Down = Msg;

    fn begin_step(&mut self, _t: u64) {
        self.cur = 0;
    }

    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, Msg)>,
        out: &mut CoordOut<Msg>,
    ) {
        if !ups.is_empty() {
            self.ups_by_round
                .push((m, ups.iter().map(|(id, _)| id.0).collect()));
        }
        ups.clear();
        self.cur = m + 1;
        if let Some(Some((payload, scope))) = self.script.get(m as usize).copied() {
            out.broadcasts.push(Msg(payload));
            out.scope = scope;
        }
        out.cutoff = self.cutoffs.get(m as usize).copied().flatten();
    }

    fn step_done(&self) -> bool {
        self.cur >= self.rounds
    }

    fn topk(&self) -> &[NodeId] {
        &[]
    }
}

struct Harness {
    polls: Vec<Arc<AtomicU64>>,
    deliveries: Vec<DeliveryLog>,
    nodes: Vec<CalNode>,
}

fn harness(n: usize) -> Harness {
    let polls: Vec<_> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let deliveries: Vec<DeliveryLog> = (0..n).map(|_| Arc::default()).collect();
    let nodes = (0..n)
        .map(|i| CalNode {
            id: NodeId(i as u32),
            wake: None,
            echo_rounds: 0,
            polls: polls[i].clone(),
            deliveries: deliveries[i].clone(),
        })
        .collect();
    Harness {
        polls,
        deliveries,
        nodes,
    }
}

impl Harness {
    fn poll_counts(&self) -> Vec<u64> {
        self.polls
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    fn deliveries_of(&self, i: usize) -> Vec<(u32, Vec<u64>)> {
        self.deliveries[i].lock().unwrap().clone()
    }
}

const N: usize = 8;

/// Step script shared by every test: node 1 schedules a send at phase 5,
/// node 6 engages classically for 3 rounds; rounds 1–3 broadcast
/// engaged-scoped payloads 11, 22, 33; round 5 is silent.
fn values() -> Vec<Value> {
    let mut v = vec![0; N];
    v[1] = 5; // calendar: fire at phase 5
    v[6] = 103; // classic: engaged for 3 echo rounds
    v
}

fn scoped_script() -> Vec<Option<(u64, RoundScope)>> {
    vec![
        None,
        Some((11, RoundScope::Engaged)),
        Some((22, RoundScope::Engaged)),
        Some((33, RoundScope::Engaged)),
        None,
        None,
    ]
}

fn check_scoped_run(h: &Harness, coord: &ScriptCoord, tag: &str) {
    // Node 1: exactly ONE poll — its fire phase — despite 3 broadcast
    // rounds and 3 silent rounds an engaged node would all attend.
    // Node 6: polled in rounds 1..=3 (echoes drain), then dropped.
    let polls = h.poll_counts();
    assert_eq!(
        polls[1], 1,
        "{tag}: scheduled node polled once, at its phase"
    );
    assert_eq!(polls[6], 3, "{tag}: classic engagement unchanged");
    for i in [0, 2, 3, 4, 5, 7] {
        assert_eq!(polls[i], 0, "{tag}: idle node {i} never polled");
    }
    // The skipped broadcasts arrive at the fire phase, in emission order.
    assert_eq!(
        h.deliveries_of(1),
        vec![(5, vec![11, 22, 33])],
        "{tag}: replay must carry every missed broadcast in order"
    );
    // The classic node saw them round by round while engaged (coord round
    // `m`'s output lands at node-phase `m+1`; its engagement drains before
    // the third broadcast arrives).
    assert_eq!(
        h.deliveries_of(6),
        vec![(1, vec![]), (2, vec![11]), (3, vec![22])],
        "{tag}: engaged nodes keep per-round delivery"
    );
    // The scheduled report arrived in round 5.
    assert_eq!(
        coord.ups_by_round.last(),
        Some(&(5, vec![1u32])),
        "{tag}: the scheduled send lands in its round"
    );
}

#[test]
fn seq_scheduled_node_skips_rounds_and_replays_broadcasts() {
    let mut h = harness(N);
    let mut coord = ScriptCoord::new(6, scoped_script());
    let mut rt = SyncRuntime::new(std::mem::take(&mut h.nodes), 4);
    rt.step(&mut coord, 0, &values());
    // 3 broadcasts charged in full regardless of narrowed delivery.
    assert_eq!(rt.ledger().broadcast(), 3);
    assert_eq!(rt.ledger().up(), 1 + 3, "scheduled report + echoes");
    check_scoped_run(&h, &coord, "seq");
}

#[test]
fn socket_scheduled_node_skips_rounds_and_replays_broadcasts() {
    with_watchdog(60, || {
        let mut h = harness(N);
        let mut coord = ScriptCoord::new(6, scoped_script());
        let mut cluster = SocketCluster::spawn(std::mem::take(&mut h.nodes));
        cluster.step(&mut coord, 0, &values());
        assert_eq!(cluster.ledger().broadcast(), 3);
        assert_eq!(cluster.ledger().up(), 1 + 3);
        // Frames mirror the narrowed visits: n observes + node 6's rounds
        // 1..=3 + node 1's single fire-phase frame.
        assert_eq!(
            cluster.ledger().sync_frames(),
            (N + 3 + 1) as u64,
            "socket frames follow the calendar visit rule"
        );
        cluster.shutdown();
        check_scoped_run(&h, &coord, "socket");
    });
}

/// A full-fanout round before the wake phase polls the scheduled node
/// early: it catches up on everything missed so far (in order), stays
/// scheduled, and its fire-phase poll then carries only the remainder.
#[test]
fn fanout_round_catches_scheduled_nodes_up_early() {
    let script = vec![
        None,
        Some((11, RoundScope::Engaged)),
        Some((77, RoundScope::All)), // delivered at phase 3 to everyone
        Some((44, RoundScope::Engaged)),
        None,
        None,
    ];
    let run_seq = |script: Vec<Option<(u64, RoundScope)>>| {
        let mut h = harness(N);
        let mut coord = ScriptCoord::new(6, script);
        let mut rt = SyncRuntime::new(std::mem::take(&mut h.nodes), 4);
        rt.step(&mut coord, 0, &values());
        let counts = h.poll_counts();
        (h, counts, coord.ups_by_round)
    };
    let (h, polls, ups) = run_seq(script.clone());
    // Scheduled node: the fan-out poll (phase 3) + its fire phase (5).
    assert_eq!(polls[1], 2);
    // Idle nodes: exactly the one fan-out round.
    assert_eq!(polls[0], 1);
    assert_eq!(
        h.deliveries_of(1),
        vec![(3, vec![11, 77]), (5, vec![44])],
        "early catch-up takes the missed prefix; the fire poll the rest"
    );
    assert_eq!(ups.last(), Some(&(5, vec![1u32])));

    // The socket runtime delivers the identical sequences.
    let (h2, ups2) = with_watchdog(60, move || {
        let mut h2 = harness(N);
        let mut coord = ScriptCoord::new(6, script);
        let mut cluster = SocketCluster::spawn(std::mem::take(&mut h2.nodes));
        cluster.step(&mut coord, 0, &values());
        cluster.shutdown();
        (h2, coord.ups_by_round)
    });
    assert_eq!(h2.poll_counts(), polls, "socket visit counts match seq");
    assert_eq!(h2.deliveries_of(1), h.deliveries_of(1));
    assert_eq!(ups2, ups);
}

/// Leftover schedules die with the step: a node whose wake phase lies
/// beyond the step's last round is simply never polled, and the next step
/// starts from a clean calendar.
#[test]
fn schedules_do_not_survive_the_step() {
    let mut h = harness(N);
    let mut coord = ScriptCoord::new(3, vec![None, None, None]);
    let mut rt = SyncRuntime::new(std::mem::take(&mut h.nodes), 4);
    let mut v = vec![0; N];
    v[1] = 30; // wake phase far beyond the step's 3 rounds
    rt.step(&mut coord, 0, &v);
    assert_eq!(h.poll_counts()[1], 0, "never due within the step");
    // Next step: all idle — and no stale calendar entry fires.
    rt.step(&mut coord, 1, &[0; N]);
    assert_eq!(h.poll_counts()[1], 0);
    assert_eq!(rt.ledger().up(), 0);
}

/// A cutoff on a non-sparse behavior is ignored: the step script of the
/// scoped test, with a cutoff no node can beat on every round, visits
/// exactly as without one, on both runtimes.
#[test]
fn cutoff_is_ignored_for_non_sparse_behaviors() {
    let unbeatable = Report {
        id: NodeId(0),
        value: Value::MAX,
    };
    let coord = move || {
        let mut c = ScriptCoord::new(6, scoped_script());
        c.cutoffs = vec![Some(unbeatable); 6];
        c
    };
    let mut h = harness(N);
    let mut c = coord();
    let mut rt = SyncRuntime::new(std::mem::take(&mut h.nodes), 4);
    rt.step(&mut c, 0, &values());
    check_scoped_run(&h, &c, "seq");

    with_watchdog(60, move || {
        let mut h = harness(N);
        let mut c = coord();
        let mut cluster = SocketCluster::spawn(std::mem::take(&mut h.nodes));
        cluster.step(&mut c, 0, &values());
        assert_eq!(cluster.ledger().sync_frames(), (N + 3 + 1) as u64);
        cluster.shutdown();
        check_scoped_run(&h, &c, "socket");
    });
}

/// Sweep payloads of the cutoff arms: `START` opens an episode, `DONE`
/// closes it, and any other payload is a bar `value << 8 | id`.
const START: u64 = 1;
const DONE: u64 = 2;

fn bar(r: Report) -> u64 {
    r.value << 8 | r.id.0 as u64
}

/// A sparse-observing sweep participant, so that both runtimes cache its
/// value. `START` schedules one report of its value at its fixed fire
/// phase; a bar it cannot beat withdraws the report (as in a k-select
/// sweep), and `DONE` ends the episode. Polls and deliveries are recorded
/// like [`CalNode`]'s.
struct BarNode {
    id: NodeId,
    value: Value,
    fire_at: u32,
    live: bool,
    polls: Arc<AtomicU64>,
    deliveries: DeliveryLog,
}

impl NodeBehavior for BarNode {
    type Up = Msg;
    type Down = Msg;

    /// An idle node's observe only stores the value.
    const SPARSE_OBSERVE: bool = true;

    fn id(&self) -> NodeId {
        self.id
    }

    fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
        self.value = value;
        ObserveAction::idle()
    }

    fn micro_round(
        &mut self,
        _t: u64,
        m: u32,
        bcasts: &[Msg],
        _ucast: Option<&Msg>,
    ) -> RoundAction<Msg> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.deliveries
            .lock()
            .unwrap()
            .push((m, bcasts.iter().map(|b| b.0).collect()));
        let me = RankEntry::new(self.value, self.id);
        for b in bcasts {
            match b.0 {
                START => self.live = true,
                DONE => self.live = false,
                b => self.live &= me > RankEntry::new(b >> 8, NodeId((b & 0xff) as u32)),
            }
        }
        if !self.live {
            return RoundAction::idle();
        }
        if m == self.fire_at {
            self.live = false;
            return RoundAction {
                up: Some(Msg(self.value)),
                engaged: false,
                wake_at: None,
            };
        }
        RoundAction {
            up: None,
            engaged: true,
            wake_at: Some(self.fire_at),
        }
    }
}

/// `(value, fire phase)` of the eight sweep participants. Nodes 2, 3, 4
/// and 7 tie at 30 against the second bar `(30, id 4)`: the lower ids 2
/// and 3 beat it, node 4 is the bar itself, and node 7 loses the tie.
const SWEEP: [(Value, u32); N] = [
    (10, 3),
    (70, 4),
    (30, 4),
    (30, 4),
    (30, 4),
    (50, 2),
    (20, 3),
    (30, 4),
];
const BAR1: Report = Report {
    id: NodeId(6),
    value: 20,
};
const BAR2: Report = Report {
    id: NodeId(4),
    value: 30,
};

/// What one sweep step left behind.
struct SweepRun {
    polls: Vec<u64>,
    deliveries: Vec<Vec<(u32, Vec<u64>)>>,
    coord: ScriptCoord,
}

/// The sweep: `START` to everyone, a bar in rounds 1 and 3, and a full
/// fan-out `DONE` in round 5. Every round after `START` carries the last
/// announced bar as its cutoff, the `DONE` fan-out included. `step` runs
/// the one step on a runtime of its choice.
fn run_sweep(step: impl FnOnce(Vec<BarNode>, &mut ScriptCoord, &[Value])) -> SweepRun {
    let polls: Vec<_> = (0..N).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let deliveries: Vec<DeliveryLog> = (0..N).map(|_| Arc::default()).collect();
    let nodes = SWEEP
        .iter()
        .enumerate()
        .map(|(i, &(value, fire_at))| BarNode {
            id: NodeId(i as u32),
            value,
            fire_at,
            live: false,
            polls: polls[i].clone(),
            deliveries: deliveries[i].clone(),
        })
        .collect();
    let mut coord = ScriptCoord::new(
        6,
        vec![
            Some((START, RoundScope::All)),
            Some((bar(BAR1), RoundScope::Engaged)),
            None,
            Some((bar(BAR2), RoundScope::Engaged)),
            None,
            Some((DONE, RoundScope::All)),
        ],
    );
    coord.cutoffs = vec![
        None,
        Some(BAR1),
        Some(BAR1),
        Some(BAR2),
        Some(BAR2),
        Some(BAR2),
    ];
    let values: Vec<Value> = SWEEP.iter().map(|&(v, _)| v).collect();
    step(nodes, &mut coord, &values);
    SweepRun {
        polls: polls.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        deliveries: deliveries
            .iter()
            .map(|d| d.lock().unwrap().clone())
            .collect(),
        coord,
    }
}

/// Poll pins of the sweep: a node below the cutoff is never polled at its
/// fire phase, one above it is polled there and gets its whole replay
/// slice, ties go by id, and the `DONE` fan-out reaches everyone despite
/// its cutoff.
fn check_sweep(run: &SweepRun, tag: &str) {
    let SweepRun {
        polls,
        deliveries,
        coord,
    } = run;
    // START and DONE poll everyone; only the reporters are polled between.
    assert_eq!(*polls, [2, 3, 3, 3, 2, 3, 2, 2], "{tag}: polls per node");
    assert_eq!(
        coord.ups_by_round,
        vec![(2, vec![5]), (4, vec![1, 2, 3])],
        "{tag}: the reporters report at their fire phases"
    );
    let (b1, b2) = (bar(BAR1), bar(BAR2));
    assert_eq!(
        deliveries[1],
        vec![(1, vec![START]), (4, vec![b1, b2]), (6, vec![DONE])],
        "{tag}: a reporter gets its whole replay slice"
    );
    assert_eq!(deliveries[5][1], (2, vec![b1]), "{tag}: early reporter");
    for i in [0, 4, 6, 7] {
        assert_eq!(
            deliveries[i],
            vec![(1, vec![START]), (6, vec![DONE])],
            "{tag}: node {i} below the cutoff is resolved unpolled"
        );
    }
}

#[test]
fn seq_cutoff_skips_due_nodes_that_cannot_beat_it() {
    let run = run_sweep(|nodes, coord, values| {
        let mut rt = SyncRuntime::new(nodes, 4);
        rt.step(coord, 0, values);
        assert_eq!(rt.ledger().broadcast(), 4);
        assert_eq!(rt.ledger().up(), 4, "one report per reporter");
        assert_eq!(rt.micro_polls(), 2 * N as u64 + 4, "2n + reporters");
    });
    check_sweep(&run, "seq");
}

#[test]
fn socket_cutoff_skips_due_nodes_that_cannot_beat_it() {
    let run = with_watchdog(60, || {
        run_sweep(|nodes, coord, values| {
            let mut cluster = SocketCluster::spawn(nodes);
            cluster.step(coord, 0, values);
            assert_eq!(cluster.ledger().broadcast(), 4);
            assert_eq!(cluster.ledger().up(), 4);
            // Observe, START and DONE frame every node; between them only
            // the four reporters get a frame entry.
            assert_eq!(
                cluster.ledger().sync_frames(),
                3 * N as u64 + 4,
                "no frame for a node below the cutoff"
            );
            cluster.shutdown();
        })
    });
    check_sweep(&run, "socket");
}
