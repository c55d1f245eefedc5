//! The four workloads, their input generators, and the two public surfaces
//! they drive (`MonitorSession`, `TopkService`) behind one trait.

use topk_core::session::{Engine, MonitorBuilder, MonitorSession};
use topk_core::{RunMetrics, TopkEvent};
use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};
use topk_serve::{ServeBuilder, TopkService};
use topk_streams::WorkloadSpec;

/// Monitored positions on every workload.
pub const K: usize = 8;

/// Keys of the three large workloads. At 10× this the working set
/// (~130 MB) shares the machine's L3 with other tenants, and its step
/// latency flips between two levels with their load.
const N_LARGE: usize = 100_000;

/// `churn-100k` swaps its boundary pair every this many steps: one
/// FILTERRESET on 2 % of the steps, so `step_p99_us` is a reset.
const FLIP_PERIOD: u64 = 50;

/// Shards of `serve-100k`: one per vCPU of the 2-vCPU machine the bounds in
/// `BENCHMARK.json` were measured on.
const SERVE_SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Silent100k,
    Churn100k,
    Socket256,
    Serve100k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Silent100k,
        Workload::Churn100k,
        Workload::Socket256,
        Workload::Serve100k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Silent100k => "silent-100k",
            Workload::Churn100k => "churn-100k",
            Workload::Socket256 => "socket-256",
            Workload::Serve100k => "serve-100k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps of one repetition in `--reps` mode (a fixed count, so the
    /// deterministic metrics repeat exactly); each takes about 3–5 s.
    pub fn nominal_steps(self) -> u64 {
        match self {
            Workload::Silent100k | Workload::Serve100k => 100_000,
            Workload::Churn100k => 20_000,
            Workload::Socket256 => 6_000,
        }
    }

    pub fn n(self) -> usize {
        match self {
            Workload::Socket256 => 256,
            _ => N_LARGE,
        }
    }

    /// The input stream: a pure function of `seed`.
    pub fn feed(self, seed: u64) -> Box<dyn ValueFeed> {
        match self {
            Workload::Silent100k | Workload::Serve100k => silent_walk(N_LARGE).build(seed),
            Workload::Churn100k => Box::new(BoundaryFlip::new(
                silent_walk(N_LARGE - 2).build(seed),
                K,
                FLIP_PERIOD,
            )),
            // In a 2^19-wide domain about 6 % of the steps reset and 90 %
            // are silent, so the p50 is a silent step; at 2^16 a third of
            // the steps reset and the p50 jumps between the two kinds.
            Workload::Socket256 => WorkloadSpec::RandomWalk {
                n: 256,
                lo: 0,
                hi: 1 << 19,
                step_max: 256,
                lazy_p: 0.2,
            }
            .build(seed),
        }
    }

    pub fn engine(self) -> Engine {
        match self {
            Workload::Socket256 => Engine::Socket,
            _ => Engine::Sequential,
        }
    }

    pub fn session(self, seed: u64) -> MonitorSession {
        MonitorBuilder::new(self.n(), K)
            .seed(seed)
            .engine(self.engine())
            .build()
    }

    pub fn service(self, seed: u64) -> TopkService {
        ServeBuilder::new(self.n(), K)
            .shards(SERVE_SHARDS)
            .seed(seed)
            .engine(self.engine())
            .build()
    }
}

/// 1000 of the keys take a ±64 step each time step in a 2^40-wide domain:
/// the top-k gaps (~2^23) dwarf every move, so the protocol stays silent.
fn silent_walk(n: usize) -> WorkloadSpec {
    WorkloadSpec::SparseWalk {
        n,
        lo: 0,
        hi: 1 << 40,
        step_max: 64,
        sparsity: 1_000.0 / N_LARGE as f64,
    }
}

/// A background feed of `n − 2` keys plus two keys that sit inside the gap
/// between the background's (k−1)-th and k-th largest values and trade
/// places every `period` steps. Every trade changes the top-k set, which
/// exact Algorithm 1 answers with one FILTERRESET — at a fixed cadence, so
/// the number of resets in a run does not depend on the seed.
pub struct BoundaryFlip {
    inner: Box<dyn ValueFeed>,
    k: usize,
    period: u64,
    /// `(upper, lower)` values of the pair, fixed at t = 0.
    levels: Option<(Value, Value)>,
    /// Whether key `n − 2` holds the upper value.
    first_upper: bool,
}

impl BoundaryFlip {
    pub fn new(inner: Box<dyn ValueFeed>, k: usize, period: u64) -> Self {
        assert!(k >= 2 && period >= 1);
        BoundaryFlip {
            inner,
            k,
            period,
            levels: None,
            first_upper: true,
        }
    }

    /// Move the pair to step `t` and report whether its values changed.
    /// `background` is read only on the first, dense, step: the pair goes
    /// a quarter gap inside the background's (k−1)-th and k-th largest.
    fn advance_pair(&mut self, t: u64, background: impl Iterator<Item = Value>) -> bool {
        if self.levels.is_none() {
            let mut values: Vec<Value> = background.collect();
            values.sort_unstable_by(|a, b| b.cmp(a));
            let (above, below) = (values[self.k - 2], values[self.k - 1]);
            let quarter = (above - below) / 4;
            assert!(quarter > 0, "boundary gap too narrow for the pair");
            self.levels = Some((above - quarter, below + quarter));
            true
        } else if t.is_multiple_of(self.period) {
            self.first_upper = !self.first_upper;
            true
        } else {
            false
        }
    }

    fn pair(&self) -> [(NodeId, Value); 2] {
        let (upper, lower) = self.levels.expect("levels are set at t = 0");
        let first = self.inner.n() as u32;
        let (a, b) = if self.first_upper {
            (upper, lower)
        } else {
            (lower, upper)
        };
        [(NodeId(first), a), (NodeId(first + 1), b)]
    }
}

impl ValueFeed for BoundaryFlip {
    fn n(&self) -> usize {
        self.inner.n() + 2
    }

    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        let background = &mut out[..self.inner.n()];
        self.inner.fill_step(t, background);
        self.advance_pair(t, background.iter().copied());
        for (id, v) in self.pair() {
            out[id.idx()] = v;
        }
    }

    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        self.inner.fill_delta(t, changes);
        if self.advance_pair(t, changes.iter().map(|&(_, v)| v)) {
            changes.extend(self.pair());
        }
    }
}

/// Counters read at the start and end of the measured steps.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub metrics: RunMetrics,
    pub ledger: LedgerSnapshot,
    pub wire: WireMetrics,
    /// Coordinator micro-rounds (sessions only).
    pub micro_rounds: u64,
    /// Model-message total per shard (the service only).
    pub shard_ledgers: Vec<u64>,
}

/// The public surface a workload drives.
pub trait System {
    /// Layer name for the per-layer metrics (`session` or `serve`).
    const LAYER: &'static str;
    fn update_batch(&mut self, changes: &[(NodeId, Value)]);
    fn advance(&mut self, t: u64) -> &[TopkEvent];
    fn topk(&self) -> &[NodeId];
    fn threshold(&self) -> Option<Value>;
    /// Whether `threshold()` claims the exact (k+1)-th largest value.
    const THRESHOLD_IS_BAR: bool;
    fn counters(&self) -> Counters;
    /// `(ledger total, resets)`, cheap enough to read every step; `None`
    /// where reading them costs a round trip to worker threads.
    fn step_marks(&self) -> Option<(u64, u64)>;
}

impl System for MonitorSession {
    const LAYER: &'static str = "session";
    const THRESHOLD_IS_BAR: bool = false;

    fn update_batch(&mut self, changes: &[(NodeId, Value)]) {
        MonitorSession::update_batch(self, changes.iter().copied());
    }

    fn advance(&mut self, t: u64) -> &[TopkEvent] {
        MonitorSession::advance(self, t)
    }

    fn topk(&self) -> &[NodeId] {
        MonitorSession::topk(self)
    }

    fn threshold(&self) -> Option<Value> {
        MonitorSession::threshold(self)
    }

    fn counters(&self) -> Counters {
        Counters {
            metrics: *self.metrics(),
            ledger: self.ledger(),
            wire: self.wire().copied().unwrap_or_default(),
            micro_rounds: self.micro_rounds_run(),
            shard_ledgers: Vec::new(),
        }
    }

    fn step_marks(&self) -> Option<(u64, u64)> {
        Some((self.ledger().total(), self.metrics().resets))
    }
}

impl System for TopkService {
    const LAYER: &'static str = "serve";
    const THRESHOLD_IS_BAR: bool = true;

    fn update_batch(&mut self, changes: &[(NodeId, Value)]) {
        TopkService::update_batch(self, changes.iter().copied());
    }

    fn advance(&mut self, t: u64) -> &[TopkEvent] {
        TopkService::advance(self, t)
    }

    fn topk(&self) -> &[NodeId] {
        TopkService::topk(self)
    }

    fn threshold(&self) -> Option<Value> {
        TopkService::threshold(self)
    }

    fn counters(&self) -> Counters {
        Counters {
            metrics: self.metrics(),
            ledger: self.ledger(),
            wire: self.wire().unwrap_or_default(),
            micro_rounds: 0,
            shard_ledgers: (0..self.shard_count())
                .map(|s| self.shard_ledger(s).total())
                .collect(),
        }
    }

    fn step_marks(&self) -> Option<(u64, u64)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn boundary_flip_trades_the_pair_on_schedule() {
        let inner = WorkloadSpec::Ramp {
            n: 10,
            base: 0,
            gap: 100,
        }
        .build(0);
        let mut feed = BoundaryFlip::new(inner, 3, 4);
        assert_eq!(feed.n(), 12);
        let mut changes = Vec::new();
        feed.fill_delta(0, &mut changes);
        assert_eq!(changes.len(), 12);
        // Background top: 900, 800, 700; the pair sits between 800 and 700.
        assert_eq!(changes[10], (NodeId(10), 775));
        assert_eq!(changes[11], (NodeId(11), 725));
        for t in 1..4 {
            feed.fill_delta(t, &mut changes);
            assert!(changes.is_empty(), "t={t}");
        }
        feed.fill_delta(4, &mut changes);
        assert_eq!(changes, vec![(NodeId(10), 725), (NodeId(11), 775)]);
    }
}
