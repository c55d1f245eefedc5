//! Dense vs sparse stepping at scale: n ∈ {1k, 10k, 100k} with 1% movers.
//!
//! The acceptance metric of the sparse-stepping work: steady-state
//! silent-step throughput of `step_sparse` (fed by `fill_delta`) must dwarf
//! the dense `fill_step` + `step` path at large `n` — per-step cost drops
//! from O(n) (row generation + diff) to O(#changed + #engaged).
//!
//! The workload is the natively sparse [`WorkloadSpec::SparseWalk`] on a
//! wide domain (2⁴⁰ ≫ step_max), i.e. the paper's "similar consecutive
//! values" regime where the k-boundary gap is far larger than any single
//! move and steps are overwhelmingly communication-silent. (On a narrow
//! domain the randomized reset protocol itself is Θ(n) per violation — a
//! message-complexity property no execution path can hide.)
//!
//! `cold_start` measures the whole run including construction and the
//! Θ(n log n) init reset, for context.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use topk_core::msg::{DownMsg, UpMsg};
use topk_core::{Monitor, MonitorConfig, NodeMachine, TopkMonitor};
use topk_net::behavior::{NodeBehavior, ObserveAction, RoundAction, ValueFeed};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::seq::SyncRuntime;
use topk_streams::WorkloadSpec;

const SIZES: &[usize] = &[1_000, 10_000, 100_000];
const MOVER_FRACTION: f64 = 0.01;

fn spec(n: usize) -> WorkloadSpec {
    WorkloadSpec::SparseWalk {
        n,
        lo: 0,
        hi: 1 << 40,
        step_max: 64,
        sparsity: MOVER_FRACTION,
    }
}

/// A monitor warmed past its dense init step, plus its feed, change-list
/// scratch, and current time.
type Warm = (TopkMonitor, Box<dyn ValueFeed>, Vec<(NodeId, Value)>, u64);

fn warm(n: usize) -> Warm {
    let mut mon = TopkMonitor::new(MonitorConfig::new(n, 8), 9);
    let mut feed = spec(n).build(5);
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    feed.fill_delta(0, &mut changes);
    mon.step_sparse(0, &changes);
    (mon, feed, changes, 0)
}

/// Steady-state dense path: full rows via `fill_step`, diffing `step`.
fn dense_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_step/dense");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &n in SIZES {
        let (mut mon, mut feed, _, mut t) = warm(n);
        let mut row = vec![0 as Value; n];
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                feed.fill_step(t, &mut row);
                mon.step(t, &row);
                black_box(mon.silent_steps())
            });
        });
    }
    group.finish();
}

/// Steady-state sparse path: change lists via `fill_delta`, `step_sparse`.
fn sparse_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_step/sparse");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &n in SIZES {
        let (mut mon, mut feed, mut changes, mut t) = warm(n);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                feed.fill_delta(t, &mut changes);
                mon.step_sparse(t, &changes);
                black_box(mon.silent_steps())
            });
        });
    }
    group.finish();
}

/// The pre-sparse-stepping execution model, reconstructed: a wrapper that
/// does *not* opt into `SPARSE_OBSERVE`, so the runtime calls `observe` on
/// every node every step (exactly the seed's dense scan). This is the
/// baseline the 10× acceptance target measures against.
struct LegacyNode(NodeMachine);

impl NodeBehavior for LegacyNode {
    type Up = UpMsg;
    type Down = DownMsg;

    // SPARSE_OBSERVE stays at its default `false`.

    fn id(&self) -> NodeId {
        self.0.id()
    }

    fn observe(&mut self, t: u64, value: Value) -> ObserveAction<UpMsg> {
        self.0.observe(t, value)
    }

    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        bcasts: &[DownMsg],
        ucast: Option<&DownMsg>,
    ) -> RoundAction<UpMsg> {
        self.0.micro_round(t, m, bcasts, ucast)
    }
}

/// Steady-state legacy path: `observe` on all n nodes every step.
fn legacy_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_step/legacy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &n in SIZES {
        let cfg = MonitorConfig::new(n, 8);
        let (nodes, mut coord) = TopkMonitor::make_parts(cfg, 9);
        let mut rt = SyncRuntime::new(nodes.into_iter().map(LegacyNode).collect(), 8);
        let mut feed = spec(n).build(5);
        let mut row = vec![0 as Value; n];
        let mut t = 0u64;
        feed.fill_step(t, &mut row);
        rt.step(&mut coord, t, &row);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                feed.fill_step(t, &mut row);
                rt.step(&mut coord, t, &row);
                black_box(rt.silent_steps())
            });
        });
    }
    group.finish();
}

/// Generator alone: one `fill_delta` step of the counter-based, stratified
/// `SparseWalk` (no monitor attached) — the satellite acceptance pin for
/// replacing ChaCha draws + the touched-index sort with splitmix64-style
/// counter draws and pre-sorted (one-stratum-per-mover) index generation.
/// Cost is O(movers) mixes with no block cipher and no sort; at 1% movers
/// this must sit well below the monitor's own step_sparse cost above.
fn generator_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_step/generator");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &n in SIZES {
        let mut feed = spec(n).build(5);
        let mut changes: Vec<(NodeId, Value)> = Vec::new();
        feed.fill_delta(0, &mut changes);
        let mut t = 0u64;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                feed.fill_delta(t, &mut changes);
                black_box(changes.len())
            });
        });
    }
    group.finish();
}

/// Whole-run cost including construction and the Θ(n log n) init reset.
fn cold_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_step/cold_start");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    const STEPS: u64 = 20;
    for &n in &[1_000usize, 10_000] {
        group.throughput(Throughput::Elements(STEPS));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut mon = TopkMonitor::new(MonitorConfig::new(n, 8), 9);
                let mut feed = spec(n).build(5);
                let mut changes: Vec<(NodeId, Value)> = Vec::new();
                for t in 0..STEPS {
                    feed.fill_delta(t, &mut changes);
                    mon.step_sparse(t, &changes);
                }
                black_box(mon.ledger().total())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    legacy_steady,
    dense_steady,
    sparse_steady,
    generator_steady,
    cold_start
);
criterion_main!(benches);
