//! Delta-driven vs dense threaded transport: silent-step cost at n ∈
//! {64, 256, 1024} node threads with a fixed absolute mover count.
//!
//! The acceptance metric of the delta-transport work: with the movers held
//! constant, per-silent-step frame traffic (and hence wall clock) of the
//! delta-driven path must stay flat as `n` grows, while the legacy dense
//! fan-out pays one frame round-trip per node per step. The workload is
//! [`WorkloadSpec::SparseWalk`] on a wide domain (2⁴⁰ ≫ step_max), so
//! steps are overwhelmingly communication-silent and the transport is the
//! only cost left.
//!
//! Frame-per-step counts are printed alongside the timings; the hard
//! movers-∪-engaged bound is asserted by
//! `crates/net/tests/threaded_frames.rs`, and `sync_frames` never enters
//! the model ledger.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use topk_core::msg::{DownMsg, UpMsg};
use topk_core::{Monitor, MonitorConfig, NodeMachine, ThreadedTopkMonitor, TopkMonitor};
use topk_net::behavior::{NodeBehavior, ObserveAction, RoundAction, ValueFeed};
use topk_net::id::{NodeId, Value};
use topk_net::runtime::Runtime;
use topk_net::threaded::ThreadedCluster;
use topk_streams::WorkloadSpec;

const SIZES: &[usize] = &[64, 256, 1024];
const MOVERS: usize = 8;

fn spec(n: usize) -> WorkloadSpec {
    WorkloadSpec::SparseWalk {
        n,
        lo: 0,
        hi: 1 << 40,
        step_max: 64,
        sparsity: MOVERS as f64 / n as f64,
    }
}

/// Steady-state delta-driven threaded path: change lists via `fill_delta`,
/// observation frames only to movers ∪ engaged.
fn threaded_sparse_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_sparse/sparse");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &n in SIZES {
        let mut mon = ThreadedTopkMonitor::new(MonitorConfig::new(n, 4), 9);
        let mut feed = spec(n).build(5);
        let mut changes: Vec<(NodeId, Value)> = Vec::new();
        let mut t = 0u64;
        feed.fill_delta(t, &mut changes);
        mon.step_sparse(t, &changes);
        let frames_before = mon.sync_frames();
        let steps_before = t;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                feed.fill_delta(t, &mut changes);
                mon.step_sparse(t, &changes);
                black_box(mon.silent_steps())
            });
        });
        let steps = t - steps_before;
        if steps > 0 {
            eprintln!(
                "threaded_sparse/sparse n={n}: {:.1} frames/step over {steps} steady steps \
                 ({MOVERS} movers)",
                (mon.sync_frames() - frames_before) as f64 / steps as f64
            );
        }
    }
    group.finish();
}

/// The pre-delta transport, reconstructed: a wrapper that does *not* opt
/// into `SPARSE_OBSERVE`, so every node thread receives an observation
/// frame every step — one channel round-trip per node per step.
struct DenseNode(NodeMachine);

impl NodeBehavior for DenseNode {
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

/// Steady-state dense fan-out: every node thread framed every step.
fn threaded_dense_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_sparse/dense_fanout");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for &n in SIZES {
        let cfg = MonitorConfig::new(n, 4);
        let (nodes, mut coord) = TopkMonitor::make_parts(cfg, 9);
        let mut cluster = ThreadedCluster::spawn(nodes.into_iter().map(DenseNode).collect());
        let mut feed = spec(n).build(5);
        let mut row = vec![0 as Value; n];
        let mut t = 0u64;
        feed.fill_step(t, &mut row);
        cluster.step(&mut coord, t, &row);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t += 1;
                feed.fill_step(t, &mut row);
                cluster.step(&mut coord, t, &row);
                black_box(cluster.silent_steps())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, threaded_sparse_steady, threaded_dense_steady);
criterion_main!(benches);
