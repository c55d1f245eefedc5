//! FILTERRESET cost: the batched k-select sweep, measured end to end
//! through the sequential runtime.
//!
//! Each iteration builds a fresh monitor and runs the `t = 0` init step —
//! which *is* one full FILTERRESET over all `n` nodes — so the timing
//! captures everything the reset schedule costs: coordinator rounds,
//! broadcast fan-outs, participant coin flips and the up-message plumbing.
//! Alongside the wall clock the harness prints the per-reset round and
//! message counts from the coordinator's phase-attributed metrics, the
//! quantities pinned exactly by `crates/core/tests/reset_rounds.rs`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use topk_core::{Monitor, MonitorConfig, TopkMonitor};
use topk_net::id::Value;
use topk_net::rng::substream_rng;

use rand::Rng;

/// (n, k) grid: growing n at the production k = 8, plus a wide-k point.
const GRID: &[(usize, usize)] = &[(1_000, 8), (10_000, 8), (100_000, 8), (10_000, 64)];

fn init_values(n: usize) -> Vec<Value> {
    let mut rng = substream_rng(0xbe7c, 1);
    (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect()
}

fn batched_reset(c: &mut Criterion) {
    let mut group = c.benchmark_group("reset_rounds/batched");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(3));
    for &(n, k) in GRID {
        let values = init_values(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_k{k}")),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), 42);
                    mon.step(0, &values);
                    black_box(mon.topk().len())
                });
            },
        );
        // One representative run's reset accounting.
        let mut mon = TopkMonitor::new(MonitorConfig::new(n, k), 42);
        mon.step(0, &values);
        let m = mon.metrics();
        eprintln!(
            "reset_rounds/batched n={n} k={k}: {} rounds, {} up-msgs, {} broadcasts per reset",
            m.reset_rounds, m.reset_up, m.reset_bcast
        );
    }
    group.finish();
}

criterion_group!(benches, batched_reset);
criterion_main!(benches);
