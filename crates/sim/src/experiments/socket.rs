//! E10 — the socket runtime is observationally equivalent to the
//! sequential simulator (identical ledgers), the delta-driven transport
//! sends frames only to movers ∪ engaged nodes, and laptop-scale throughput.

use std::time::Instant;

use topk_core::monitor::Monitor;
use topk_core::{MonitorConfig, SocketTopkMonitor, TopkMonitor};
use topk_net::trace::TraceReplay;
use topk_streams::WorkloadSpec;

use crate::table::{f1, f2, Table};

use super::ExpCfg;

/// Ledgers and wall times of one (cfg, seed, trace) run on all three paths.
pub struct PairResult {
    pub seq: topk_net::ledger::LedgerSnapshot,
    pub soc: topk_net::ledger::LedgerSnapshot,
    /// Socket again, but delta-driven (`step_sparse` from trace deltas).
    pub soc_sparse: topk_net::ledger::LedgerSnapshot,
    pub seq_ms: f64,
    pub soc_ms: f64,
}

/// Run the same (cfg, seed, trace) on the sequential runtime and on the
/// socket runtime twice — once densely driven, once delta-driven.
pub fn run_pair(n: usize, k: usize, steps: usize, seed: u64) -> PairResult {
    let spec = WorkloadSpec::RandomWalk {
        n,
        lo: 0,
        hi: 1 << 16,
        step_max: 256,
        lazy_p: 0.2,
    };
    let trace = spec.record(seed, steps);
    let cfg = MonitorConfig::new(n, k);

    let t0 = Instant::now();
    let mut seq = TopkMonitor::new(cfg, seed);
    for t in 0..trace.steps() {
        seq.step(t as u64, trace.step(t));
    }
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut soc = SocketTopkMonitor::new(cfg, seed);
    for t in 0..trace.steps() {
        soc.step(t as u64, trace.step(t));
    }
    let soc_ms = t1.elapsed().as_secs_f64() * 1e3;

    let mut soc_sparse = SocketTopkMonitor::new(cfg, seed);
    let mut feed = TraceReplay::new(trace);
    let mut changes = Vec::new();
    for t in 0..steps as u64 {
        topk_net::behavior::ValueFeed::fill_delta(&mut feed, t, &mut changes);
        soc_sparse.step_sparse(t, &changes);
    }

    PairResult {
        seq: seq.ledger(),
        soc: soc.ledger(),
        soc_sparse: soc_sparse.ledger(),
        seq_ms,
        soc_ms,
    }
}

/// E10 — equivalence + frame accounting + throughput table.
pub fn e10_socket_equivalence(cfg: &ExpCfg) -> Vec<Table> {
    let steps = if cfg.quick { 150 } else { 600 };
    let configs: &[(usize, usize)] = if cfg.quick {
        &[(4, 1), (8, 3), (16, 4)]
    } else {
        &[(4, 1), (8, 3), (16, 4), (32, 8), (64, 4)]
    };
    let mut table = Table::new(
        "e10_socket_equivalence",
        "Socket runtime ≡ sequential simulator (model messages), plus transport frames",
        "Nodes live in up to 4 shards behind loopback-TCP sockets and exchange \
         length-prefixed frames; the synchronous model is emulated with \
         uncounted sync frames. For \
         identical seeds all execution paths must produce identical model \
         ledgers (up/down/broadcast and payload bits) — asserted, not just \
         reported. The delta-driven transport sends observation frames only \
         to changed and engaged nodes (the n·steps column is what the old \
         per-step observation fan-out alone cost); broadcast rounds remain \
         full fan-out, and this walk is churny, so total frames can still \
         exceed that figure — the movers-bound regime is pinned by the \
         socket_frames tests.",
        &[
            "n",
            "k",
            "steps",
            "model msgs",
            "ledgers equal",
            "old fanout n·steps",
            "sync frames",
            "seq wall ms",
            "socket wall ms",
            "seq steps/s",
        ],
    );
    for &(n, k) in configs {
        let r = run_pair(n, k, steps, cfg.seed);
        let (seq, soc, sos) = (r.seq, r.soc, r.soc_sparse);
        let model = |l: &topk_net::ledger::LedgerSnapshot| {
            (
                l.up,
                l.down,
                l.broadcast,
                l.up_bits,
                l.down_bits,
                l.broadcast_bits,
            )
        };
        let equal = model(&seq) == model(&soc) && model(&soc) == model(&sos);
        assert!(
            equal,
            "ledger divergence at n={n}, k={k}: sequential {seq:?} vs socket {soc:?} \
             vs socket-sparse {sos:?}"
        );
        assert_eq!(
            soc.sync_frames, sos.sync_frames,
            "dense step diffs internally, so both socket drives frame identically"
        );
        table.push_row(vec![
            n.to_string(),
            k.to_string(),
            steps.to_string(),
            seq.total().to_string(),
            equal.to_string(),
            ((n * steps) as u64).to_string(),
            sos.sync_frames.to_string(),
            f2(r.seq_ms),
            f2(r.soc_ms),
            f1(steps as f64 / (r.seq_ms / 1e3)),
        ]);
    }
    vec![table]
}
