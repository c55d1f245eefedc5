//! # topk-monitoring
//!
//! A complete Rust implementation of **“Online Top-k-Position Monitoring of
//! Distributed Data Streams”** (Alexander Mäcker, Manuel Malatyali,
//! Friedhelm Meyer auf der Heide; IPPS 2015, arXiv:1410.7912).
//!
//! `n` distributed nodes each observe a private stream of values; a
//! coordinator must know, at every time step, which `k` nodes currently hold
//! the `k` largest values — while exchanging as few messages as possible.
//! The paper's algorithm combines **filters** (intervals within which value
//! changes provably cannot affect the answer) with a **randomized Las Vegas
//! extremum protocol** (`E[#messages] ≤ 2·log₂N + 1`), and is
//! `O((log Δ + k) · log n)`-competitive against the optimal offline
//! filter-based algorithm.
//!
//! ## Quickstart
//!
//! One builder, one push-based ingest surface, typed output events — the
//! whole public API in six lines:
//!
//! ```
//! use topk_monitoring::prelude::*;
//!
//! // 32 sensors, monitor the top 3, seeded workload.
//! let n = 32;
//! let mut feed = WorkloadSpec::default_walk(n).build(7);
//!
//! let mut session = MonitorBuilder::new(n, 3).seed(42).build();
//! for t in 0..1000 {
//!     session.ingest(&mut feed, t);          // push this step's new values
//!     for event in session.advance(t) {      // commit; react to typed events
//!         let _ = event;                     // Entered / Left / RankChanged / …
//!     }
//! }
//!
//! // Cheap polling queries remain available between events:
//! assert_eq!(session.topk().len(), 3);
//! assert!(session.threshold().is_some());
//! // Vastly fewer messages than the 32_000 a naive scheme would send:
//! assert!(session.ledger().total() < 4_000);
//! ```
//!
//! [`MonitorBuilder`](core::MonitorBuilder) carries every knob (`n`, `k`,
//! slack, ε, [`HandlerMode`](core::HandlerMode), seed) plus an
//! [`Engine`](core::Engine) choice — `Sequential`, `Socket`, or `Auto`,
//! resolved by the one rule
//! [`MonitorBuilder::resolved_engine`](core::MonitorBuilder::resolved_engine)
//! — replacing the per-runtime pick between the dense/sparse drives of
//! [`TopkMonitor`](core::TopkMonitor) and
//! [`SocketTopkMonitor`](core::SocketTopkMonitor). Those two are
//! aliases of one monitor, [`Algorithm1`](core::Algorithm1), which holds
//! the coordinator and lends it to its [`Runtime`](net::Runtime) every
//! step. Every engine is
//! bit-identical in everything the model observes (answers, ledgers, node
//! state, RNG streams; pinned by `tests/runtime_conformance.rs`); the
//! socket engine additionally meters the *physical* side — frames and
//! bytes written to its loopback-TCP connections — via
//! [`MonitorSession::wire`](core::MonitorSession::wire).
//!
//! ## Sparse stepping
//!
//! Filters make most steps *communication*-free; the sparse execution path
//! makes them *computation*-free too. The session routes each committed
//! batch automatically: small batches take the engine's sparse path, so
//! only nodes whose value changed (plus any still engaged in a protocol
//! episode) are visited — `O(#changed + #engaged)` instead of `O(n)`:
//!
//! ```
//! use topk_monitoring::prelude::*;
//!
//! let n = 10_000;
//! // Natively sparse workload: 1% of nodes move per step.
//! let mut feed = WorkloadSpec::default_sparse_walk(n, 0.01).build(7);
//! let mut session = MonitorBuilder::new(n, 8).seed(42).build();
//! for t in 0..50 {
//!     session.ingest(&mut feed, t); // only the movers are buffered
//!     session.advance(t);           // O(#changed) commit, not O(n)
//! }
//! assert!(session.silent_steps() > 25, "most steps exchange no message");
//! ```
//!
//! `examples/million_nodes.rs` drives n = 1,000,000 this way, and the
//! `silent-100k` workload of `perfbench/` times it at n = 100,000.
//! Dense and sparse execution are bit-identical (ledgers, answers, RNG
//! streams) — property-tested in `tests/sparse_equivalence.rs`; the event
//! stream's replayability is property-tested in `tests/session_events.rs`.
//!
//! Direct engine access ([`TopkMonitor::new`](core::TopkMonitor::new),
//! [`SocketTopkMonitor::new`](core::SocketTopkMonitor::new), the
//! `step`/`step_sparse` drives) remains available for harnesses that need
//! it; application code should prefer the session.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`net`] | system model: ids, ledgers, wire sizes, the [`Runtime`](net::Runtime) trait and its sequential (sparse delta-driven) + loopback-TCP socket implementations |
//! | [`proto`] | Algorithm 2 (randomized max/min protocols), baselines, closed forms |
//! | [`filters`] | filter intervals, Lemma 2.2 validity, `T±` tracking |
//! | [`streams`] | seeded synthetic workloads ([`WorkloadSpec`](streams::WorkloadSpec)), delta generation ([`ValueFeed::fill_delta`](net::behavior::ValueFeed::fill_delta)) |
//! | [`core`] | the session facade, Algorithm 1 as one monitor over any runtime (dense + sparse stepping), online baselines, offline OPT |
//! | [`ordered`] | §5 ordered-top-k extension, exact S-way shard merge ([`ShardMerge`](ordered::ShardMerge)) |
//! | [`serve`] | sharded serving layer: [`ServeBuilder`](serve::ServeBuilder) hashes millions of keys across shard sessions behind one ingest front door and merges their answers exactly |
//! | [`sim`] | experiment harness E1–E14, statistics, tables |
//!
//! Third-party dependencies are vendored as minimal offline shims under
//! `vendor/` (the build environment has no network access); see
//! `vendor/README.md` for what each shim guarantees.

#![forbid(unsafe_code)]

pub use topk_core as core;
pub use topk_filters as filters;
pub use topk_net as net;
pub use topk_ordered as ordered;
pub use topk_proto as proto;
pub use topk_serve as serve;
pub use topk_sim as sim;
pub use topk_streams as streams;

/// The most common imports for downstream users.
pub mod prelude {
    pub use topk_core::{
        is_eps_valid_topk, is_valid_topk, run_monitor, run_monitor_sparse, ApproxMode, BuildError,
        ChaosPolicy, Engine, EventReplay, HandlerMode, Monitor, MonitorBuilder, MonitorConfig,
        MonitorSession, RecoveryMetrics, RuntimeError, SocketTopkMonitor, TopkEvent, TopkMonitor,
    };
    pub use topk_core::{opt_segments, trace_delta, OptCostModel};
    pub use topk_core::{DominanceMidpoint, FilterNaiveResolve, NaiveMonitor, PeriodicRecompute};
    pub use topk_net::behavior::ValueFeed;
    pub use topk_net::{
        CommLedger, LedgerSnapshot, NodeId, TraceMatrix, TraceReplay, Value, WireMetrics,
    };
    pub use topk_ordered::{OrderedTopkMonitor, ShardMerge};
    pub use topk_proto::extremum::BroadcastPolicy;
    pub use topk_proto::runner::{run_kselect, run_max, run_min, select_topk};
    pub use topk_serve::{ServeBuilder, TopkService};
    pub use topk_sim::{AlgoSpec, ExpCfg, Scenario};
    pub use topk_streams::WorkloadSpec;
}

#[cfg(test)]
mod facade_tests {
    use crate::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let mut mon = TopkMonitor::new(MonitorConfig::new(4, 2), 1);
        mon.step(0, &[4, 3, 2, 1]);
        assert_eq!(mon.topk(), vec![NodeId(0), NodeId(1)]);
    }
}
