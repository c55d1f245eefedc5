//! # topk-core — Algorithm 1 of Mäcker, Malatyali, Meyer auf der Heide:
//! filter-based online Top-k-Position Monitoring
//!
//! The coordinator must know, at every time step, which `k` of `n`
//! distributed nodes currently observe the `k` largest values, while
//! minimizing messages. This crate implements:
//!
//! * [`msg`] / [`node`] / [`coordinator`] — the paper's Algorithm 1 as
//!   communicating state machines (runnable on the sequential *and* the
//!   threaded runtime of `topk-net`);
//! * [`session`] / [`events`] — the public facade: [`MonitorBuilder`] →
//!   [`MonitorSession`], push-based ingestion with automatic dense/sparse
//!   routing and a typed [`TopkEvent`] stream, over any [`Engine`];
//! * [`monitor`] — the [`Monitor`] trait and [`TopkMonitor`], the
//!   assembled algorithm;
//! * [`cluster`] — [`ClusterTopkMonitor`], the same algorithm on a transport
//!   engine: [`ThreadedTopkMonitor`] (OS-thread nodes, [`threaded`]) and
//!   [`SocketTopkMonitor`] (loopback-TCP shards, [`socket`]);
//! * [`baselines`] — naive streaming, §2.1 periodic recomputation,
//!   filter-with-poll-resolution, and Lam-et-al.-style dominance tracking;
//! * [`opt`] — the offline optimal filter segmentation (the competitive
//!   ratio's denominator), with a DP cross-check;
//! * [`config`] / [`metrics`] — knobs (handler faithfulness, broadcast
//!   policy) and phase-attributed counters.
//!
//! Competitive guarantee (Theorem 4.4): with the §4 protocols, Algorithm 1
//! is `O((log Δ + k)·log n)`-competitive against the optimal offline
//! filter-based algorithm, where `Δ = max_t (v_k^t − v_{k+1}^t)`.

#![forbid(unsafe_code)]

pub mod audit;
pub mod baselines;
pub mod cluster;
pub mod codec;
pub mod config;
pub mod coordinator;
pub mod events;
pub mod metrics;
pub mod monitor;
pub mod msg;
pub mod multik;
pub mod node;
pub mod opt;
pub mod params;
pub mod session;
pub mod socket;
pub mod threaded;

pub use audit::{assert_audit_clean, audit_monitor, AuditError};
pub use baselines::{DominanceMidpoint, FilterNaiveResolve, NaiveMonitor, PeriodicRecompute};
pub use cluster::ClusterTopkMonitor;
pub use config::{ApproxMode, HandlerMode, MonitorConfig};
pub use coordinator::CoordinatorMachine;
pub use events::{EventReplay, TopkEvent};
pub use metrics::RunMetrics;
pub use monitor::{
    is_eps_valid_topk, is_valid_topk, run_monitor, run_monitor_sparse, Monitor, TopkMonitor,
};
pub use multik::MultiKMonitor;
pub use node::NodeMachine;
pub use opt::{
    opt_segments, opt_updates_dp, trace_delta, window_feasible, OptCostModel, OptResult,
};
pub use params::NodeParams;
pub use session::{BuildError, Engine, MonitorBuilder, MonitorSession};
pub use socket::SocketTopkMonitor;
pub use threaded::ThreadedTopkMonitor;
pub use topk_net::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError};
