//! # topk-net — communication substrate for distributed stream monitoring
//!
//! This crate implements the system model of *Online Top-k-Position
//! Monitoring of Distributed Data Streams* (Mäcker, Malatyali, Meyer auf der
//! Heide): `n` nodes with private data streams, one coordinator,
//! node→coordinator and coordinator→node unicasts plus a broadcast channel,
//! each costing one message; instantaneous delivery; and an arbitrary
//! multi-round protocol between consecutive observations.
//!
//! Provided here:
//!
//! * [`id`] — node identities, values, and the tie-breaking total order;
//! * [`ledger`] — message accounting (the paper's cost metric);
//! * [`wire`] — compact encodings and the `O(log n + log Δ)` size budget;
//! * [`rng`] — deterministic per-node randomness and the exact `2^r/N`
//!   Bernoulli trials the model's nodes are equipped with;
//! * [`behavior`] — the node/coordinator state-machine traits;
//! * [`delta`] — the cached-row diff/filter shared by every engine's
//!   delta-driven entry points;
//! * [`calendar`] — the fire-round calendar bookkeeping shared by every
//!   engine (protocol rounds visit only the round's scheduled firers);
//! * [`runtime`] — the [`Runtime`] trait, the one step surface of every
//!   engine: each owns the nodes and borrows the coordinator per step;
//! * [`seq`] — the deterministic sequential runtime: the conformance
//!   reference every other engine is pinned against, and the runtime of
//!   all experiments; a direct-call loop over the borrowed coordinator;
//! * [`driver`] — the step driver of the transport engine: dense/sparse
//!   routing, the round visit rule, the attempt loop, reply collection and
//!   the crash-recovery state machine, over a small [`Transport`] trait;
//! * [`socket`] — the loopback-TCP transport: node shards behind real
//!   sockets, length-prefixed frames, and a physical wire ledger
//!   ([`WireMetrics`]) alongside the model ledger — the distributed
//!   execution, ledger-equivalent to [`seq`];
//! * [`trace`] — dense observation traces, replay and CSV I/O;
//! * [`chaos`] — seeded, deterministic fault injection for the socket
//!   runtime (the in-process classes plus the wire-level [`WireChaos`]
//!   ones), plus the recovery observability types ([`RecoveryMetrics`],
//!   [`RuntimeError`]).

#![forbid(unsafe_code)]

pub mod behavior;
pub mod calendar;
pub mod chaos;
pub mod delta;
pub mod driver;
pub mod id;
pub mod ledger;
pub mod rng;
pub mod runtime;
pub mod seq;
pub mod socket;
pub mod trace;
pub mod wire;

pub use behavior::{
    emit_dense, CoordOut, CoordinatorBehavior, NodeBehavior, ObserveAction, RoundAction, ValueFeed,
};
pub use calendar::FireCalendar;
pub use chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError, WireChaos};
pub use delta::DeltaRow;
pub use driver::{Cluster, Transport};
pub use id::{midpoint_floor, true_ranking, true_topk, MinEntry, NodeId, RankEntry, Value};
pub use ledger::{ChannelKind, CommLedger, LedgerSnapshot, WireMetrics};
pub use runtime::Runtime;
pub use seq::SyncRuntime;
pub use socket::{FrameCodec, SocketCluster, SocketTransport, WireError, WireTaps};
pub use trace::{TraceMatrix, TraceReplay};
