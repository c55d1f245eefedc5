//! `topk-serve` — the sharded serving layer: many monitoring sessions,
//! millions of keys, one ingest front door.
//!
//! A single [`MonitorSession`] scales Algorithm 1 to one coordinator's key
//! space. This crate horizontally shards that: [`ServeBuilder`] hashes the
//! key space across `S` independent sessions (each on any [`Engine`],
//! stepped one after another on the caller's thread), and [`TopkService`]
//! presents the same push surface a session has — `update` /
//! `update_batch`, `advance(t)` returning the step's global
//! [`TopkEvent`]s, `topk()` / `threshold()` / `metrics()` — answering
//! about the *global* top-k.
//!
//! The composition is **exact**, not approximate: a shard's local
//! top-`(k+1)` provably contains every global top-`(k+1)` key it holds, so
//! an `S`-way merge of shard candidate lists
//! ([`ShardMerge`](topk_ordered::ShardMerge)) recovers the exact global
//! ranking and the exact global `(k+1)`-th-best value — the service
//! threshold. Global events are derived from the merged ranking with the
//! session's own diff algorithm, so replaying the service event stream
//! through [`EventReplay`](topk_core::EventReplay) reconstructs `topk()`
//! and `threshold()` losslessly (property-tested against single-session
//! ground truth in `tests/merge_conformance.rs`).
//!
//! ```
//! use topk_net::id::NodeId;
//! use topk_serve::ServeBuilder;
//!
//! // One front door over 1000 keys, hashed across 8 shard sessions.
//! let mut svc = ServeBuilder::new(1000, 5).shards(8).seed(42).build();
//! svc.update_batch((0..1000).map(|key| (NodeId(key), (key as u64 * 2654435761) % 10_000)));
//! let events = svc.advance(0);
//! assert!(!events.is_empty());
//! assert_eq!(svc.topk().len(), 5);
//! assert!(svc.threshold().is_some(), "exact global 6th-best value");
//!
//! // A silent step steps every shard and skips the merge.
//! assert!(svc.advance(1).is_empty());
//! ```
//!
//! [`MonitorSession`]: topk_core::session::MonitorSession
//! [`Engine`]: topk_core::session::Engine
//! [`TopkEvent`]: topk_core::TopkEvent

#![forbid(unsafe_code)]

mod service;
mod shard;

pub use service::{ServeBuilder, TopkService};
