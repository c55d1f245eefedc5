//! [`NodeParams`] — the shared, read-only parameter block behind every
//! [`crate::NodeMachine`].
//!
//! The seed layout embedded a full [`MonitorConfig`] copy (and a ~136-byte
//! cipher RNG) in every node, putting each node at ~300 bytes — at
//! n = 10⁶ that is cache traffic, construction time, and memory for data
//! that is identical across the fleet. All nodes of one monitor now share
//! a single `Arc<NodeParams>` carrying the few fields the node side reads
//! (`n`, `k`, `slack`) plus the three precomputed fire-round distributions
//! of the protocol bounds Algorithm 1 ever hands a node:
//!
//! * `k` — violation/handler MINIMUMPROTOCOL(k);
//! * `n − k` — violation/handler MAXIMUMPROTOCOL(n−k);
//! * `⌊n/(k+1)⌋` — the FILTERRESET k-select sweep.
//!
//! Sampling a participant's first-send round is then one table lookup per
//! episode ([`topk_proto::schedule::FireDist`]), and the node itself fits
//! in one cache line (pinned by a `size_of` assert in `crate::node`).

use std::sync::Arc;

use topk_proto::kselect::sampling_bound;
use topk_proto::schedule::FireDist;

use crate::config::MonitorConfig;

/// Shared per-monitor node parameters; build once via [`NodeParams::shared`]
/// and clone the `Arc` into every node.
#[derive(Debug, Clone)]
pub struct NodeParams {
    /// Number of nodes.
    pub n: u32,
    /// Monitored positions.
    pub k: u32,
    /// Approximation slack `ε` (see [`MonitorConfig::slack`]).
    pub slack: u64,
    /// Fire-round schedule of MINIMUMPROTOCOL(k) (violation + handler).
    pub dist_min: FireDist,
    /// Fire-round schedule of MAXIMUMPROTOCOL(n−k) (violation + handler).
    pub dist_max: FireDist,
    /// Fire-round schedule of the FILTERRESET k-select sweep.
    pub dist_reset: FireDist,
}

impl NodeParams {
    /// Precompute the parameter block for `cfg` and wrap it for sharing.
    pub fn shared(cfg: &MonitorConfig) -> Arc<Self> {
        let n = cfg.n as u64;
        let k = cfg.k as u64;
        Arc::new(NodeParams {
            n: cfg.n as u32,
            k: cfg.k as u32,
            slack: cfg.slack,
            dist_min: FireDist::for_bound(k.max(1)),
            dist_max: FireDist::for_bound((n - k).max(1)),
            dist_reset: FireDist::for_bound(sampling_bound(cfg.k + 1, n)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::rng::log2_ceil;

    #[test]
    fn distributions_match_protocol_bounds() {
        let p = NodeParams::shared(&MonitorConfig::new(1000, 8));
        assert_eq!(p.dist_min.n_bound(), 8);
        assert_eq!(p.dist_max.n_bound(), 992);
        assert_eq!(p.dist_reset.n_bound(), 1000 / 9, "batched k-select bound");
        assert_eq!(p.dist_reset.last_round(), log2_ceil(1000 / 9));
    }

    #[test]
    fn degenerate_bounds_stay_positive() {
        // k = n (degenerate) and n − k = 0 must not panic the tables.
        let p = NodeParams::shared(&MonitorConfig::new(4, 4));
        assert_eq!(p.dist_max.n_bound(), 1);
        assert_eq!(p.dist_max.last_round(), 0);
    }
}
