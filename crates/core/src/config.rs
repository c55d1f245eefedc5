//! Configuration of the monitoring algorithm.

use serde::{Deserialize, Serialize};
use topk_proto::extremum::BroadcastPolicy;

/// How `FILTERVIOLATIONHANDLER` behaves when *both* a minimum and a maximum
/// were already communicated by the violation-phase protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HandlerMode {
    /// Skip the redundant extra protocol. Because top-k filters share the
    /// lower bound `M`, the min over *violating* top-k nodes already equals
    /// the min over *all* top-k nodes (violators sit strictly below `M`,
    /// non-violators at or above it); symmetrically for the max side. This
    /// is the default and preserves the Theorem 3.3 bound.
    #[default]
    Tight,
    /// Follow the pseudocode literally (lines 22–26): when a maximum was
    /// communicated, re-run MINIMUMPROTOCOL(k) over all top-k nodes even if
    /// a minimum is already known.
    Faithful,
}

/// Coordinator-side approximation mode (the authors' follow-up paper on
/// competitive algorithms for *approximations* of top-k-position
/// monitoring, arXiv 1601.04448).
///
/// In [`ApproxMode::Band`] the coordinator tolerates ε-indistinguishable
/// boundary values: when a violation round shrinks the epoch certificate
/// below zero but the crossing stays within `ε` (`T− − T+ ≤ ε`), the
/// epoch is *re-centered* on the boundary instead of killed — one
/// threshold broadcast where exact mode pays a full `FILTERRESET`. The
/// reported top-k set is then correct up to ε-indistinguishable boundary
/// values (every member's value is within `ε` of every excluded node's
/// value whenever the sets disagree with the exact answer); `ε = 0` is
/// bit-identical to [`ApproxMode::Exact`] on every runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ApproxMode {
    /// The paper's exact Algorithm 1: every certified crossing of the
    /// k/k+1 boundary triggers `FILTERRESET`.
    #[default]
    Exact,
    /// ε-tolerant monitoring: boundary crossings inside the `ε`-band
    /// update filters locally (one broadcast) instead of resetting.
    Band {
        /// Band half-width `ε > 0` in value units.
        epsilon: u64,
    },
}

impl ApproxMode {
    /// The tolerated boundary band width (`0` in exact mode).
    #[inline]
    pub fn epsilon(&self) -> u64 {
        match self {
            ApproxMode::Exact => 0,
            ApproxMode::Band { epsilon } => *epsilon,
        }
    }

    /// `true` iff answers are exact (no band, or a zero-width band).
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.epsilon() == 0
    }
}

/// Static configuration of one monitoring instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Number of nodes.
    pub n: usize,
    /// Number of top positions to monitor, `1 ≤ k ≤ n`.
    pub k: usize,
    /// Protocol announcement policy (§4; ablated by experiment E8).
    pub policy: BroadcastPolicy,
    /// Handler faithfulness (ablated by experiment E8).
    pub handler_mode: HandlerMode,
    /// Approximation slack `ε ≥ 0` (extension, default 0 = exact).
    ///
    /// With slack, filters become hysteresis bands: a top-k node only
    /// violates below `M − ε`, a non-top-k node only above `M + ε`. The
    /// answer is then guaranteed *2ε-valid* — every reported member's value
    /// is within `2ε` of every excluded node's value — in exchange for
    /// strictly fewer violations on noisy streams (the Yi–Zhang-style
    /// accuracy/communication trade-off; experiment E14). `ε = 0` recovers
    /// the paper's exact algorithm bit-for-bit.
    pub slack: u64,
    /// Coordinator-side approximation mode (default exact); see
    /// [`ApproxMode`]. Distinct from [`MonitorConfig::slack`]: slack is
    /// *node-side* hysteresis around the common filter threshold, the band
    /// is *coordinator-side* tolerance around the k/k+1 boundary.
    pub approx: ApproxMode,
}

impl MonitorConfig {
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!(
            k >= 1 && k <= n,
            "k must satisfy 1 ≤ k ≤ n (got k={k}, n={n})"
        );
        MonitorConfig {
            n,
            k,
            policy: BroadcastPolicy::OnChange,
            handler_mode: HandlerMode::Tight,
            slack: 0,
            approx: ApproxMode::Exact,
        }
    }

    pub fn with_policy(mut self, policy: BroadcastPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_handler_mode(mut self, mode: HandlerMode) -> Self {
        self.handler_mode = mode;
        self
    }

    /// Set the approximation slack `ε` (see the field docs).
    pub fn with_slack(mut self, slack: u64) -> Self {
        self.slack = slack;
        self
    }

    /// Enable ε-approximate monitoring (see [`ApproxMode`]). `eps = 0`
    /// normalizes to [`ApproxMode::Exact`], so a zero band is *structurally*
    /// the exact configuration, not merely behaviorally equivalent.
    pub fn with_epsilon(mut self, eps: u64) -> Self {
        self.approx = if eps == 0 {
            ApproxMode::Exact
        } else {
            ApproxMode::Band { epsilon: eps }
        };
        self
    }

    /// `k = n` (or `n = 1`): the top-k set can never change, so the
    /// algorithm never communicates.
    pub fn is_degenerate(&self) -> bool {
        self.k == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = MonitorConfig::new(10, 3)
            .with_policy(BroadcastPolicy::EveryRound)
            .with_handler_mode(HandlerMode::Faithful);
        assert_eq!(cfg.n, 10);
        assert_eq!(cfg.k, 3);
        assert_eq!(cfg.policy, BroadcastPolicy::EveryRound);
        assert_eq!(cfg.handler_mode, HandlerMode::Faithful);
        assert!(!cfg.is_degenerate());
        assert!(MonitorConfig::new(5, 5).is_degenerate());
        assert!(MonitorConfig::new(1, 1).is_degenerate());
    }

    #[test]
    fn epsilon_knob_normalizes_zero_to_exact() {
        let cfg = MonitorConfig::new(10, 3);
        assert_eq!(cfg.approx, ApproxMode::Exact, "exact is the default");
        assert!(cfg.approx.is_exact());
        assert_eq!(cfg.approx.epsilon(), 0);

        let banded = cfg.with_epsilon(16);
        assert_eq!(banded.approx, ApproxMode::Band { epsilon: 16 });
        assert!(!banded.approx.is_exact());
        assert_eq!(banded.approx.epsilon(), 16);

        // ε = 0 must be *structurally* exact, so config comparison (and
        // anything derived from it) cannot distinguish the two.
        assert_eq!(banded.with_epsilon(0), cfg);
    }

    #[test]
    #[should_panic(expected = "k must satisfy")]
    fn zero_k_rejected() {
        let _ = MonitorConfig::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "k must satisfy")]
    fn oversized_k_rejected() {
        let _ = MonitorConfig::new(4, 5);
    }
}
