//! [`SocketTopkMonitor`] — Algorithm 1 on the *socket* transport: node
//! shards behind loopback-TCP connections, every message a length-prefixed
//! [`crate::codec`] frame (see [`topk_net::socket`]). Everything else is
//! shared with every engine through [`Algorithm1`]; this module adds the
//! physical side of the cost model — a [`WireMetrics`] ledger of frames
//! and bytes actually written, mirrored into
//! [`crate::metrics::RunMetrics::wire`] at every step.

use topk_net::chaos::ChaosPolicy;
use topk_net::ledger::WireMetrics;
use topk_net::socket::{SocketCluster, WireTaps};

use crate::config::MonitorConfig;
use crate::monitor::Algorithm1;
use crate::node::NodeMachine;
use crate::session::Engine;

/// Algorithm 1 on the socket transport.
pub type SocketTopkMonitor = Algorithm1<SocketCluster<NodeMachine>>;

impl SocketTopkMonitor {
    /// Start the node shards behind loopback-TCP connections. Seeds and
    /// behaviors match [`crate::TopkMonitor::new`] exactly.
    pub fn new(cfg: MonitorConfig, seed: u64) -> Self {
        Self::start(cfg, seed, Engine::Socket, None)
    }

    /// The same monitor behind a chaos-injecting transport: the in-process
    /// fault classes of [`ChaosPolicy`] plus the wire classes of
    /// [`topk_net::WireChaos`]. Committed answers, thresholds and events
    /// stay identical to the fault-free twin.
    pub fn new_chaotic(cfg: MonitorConfig, seed: u64, policy: ChaosPolicy) -> Self {
        Self::start(cfg, seed, Engine::Socket, Some(policy))
    }

    /// The physical wire ledger: frames and bytes actually written to the
    /// sockets so far, per model channel plus totals.
    pub fn wire(&self) -> &WireMetrics {
        self.runtime().wire()
    }

    /// Per-connection byte captures (only on a cluster started with
    /// [`SocketCluster::spawn_captured`]); valid across shutdown.
    pub fn capture(&self) -> Option<WireTaps> {
        self.runtime().capture()
    }

    /// Number of shard connections carrying the cluster's nodes.
    pub fn shards(&self) -> usize {
        self.runtime().shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::monitor::{Monitor, TopkMonitor};
    use topk_net::id::true_topk;

    #[test]
    fn socket_monitor_matches_sequential_twin() {
        let cfg = MonitorConfig::new(8, 3);
        let mut soc = SocketTopkMonitor::new(cfg, 42);
        let mut seq = TopkMonitor::new(cfg, 42);
        let rows: Vec<Vec<u64>> = vec![
            vec![5, 80, 20, 70, 10, 60, 30, 40],
            vec![5, 80, 20, 70, 10, 60, 30, 40],
            vec![90, 80, 20, 70, 10, 60, 30, 40],
        ];
        for (t, row) in rows.iter().enumerate() {
            soc.step(t as u64, row);
            seq.step(t as u64, row);
            assert_eq!(soc.topk(), seq.topk());
        }
        assert_eq!(soc.topk(), true_topk(rows.last().unwrap(), 3));
        let (a, b) = (soc.ledger(), seq.ledger());
        assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
        assert_eq!(a.total_bits(), b.total_bits());
        // Model counters match the twin exactly; only the wire block
        // records that bytes moved.
        let scrubbed = RunMetrics {
            wire: Default::default(),
            ..*soc.metrics()
        };
        assert_eq!(scrubbed, *seq.metrics());
        assert!(soc.metrics().wire.bytes_total > 0, "bytes crossed sockets");
        assert_eq!(soc.metrics().wire, *soc.wire());
    }

    #[test]
    fn chaotic_monitor_commits_fault_free_answers() {
        let cfg = MonitorConfig::new(10, 3);
        let mut chaotic = SocketTopkMonitor::new_chaotic(cfg, 42, ChaosPolicy::from_seed(7));
        let mut twin = TopkMonitor::new(cfg, 42);
        let mut row: Vec<u64> = (1..=10).map(|v| v * 50).collect();
        for t in 0..40 {
            // Churn around the top-k boundary to force protocol traffic.
            row[(t % 10) as usize] = 100 + (t * 37) % 400;
            chaotic.step(t, &row);
            twin.step(t, &row);
            assert_eq!(chaotic.topk(), twin.topk(), "t={t}");
            assert_eq!(
                chaotic.coordinator().current_threshold(),
                twin.coordinator().current_threshold(),
                "t={t}"
            );
        }
        assert!(
            chaotic.recovery().injected_total() > 0,
            "a from_seed policy over 40 churn steps must inject faults: {:?}",
            chaotic.recovery()
        );
        // Committed protocol counters match the twin exactly; only the
        // recovery and wire blocks record the faults and the bytes.
        let scrubbed = RunMetrics {
            recovery: Default::default(),
            wire: Default::default(),
            ..*chaotic.metrics()
        };
        assert_eq!(scrubbed, *twin.metrics());
        assert_eq!(chaotic.metrics().recovery, *chaotic.recovery());
    }

    #[test]
    fn constant_rows_write_no_bytes_after_init() {
        let cfg = MonitorConfig::new(64, 4);
        let mut soc = SocketTopkMonitor::new(cfg, 7);
        let row: Vec<u64> = (1..=64).map(|v| v * 100).collect();
        soc.step(0, &row);
        let after_init = (soc.wire().bytes_total, soc.sync_frames());
        for t in 1..50 {
            soc.step(t, &row);
        }
        assert_eq!(
            (soc.wire().bytes_total, soc.sync_frames()),
            after_init,
            "constant rows must cost zero bytes and zero frames after init"
        );
        assert_eq!(soc.silent_steps(), 49);
    }
}
