//! [`SocketTopkMonitor`] — Algorithm 1 on the *socket* transport: node
//! shards behind loopback-TCP connections, every message a length-prefixed
//! [`crate::codec`] frame (see [`topk_net::socket`]). Behavior lives in
//! [`ClusterTopkMonitor`]; this module adds the physical side of the cost
//! model — a [`WireMetrics`] ledger of frames and bytes actually written,
//! mirrored into [`crate::metrics::RunMetrics::wire`] at every step.

use topk_net::driver::Cluster;
use topk_net::ledger::WireMetrics;
use topk_net::socket::{SocketTransport, WireTaps};

use crate::cluster::{ClusterTopkMonitor, ClusterTransport};
use crate::config::MonitorConfig;
use crate::monitor::TopkMonitor;
use crate::node::NodeMachine;
use crate::session::Engine;

/// Algorithm 1 on the socket transport.
pub type SocketTopkMonitor = ClusterTopkMonitor<SocketTransport<NodeMachine>>;

impl ClusterTransport for SocketTransport<NodeMachine> {
    const ENGINE: Engine = Engine::Socket;
    const NAME: &'static str = "topk-filter-socket";
}

impl SocketTopkMonitor {
    /// [`SocketTopkMonitor::new`] with per-connection byte capture armed —
    /// [`SocketTopkMonitor::capture`] then exposes the exact wire bytes for
    /// golden-frame snapshot tests.
    pub fn new_captured(cfg: MonitorConfig, seed: u64) -> Self {
        let (nodes, coord) = TopkMonitor::make_parts(cfg, seed);
        Self::from_cluster(Cluster::spawn_captured(nodes), coord, cfg)
    }

    /// The physical wire ledger: frames and bytes actually written to the
    /// sockets so far, per model channel plus totals.
    pub fn wire(&self) -> &WireMetrics {
        self.cluster.wire()
    }

    /// Per-connection byte captures (only on a monitor built with
    /// [`SocketTopkMonitor::new_captured`]); valid across shutdown.
    pub fn capture(&self) -> Option<WireTaps> {
        self.cluster.capture()
    }

    /// Number of shard connections carrying the cluster's nodes.
    pub fn shards(&self) -> usize {
        self.cluster.shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::monitor::Monitor;
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
    fn constant_rows_write_no_bytes_after_init() {
        let cfg = MonitorConfig::new(64, 4);
        let mut soc = SocketTopkMonitor::new(cfg, 7);
        let row: Vec<u64> = (1..=64).map(|v| v * 100).collect();
        soc.step(0, &row);
        let after_init = soc.wire().bytes_total;
        for t in 1..50 {
            soc.step(t, &row);
        }
        assert_eq!(
            soc.wire().bytes_total,
            after_init,
            "constant rows must write zero bytes after init"
        );
        assert_eq!(soc.silent_steps(), 49);
    }
}
