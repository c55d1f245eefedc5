//! [`ThreadedTopkMonitor`] — Algorithm 1 on the *threaded* transport: one
//! OS thread per [`NodeMachine`], frames over crossbeam channels (see
//! [`topk_net::threaded`]). Everything but the constructors is shared with
//! every engine through [`Algorithm1`].

use topk_net::chaos::ChaosPolicy;
use topk_net::threaded::ThreadedCluster;

use crate::config::MonitorConfig;
use crate::monitor::Algorithm1;
use crate::node::NodeMachine;
use crate::session::Engine;

/// Algorithm 1 on the threaded transport.
pub type ThreadedTopkMonitor = Algorithm1<ThreadedCluster<NodeMachine>>;

impl ThreadedTopkMonitor {
    /// Start one node thread per node. Seeds and behaviors match
    /// [`crate::TopkMonitor::new`] exactly, so the monitors are
    /// interchangeable twins.
    pub fn new(cfg: MonitorConfig, seed: u64) -> Self {
        Self::start(cfg, seed, Engine::Threaded, None)
    }

    /// The same monitor behind a chaos-injecting transport: every frame and
    /// reply crosses a seeded fault layer (see [`ChaosPolicy`]). Every
    /// *committed* step produces answers, thresholds and events identical
    /// to the fault-free twin (pinned by the chaos arms of
    /// `tests/runtime_conformance.rs`); only the recovery counters and the
    /// retransmit channel record that faults happened.
    pub fn new_chaotic(cfg: MonitorConfig, seed: u64, policy: ChaosPolicy) -> Self {
        Self::start(cfg, seed, Engine::Threaded, Some(policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::monitor::{Monitor, TopkMonitor};
    use topk_net::id::true_topk;

    #[test]
    fn threaded_monitor_matches_sequential_twin() {
        let cfg = MonitorConfig::new(8, 3);
        let mut thr = ThreadedTopkMonitor::new(cfg, 42);
        let mut seq = TopkMonitor::new(cfg, 42);
        let rows: Vec<Vec<u64>> = vec![
            vec![5, 80, 20, 70, 10, 60, 30, 40],
            vec![5, 80, 20, 70, 10, 60, 30, 40],
            vec![90, 80, 20, 70, 10, 60, 30, 40],
        ];
        for (t, row) in rows.iter().enumerate() {
            thr.step(t as u64, row);
            seq.step(t as u64, row);
            assert_eq!(thr.topk(), seq.topk());
        }
        assert_eq!(thr.topk(), true_topk(rows.last().unwrap(), 3));
        let (a, b) = (thr.ledger(), seq.ledger());
        assert_eq!((a.up, a.down, a.broadcast), (b.up, b.down, b.broadcast));
        assert_eq!(a.total_bits(), b.total_bits());
    }

    #[test]
    fn chaotic_monitor_commits_fault_free_answers() {
        let cfg = MonitorConfig::new(10, 3);
        let mut chaotic =
            ThreadedTopkMonitor::new_chaotic(cfg, 42, topk_net::chaos::ChaosPolicy::from_seed(7));
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
        // recovery block records the faults.
        let scrubbed = RunMetrics {
            recovery: Default::default(),
            ..*chaotic.metrics()
        };
        assert_eq!(scrubbed, *twin.metrics());
        assert_eq!(chaotic.metrics().recovery, *chaotic.recovery());
    }

    #[test]
    fn silent_steps_send_no_frames_to_quiet_nodes() {
        let cfg = MonitorConfig::new(64, 4);
        let mut thr = ThreadedTopkMonitor::new(cfg, 7);
        let row: Vec<u64> = (1..=64).map(|v| v * 100).collect();
        thr.step(0, &row);
        let after_init = thr.sync_frames();
        for t in 1..50 {
            thr.step(t, &row);
        }
        assert_eq!(
            thr.sync_frames(),
            after_init,
            "constant rows must cost zero frames after init"
        );
        assert_eq!(thr.silent_steps(), 49);
    }
}
