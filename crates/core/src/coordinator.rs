//! The coordinator-side state machine of Algorithm 1.
//!
//! Per time step the coordinator moves through up to four phases:
//!
//! 1. **Violation window** (rounds `0..=max(⌈log k⌉, ⌈log(n−k)⌉)`): collect
//!    the reports of the concurrently running violation-phase
//!    MINIMUMPROTOCOL(k) / MAXIMUMPROTOCOL(n−k) (lines 2–10), broadcasting
//!    running extrema so losing participants deactivate. Violator-only
//!    extrema are *exact* for their side: every violator sits strictly
//!    beyond the shared threshold `M`, every non-violator at or within it.
//! 2. **Handler protocol** (lines 22–26): if one side is missing (or in
//!    `Faithful` mode per the pseudocode), run a full-group protocol over
//!    that side.
//! 3. **Conclusion** (lines 27–34): fold the exact min/max into the
//!    [`GapTracker`]; either broadcast the new midpoint threshold or
//! 4. **FILTERRESET** (lines 36–42) as a single k-select sweep. Every node
//!    joins one MAXIMUMPROTOCOL(n)-style sampling schedule; the coordinator
//!    keeps the running top-`k+1` candidate set ([`KSelectAggregator`]) and
//!    broadcasts the current `(k+1)`-th best as the deactivation bar
//!    (`ResetBar`), then announces the `k+1` winners rank by rank and
//!    concludes with the threshold broadcast. `⌈log₂(n/(k+1))⌉ + k + 3`
//!    coordinator rounds (the sampling schedule starts at `(k+1)/n`) and
//!    `O(k·log(n/k) + log n)` expected up-messages, against the
//!    pseudocode's `k+1` sequential MAXIMUMPROTOCOL(n) searches at
//!    `(k+1)·(⌈log₂n⌉+1) + 1` rounds. Both are Las Vegas-exact, so they
//!    select the same winners; the searches stay as the proto-level
//!    reference `topk_proto::runner::select_topk`, pinned equal to the
//!    sweep by `kselect_matches_iterated_selection_exactly`. Round counts
//!    are pinned by `crates/core/tests/reset_rounds.rs` via
//!    [`RunMetrics::reset_rounds`].

use topk_net::behavior::{CoordOut, CoordinatorBehavior, RoundScope};
use topk_net::id::{midpoint_floor, NodeId};
use topk_net::rng::log2_ceil;

use topk_filters::tracker::{GapTracker, GapUpdate};
use topk_proto::extremum::{MaxAggregator, MinAggregator};
use topk_proto::kselect::KSelectAggregator;

use crate::codec::{self, CoordSnapshot};
use crate::config::{HandlerMode, MonitorConfig};
use crate::metrics::RunMetrics;
use crate::msg::{DownMsg, UpMsg};

/// Per-step phase of the coordinator.
enum Phase {
    /// Step concluded (or degenerate configuration).
    Done,
    /// First step ever: initialization reset pending (line 1).
    NeedInit,
    /// Collecting violation-phase protocol reports.
    ViolationWindow {
        min_agg: MinAggregator,
        max_agg: MaxAggregator,
    },
    /// Handler-initiated MINIMUMPROTOCOL(k) over all top-k.
    HandlerMin {
        agg: MinAggregator,
        start_m: u32,
        carried_max: u64,
    },
    /// Handler-initiated MAXIMUMPROTOCOL(n−k) over all non-top-k.
    HandlerMax {
        agg: MaxAggregator,
        start_m: u32,
        carried_min: u64,
    },
    /// FILTERRESET: single k-select sweep (the coordinator-owned `ks_agg`),
    /// then rank-by-rank winner announcements (`reset_announced` = winners
    /// broadcast so far).
    Reset { start_m: u32 },
}

/// The monitoring coordinator.
pub struct CoordinatorMachine {
    cfg: MonitorConfig,
    /// Current answer: top-k node ids, sorted ascending.
    topk_ids: Vec<NodeId>,
    tracker: Option<GapTracker>,
    /// The threshold `M` the nodes currently hold (informational).
    last_threshold: Option<u64>,
    phase: Phase,
    /// Reset sweep state, coordinator-owned so repeated resets reuse the
    /// candidate buffer (zero-allocation reset discipline — pinned by
    /// `tests/alloc_discipline.rs`).
    ks_agg: KSelectAggregator,
    /// Winners announced so far in the reset conclusion.
    reset_announced: usize,
    metrics: RunMetrics,
    initialized: bool,
    l_min: u32,
    l_max: u32,
    l_viol: u32,
    /// Final participant round of the k-select sweep:
    /// `⌈log₂(max(1, ⌊n/(k+1)⌋))⌉` (the schedule starts at `(k+1)/n`).
    l_ks: u32,
}

impl CoordinatorMachine {
    pub fn new(cfg: MonitorConfig) -> Self {
        let l_min = log2_ceil(cfg.k as u64);
        let l_max = log2_ceil((cfg.n - cfg.k).max(1) as u64);
        let topk_ids = if cfg.is_degenerate() {
            (0..cfg.n as u32).map(NodeId).collect()
        } else {
            Vec::new()
        };
        CoordinatorMachine {
            cfg,
            topk_ids,
            tracker: None,
            last_threshold: None,
            phase: Phase::Done,
            ks_agg: KSelectAggregator::new(cfg.k + 1, cfg.n as u64),
            reset_announced: 0,
            metrics: RunMetrics::default(),
            initialized: cfg.is_degenerate(),
            l_min,
            l_max,
            l_viol: l_min.max(l_max),
            l_ks: log2_ceil(topk_proto::kselect::sampling_bound(cfg.k + 1, cfg.n as u64)),
        }
    }

    /// Phase-attributed event counters.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The current `T+ / T−` tracker (None before initialization).
    pub fn tracker(&self) -> Option<&GapTracker> {
        self.tracker.as_ref()
    }

    /// Current filter threshold the nodes hold, if any.
    pub fn current_threshold(&self) -> Option<u64> {
        self.last_threshold
    }

    fn begin_reset(&mut self, m: u32, out: &mut CoordOut<DownMsg>) {
        out.broadcasts.push(DownMsg::ResetStart);
        self.metrics.reset_bcast += 1;
        self.metrics.reset_rounds += 1;
        self.reset_announced = 0;
        self.ks_agg.clear();
        self.phase = Phase::Reset { start_m: m + 1 };
    }

    /// Lines 40–41: derive the new epoch from the sweep's `k+1` winners
    /// (best-first), update the answer and tracker in place (the answer
    /// buffer is reused across resets), and emit `ResetDone`.
    fn conclude_reset(&mut self, t: u64, out: &mut CoordOut<DownMsg>) {
        let k = self.cfg.k;
        let winners = self.ks_agg.winners();
        let kth = winners[k - 1];
        let k1 = winners[k];
        let thresh = midpoint_floor(kth.value, k1.value);
        self.topk_ids.clear();
        self.topk_ids.extend(winners[..k].iter().map(|w| w.id));
        self.topk_ids.sort_unstable();
        self.tracker = Some(GapTracker::start_epoch(t, kth.value, k1.value));
        out.broadcasts
            .push(DownMsg::ResetDone { threshold: thresh });
        self.last_threshold = Some(thresh);
        self.metrics.reset_bcast += 1;
        self.initialized = true;
        self.phase = Phase::Done;
    }

    /// Lines 27–34, ε-extended: fold the exact current extrema into the
    /// tracker and either rebroadcast a midpoint, absorb an in-band
    /// boundary crossing with one band broadcast (approximate mode,
    /// arXiv 1601.04448 — pay O(1) where exact pays a reset), or start a
    /// reset. `ε = 0` makes the band branch unreachable, so exact mode is
    /// untouched bit for bit.
    fn conclude_handler(&mut self, m: u32, min_v: u64, max_v: u64, out: &mut CoordOut<DownMsg>) {
        let eps = self.cfg.approx.epsilon();
        let tracker = self.tracker.as_mut().expect("initialized");
        match tracker.absorb_banded(min_v, max_v, eps) {
            GapUpdate::Midpoint(thresh) => {
                out.broadcasts.push(DownMsg::Midpoint(thresh));
                self.last_threshold = Some(thresh);
                self.metrics.midpoint_updates += 1;
                self.metrics.midpoint_bcast += 1;
                self.phase = Phase::Done;
            }
            GapUpdate::Band(thresh) => {
                // One full-scope broadcast (every node must adopt the common
                // threshold, exactly like a midpoint): the whole cost of a
                // boundary flip that exact mode answers with FILTERRESET.
                out.broadcasts.push(DownMsg::Band(thresh));
                self.last_threshold = Some(thresh);
                self.metrics.band_hits += 1;
                self.metrics.band_bcast += 1;
                self.phase = Phase::Done;
            }
            GapUpdate::ResetRequired => {
                self.metrics.resets += 1;
                self.begin_reset(m, out);
            }
        }
    }
}

impl CoordinatorBehavior for CoordinatorMachine {
    type Up = UpMsg;
    type Down = DownMsg;

    fn begin_step(&mut self, _t: u64) {
        self.metrics.steps += 1;
        if self.cfg.is_degenerate() {
            self.phase = Phase::Done;
        } else if !self.initialized {
            self.phase = Phase::NeedInit;
        } else {
            self.phase = Phase::ViolationWindow {
                min_agg: MinAggregator::new(self.cfg.k as u64),
                max_agg: MaxAggregator::new((self.cfg.n - self.cfg.k) as u64),
            };
        }
    }

    fn try_skip_silent_step(&mut self, _t: u64) -> bool {
        if self.cfg.is_degenerate() {
            return true;
        }
        if self.initialized {
            // No engaged node and no report: the violation window would be
            // silent and the step free — provably nothing to do.
            self.phase = Phase::Done;
            true
        } else {
            false
        }
    }

    fn micro_round(
        &mut self,
        t: u64,
        m: u32,
        ups: &mut Vec<(NodeId, UpMsg)>,
        out: &mut CoordOut<DownMsg>,
    ) {
        debug_assert!(out.is_empty(), "out arrives cleared");
        let policy = self.cfg.policy;
        match &mut self.phase {
            Phase::Done => {
                debug_assert!(ups.is_empty(), "no reports expected after conclusion");
            }
            Phase::NeedInit => {
                debug_assert_eq!(m, 0, "initialization starts the very first round");
                debug_assert!(ups.is_empty(), "nodes are silent before initialization");
                self.begin_reset(m, out);
            }
            Phase::ViolationWindow { min_agg, max_agg } => {
                for (_, up) in ups.drain(..) {
                    match up {
                        UpMsg::ViolMin(r) => {
                            min_agg.absorb(r);
                            self.metrics.viol_up += 1;
                        }
                        UpMsg::ViolMax(r) => {
                            max_agg.absorb(r);
                            self.metrics.viol_up += 1;
                        }
                        other => debug_assert!(false, "unexpected report {other:?}"),
                    }
                }
                // Round announcements (useful only while the respective
                // protocol still has rounds to run).
                if m < self.l_min {
                    if let Some(a) = min_agg.pending_announcement(policy) {
                        out.broadcasts.push(DownMsg::ViolMinAnnounce(a));
                        out.scope = RoundScope::Engaged;
                        min_agg.mark_announced();
                        self.metrics.viol_bcast += 1;
                    }
                }
                if m < self.l_max {
                    if let Some(a) = max_agg.pending_announcement(policy) {
                        out.broadcasts.push(DownMsg::ViolMaxAnnounce(a));
                        out.scope = RoundScope::Engaged;
                        max_agg.mark_announced();
                        self.metrics.viol_bcast += 1;
                    }
                }
                if m == self.l_viol {
                    // Window complete: violator extrema are final.
                    let vmin = min_agg.result();
                    let vmax = max_agg.result();
                    match (vmin, vmax) {
                        (None, None) => {
                            // Silent step (threaded path without skip).
                            self.phase = Phase::Done;
                        }
                        (Some(mn), Some(mx)) if self.cfg.handler_mode == HandlerMode::Tight => {
                            self.metrics.violation_steps += 1;
                            self.metrics.handler_calls += 1;
                            self.conclude_handler(m, mn.value, mx.value, out);
                        }
                        (mn_opt, Some(mx)) => {
                            // Line 25 ("else" branch): max is set — run
                            // MINIMUMPROTOCOL over *all* top-k. Reached with
                            // mn_opt = Some(_) only in Faithful mode.
                            let _ = mn_opt;
                            self.metrics.violation_steps += 1;
                            self.metrics.handler_calls += 1;
                            self.metrics.handler_protocols += 1;
                            out.broadcasts.push(DownMsg::HandlerStartMin);
                            self.metrics.handler_bcast += 1;
                            self.phase = Phase::HandlerMin {
                                agg: MinAggregator::new(self.cfg.k as u64),
                                start_m: m + 1,
                                carried_max: mx.value,
                            };
                        }
                        (Some(mn), None) => {
                            // Line 23: max not set — run MAXIMUMPROTOCOL
                            // over all non-top-k.
                            self.metrics.violation_steps += 1;
                            self.metrics.handler_calls += 1;
                            self.metrics.handler_protocols += 1;
                            out.broadcasts.push(DownMsg::HandlerStartMax);
                            self.metrics.handler_bcast += 1;
                            self.phase = Phase::HandlerMax {
                                agg: MaxAggregator::new((self.cfg.n - self.cfg.k) as u64),
                                start_m: m + 1,
                                carried_min: mn.value,
                            };
                        }
                    }
                }
            }
            Phase::HandlerMin {
                agg,
                start_m,
                carried_max,
            } => {
                for (_, up) in ups.drain(..) {
                    match up {
                        UpMsg::Handler(r) => {
                            agg.absorb(r);
                            self.metrics.handler_up += 1;
                        }
                        other => debug_assert!(false, "unexpected report {other:?}"),
                    }
                }
                let r = m - *start_m;
                if r < self.l_min {
                    if let Some(a) = agg.pending_announcement(policy) {
                        out.broadcasts.push(DownMsg::HandlerAnnounce(a));
                        out.scope = RoundScope::Engaged;
                        agg.mark_announced();
                        self.metrics.handler_bcast += 1;
                    }
                }
                if r == self.l_min {
                    let mn = agg
                        .result()
                        .expect("k ≥ 1 top-k nodes always respond")
                        .value;
                    let mx = *carried_max;
                    self.conclude_handler(m, mn, mx, out);
                }
            }
            Phase::HandlerMax {
                agg,
                start_m,
                carried_min,
            } => {
                for (_, up) in ups.drain(..) {
                    match up {
                        UpMsg::Handler(r) => {
                            agg.absorb(r);
                            self.metrics.handler_up += 1;
                        }
                        other => debug_assert!(false, "unexpected report {other:?}"),
                    }
                }
                let r = m - *start_m;
                if r < self.l_max {
                    if let Some(a) = agg.pending_announcement(policy) {
                        out.broadcasts.push(DownMsg::HandlerAnnounce(a));
                        out.scope = RoundScope::Engaged;
                        agg.mark_announced();
                        self.metrics.handler_bcast += 1;
                    }
                }
                if r == self.l_max {
                    let mx = agg
                        .result()
                        .expect("n−k ≥ 1 non-top-k nodes always respond")
                        .value;
                    let mn = *carried_min;
                    self.conclude_handler(m, mn, mx, out);
                }
            }
            Phase::Reset { start_m } => {
                self.metrics.reset_rounds += 1;
                for (_, up) in ups.drain(..) {
                    match up {
                        UpMsg::Reset(r) => {
                            self.ks_agg.absorb(r);
                            self.metrics.reset_up += 1;
                        }
                        other => debug_assert!(false, "unexpected report {other:?}"),
                    }
                }
                let r = m - *start_m;
                if r < self.l_ks {
                    // Sampling still running: announce the deactivation bar
                    // (the current (k+1)-th best) so dominated participants
                    // withdraw — the k-select analogue of line 18.
                    if let Some(bar) = self.ks_agg.pending_bar(policy) {
                        out.broadcasts.push(DownMsg::ResetBar(bar));
                        out.scope = RoundScope::Engaged;
                        self.ks_agg.mark_announced();
                        self.metrics.reset_bcast += 1;
                    }
                } else {
                    // r ≥ l_ks: the probability-1 round's reports arrived
                    // at r == l_ks, so the top-(k+1) is exact. Announce winners
                    // rank by rank (one broadcast per round — the model's
                    // per-round bandwidth discipline), then conclude.
                    let winners = self.ks_agg.winners();
                    let k = self.cfg.k;
                    assert_eq!(
                        winners.len(),
                        k + 1,
                        "n > k nodes guarantee k+1 reset winners"
                    );
                    let idx = self.reset_announced;
                    if idx <= k {
                        // Only the self-identified winner reacts (nodes
                        // never restart on winner announcements), so the
                        // round is scoped to engaged ∪ winner.
                        out.broadcasts.push(DownMsg::ResetWinner {
                            rank: (idx + 1) as u32,
                            report: winners[idx],
                        });
                        out.scope = RoundScope::EngagedPlus(winners[idx].id);
                        self.reset_announced += 1;
                        self.metrics.reset_bcast += 1;
                    } else {
                        self.conclude_reset(t, out);
                    }
                }
            }
        }
    }

    fn step_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    fn topk(&self) -> &[NodeId] {
        &self.topk_ids
    }

    /// Serialize the committed state via the wire codec. Only legal between
    /// steps (phase `Done`), where all per-step scratch is dead — mid-phase
    /// the snapshot would be unsound and we refuse.
    fn encode_snapshot(&self, out: &mut Vec<u8>) -> bool {
        if !matches!(self.phase, Phase::Done) {
            return false;
        }
        let snap = CoordSnapshot {
            initialized: self.initialized,
            last_threshold: self.last_threshold,
            tracker: self
                .tracker
                .as_ref()
                .map(|g| (g.t_plus(), g.t_minus(), g.epoch_start())),
            topk_ids: self.topk_ids.clone(),
            metrics: self.metrics,
        };
        out.clear();
        codec::encode_snapshot(&snap, out);
        true
    }

    /// Restore from a committed-boundary snapshot. Validates the decoded
    /// state against this coordinator's configuration before applying it;
    /// on success all per-step scratch is reset and the live transport
    /// recovery counters are preserved (they describe this incarnation's
    /// faults, not the snapshotted one's).
    fn restore_snapshot(&mut self, bytes: &[u8]) -> bool {
        let mut rd = bytes;
        let Ok(snap) = codec::decode_snapshot(&mut rd) else {
            return false;
        };
        let n = self.cfg.n as u32;
        if snap.topk_ids.iter().any(|id| id.0 >= n) {
            return false;
        }
        let expected_ids = if !snap.initialized {
            0
        } else if self.cfg.is_degenerate() {
            self.cfg.n
        } else {
            self.cfg.k
        };
        if snap.topk_ids.len() != expected_ids {
            return false;
        }
        if snap.initialized && !self.cfg.is_degenerate() && snap.tracker.is_none() {
            return false;
        }
        self.initialized = snap.initialized;
        self.last_threshold = snap.last_threshold;
        self.tracker = snap.tracker.map(|(t_plus, t_minus, epoch_start)| {
            GapTracker::from_raw(t_plus, t_minus, epoch_start)
        });
        self.topk_ids = snap.topk_ids;
        let live_recovery = self.metrics.recovery;
        let live_wire = self.metrics.wire;
        self.metrics = snap.metrics;
        self.metrics.recovery = live_recovery;
        self.metrics.wire = live_wire;
        self.phase = Phase::Done;
        self.ks_agg.clear();
        self.reset_announced = 0;
        true
    }

    fn note_recovery(&mut self, recovery: &topk_net::chaos::RecoveryMetrics) {
        self.metrics.recovery = *recovery;
    }

    fn note_wire(&mut self, wire: &topk_net::ledger::WireMetrics) {
        self.metrics.wire = *wire;
    }
}
