//! Message vocabulary of Algorithm 1.
//!
//! Every payload is a constant number of `(id, value)` words plus a tag, so
//! all messages respect the model's `O(log n + log max v)` size budget
//! (enforced by the [`WireSize`] impls; see `topk-net::wire`).
//!
//! All coordinator emissions are *broadcasts* — Algorithm 1 never needs a
//! unicast (a reset conveys membership by broadcasting the `(k+1)`-th best
//! report, against which every node places itself). A correctness test
//! pins `ledger.down == 0`.

use topk_net::id::Value;
use topk_net::wire::{varint_bits, Report, WireSize};

/// Node → coordinator messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpMsg {
    /// Report within the violation-phase MINIMUMPROTOCOL(k) (line 5): the
    /// sender was in top-k at `t−1` and fell below its filter.
    ViolMin(Report),
    /// Report within the violation-phase MAXIMUMPROTOCOL(n−k) (line 7).
    ViolMax(Report),
    /// Report within a handler-initiated full-group protocol (lines 23/25).
    Handler(Report),
    /// Report within the FILTERRESET k-select sweep (line 38).
    Reset(Report),
}

impl UpMsg {
    /// The carried report.
    pub fn report(&self) -> Report {
        match *self {
            UpMsg::ViolMin(r) | UpMsg::ViolMax(r) | UpMsg::Handler(r) | UpMsg::Reset(r) => r,
        }
    }
}

impl WireSize for UpMsg {
    fn wire_bits(&self) -> u32 {
        8 + self.report().wire_bits()
    }
}

/// Coordinator → nodes messages (all broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownMsg {
    /// Running minimum announcement of the violation-phase min-protocol.
    ViolMinAnnounce(Report),
    /// Running maximum announcement of the violation-phase max-protocol.
    ViolMaxAnnounce(Report),
    /// Start MINIMUMPROTOCOL(k) over *all* current top-k nodes (line 25).
    HandlerStartMin,
    /// Start MAXIMUMPROTOCOL(n−k) over *all* current non-top-k nodes
    /// (line 23).
    HandlerStartMax,
    /// Running extremum announcement of the handler protocol.
    HandlerAnnounce(Report),
    /// New common filter threshold `M` (line 33): top-k filters become
    /// `[M, ∞]`, the rest `[−∞, M]`; membership unchanged.
    Midpoint(Value),
    /// ε-band hit (approximate mode only, arXiv 1601.04448): the k/k+1
    /// boundary was crossed by at most ε, the coordinator re-centered the
    /// epoch on this boundary value instead of resetting, and every node
    /// adopts it as the new common filter threshold. Node-side semantics
    /// are identical to [`DownMsg::Midpoint`]; the distinct frame keeps
    /// the wire ledger and event replay lossless about which rule fired.
    Band(Value),
    /// Begin FILTERRESET (line 37): every node joins the k-select sweep.
    ResetStart,
    /// The current `(k+1)`-th best report — the deactivation bar of the
    /// k-select sweep. A participant that cannot beat it is provably
    /// outside the new top-`k+1` and withdraws.
    ResetBar(Report),
    /// End of FILTERRESET (line 41): new threshold `M` and the sweep's
    /// `(k+1)`-th best report `cut`. A node is in the new top-k iff its own
    /// report beats `cut` in the order the sweep selected with
    /// ([`MaxOrder`](topk_proto::extremum::MaxOrder): higher value, ties to
    /// the lower id), so boundary ties split exactly as the answer does.
    ResetDone { threshold: Value, cut: Report },
}

impl WireSize for DownMsg {
    fn wire_bits(&self) -> u32 {
        8 + match *self {
            DownMsg::ViolMinAnnounce(r)
            | DownMsg::ViolMaxAnnounce(r)
            | DownMsg::HandlerAnnounce(r)
            | DownMsg::ResetBar(r) => r.wire_bits(),
            DownMsg::HandlerStartMin | DownMsg::HandlerStartMax | DownMsg::ResetStart => 0,
            DownMsg::Midpoint(m) | DownMsg::Band(m) => varint_bits(m),
            DownMsg::ResetDone { threshold, cut } => varint_bits(threshold) + cut.wire_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::id::NodeId;
    use topk_net::wire::budget_bits;

    #[test]
    fn all_messages_fit_size_budget() {
        let n = 1 << 20;
        let v: Value = (1 << 40) - 1;
        let r = Report {
            id: NodeId(n - 1),
            value: v,
        };
        let msgs_up = [
            UpMsg::ViolMin(r),
            UpMsg::ViolMax(r),
            UpMsg::Handler(r),
            UpMsg::Reset(r),
        ];
        let msgs_down = [
            DownMsg::ViolMinAnnounce(r),
            DownMsg::ViolMaxAnnounce(r),
            DownMsg::HandlerStartMin,
            DownMsg::HandlerStartMax,
            DownMsg::HandlerAnnounce(r),
            DownMsg::Midpoint(v),
            DownMsg::Band(v),
            DownMsg::ResetStart,
            DownMsg::ResetBar(r),
            DownMsg::ResetDone {
                threshold: v,
                cut: r,
            },
        ];
        let budget = budget_bits(n as usize, v);
        for m in msgs_up {
            assert!(
                m.wire_bits() <= budget,
                "{m:?}: {} > {budget}",
                m.wire_bits()
            );
        }
        for m in msgs_down {
            assert!(
                m.wire_bits() <= budget,
                "{m:?}: {} > {budget}",
                m.wire_bits()
            );
        }
    }

    #[test]
    fn up_msg_report_accessor() {
        let r = Report {
            id: NodeId(3),
            value: 9,
        };
        assert_eq!(UpMsg::ViolMin(r).report(), r);
        assert_eq!(UpMsg::Reset(r).report(), r);
    }
}
