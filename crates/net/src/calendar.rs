//! [`FireCalendar`] — the runtime-side half of the fire-round calendar
//! contract ([`crate::behavior::RoundAction::wake_at`]), shared by the
//! sequential runtime ([`crate::seq::SyncRuntime`]) and the transport
//! driver ([`crate::driver::Cluster`]).
//!
//! A node that announces its wake phase is bucketed under it and dropped
//! from the per-round poll set; each micro-round then visits only the
//! engaged every-round pollers plus **that round's scheduled firers**
//! (plus addressees). When the round carries a cutoff
//! ([`crate::behavior::CoordOut::cutoff`]), a due firer whose cached value
//! cannot beat it is resolved without a poll, because it would only
//! withdraw — so a protocol round costs one poll per reporter, not one
//! per due participant. Broadcasts a scheduled node skips are replayed
//! from the step's broadcast log (owned by the runtime) at its next poll —
//! the calendar tracks the per-node log cursor.
//!
//! Both runtimes must resolve schedules identically or their bit-identity
//! breaks; keeping the bucket/cursor bookkeeping in this one type keeps
//! them in lockstep by construction, exactly like [`crate::delta::DeltaRow`]
//! does for the sparse-observation contract.
//!
//! All storage is reused across rounds and steps: buckets keep their
//! capacity, per-node arrays are fixed-size, and a step that never
//! schedules ([`FireCalendar::end_step`] on an empty calendar) costs O(1) —
//! the steady-state hot path stays allocation-free.

use crate::id::{NodeId, RankEntry, Value};
use crate::wire::Report;

/// Sentinel for "not scheduled".
const NONE: u32 = u32::MAX;

/// Per-step schedule of node wake phases plus broadcast-log cursors.
#[derive(Debug, Clone)]
pub struct FireCalendar {
    /// `buckets[phase]` — indices scheduled to wake at `phase` (may contain
    /// stale entries; `sched_phase` is the source of truth).
    buckets: Vec<Vec<u32>>,
    /// Phases whose buckets received entries this step (cleanup list).
    used: Vec<u32>,
    /// Per node: the wake phase, or [`NONE`].
    sched_phase: Vec<u32>,
    /// Per node: broadcast-log length at its last poll — the replay cursor.
    seen: Vec<u32>,
    /// Number of currently scheduled nodes.
    live: usize,
}

impl FireCalendar {
    pub fn new(n: usize) -> Self {
        FireCalendar {
            buckets: Vec::new(),
            used: Vec::new(),
            sched_phase: vec![NONE; n],
            seen: vec![0; n],
            live: 0,
        }
    }

    /// `true` iff no node is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether node `i` currently holds a calendar entry.
    #[inline]
    pub fn is_scheduled(&self, i: u32) -> bool {
        self.sched_phase[i as usize] != NONE
    }

    /// The broadcast-log cursor of node `i` (meaningful while scheduled):
    /// everything from this offset on has not been delivered to it yet.
    #[inline]
    pub fn seen(&self, i: u32) -> usize {
        self.seen[i as usize] as usize
    }

    /// Whether any node is due exactly at `phase`.
    pub fn has_due(&self, phase: u32) -> bool {
        self.live > 0
            && self
                .buckets
                .get(phase as usize)
                .is_some_and(|b| b.iter().any(|&i| self.sched_phase[i as usize] == phase))
    }

    /// Append the indices due at `phase` to `out` (unsorted — callers merge
    /// and sort their full visit set).
    ///
    /// With a `cutoff` `(bar, row)`, a due node `i` whose `row[i]` does not
    /// beat `bar` in the [`RankEntry`] order is resolved here instead: its
    /// entry is dropped and it is not appended, so the round neither polls
    /// nor frames it (the emitter's guarantee,
    /// [`crate::behavior::CoordOut::cutoff`], makes that poll a no-op).
    pub fn due_into(&mut self, phase: u32, cutoff: Option<(Report, &[Value])>, out: &mut Vec<u32>) {
        if self.live == 0 {
            return;
        }
        let Some(bucket) = self.buckets.get(phase as usize) else {
            return;
        };
        let sched = &mut self.sched_phase;
        let cutoff = cutoff.map(|(bar, row)| (RankEntry::new(bar.value, bar.id), row));
        for &i in bucket {
            if sched[i as usize] != phase {
                continue;
            }
            match cutoff {
                Some((bar, row)) if RankEntry::new(row[i as usize], NodeId(i)) <= bar => {
                    sched[i as usize] = NONE;
                    self.live -= 1;
                }
                _ => out.push(i),
            }
        }
    }

    /// Record the outcome of polling node `i` at `phase_now` with the
    /// broadcast log at length `log_len`: any existing schedule is resolved,
    /// and `wake_at` (already gated on the node being engaged) re-schedules
    /// it. Must be called for every poll of a scheduled node and for every
    /// poll that returns a wake phase; polls of ordinary nodes may skip it.
    pub fn note_poll(&mut self, i: u32, wake_at: Option<u32>, phase_now: u32, log_len: usize) {
        let cur = self.sched_phase[i as usize];
        match wake_at {
            Some(f) => {
                debug_assert!(f > phase_now, "wake phase must lie in the future");
                // The node has now seen everything in the log.
                self.seen[i as usize] = log_len as u32;
                if cur == f {
                    return; // re-statement of an existing entry
                }
                if cur == NONE {
                    self.live += 1;
                }
                self.sched_phase[i as usize] = f;
                let fi = f as usize;
                if self.buckets.len() <= fi {
                    self.buckets.resize_with(fi + 1, Vec::new);
                }
                if self.buckets[fi].is_empty() {
                    self.used.push(f);
                }
                self.buckets[fi].push(i);
            }
            None => {
                if cur != NONE {
                    self.sched_phase[i as usize] = NONE;
                    self.live -= 1;
                }
            }
        }
    }

    /// Apply one poll's answer to the visit state: resolve or (re)schedule
    /// node `i`, and push it onto `engaged_out` if it stays an every-round
    /// poller. The one rule for both the sequential runtime (at poll time)
    /// and [`crate::driver::Cluster`] (at collect time).
    #[inline]
    pub fn note_reply(
        &mut self,
        i: u32,
        engaged: bool,
        wake_at: Option<u32>,
        phase: u32,
        log_len: usize,
        engaged_out: &mut Vec<u32>,
    ) {
        debug_assert!(wake_at.is_none() || engaged, "wake_at requires engaged");
        let wake = if engaged { wake_at } else { None };
        if wake.is_some() || (self.live > 0 && self.is_scheduled(i)) {
            self.note_poll(i, wake, phase, log_len);
        }
        if engaged && wake.is_none() {
            engaged_out.push(i);
        }
    }

    /// Drop every entry of the finished step, retaining all capacity. O(1)
    /// when the step never scheduled, and O(1) per used bucket when every
    /// entry is already resolved (a reset's sweep resolves all ~n of its
    /// entries); O(#entries) otherwise. Schedules are step-local by
    /// contract ([`crate::behavior::RoundAction::wake_at`]).
    pub fn end_step(&mut self) {
        for p in self.used.drain(..) {
            let bucket = &mut self.buckets[p as usize];
            if self.live == 0 {
                bucket.clear();
            } else {
                for i in bucket.drain(..) {
                    self.sched_phase[i as usize] = NONE;
                }
            }
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_resolve_cycle() {
        let mut cal = FireCalendar::new(8);
        assert!(cal.is_empty());
        cal.note_poll(3, Some(5), 0, 0);
        cal.note_poll(1, Some(5), 0, 0);
        cal.note_poll(7, Some(2), 0, 0);
        assert!(!cal.is_empty());
        assert!(cal.is_scheduled(3) && cal.is_scheduled(7));
        assert!(!cal.is_scheduled(0));
        assert!(cal.has_due(2) && cal.has_due(5) && !cal.has_due(4));

        let mut due = Vec::new();
        cal.due_into(5, None, &mut due);
        assert_eq!(due, vec![3, 1]);

        // Node 7 is polled at its phase and stays quiet: resolved.
        cal.note_poll(7, None, 2, 1);
        assert!(!cal.is_scheduled(7));
        assert!(!cal.has_due(2));
    }

    #[test]
    fn cutoff_resolves_due_entries_that_cannot_beat_it() {
        let mut cal = FireCalendar::new(6);
        for i in 0..5 {
            cal.note_poll(i, Some(4), 0, 0);
        }
        cal.note_poll(5, Some(7), 0, 0);
        let row = [10, 30, 20, 20, 20, 1];
        let bar = Report {
            id: NodeId(3),
            value: 20,
        };
        let mut due = Vec::new();
        cal.due_into(4, Some((bar, &row)), &mut due);
        // 30 beats the bar and so does 20 at the lower id 2; the bar's own
        // node and the higher id 4 lose the tie, and 10 loses outright.
        assert_eq!(due, vec![1, 2]);
        assert!(cal.is_scheduled(1) && cal.is_scheduled(2));
        assert!(!cal.is_scheduled(0) && !cal.is_scheduled(3) && !cal.is_scheduled(4));
        // Entries of other phases are left alone.
        assert!(cal.is_scheduled(5));
        due.clear();
        cal.due_into(7, None, &mut due);
        assert_eq!(due, vec![5]);
        cal.note_poll(1, None, 4, 0);
        cal.note_poll(2, None, 4, 0);
        cal.note_poll(5, None, 7, 0);
        assert!(cal.is_empty(), "resolved entries leave the live count");
    }

    #[test]
    fn restatement_does_not_duplicate_and_moves_update_buckets() {
        let mut cal = FireCalendar::new(4);
        cal.note_poll(2, Some(6), 0, 0);
        // Early full-fanout poll at phase 3 re-states the same wake phase
        // with an advanced cursor: no duplicate bucket entry.
        cal.note_poll(2, Some(6), 3, 4);
        let mut due = Vec::new();
        cal.due_into(6, None, &mut due);
        assert_eq!(due, vec![2]);
        assert_eq!(cal.seen(2), 4);

        // A later poll moves the node to another phase: the old entry goes
        // stale, the new one is authoritative.
        cal.note_poll(2, Some(9), 4, 5);
        due.clear();
        cal.due_into(6, None, &mut due);
        assert!(due.is_empty(), "stale entries must not resurface");
        due.clear();
        cal.due_into(9, None, &mut due);
        assert_eq!(due, vec![2]);
    }

    #[test]
    fn end_step_drops_everything_cheaply() {
        let mut cal = FireCalendar::new(4);
        cal.note_poll(0, Some(3), 0, 0);
        cal.note_poll(1, Some(3), 0, 0);
        cal.end_step();
        assert!(cal.is_empty());
        assert!(!cal.is_scheduled(0) && !cal.is_scheduled(1));
        let mut due = Vec::new();
        cal.due_into(3, None, &mut due);
        assert!(due.is_empty());
        // Fresh step reuses the buckets.
        cal.note_poll(1, Some(3), 0, 0);
        due.clear();
        cal.due_into(3, None, &mut due);
        assert_eq!(due, vec![1]);
    }

    /// A reset-shaped step: a fan-out files every node, and the sweep
    /// resolves each entry, by a poll at its phase or by the cutoff. With
    /// nothing live, `end_step` only empties the used buckets, and the next
    /// step's entries come back exactly once.
    #[test]
    fn end_step_after_a_resolved_sweep_leaves_no_stale_entry() {
        const N: u32 = 16;
        let mut cal = FireCalendar::new(N as usize);
        let phase = |i: u32| 2 + i % 4;
        for i in 0..N {
            cal.note_poll(i, Some(phase(i)), 1, 1);
        }
        // Odd nodes beat the bar and are polled; even ones fall to it.
        let row: Vec<Value> = (0..N as Value).map(|i| 100 * (i % 2)).collect();
        let bar = Report {
            id: NodeId(0),
            value: 50,
        };
        let mut due = Vec::new();
        for p in 2..=5 {
            due.clear();
            cal.due_into(p, Some((bar, &row)), &mut due);
            assert!(due.iter().all(|&i| i % 2 == 1 && phase(i) == p));
            for &i in &due {
                cal.note_poll(i, None, p, 2);
            }
        }
        assert!(cal.is_empty(), "the sweep resolved every entry");
        cal.end_step();
        assert!((0..N).all(|i| !cal.is_scheduled(i)));

        // Nodes 0 and 8 were filed under phase 2 last step; refiled there,
        // each comes back once, and nothing else does.
        cal.note_poll(0, Some(2), 0, 0);
        cal.note_poll(8, Some(2), 0, 0);
        due.clear();
        cal.due_into(2, None, &mut due);
        assert_eq!(due, vec![0, 8]);
        cal.end_step();
        assert!(cal.is_empty() && !cal.is_scheduled(0) && !cal.is_scheduled(8));
    }
}
