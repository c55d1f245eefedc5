//! Ground truth computed by the benchmark itself, from the inputs it
//! generated — never from the system under test.

use topk_core::{EventReplay, TopkEvent};
use topk_net::id::{NodeId, Value};

/// Check every step up to this key count; above it, check every
/// [`CHECK_STRIDE`]-th step, every step that emitted events, and the last.
pub const CHECK_EVERY_STEP_MAX_N: usize = 16_384;
/// A check scans the whole mirror row and evicts the system's data from
/// the caches; at every 64th step the cold step after it would set the
/// measured p99.
pub const CHECK_STRIDE: u64 = 1_024;

/// A mirror of the committed value row plus an [`EventReplay`] fed every
/// step's events, and the tally of checks made.
pub struct Checker {
    k: usize,
    mirror: Vec<Value>,
    replay: EventReplay,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Checker {
    pub fn new(n: usize, k: usize) -> Self {
        Checker {
            k,
            mirror: vec![0; n],
            replay: EventReplay::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Record one step: the generated changes and the events the system
    /// returned for them.
    pub fn observe(&mut self, changes: &[(NodeId, Value)], events: &[TopkEvent]) {
        for &(id, v) in changes {
            self.mirror[id.idx()] = v;
        }
        self.replay.apply(events);
    }

    /// The check cadence.
    pub fn due(&self, t: u64, had_events: bool, last: bool) -> bool {
        self.mirror.len() <= CHECK_EVERY_STEP_MAX_N
            || had_events
            || last
            || t.is_multiple_of(CHECK_STRIDE)
    }

    /// Check and tally one answer.
    pub fn check(
        &mut self,
        t: u64,
        answer: &[NodeId],
        threshold: Option<Value>,
        threshold_is_bar: bool,
    ) {
        self.attempted += 1;
        if let Err(why) = self.verify(answer, threshold, threshold_is_bar) {
            self.failed += 1;
            self.first_failure.get_or_insert(format!("t={t}: {why}"));
        }
    }

    /// Count a step that could not be checked (the system panicked).
    pub fn record_failure(&mut self, t: u64, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.first_failure.get_or_insert(format!("t={t}: {why}"));
    }

    /// `answer` (ascending ids) must hold exactly k distinct keys whose
    /// smallest value is at least the largest value outside it — valid
    /// under ties — and equal what the event stream replays to. The
    /// replayed threshold must match `threshold`; where that threshold
    /// claims to be the exact (k+1)-th largest value, it must be the
    /// largest value outside the answer (which, for a valid answer, it is).
    pub fn verify(
        &self,
        answer: &[NodeId],
        threshold: Option<Value>,
        threshold_is_bar: bool,
    ) -> Result<(), String> {
        if answer.len() != self.k {
            return Err(format!(
                "{} keys in the answer, want {}",
                answer.len(),
                self.k
            ));
        }
        if answer.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("answer ids not strictly ascending: {answer:?}"));
        }
        if let Some(id) = answer.iter().find(|id| id.idx() >= self.mirror.len()) {
            return Err(format!("answer holds unknown key {id}"));
        }
        let min_in = answer
            .iter()
            .map(|id| self.mirror[id.idx()])
            .min()
            .expect("k ≥ 1");
        let max_out = self.max_outside(answer);
        if max_out.is_some_and(|out| out > min_in) {
            return Err(format!(
                "answer minimum {min_in} below the best value outside it {max_out:?}"
            ));
        }
        let replayed = self.replay.topk();
        if replayed != answer {
            return Err(format!(
                "event replay gives {replayed:?}, answer is {answer:?}"
            ));
        }
        if self.replay.threshold() != threshold {
            return Err(format!(
                "event replay threshold {:?}, system threshold {threshold:?}",
                self.replay.threshold()
            ));
        }
        if threshold_is_bar && threshold != max_out {
            return Err(format!(
                "threshold {threshold:?} is not the (k+1)-th largest value {max_out:?}"
            ));
        }
        Ok(())
    }

    /// Largest mirrored value whose key is not in `answer` (ascending).
    fn max_outside(&self, answer: &[NodeId]) -> Option<Value> {
        let mut best: Option<Value> = None;
        for (i, &v) in self.mirror.iter().enumerate() {
            // Membership is only looked up for a new maximum, which is rare.
            if best.is_none_or(|b| v > b) && answer.binary_search(&NodeId(i as u32)).is_err() {
                best = Some(v);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::session::MonitorBuilder;

    /// A checker and a real session that agree on a 6-key row, k = 2.
    fn agreed() -> (Checker, topk_core::MonitorSession) {
        let row: Vec<(NodeId, Value)> = [10, 60, 30, 50, 20, 40]
            .iter()
            .enumerate()
            .map(|(i, &v)| (NodeId(i as u32), v))
            .collect();
        let mut session = MonitorBuilder::new(6, 2).seed(1).build();
        session.update_batch(row.iter().copied());
        let mut checker = Checker::new(6, 2);
        checker.observe(&row, session.advance(0));
        (checker, session)
    }

    #[test]
    fn accepts_the_true_answer() {
        let (checker, session) = agreed();
        assert_eq!(session.topk(), &[NodeId(1), NodeId(3)]);
        assert_eq!(
            checker.verify(session.topk(), session.threshold(), false),
            Ok(())
        );
    }

    #[test]
    fn rejects_a_corrupted_answer() {
        let (mut checker, session) = agreed();
        let th = session.threshold();
        for bad in [
            vec![NodeId(1), NodeId(5)],
            vec![NodeId(1)],
            vec![NodeId(3), NodeId(1)],
            vec![NodeId(1), NodeId(9)],
        ] {
            assert!(checker.verify(&bad, th, false).is_err(), "{bad:?}");
        }
        checker.check(0, &[NodeId(0), NodeId(1)], th, false);
        assert_eq!((checker.attempted, checker.failed), (1, 1));
        assert!(checker.first_failure.is_some());
    }

    #[test]
    fn rejects_a_wrong_bar() {
        // A service-style stream whose events announce `bar` consistently:
        // only the ground truth (the 3rd largest value, 7) may pass.
        let verdict = |bar: Value| {
            let mut checker = Checker::new(4, 2);
            let row = [
                (NodeId(0), 5),
                (NodeId(1), 9),
                (NodeId(2), 7),
                (NodeId(3), 8),
            ];
            let events = [
                TopkEvent::ThresholdUpdated {
                    t: 0,
                    threshold: bar,
                },
                TopkEvent::Entered {
                    t: 0,
                    id: NodeId(1),
                    rank: 1,
                },
                TopkEvent::Entered {
                    t: 0,
                    id: NodeId(3),
                    rank: 2,
                },
            ];
            checker.observe(&row, &events);
            checker.verify(&[NodeId(1), NodeId(3)], Some(bar), true)
        };
        assert_eq!(verdict(7), Ok(()));
        assert!(verdict(6).is_err());
        assert!(verdict(8).is_err());
    }
}
