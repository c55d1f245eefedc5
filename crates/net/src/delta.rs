//! [`DeltaRow`] — the driver-side cached value row shared by the
//! sequential runtime ([`crate::seq::SyncRuntime`]) and the transport
//! driver ([`crate::driver::Cluster`]), and node-phase 0's visit rule.
//!
//! Both runtimes accept the same two drives — dense rows (`step`) and
//! `fill_delta` change-lists (`step_sparse`) — and both must enforce the
//! same entry invariants (sorted unique ids, dense first step) and visit
//! the same nodes, or their bit-identity breaks. After the first step,
//! [`DeltaRow::diff`] and [`DeltaRow::apply_sparse`] are one walk: in a
//! single ascending pass over the change-list and the engaged list they
//! drop entries that repeat the cached value, update the row, and visit
//! changed ∪ engaged. That walk is **the** node-phase-0 visit rule of both
//! runtimes; keeping it in this one type keeps them in lockstep by
//! construction.

use crate::id::{NodeId, Value};

/// Cached previous-step value row. Disabled caches (for behaviors without
/// [`crate::behavior::NodeBehavior::SPARSE_OBSERVE`]) hold no row and must
/// never be fed.
#[derive(Debug, Clone, Default)]
pub struct DeltaRow {
    row: Vec<Value>,
    valid: bool,
}

impl DeltaRow {
    /// `enabled` mirrors `NodeBehavior::SPARSE_OBSERVE`: a disabled cache
    /// allocates nothing (dense-only behaviors never pay for it).
    pub fn new(n: usize, enabled: bool) -> Self {
        DeltaRow {
            row: if enabled { vec![0; n] } else { Vec::new() },
            valid: false,
        }
    }

    /// `true` once a full row has been cached (diffing is meaningful).
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The cached row (current values of every node).
    #[inline]
    pub fn row(&self) -> &[Value] {
        &self.row
    }

    /// Cache the first dense row without diffing (the caller runs a dense
    /// step over it).
    pub fn prime(&mut self, values: &[Value]) {
        self.row.copy_from_slice(values);
        self.valid = true;
    }

    /// Diff a dense row against the cache (which must be valid), updating
    /// it, and visit changed ∪ `engaged` as [`DeltaRow::apply_sparse`]
    /// does.
    pub fn diff(&mut self, values: &[Value], engaged: &[u32], visit: impl FnMut(u32, Value, bool)) {
        debug_assert!(self.valid, "diff requires a primed row");
        debug_assert_eq!(values.len(), self.row.len());
        walk(
            &mut self.row,
            (0..).zip(values.iter().copied()),
            engaged,
            visit,
        );
    }

    /// Validate and apply a [`crate::behavior::ValueFeed::fill_delta`]
    /// change-list. Returns `true` on the first call — the list must then
    /// cover ids `0..n` in order, nothing is visited, and the caller runs
    /// a dense step over [`DeltaRow::row`].
    ///
    /// On later calls, entries repeating the cached value are dropped (the
    /// contract's superset allowance), the rest update the row, and
    /// `visit(id, value, changed)` fires once per id in changed ∪
    /// `engaged` (the sorted engaged list), in ascending order and in the
    /// same pass: a changed node with its new value and `changed = true`,
    /// an engaged node that did not change with its cached value and
    /// `changed = false`. A malformed list panics before any write or
    /// visit.
    pub fn apply_sparse(
        &mut self,
        changes: &[(NodeId, Value)],
        engaged: &[u32],
        visit: impl FnMut(u32, Value, bool),
    ) -> bool {
        if !self.valid {
            self.apply_first(changes);
            return true;
        }
        assert_sorted(changes);
        if let Some(&(id, _)) = changes.last() {
            assert!(
                id.idx() < self.row.len(),
                "change for node {id} out of range"
            );
        }
        walk(
            &mut self.row,
            changes.iter().map(|&(id, v)| (id.0, v)),
            engaged,
            visit,
        );
        false
    }

    /// Cache a first change-list, which must cover ids `0..n` in order.
    /// Ids equal to `0..n` are sorted and unique, so one pass validates a
    /// good list; a bad one is re-checked rule by rule for its message.
    fn apply_first(&mut self, changes: &[(NodeId, Value)]) {
        let n = self.row.len();
        let dense = changes.len() == n && (0..).zip(changes).all(|(i, &(id, _))| id.idx() == i);
        if !dense {
            assert_sorted(changes);
            assert_eq!(
                changes.len(),
                n,
                "the first sparse step must provide a value for every node"
            );
            for (i, &(id, _)) in changes.iter().enumerate() {
                assert_eq!(
                    id.idx(),
                    i,
                    "first-step changes must cover ids 0..n in order"
                );
            }
        }
        for (slot, &(_, v)) in self.row.iter_mut().zip(changes) {
            *slot = v;
        }
        self.valid = true;
    }
}

fn assert_sorted(changes: &[(NodeId, Value)]) {
    assert!(
        changes.windows(2).all(|w| w[0].0 < w[1].0),
        "changes must be sorted by node id without duplicates"
    );
}

/// The one walk: patch `row` with the ascending `(id, value)` pairs of
/// `changes`, and visit each id of changed ∪ `engaged` in ascending order
/// (see [`DeltaRow::apply_sparse`]).
#[inline]
fn walk(
    row: &mut [Value],
    changes: impl Iterator<Item = (u32, Value)>,
    engaged: &[u32],
    mut visit: impl FnMut(u32, Value, bool),
) {
    debug_assert!(engaged.windows(2).all(|w| w[0] < w[1]));
    let mut e = 0;
    for (id, v) in changes {
        while let Some(&j) = engaged.get(e) {
            if j >= id {
                break;
            }
            visit(j, row[j as usize], false);
            e += 1;
        }
        let slot = &mut row[id as usize];
        let changed = *slot != v;
        if changed {
            *slot = v;
        }
        let is_engaged = engaged.get(e) == Some(&id);
        e += is_engaged as usize;
        if changed || is_engaged {
            visit(id, v, changed);
        }
    }
    for &j in &engaged[e..] {
        visit(j, row[j as usize], false);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    /// Run `apply_sparse` and collect its visits.
    fn sparse(
        dr: &mut DeltaRow,
        changes: &[(NodeId, Value)],
        engaged: &[u32],
    ) -> (bool, Vec<(u32, Value, bool)>) {
        let mut seen = Vec::new();
        let first = dr.apply_sparse(changes, engaged, |i, v, c| seen.push((i, v, c)));
        (first, seen)
    }

    /// Run `diff` and collect its visits.
    fn diffed(dr: &mut DeltaRow, values: &[Value], engaged: &[u32]) -> Vec<(u32, Value, bool)> {
        let mut seen = Vec::new();
        dr.diff(values, engaged, |i, v, c| seen.push((i, v, c)));
        seen
    }

    #[test]
    fn first_apply_is_dense_then_filtered_deltas() {
        let mut dr = DeltaRow::new(4, true);
        assert!(!dr.is_valid());
        let all = [
            (NodeId(0), 10),
            (NodeId(1), 20),
            (NodeId(2), 30),
            (NodeId(3), 40),
        ];
        // The first call visits nothing, even with an engaged list.
        assert_eq!(sparse(&mut dr, &all, &[1, 2]), (true, vec![]));
        assert_eq!(dr.row(), &[10, 20, 30, 40]);

        // Superset: one repeat (filtered), one mover (kept).
        let (first, seen) = sparse(&mut dr, &[(NodeId(1), 20), (NodeId(3), 99)], &[]);
        assert!(!first);
        assert_eq!(seen, vec![(3, 99, true)]);
        assert_eq!(dr.row(), &[10, 20, 30, 99]);
    }

    #[test]
    fn diff_tracks_movers_only() {
        let mut dr = DeltaRow::new(3, true);
        dr.prime(&[1, 2, 3]);
        assert_eq!(diffed(&mut dr, &[1, 5, 3], &[]), vec![(1, 5, true)]);
        assert!(diffed(&mut dr, &[1, 5, 3], &[]).is_empty());
    }

    #[test]
    fn walk_visits_changed_and_engaged_in_ascending_order() {
        let mut dr = DeltaRow::new(8, true);
        dr.prime(&[0, 10, 20, 30, 40, 50, 60, 70]);
        // Changed: 1, 4, 6. Engaged: 2 (unchanged), 4 (changed), 5
        // (repeated in the list, unchanged), 7 (after the last change).
        let changes = [
            (NodeId(1), 11),
            (NodeId(3), 30),
            (NodeId(4), 44),
            (NodeId(5), 50),
            (NodeId(6), 66),
        ];
        let (first, seen) = sparse(&mut dr, &changes, &[2, 4, 5, 7]);
        assert!(!first);
        assert_eq!(
            seen,
            vec![
                (1, 11, true),
                (2, 20, false),
                (4, 44, true),
                (5, 50, false),
                (6, 66, true),
                (7, 70, false),
            ],
            "ascending ids; engaged-but-unchanged nodes get their cached value; \
             the repeat on node 3 (not engaged) is not visited"
        );
        assert_eq!(dr.row(), &[0, 11, 20, 30, 44, 50, 66, 70]);

        // The dense diff walks the same rule.
        let seen = diffed(&mut dr, &[0, 11, 21, 30, 44, 50, 66, 70], &[0, 6]);
        assert_eq!(seen, vec![(0, 0, false), (2, 21, true), (6, 66, false)]);
        assert_eq!(dr.row(), &[0, 11, 21, 30, 44, 50, 66, 70]);
    }

    #[test]
    fn engaged_ids_after_the_last_change_are_visited() {
        let mut dr = DeltaRow::new(6, true);
        dr.prime(&[1, 2, 3, 4, 5, 6]);
        let (_, seen) = sparse(&mut dr, &[(NodeId(0), 9)], &[3, 5]);
        assert_eq!(seen, vec![(0, 9, true), (3, 4, false), (5, 6, false)]);
        // An empty change-list still visits every engaged node.
        let (_, seen) = sparse(&mut dr, &[], &[1, 4]);
        assert_eq!(seen, vec![(1, 2, false), (4, 5, false)]);
        let seen = diffed(&mut dr, &[9, 2, 3, 4, 5, 6], &[2, 5]);
        assert_eq!(seen, vec![(2, 3, false), (5, 6, false)]);
    }

    #[test]
    fn malformed_list_panics_before_any_visit() {
        let mut dr = DeltaRow::new(4, true);
        dr.prime(&[1, 2, 3, 4]);
        let bad: [&[(NodeId, Value)]; 3] = [
            &[(NodeId(0), 7), (NodeId(2), 7), (NodeId(1), 7)],
            &[(NodeId(0), 7), (NodeId(3), 7), (NodeId(3), 8)],
            &[(NodeId(0), 7), (NodeId(4), 7)],
        ];
        for changes in bad {
            let mut visits = 0;
            let result = catch_unwind(AssertUnwindSafe(|| {
                dr.apply_sparse(changes, &[0, 1, 2, 3], |_, _, _| visits += 1);
            }));
            assert!(result.is_err(), "{changes:?} must be rejected");
            assert_eq!(visits, 0, "{changes:?}: rejected after a visit");
            assert_eq!(
                dr.row(),
                &[1, 2, 3, 4],
                "{changes:?}: rejected after a write"
            );
        }

        // A bad first list leaves the cache unwritten and invalid.
        let mut fresh = DeltaRow::new(3, true);
        let result = catch_unwind(AssertUnwindSafe(|| {
            fresh.apply_sparse(
                &[(NodeId(0), 5), (NodeId(2), 5), (NodeId(1), 5)],
                &[],
                |_, _, _| {},
            )
        }));
        assert!(result.is_err());
        assert_eq!(fresh.row(), &[0, 0, 0]);
        assert!(!fresh.is_valid());
    }

    #[test]
    #[should_panic(expected = "sorted by node id")]
    fn unsorted_changes_rejected() {
        let mut dr = DeltaRow::new(2, true);
        dr.apply_sparse(&[(NodeId(1), 1), (NodeId(0), 2)], &[], |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "first sparse step must provide a value for every node")]
    fn first_apply_requires_full_coverage() {
        let mut dr = DeltaRow::new(3, true);
        dr.apply_sparse(&[(NodeId(1), 1)], &[], |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "first-step changes must cover ids 0..n in order")]
    fn first_apply_requires_ids_in_order() {
        let mut dr = DeltaRow::new(3, true);
        dr.apply_sparse(
            &[(NodeId(0), 1), (NodeId(1), 1), (NodeId(3), 1)],
            &[],
            |_, _, _| {},
        );
    }

    #[test]
    fn disabled_cache_allocates_nothing() {
        let dr = DeltaRow::new(1_000_000, false);
        assert!(dr.row().is_empty());
    }
}
