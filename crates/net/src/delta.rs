//! [`DeltaRow`] — the driver-side cached value row shared by the
//! sequential runtime ([`crate::seq::SyncRuntime`]) and the transport
//! driver ([`crate::driver::Cluster`]) for their delta-driven entry
//! points.
//!
//! Both runtimes accept the same two drives — dense rows (`step`) and
//! `fill_delta` change-lists (`step_sparse`) — and both must enforce the
//! same entry invariants (sorted unique ids, dense first step) and produce
//! the same effective change set, or their bit-identity breaks. Keeping the
//! diff, the validation, and the superset filtering in this one type keeps
//! the runtimes in lockstep by construction.

use crate::id::{NodeId, Value};

/// Cached previous-step value row plus the change-list scratch derived
/// from it. Disabled caches (for behaviors without
/// [`crate::behavior::NodeBehavior::SPARSE_OBSERVE`]) hold no row and must
/// never be fed.
#[derive(Debug, Clone, Default)]
pub struct DeltaRow {
    row: Vec<Value>,
    valid: bool,
    delta: Vec<(NodeId, Value)>,
}

impl DeltaRow {
    /// `enabled` mirrors `NodeBehavior::SPARSE_OBSERVE`: a disabled cache
    /// allocates nothing (dense-only behaviors never pay for it).
    pub fn new(n: usize, enabled: bool) -> Self {
        DeltaRow {
            row: if enabled { vec![0; n] } else { Vec::new() },
            valid: false,
            delta: Vec::new(),
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

    /// The change set computed by the last [`DeltaRow::diff`] or
    /// [`DeltaRow::apply_sparse`] call.
    #[inline]
    pub fn last_delta(&self) -> &[(NodeId, Value)] {
        &self.delta
    }

    /// Cache the first dense row without diffing (the caller runs a dense
    /// step over it).
    pub fn prime(&mut self, values: &[Value]) {
        self.row.copy_from_slice(values);
        self.valid = true;
    }

    /// Diff a dense row against the cache (which must be valid), updating
    /// it; the true movers land in [`DeltaRow::last_delta`].
    pub fn diff(&mut self, values: &[Value]) {
        debug_assert!(self.valid, "diff requires a primed row");
        self.delta.clear();
        for (i, (&new, old)) in values.iter().zip(self.row.iter_mut()).enumerate() {
            if new != *old {
                *old = new;
                self.delta.push((NodeId(i as u32), new));
            }
        }
    }

    /// Validate and apply a [`crate::behavior::ValueFeed::fill_delta`]
    /// change-list. Returns `true` on the first call — the list must then
    /// cover ids `0..n` in order and the caller runs a dense step over
    /// [`DeltaRow::row`]. On later calls, entries repeating the cached
    /// value are filtered out (the contract's superset allowance; a
    /// disengaged node's observe of an unchanged value is a no-op, and
    /// engaged nodes are revisited regardless), leaving the true movers in
    /// [`DeltaRow::last_delta`].
    pub fn apply_sparse(&mut self, changes: &[(NodeId, Value)]) -> bool {
        assert!(
            changes.windows(2).all(|w| w[0].0 < w[1].0),
            "changes must be sorted by node id without duplicates"
        );
        if !self.valid {
            assert_eq!(
                changes.len(),
                self.row.len(),
                "the first sparse step must provide a value for every node"
            );
            for (i, &(id, v)) in changes.iter().enumerate() {
                assert_eq!(
                    id.idx(),
                    i,
                    "first-step changes must cover ids 0..n in order"
                );
                self.row[i] = v;
            }
            self.valid = true;
            return true;
        }
        self.delta.clear();
        for &(id, v) in changes {
            if self.row[id.idx()] != v {
                self.row[id.idx()] = v;
                self.delta.push((id, v));
            }
        }
        false
    }
}

/// Merge-visit two ascending node-id streams: `left` carries per-node
/// payloads (changes, unicasts), `right` is a bare sorted id list (the
/// engaged set). `visit(id, payload)` fires exactly once per id present in
/// either stream, in ascending order, with the payload when `left` holds
/// that id.
///
/// This is **the** node-phase visit rule of both runtimes — phase 0 visits
/// changed ∪ engaged, a broadcast-free micro-round visits addressees ∪
/// engaged. Sharing the merge keeps the rule single-sourced, like the
/// diff/filter logic in [`DeltaRow`].
pub fn merge_visit<P>(left: &[(NodeId, P)], right: &[u32], mut visit: impl FnMut(u32, Option<&P>)) {
    debug_assert!(left.windows(2).all(|w| w[0].0 < w[1].0));
    debug_assert!(right.windows(2).all(|w| w[0] < w[1]));
    let mut l = left.iter().peekable();
    let mut r = right.iter().copied().peekable();
    loop {
        let lid = l.peek().map(|(id, _)| id.0);
        let rid = r.peek().copied();
        let i = match (lid, rid) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        let payload = if lid == Some(i) {
            l.next().map(|(_, p)| p)
        } else {
            None
        };
        if rid == Some(i) {
            r.next();
        }
        visit(i, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_apply_is_dense_then_filtered_deltas() {
        let mut dr = DeltaRow::new(4, true);
        assert!(!dr.is_valid());
        let first = dr.apply_sparse(&[
            (NodeId(0), 10),
            (NodeId(1), 20),
            (NodeId(2), 30),
            (NodeId(3), 40),
        ]);
        assert!(first);
        assert_eq!(dr.row(), &[10, 20, 30, 40]);

        // Superset: one repeat (filtered), one mover (kept).
        let first = dr.apply_sparse(&[(NodeId(1), 20), (NodeId(3), 99)]);
        assert!(!first);
        assert_eq!(dr.last_delta(), &[(NodeId(3), 99)]);
        assert_eq!(dr.row(), &[10, 20, 30, 99]);
    }

    #[test]
    fn diff_tracks_movers_only() {
        let mut dr = DeltaRow::new(3, true);
        dr.prime(&[1, 2, 3]);
        dr.diff(&[1, 5, 3]);
        assert_eq!(dr.last_delta(), &[(NodeId(1), 5)]);
        dr.diff(&[1, 5, 3]);
        assert!(dr.last_delta().is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted by node id")]
    fn unsorted_changes_rejected() {
        let mut dr = DeltaRow::new(2, true);
        dr.apply_sparse(&[(NodeId(1), 1), (NodeId(0), 2)]);
    }

    #[test]
    #[should_panic(expected = "first sparse step must provide a value for every node")]
    fn first_apply_requires_full_coverage() {
        let mut dr = DeltaRow::new(3, true);
        dr.apply_sparse(&[(NodeId(1), 1)]);
    }

    #[test]
    fn disabled_cache_allocates_nothing() {
        let dr = DeltaRow::new(1_000_000, false);
        assert!(dr.row().is_empty());
    }

    #[test]
    fn merge_visit_covers_union_in_order() {
        let left = [(NodeId(1), 'a'), (NodeId(4), 'b'), (NodeId(6), 'c')];
        let right = [2u32, 4, 5];
        let mut seen = Vec::new();
        merge_visit(&left, &right, |i, p| seen.push((i, p.copied())));
        assert_eq!(
            seen,
            vec![
                (1, Some('a')),
                (2, None),
                (4, Some('b')),
                (5, None),
                (6, Some('c')),
            ]
        );

        // Empty sides degrade to a plain walk of the other.
        let mut ids = Vec::new();
        merge_visit::<char>(&[], &right, |i, _| ids.push(i));
        assert_eq!(ids, vec![2, 4, 5]);
        let mut ids = Vec::new();
        merge_visit(&left, &[], |i, p| {
            assert!(p.is_some());
            ids.push(i);
        });
        assert_eq!(ids, vec![1, 4, 6]);
    }
}
