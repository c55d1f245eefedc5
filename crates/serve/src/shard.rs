//! One shard: its session, its ingest queue and its merge candidates.
//!
//! A shard's [`MonitorSession`] runs on whichever thread steps it. The
//! service steps its shards one after another on the caller's thread,
//! except for the first step, which builds each session and runs its init
//! FILTERRESET on one thread per shard (see
//! [`TopkService::advance`](crate::TopkService::advance)). Every buffer is
//! reused across steps, so a silent service tick allocates nothing
//! (asserted by `tests/alloc_discipline.rs`).

use topk_core::session::{MonitorBuilder, MonitorSession};
use topk_net::id::{NodeId, Value};
use topk_net::wire::Report;

/// One shard of the service: the builder of its session, the session once
/// the first step has built it, a local ingest queue and the shard's
/// current candidate list (global keys, best-first) for the merge.
pub(crate) struct ShardHandle {
    builder: MonitorBuilder,
    /// `None` until the first [`step`](Self::step) builds it.
    session: Option<MonitorSession>,
    /// Global key of each shard-local id.
    globals: Vec<NodeId>,
    /// Updates buffered since the last step, in shard-local ids.
    pending: Vec<(NodeId, Value)>,
    /// The shard's members best-first, ids translated to global keys.
    /// Refreshed only on steps that can have changed it.
    candidates: Vec<Report>,
}

impl ShardHandle {
    /// A shard of `builder.config().n` keys whose local id `i` maps to
    /// global key `globals[i]`. Its session is built by the first step.
    pub(crate) fn new(builder: MonitorBuilder, globals: Vec<NodeId>) -> Self {
        debug_assert_eq!(
            globals.len(),
            builder.config().n,
            "one global key per local id"
        );
        let k = builder.config().k;
        ShardHandle {
            builder,
            session: None,
            globals,
            pending: Vec::new(),
            candidates: Vec::with_capacity(k),
        }
    }

    /// Queue one update (shard-local id) for the next step.
    pub(crate) fn push(&mut self, local: NodeId, value: Value) {
        self.pending.push((local, value));
    }

    /// Commit the queued batch as step `t`, building the session first if
    /// this is its first step. Returns whether the candidate list may have
    /// changed; if so, it has been refreshed.
    ///
    /// # Panics
    ///
    /// With [`MonitorBuilder::build`]'s message if the builder is invalid,
    /// and wherever [`MonitorSession::advance`] panics.
    pub(crate) fn step(&mut self, t: u64) -> bool {
        let session = self.session.get_or_insert_with(|| self.builder.build());
        session.update_batch(self.pending.iter().copied());
        let had_events = !session.advance(t).is_empty();
        // A member's value can move without any event (same rank, no
        // message traffic), which still changes the merge candidates — so
        // "touched a member" forces a refresh.
        let changed = had_events || self.pending.iter().any(|&(id, _)| session.in_topk(id));
        self.pending.clear();
        if changed {
            self.candidates.clear();
            self.candidates
                .extend(session.topk_by_rank().iter().map(|&local| Report {
                    id: self.globals[local.idx()],
                    value: session.value(local),
                }));
        }
        changed
    }

    /// The shard's session, once the first step has built it.
    pub(crate) fn session(&self) -> Option<&MonitorSession> {
        self.session.as_ref()
    }

    /// The builder the shard's session comes from.
    pub(crate) fn builder(&self) -> &MonitorBuilder {
        &self.builder
    }

    /// The shard's current merge candidates (global keys, best-first).
    pub(crate) fn candidates(&self) -> &[Report] {
        &self.candidates
    }
}
