//! Per-shard worker threads and the slot-based handoff that drives them.
//!
//! Each shard owns one [`MonitorSession`] on a dedicated OS thread. The
//! service talks to a worker through a single mutex-protected *slot*: the
//! service swaps a filled batch buffer in and a command flag on, the worker
//! wakes, commits the step on its session, writes the step outputs back
//! into the slot, and signals completion. Buffers rotate between the two
//! sides by `mem::swap`, never by reallocation — a silent service tick
//! performs zero allocations on either side of the slot (asserted by
//! `tests/alloc_discipline.rs`).
//!
//! Channels were deliberately *not* used here: the vendored channel shims
//! allocate per send, which would break the serving layer's zero-alloc
//! steady state. A `Mutex` + two `Condvar`s with swapped `Vec`s is the
//! smallest handoff that keeps the hot path allocation-free.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use topk_core::session::MonitorBuilder;
use topk_core::RunMetrics;
use topk_net::chaos::RecoveryMetrics;
use topk_net::id::{NodeId, Value};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};
use topk_net::wire::Report;

/// What the service asks the worker to do next.
enum Cmd {
    /// Nothing pending; the worker waits.
    Idle,
    /// Commit the slot's batch as time step `t` and report changes.
    Step(u64),
    /// Snapshot the session's metrics/ledger blocks into the slot.
    Probe,
    /// Exit the worker loop (the session drops on the worker thread).
    Shutdown,
}

/// One shard's metrics snapshot, taken on the worker thread.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardProbe {
    pub metrics: RunMetrics,
    pub ledger: LedgerSnapshot,
    /// `None` on the sequential engine (no transport layer).
    pub recovery: Option<RecoveryMetrics>,
    /// `None` except on the socket engine.
    pub wire: Option<WireMetrics>,
}

/// The shared slot between the service thread and one worker.
struct SlotState {
    cmd: Cmd,
    /// Step input: local-id updates, swapped in by the service.
    batch: Vec<(NodeId, Value)>,
    /// Step output: did the shard's candidate list change this step?
    changed: bool,
    /// Step output: the shard's members best-first, ids translated to
    /// global keys. Only rewritten when `changed`.
    candidates: Vec<Report>,
    /// Probe output.
    probe: ShardProbe,
    /// Completion flag for the last command.
    done: bool,
}

struct Slot {
    state: Mutex<SlotState>,
    cmd_ready: Condvar,
    done_ready: Condvar,
}

/// Worker loop: wait for a command, execute it against the owned session,
/// publish the outputs. The session is *built* on this thread too, so
/// engine construction (socket accept loops) parallelizes
/// across shards and the session never crosses a thread boundary.
fn worker(slot: Arc<Slot>, builder: MonitorBuilder, globals: Vec<NodeId>) {
    let mut session = builder.build();
    let mut batch: Vec<(NodeId, Value)> = Vec::new();
    loop {
        let cmd = {
            let mut st = lock(&slot);
            while matches!(st.cmd, Cmd::Idle) {
                st = slot.cmd_ready.wait(st).expect("service side panicked");
            }
            let cmd = std::mem::replace(&mut st.cmd, Cmd::Idle);
            if matches!(cmd, Cmd::Step(_)) {
                std::mem::swap(&mut st.batch, &mut batch);
            }
            cmd
        };
        match cmd {
            Cmd::Step(t) => {
                session.update_batch(batch.iter().copied());
                let had_events = !session.advance(t).is_empty();
                // A member's value can move without any event (same rank,
                // no message traffic), which still changes the merge
                // candidates — so "touched a member" forces a refresh.
                let changed = had_events || batch.iter().any(|&(id, _)| session.in_topk(id));
                batch.clear();
                let mut st = lock(&slot);
                if changed {
                    st.candidates.clear();
                    for &local in session.topk_by_rank() {
                        st.candidates.push(Report {
                            id: globals[local.idx()],
                            value: session.value(local),
                        });
                    }
                }
                st.changed = changed;
                finish(&slot, st);
            }
            Cmd::Probe => {
                let probe = ShardProbe {
                    metrics: *session.metrics(),
                    ledger: session.ledger(),
                    recovery: session.recovery().copied(),
                    wire: session.wire().copied(),
                };
                let mut st = lock(&slot);
                st.probe = probe;
                finish(&slot, st);
            }
            Cmd::Shutdown => {
                let st = lock(&slot);
                finish(&slot, st);
                break;
            }
            Cmd::Idle => unreachable!("the wait loop never hands out Idle"),
        }
    }
}

fn lock(slot: &Slot) -> MutexGuard<'_, SlotState> {
    slot.state
        .lock()
        .expect("slot poisoned: the other side panicked while holding it")
}

fn finish(slot: &Slot, mut st: MutexGuard<'_, SlotState>) {
    st.done = true;
    drop(st);
    slot.done_ready.notify_one();
}

/// The service-side handle of one shard: its slot, its worker thread, a
/// local ingest queue and a cached copy of the shard's current candidate
/// list (global keys, best-first) for the merge.
pub(crate) struct ShardHandle {
    slot: Arc<Slot>,
    join: Option<JoinHandle<()>>,
    /// Updates buffered since the last dispatch, in shard-local ids.
    pending: Vec<(NodeId, Value)>,
    /// Last known candidate list — refreshed from the slot only on steps
    /// the worker flags as changed.
    candidates: Vec<Report>,
    n: usize,
    k: usize,
    seed: u64,
}

impl ShardHandle {
    /// Spawn the worker for a shard of `builder.config().n` keys whose
    /// local id `i` maps to global key `globals[i]`. The session is built
    /// on the worker thread.
    pub(crate) fn spawn(shard: usize, builder: MonitorBuilder, globals: Vec<NodeId>) -> Self {
        let n = builder.config().n;
        let k = builder.config().k;
        let seed = builder.build_seed();
        debug_assert_eq!(globals.len(), n, "one global key per local id");
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                cmd: Cmd::Idle,
                batch: Vec::new(),
                changed: false,
                candidates: Vec::with_capacity(k),
                probe: ShardProbe::default(),
                done: false,
            }),
            cmd_ready: Condvar::new(),
            done_ready: Condvar::new(),
        });
        let worker_slot = Arc::clone(&slot);
        let join = std::thread::Builder::new()
            .name(format!("topk-serve-{shard}"))
            .spawn(move || worker(worker_slot, builder, globals))
            .expect("spawn shard worker thread");
        ShardHandle {
            slot,
            join: Some(join),
            pending: Vec::new(),
            candidates: Vec::with_capacity(k),
            n,
            k,
            seed,
        }
    }

    /// Queue one update (shard-local id) for the next dispatched step.
    pub(crate) fn push(&mut self, local: NodeId, value: Value) {
        self.pending.push((local, value));
    }

    /// Hand the queued batch to the worker and start step `t`. Returns
    /// immediately; the worker runs concurrently with its siblings.
    pub(crate) fn dispatch_step(&mut self, t: u64) {
        let mut st = lock(&self.slot);
        debug_assert!(
            matches!(st.cmd, Cmd::Idle) && !st.done,
            "step already in flight"
        );
        std::mem::swap(&mut st.batch, &mut self.pending);
        st.cmd = Cmd::Step(t);
        drop(st);
        self.slot.cmd_ready.notify_one();
        debug_assert!(self.pending.is_empty(), "workers return cleared buffers");
    }

    /// Wait for the dispatched step to complete; refresh the cached
    /// candidate list if the worker flagged a change. Returns that flag.
    pub(crate) fn collect_step(&mut self) -> bool {
        let mut st = wait_done(&self.slot, &self.join);
        st.done = false;
        let changed = st.changed;
        if changed {
            self.candidates.clear();
            self.candidates.extend_from_slice(&st.candidates);
        }
        changed
    }

    /// Round-trip a metrics snapshot from the worker.
    pub(crate) fn probe(&self) -> ShardProbe {
        {
            let mut st = lock(&self.slot);
            debug_assert!(
                matches!(st.cmd, Cmd::Idle) && !st.done,
                "probe during a step"
            );
            st.cmd = Cmd::Probe;
        }
        self.slot.cmd_ready.notify_one();
        let mut st = wait_done(&self.slot, &self.join);
        st.done = false;
        st.probe
    }

    /// The shard's current merge candidates (global keys, best-first).
    pub(crate) fn candidates(&self) -> &[Report] {
        &self.candidates
    }

    /// Shard key count.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Shard-local monitored positions (`min(service k + 1, n)`).
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The derived master seed of the shard's session.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }
}

/// Block until the worker signals `done`, polling its liveness so a worker
/// panic surfaces as a service panic instead of a hang.
fn wait_done<'a>(slot: &'a Slot, join: &Option<JoinHandle<()>>) -> MutexGuard<'a, SlotState> {
    let mut st = lock(slot);
    loop {
        if st.done {
            return st;
        }
        let (guard, timeout) = slot
            .done_ready
            .wait_timeout(st, Duration::from_millis(200))
            .expect("slot poisoned: shard worker panicked while holding it");
        st = guard;
        if timeout.timed_out() && !st.done && join.as_ref().is_some_and(|j| j.is_finished()) {
            panic!("shard worker thread died before completing its command");
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            // A poisoned lock means the worker is already gone; just join.
            if let Ok(mut st) = self.slot.state.lock() {
                st.cmd = Cmd::Shutdown;
                drop(st);
                self.slot.cmd_ready.notify_one();
            }
            let _ = join.join();
        }
    }
}
