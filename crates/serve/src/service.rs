//! [`ServeBuilder`] → [`TopkService`]: the sharded serving layer.
//!
//! One service fronts `S` independent [`MonitorSession`]s. Keys are hashed
//! across the shards once at build time; each shard monitors its local
//! top-`min(k+1, n_s)`, which provably contains every global top-`(k+1)`
//! key it holds — so the exact global answer *and* the exact global
//! `(k+1)`-th-best cut (the service threshold) fall out of an `S`-way merge
//! of shard candidate lists ([`ShardMerge`]), never an approximation.
//!
//! Per step, the service steps every shard on the caller's thread (see
//! [`crate::shard`]), collects their change flags, and re-merges only when
//! some shard's candidates moved. The first step alone runs the shards in
//! parallel, one thread each: it builds every shard's session and runs its
//! init FILTERRESET over all its keys. Global events are derived from the
//! merged ranking exactly like a single session derives them from its
//! engine's answer, so the [`EventReplay`] losslessness contract holds at
//! service level too.
//!
//! [`MonitorSession`]: topk_core::session::MonitorSession
//! [`EventReplay`]: topk_core::EventReplay

use topk_core::session::{Engine, MonitorBuilder, MonitorSession};
use topk_core::{RankDiff, RunMetrics, TopkEvent};
use topk_net::chaos::{ChaosPolicy, RecoveryMetrics};
use topk_net::id::{NodeId, Value};
use topk_net::ledger::{LedgerSnapshot, WireMetrics};
use topk_net::rng::{derive_seed, splitmix64};
use topk_net::wire::Report;
use topk_ordered::ShardMerge;

use crate::shard::ShardHandle;

/// Substream tag for the key → shard hash (independent of every per-node
/// protocol stream).
const ASSIGN_STREAM: u64 = 0x5345_5256_4153_4e31; // "SERVASN1"
/// Substream tag base for per-shard session master seeds.
const SHARD_SEED_STREAM: u64 = 0x5345_5256_5344_0000; // "SERVSD.."
/// Substream tag base for per-shard chaos seeds.
const SHARD_CHAOS_STREAM: u64 = 0x5345_5256_4348_0000; // "SERVCH.."

/// Builder for [`TopkService`] — the serving layer's one entry point.
///
/// Carries the [`MonitorBuilder`] knobs a service sets — seed, engine, ε
/// tolerance and chaos — plus the shard count. Every other protocol knob
/// stays at its [`MonitorBuilder`] default.
/// The per-shard sessions inherit all of them; seeds (and chaos seeds) are
/// derived per shard so shards run statistically independent streams while
/// the whole service stays a pure function of `(keys, k, shards, seed)`.
///
/// ```
/// use topk_net::id::NodeId;
/// use topk_serve::ServeBuilder;
///
/// let mut svc = ServeBuilder::new(100, 3).shards(4).seed(7).build();
/// for key in 0..100u32 {
///     svc.update(NodeId(key), (key as u64 * 37) % 1000);
/// }
/// let events = svc.advance(0);
/// assert!(!events.is_empty(), "initialization announces the top-k");
/// assert_eq!(svc.topk().len(), 3);
/// assert!(svc.threshold().is_some(), "exact global (k+1)-th best");
/// ```
#[derive(Debug, Clone)]
pub struct ServeBuilder {
    keys: usize,
    k: usize,
    shards: usize,
    template: MonitorBuilder,
}

impl ServeBuilder {
    /// Serve the global top `k` of `keys` keys (`1 ≤ k ≤ keys`). Defaults:
    /// 4 shards (clamped to the key count), seed 0, [`Engine::Auto`], and
    /// the [`MonitorBuilder`] defaults for every protocol knob.
    pub fn new(keys: usize, k: usize) -> Self {
        assert!(keys >= 1, "need at least one key");
        assert!(k >= 1 && k <= keys, "k must satisfy 1 ≤ k ≤ keys");
        ServeBuilder {
            keys,
            k,
            shards: keys.min(4),
            template: MonitorBuilder::new(1, 1),
        }
    }

    /// Number of shards `S ≥ 1` (values above the key count are clamped;
    /// hash-empty shards are skipped, so the effective count can be lower —
    /// see [`TopkService::shard_count`]).
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Master seed: shard assignment and every per-shard session seed
    /// derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.template = self.template.seed(seed);
        self
    }

    /// Execution engine for every shard session (see [`Engine`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.template = self.template.engine(engine);
        self
    }

    /// ε-approximation tolerance of every shard's boundary band (see
    /// [`MonitorBuilder::epsilon`]). `eps = 0` keeps exact shards. With
    /// `eps > 0` each shard absorbs in-band boundary crossings with one
    /// broadcast instead of a `FILTERRESET`, so every shard-committed
    /// candidate value is within ε of that key's true value — and the
    /// per-shard ε **composes**: the merged global answer and bar are
    /// correct up to ε-indistinguishable boundary values, reported as an
    /// interval by [`TopkService::threshold_band`].
    pub fn epsilon(mut self, eps: u64) -> Self {
        self.template = self.template.epsilon(eps);
        self
    }

    /// Run every shard's transport through seeded fault injection; the
    /// policy's seed is re-derived per shard so shards fault independently.
    /// Answers stay exact (see [`MonitorBuilder::chaos`]).
    pub fn chaos(mut self, policy: ChaosPolicy) -> Self {
        self.template = self.template.chaos(policy);
        self
    }

    /// Total key count.
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// Served positions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Assemble the service: hash keys to shards and derive one session
    /// builder per non-empty shard. The sessions themselves are built by
    /// the first [`TopkService::advance`]. Borrowing the builder keeps it a
    /// reusable template, like [`MonitorBuilder::build`].
    ///
    /// # Panics
    ///
    /// On a knob combination [`MonitorBuilder::try_build`] rejects (chaos
    /// on an explicit [`Engine::Sequential`]), with
    /// [`MonitorBuilder::build`]'s message.
    pub fn build(&self) -> TopkService {
        let engine = self
            .template
            .resolved_engine()
            .unwrap_or_else(|e| panic!("invalid monitor configuration: {e}"));
        let keys = self.keys;
        let k = self.k;
        let requested = self.shards.min(keys);
        let master = self.template.build_seed();
        let assign = derive_seed(master, ASSIGN_STREAM);

        // Raw hash shard per key, then compress away hash-empty shards so
        // every shard has at least one key.
        let mut raw = vec![0u32; keys];
        let mut sizes = vec![0usize; requested];
        for (key, slot) in raw.iter_mut().enumerate() {
            let sh = if requested == 1 {
                0
            } else {
                (splitmix64(assign ^ key as u64) % requested as u64) as u32
            };
            *slot = sh;
            sizes[sh as usize] += 1;
        }
        let mut handle_of_raw = vec![usize::MAX; requested];
        let mut shard_keys: Vec<Vec<NodeId>> = Vec::new();
        for (raw_idx, &size) in sizes.iter().enumerate() {
            if size > 0 {
                handle_of_raw[raw_idx] = shard_keys.len();
                shard_keys.push(Vec::with_capacity(size));
            }
        }
        // Local ids ascend with global keys, so shard-local tie order (by
        // ascending local id) agrees with global tie order.
        let mut shard_of = vec![0u32; keys];
        let mut local_of = vec![0u32; keys];
        for (key, &raw_sh) in raw.iter().enumerate() {
            let h = handle_of_raw[raw_sh as usize];
            shard_of[key] = h as u32;
            local_of[key] = shard_keys[h].len() as u32;
            shard_keys[h].push(NodeId(key as u32));
        }

        let shards: Vec<ShardHandle> = shard_keys
            .into_iter()
            .enumerate()
            .map(|(idx, globals)| {
                let n_s = globals.len();
                // Shard-local top-(k+1) ⊇ the shard's global-top-(k+1)
                // keys: exactly what the exact merge needs, no more.
                let k_s = (k + 1).min(n_s);
                let mut b = self
                    .template
                    .sized(n_s, k_s)
                    .seed(derive_seed(master, SHARD_SEED_STREAM + idx as u64));
                if let Some(p) = self.template.build_chaos() {
                    b = b.chaos(ChaosPolicy {
                        seed: derive_seed(p.seed, SHARD_CHAOS_STREAM + idx as u64),
                        ..p
                    });
                }
                ShardHandle::new(b, globals)
            })
            .collect();

        TopkService {
            keys,
            k,
            engine,
            shards,
            shard_of,
            local_of,
            merge: ShardMerge::new(k, keys as u64)
                .with_tolerance(self.template.config().approx.epsilon()),
            events: Vec::new(),
            ranks: RankDiff::new(keys),
            topk_sorted: Vec::new(),
            bar: None,
            last_t: None,
        }
    }
}

/// A running sharded serving session: many sessions, one ingest front door.
///
/// The push surface is the [`MonitorSession`] one — [`update`](Self::update)
/// / [`update_batch`](Self::update_batch) buffer observations,
/// [`advance`](Self::advance) commits a time step on every shard and
/// returns the step's *global* [`TopkEvent`]s. Queries
/// ([`topk`](Self::topk), [`threshold`](Self::threshold),
/// [`in_topk`](Self::in_topk)) answer about the merged global ranking.
///
/// Differences from a single session, by design:
///
/// * [`threshold`](Self::threshold) is the **exact global `(k+1)`-th-best
///   value** (the merge bar) — a statement about the data, not about any
///   shard's midpoint filter threshold (each shard keeps its own).
/// * `ThresholdUpdated` events carry that bar; `ResetCompleted` is not
///   emitted (resets are shard-local and overlap arbitrarily). The other
///   four event kinds keep the session's intra-step order, so
///   [`EventReplay`](topk_core::EventReplay) reconstructs the service
///   answer and threshold losslessly.
/// * [`metrics`](Self::metrics) sums shard blocks counter-wise
///   ([`RunMetrics::absorb`]); `steps` therefore counts shard-steps.
///
/// [`MonitorSession`]: topk_core::session::MonitorSession
pub struct TopkService {
    keys: usize,
    k: usize,
    engine: Engine,
    shards: Vec<ShardHandle>,
    /// Per global key: index into `shards`.
    shard_of: Vec<u32>,
    /// Per global key: shard-local node id.
    local_of: Vec<u32>,
    merge: ShardMerge,
    /// Reusable global event buffer; `advance` returns a borrow of it.
    events: Vec<TopkEvent>,
    /// Merged members by rank and the membership diff.
    ranks: RankDiff,
    /// Members sorted ascending — the `topk()` view.
    topk_sorted: Vec<NodeId>,
    /// Exact global (k+1)-th-best value after the last merge.
    bar: Option<Value>,
    last_t: Option<u64>,
}

impl TopkService {
    /// Buffer one observation for global `key` (routed to its shard; commits
    /// on the next [`advance`](Self::advance), later writes win).
    pub fn update(&mut self, key: NodeId, value: Value) {
        assert!(key.idx() < self.keys, "key {key} out of range");
        let shard = self.shard_of[key.idx()] as usize;
        let local = NodeId(self.local_of[key.idx()]);
        self.shards[shard].push(local, value);
    }

    /// Buffer a batch of observations (any order, duplicates allowed —
    /// last write per key wins).
    pub fn update_batch(&mut self, updates: impl IntoIterator<Item = (NodeId, Value)>) {
        for (key, value) in updates {
            self.update(key, value);
        }
    }

    /// Buffer a whole-row update: global key `i` observes `values[i]`.
    pub fn update_row(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.keys, "one value per key");
        for (key, &value) in values.iter().enumerate() {
            self.update(NodeId(key as u32), value);
        }
    }

    /// Commit the buffered updates as time step `t` (strictly increasing)
    /// on every shard, one after another on the caller's thread, merge
    /// whatever changed, and return the step's global events.
    ///
    /// The first call is the exception: it builds each shard's session and
    /// runs its init FILTERRESET over all its keys, one thread per shard
    /// (the caller's thread takes the first shard, a scoped thread each
    /// other one). A shard that panics there has its own panic re-raised
    /// here.
    ///
    /// A globally silent step (no shard candidate moved) skips the merge
    /// and the event derivation entirely and allocates nothing.
    pub fn advance(&mut self, t: u64) -> &[TopkEvent] {
        assert!(
            self.last_t.is_none_or(|last| t > last),
            "advance requires strictly increasing t (last {:?}, got {t})",
            self.last_t
        );
        let first = self.last_t.is_none();
        let mut changed = first;
        if first {
            // Each shard is built and initialized on one thread, and the
            // caller takes the first itself: what a scoped thread allocates
            // stays in that thread's malloc arena, and freeing it from the
            // caller later measurably raised peak RSS.
            std::thread::scope(|scope| {
                let (own, others) = self.shards.split_at_mut(1);
                let steps: Vec<_> = others
                    .iter_mut()
                    .map(|shard| scope.spawn(move || shard.step(t)))
                    .collect();
                for shard in own {
                    shard.step(t);
                }
                for step in steps {
                    if let Err(payload) = step.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        } else {
            for shard in &mut self.shards {
                changed |= shard.step(t);
            }
        }
        self.last_t = Some(t);

        self.events.clear();
        if changed {
            self.merge.begin();
            for shard in &self.shards {
                self.merge.offer(shard.candidates());
            }
            self.derive_events(t);
        }
        &self.events
    }

    /// Diff the merged ranking against the previous one into global
    /// events, in the session's intra-step order: `ThresholdUpdated`, every
    /// `Left` (ascending id), every `Entered` (ascending rank), every
    /// `RankChanged` (ascending new rank).
    fn derive_events(&mut self, t: u64) {
        let bar = self.merge.bar();
        if bar != self.bar {
            let threshold = bar.expect("the candidate pool never shrinks below k+1");
            self.events
                .push(TopkEvent::ThresholdUpdated { t, threshold });
            self.bar = bar;
        }

        let next = self.ranks.next_order();
        next.extend(self.merge.ranking().iter().map(|r| r.id));
        self.ranks.commit(t, &mut self.events);

        self.topk_sorted.clear();
        self.topk_sorted.extend_from_slice(self.ranks.order());
        self.topk_sorted.sort_unstable();
    }

    // ── global queries ───────────────────────────────────────────────

    /// The global answer: top-k keys, sorted ascending (borrowed).
    pub fn topk(&self) -> &[NodeId] {
        &self.topk_sorted
    }

    /// Global members ordered by rank (index 0 = rank 1 = largest value,
    /// ties by ascending key) — the order the service's events speak about.
    pub fn topk_by_rank(&self) -> &[NodeId] {
        self.ranks.order()
    }

    /// The merged global ranking with committed values, best-first.
    pub fn ranking(&self) -> &[Report] {
        self.merge.ranking()
    }

    /// O(1): is `key` currently in the global top-k?
    pub fn in_topk(&self, key: NodeId) -> bool {
        self.ranks.contains(key)
    }

    /// The exact global `(k+1)`-th-best committed value — the serving
    /// layer's threshold. `None` until first advance (or forever when
    /// `keys ≤ k`). This is a statement about the merged data; each shard
    /// keeps its own midpoint filter threshold.
    pub fn threshold(&self) -> Option<Value> {
        self.bar
    }

    /// Band-aware threshold report: the interval guaranteed to contain the
    /// **true** global `(k+1)`-th-best value given the service's ε
    /// ([`ServeBuilder::epsilon`] — each shard commits values within ε of
    /// the truth, and that per-shard ε composes through the exact merge).
    /// With exact shards (`ε = 0`) the band collapses to
    /// `(threshold, threshold)`; `None` exactly when
    /// [`threshold`](Self::threshold) is.
    pub fn threshold_band(&self) -> Option<(Value, Value)> {
        self.bar.map(|b| {
            let eps = self.merge.tolerance();
            (b.saturating_sub(eps), b.saturating_add(eps))
        })
    }

    /// The ε tolerance every shard session runs with
    /// ([`ServeBuilder::epsilon`]; 0 = exact shards).
    pub fn epsilon(&self) -> Value {
        self.merge.tolerance()
    }

    /// The events of the most recent [`advance`](Self::advance).
    pub fn events(&self) -> &[TopkEvent] {
        &self.events
    }

    /// The shard sessions built so far: none before the first
    /// [`advance`](Self::advance), every shard's after it.
    fn sessions(&self) -> impl Iterator<Item = &MonitorSession> {
        self.shards.iter().filter_map(ShardHandle::session)
    }

    /// Service-level protocol counters: the counter-wise sum of every
    /// shard's [`RunMetrics`] (including the embedded recovery and wire
    /// blocks). `steps` counts shard-steps — `shard_count() ×` the
    /// wall-clock step count. All zero before the first advance.
    pub fn metrics(&self) -> RunMetrics {
        let mut agg = RunMetrics::default();
        for session in self.sessions() {
            agg.absorb(session.metrics());
        }
        agg
    }

    /// One shard's own [`RunMetrics`] block.
    pub fn shard_metrics(&self, shard: usize) -> RunMetrics {
        self.shards[shard]
            .session()
            .map_or_else(RunMetrics::default, |s| *s.metrics())
    }

    /// Service-level model-message counters: the counter-wise sum of every
    /// shard's ledger.
    pub fn ledger(&self) -> LedgerSnapshot {
        self.sessions()
            .fold(LedgerSnapshot::default(), |agg, s| agg.plus(&s.ledger()))
    }

    /// One shard's own ledger.
    pub fn shard_ledger(&self, shard: usize) -> LedgerSnapshot {
        self.shards[shard]
            .session()
            .map_or_else(LedgerSnapshot::default, MonitorSession::ledger)
    }

    /// Summed fault-injection/recovery counters (`None` on the sequential
    /// engine, mirroring the session).
    pub fn recovery(&self) -> Option<RecoveryMetrics> {
        let mut agg = RecoveryMetrics::default();
        for r in self.sessions().filter_map(MonitorSession::recovery) {
            agg.absorb(r);
        }
        (self.engine == Engine::Socket).then_some(agg)
    }

    /// Summed physical wire ledgers (`None` except on [`Engine::Socket`]).
    pub fn wire(&self) -> Option<WireMetrics> {
        let mut agg = WireMetrics::default();
        for w in self.sessions().filter_map(MonitorSession::wire) {
            agg.absorb(w);
        }
        (self.engine == Engine::Socket).then_some(agg)
    }

    // ── shape introspection ──────────────────────────────────────────

    /// Total key count.
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// Served positions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The engine every shard session runs, resolved by
    /// [`MonitorBuilder::resolved_engine`] like a single session's.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Number of shards (hash-empty shards are dropped, so this can be
    /// below the requested count for tiny key spaces).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard serving `key`.
    pub fn shard_of(&self, key: NodeId) -> usize {
        self.shard_of[key.idx()] as usize
    }

    /// `key`'s shard-local node id (local ids ascend with global keys).
    pub fn local_of(&self, key: NodeId) -> NodeId {
        NodeId(self.local_of[key.idx()])
    }

    /// One shard's `(n, k)` dimensions — `k = min(service k + 1, n)`, the
    /// exact-merge invariant.
    pub fn shard_dims(&self, shard: usize) -> (usize, usize) {
        let cfg = self.shards[shard].builder().config();
        (cfg.n, cfg.k)
    }

    /// The derived master seed of one shard's session (what a twin
    /// [`MonitorBuilder`] needs to reproduce that shard bit-identically).
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.shards[shard].builder().build_seed()
    }

    /// The last committed time step.
    pub fn last_t(&self) -> Option<u64> {
        self.last_t
    }

    /// Candidates the last merge actually inspected (the `O(S + k log S)`
    /// witness; the pool holds `shard_count × (k+1)` candidates).
    pub fn merge_offered(&self) -> u64 {
        self.merge.offered()
    }

    /// Capacity of the reusable global event buffer — the zero-alloc
    /// steady-state witness (must stop growing once the service warms up).
    pub fn event_capacity(&self) -> usize {
        self.events.capacity()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;
    use std::time::{Duration, Instant};

    use super::*;

    // The first `advance` steps shards on scoped threads; a caller may move
    // the whole service to another thread.
    const _: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<MonitorSession>();
        assert_send::<TopkService>();
    };

    #[test]
    fn a_never_advanced_service_answers_without_building_a_shard() {
        for engine in [Engine::Sequential, Engine::Socket] {
            let socket = engine == Engine::Socket;
            let svc = ServeBuilder::new(64, 4)
                .shards(3)
                .seed(1)
                .engine(engine)
                .build();
            assert_eq!(svc.metrics(), RunMetrics::default(), "{engine:?}");
            assert_eq!(svc.ledger(), LedgerSnapshot::default(), "{engine:?}");
            assert_eq!(svc.recovery(), socket.then(RecoveryMetrics::default));
            assert_eq!(svc.wire(), socket.then(WireMetrics::default));
            assert!(svc.topk().is_empty() && svc.threshold().is_none());
            for s in 0..svc.shard_count() {
                assert_eq!(svc.shard_metrics(s), RunMetrics::default());
                assert_eq!(svc.shard_ledger(s), LedgerSnapshot::default());
            }
            assert!(
                svc.shards.iter().all(|s| s.session().is_none()),
                "{engine:?}: a query built a shard session"
            );
            let t0 = Instant::now();
            drop(svc);
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "{engine:?}: slow drop"
            );

            // The first advance builds every shard and keeps the shape.
            let mut svc = ServeBuilder::new(64, 4)
                .shards(3)
                .seed(1)
                .engine(engine)
                .build();
            svc.update_row(&(0..64).collect::<Vec<_>>());
            svc.advance(0);
            assert!(svc.shards.iter().all(|s| s.session().is_some()));
            assert_eq!(svc.recovery().is_some(), socket, "{engine:?}");
            assert_eq!(svc.wire().is_some(), socket, "{engine:?}");
            assert_eq!(
                svc.topk(),
                &[NodeId(60), NodeId(61), NodeId(62), NodeId(63)]
            );
        }
    }

    /// `build` rejects an invalid template, so a shard can only hold an
    /// invalid builder through this test; the first `advance` must then
    /// report that shard's own panic, whichever thread built it.
    #[test]
    fn a_panicking_shard_build_reraises_its_own_message() {
        for bad in 0..2 {
            let mut svc = ServeBuilder::new(16, 2).shards(2).seed(5).build();
            let globals: Vec<NodeId> = (0..16)
                .map(NodeId)
                .filter(|&key| svc.shard_of(key) == bad)
                .collect();
            let invalid = MonitorBuilder::new(globals.len(), 3)
                .engine(Engine::Sequential)
                .chaos(ChaosPolicy::from_seed(3));
            svc.shards[bad] = ShardHandle::new(invalid, globals);
            svc.update_row(&(0..16).collect::<Vec<_>>());
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                svc.advance(0);
            }))
            .expect_err("the invalid shard must panic");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.starts_with(
                    "invalid monitor configuration: chaos policy on Engine::Sequential"
                ),
                "shard {bad}: {message:?}"
            );
        }
    }
}
