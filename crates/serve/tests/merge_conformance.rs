//! Serving-layer conformance: the sharded service is *bit-identical* to
//! single-session / ground-truth monitoring, for every shard count.
//!
//! 1. **Exact merge** (property-tested): with globally distinct values the
//!    service's `topk()`, rank order, `threshold()` (the exact global
//!    `(k+1)`-th best) and full event stream are identical across shard
//!    counts {1, 2, 3, 7}, identical to a single [`MonitorSession`] twin's
//!    answer, and identical to `true_ranking` of the pushed row — across
//!    both in-process [`Engine`]s.
//! 2. **Replayability**: feeding the service's event stream into an
//!    [`EventReplay`] reconstructs its polled state at every step (the
//!    session-layer losslessness contract, lifted to the service).
//! 3. **Ties**: with heavily tied values, shard-local filter protocols may
//!    legitimately monitor tie-different (but equally valid) sets, so the
//!    per-id answer is only pinned to *validity* — while the threshold
//!    stays the exact `(k+1)`-th global order statistic (a value-multiset
//!    fact, independent of tie resolution).
//!
//! Run under rotated `PROPTEST_SEED`s in CI (`serve-conformance`).
//!
//! [`MonitorSession`]: topk_core::session::MonitorSession
//! [`Engine`]: topk_core::session::Engine
//! [`EventReplay`]: topk_core::EventReplay

use proptest::prelude::*;

use topk_core::session::{Engine, MonitorBuilder};
use topk_core::{is_eps_valid_topk, is_valid_topk, EventReplay, TopkEvent};
use topk_net::id::{true_ranking, NodeId, Value};
use topk_serve::ServeBuilder;
use topk_streams::WorkloadSpec;

const SHARD_GRID: [usize; 4] = [1, 2, 3, 7];

/// Order-preserving tie-breaking transform: `v·keys + key` makes every
/// committed value globally distinct without changing any comparison
/// between differently-valued keys — the precondition for bit-identical
/// answers across independently tie-breaking monitors.
fn distinct(v: Value, key: usize, keys: usize) -> Value {
    v * keys as u64 + key as u64
}

/// Drive one workload through a single-session twin plus one service per
/// shard count, asserting every step: identical event streams across shard
/// counts, lossless replay, answers equal to the twin and to ground truth,
/// threshold equal to the exact global `(k+1)`-th best.
fn assert_sharded_conformance(
    spec: &WorkloadSpec,
    k: usize,
    seed: u64,
    steps: u64,
    engine: Engine,
) {
    let keys = spec.n();
    let mut row = vec![0u64; keys];
    let mut twin = MonitorBuilder::new(keys, k)
        .seed(seed)
        .engine(engine)
        .build();
    let mut services: Vec<_> = SHARD_GRID
        .iter()
        .map(|&s| {
            ServeBuilder::new(keys, k)
                .shards(s)
                .seed(seed)
                .engine(engine)
                .build()
        })
        .collect();
    let mut replays: Vec<EventReplay> = SHARD_GRID.iter().map(|_| EventReplay::new()).collect();

    let mut feed = spec.build(seed ^ 0x5eed);
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    for t in 0..steps {
        feed.fill_delta(t, &mut changes);
        for c in changes.iter_mut() {
            c.1 = distinct(c.1, c.0.idx(), keys);
        }
        for &(id, v) in &changes {
            row[id.idx()] = v;
        }

        twin.update_batch(changes.iter().copied());
        twin.advance(t);
        let truth = true_ranking(&row);
        let bar = (keys > k).then(|| row[truth[k].idx()]);

        let mut first_events: Option<Vec<TopkEvent>> = None;
        for ((svc, replay), &s) in services.iter_mut().zip(&mut replays).zip(&SHARD_GRID) {
            svc.update_batch(changes.iter().copied());
            let events = svc.advance(t).to_vec();
            assert!(
                events
                    .iter()
                    .all(|e| !matches!(e, TopkEvent::ResetCompleted { .. })),
                "t={t} s={s}: resets are shard-local, never service events"
            );
            match &first_events {
                None => first_events = Some(events.clone()),
                Some(expected) => assert_eq!(
                    &events, expected,
                    "t={t} s={s}: event stream diverged across shard counts"
                ),
            }
            replay.apply(&events);
            assert_eq!(
                replay.by_rank(),
                svc.topk_by_rank(),
                "t={t} s={s}: replayed rank order diverged from polled state"
            );
            assert_eq!(
                replay.topk(),
                svc.topk(),
                "t={t} s={s}: replayed membership"
            );
            assert_eq!(
                replay.threshold(),
                svc.threshold(),
                "t={t} s={s}: replayed threshold"
            );
            assert_eq!(
                svc.topk_by_rank(),
                &truth[..k.min(keys)],
                "t={t} s={s}: merged ranking diverged from ground truth"
            );
            assert_eq!(
                svc.topk(),
                twin.topk(),
                "t={t} s={s}: service answer diverged from single-session twin"
            );
            assert_eq!(
                svc.threshold(),
                bar,
                "t={t} s={s}: threshold is not the exact global (k+1)-th best"
            );
        }
    }
}

/// The full shard-count × engine matrix on a fixed churny walk: every arm
/// conforms bit-identically.
#[test]
fn matrix_shard_counts_resets_engines_conform() {
    let spec = WorkloadSpec::RandomWalk {
        n: 18,
        lo: 0,
        hi: 1 << 12,
        step_max: 300,
        lazy_p: 0.2,
    };
    for engine in [Engine::Sequential, Engine::Threaded] {
        assert_sharded_conformance(&spec, 4, 11, 70, engine);
    }
}

/// Tiny key spaces: hash-empty shards are skipped, `keys ≤ k` serves every
/// key with no bar, and a single-key service works.
#[test]
fn tiny_key_spaces_conform() {
    // keys = 8 across 7 requested shards: some shards are hash-empty.
    let spec = WorkloadSpec::IidUniform {
        n: 8,
        lo: 0,
        hi: 1 << 10,
    };
    assert_sharded_conformance(&spec, 2, 3, 40, Engine::Sequential);

    // keys == k: everything is a member, the bar never materializes.
    let mut svc = ServeBuilder::new(3, 3).shards(2).seed(5).build();
    svc.update_batch([(NodeId(0), 30), (NodeId(1), 10), (NodeId(2), 20)]);
    svc.advance(0);
    assert_eq!(svc.topk(), &[NodeId(0), NodeId(1), NodeId(2)]);
    assert_eq!(svc.topk_by_rank(), &[NodeId(0), NodeId(2), NodeId(1)]);
    assert_eq!(svc.threshold(), None, "no (k+1)-th key exists");

    let mut one = ServeBuilder::new(1, 1).shards(4).seed(1).build();
    one.update(NodeId(0), 9);
    one.advance(0);
    assert_eq!(one.shard_count(), 1);
    assert_eq!(one.topk(), &[NodeId(0)]);
}

/// Tie-heavy streams: the per-id answer is pinned to validity + lossless
/// replay, the threshold to the exact `(k+1)`-th order statistic.
#[test]
fn tie_heavy_streams_stay_valid_and_lossless() {
    let (keys, k) = (12, 3);
    let spec = WorkloadSpec::IidUniform {
        n: keys,
        lo: 0,
        hi: 4, // 5 distinct values over 12 keys: ties everywhere
    };
    for s in [2, 5] {
        let mut svc = ServeBuilder::new(keys, k).shards(s).seed(17).build();
        let mut replay = EventReplay::new();
        let mut feed = spec.build(23);
        let mut row = vec![0u64; keys];
        let mut changes: Vec<(NodeId, Value)> = Vec::new();
        let mut sorted = Vec::new();
        for t in 0..60 {
            feed.fill_delta(t, &mut changes);
            for &(id, v) in &changes {
                row[id.idx()] = v;
            }
            svc.update_batch(changes.iter().copied());
            replay.apply(svc.advance(t));
            assert!(
                is_valid_topk(&row, svc.topk()),
                "t={t} s={s}: invalid merged answer under ties"
            );
            assert_eq!(replay.topk(), svc.topk(), "t={t} s={s}: replay diverged");
            assert_eq!(replay.threshold(), svc.threshold(), "t={t} s={s}");
            sorted.clear();
            sorted.extend_from_slice(&row);
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(
                svc.threshold(),
                Some(sorted[k]),
                "t={t} s={s}: bar must be the (k+1)-th order statistic even under ties"
            );
        }
    }
}

/// ISSUE 10: the ε knob propagates through `MonitorBuilder::sized` into
/// every shard session, and the per-shard ε composes at service level —
/// band hits replace shard resets, the answer stays ε-valid, and
/// [`TopkService::threshold_band`] brackets the true global `(k+1)`-th
/// best. ε = 0 stays bit-identical to a service that never set the knob.
///
/// [`TopkService::threshold_band`]: topk_serve::TopkService::threshold_band
#[test]
fn epsilon_propagates_to_shards_and_band_composes() {
    let (keys, k) = (16usize, 2usize);
    let amplitude = 40u64;
    let eps = 2 * amplitude;
    // Movers oscillate at the rank-3/4 boundary — exactly the shard's
    // local k_s = k + 1 = 3 cut, so in-band crossings hit the shard band.
    let spec = WorkloadSpec::BoundaryOscillate {
        n: keys,
        k: k + 1,
        base: 1_000,
        spread: 200,
        amplitude,
        period: 8,
    };
    let mut approx = ServeBuilder::new(keys, k)
        .shards(1)
        .seed(7)
        .epsilon(eps)
        .build();
    let mut exact = ServeBuilder::new(keys, k).shards(1).seed(7).build();
    let mut zero = ServeBuilder::new(keys, k)
        .shards(1)
        .seed(7)
        .epsilon(0)
        .build();
    assert_eq!(approx.epsilon(), eps);
    assert_eq!(exact.epsilon(), 0);

    let mut feed = spec.build(3);
    let mut row = vec![0u64; keys];
    let mut sorted = Vec::new();
    for t in 0..200 {
        feed.fill_step(t, &mut row);
        for svc in [&mut approx, &mut exact, &mut zero] {
            svc.update_row(&row);
        }
        let ea = approx.advance(t).to_vec();
        let ee = exact.advance(t).to_vec();
        let ez = zero.advance(t).to_vec();
        assert_eq!(ez, ee, "t={t}: ε = 0 must be bit-identical to exact");

        sorted.clear();
        sorted.extend_from_slice(&row);
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let true_bar = sorted[k];
        assert!(
            is_eps_valid_topk(&row, approx.topk(), eps),
            "t={t}: service answer beyond ε"
        );
        let (lo, hi) = approx.threshold_band().expect("keys > k");
        assert!(
            lo <= true_bar && true_bar <= hi,
            "t={t}: band [{lo}, {hi}] must bracket the true bar {true_bar}"
        );
        assert_eq!(exact.threshold(), Some(true_bar), "t={t}: exact bar");
        let b = exact.threshold().unwrap();
        assert_eq!(
            exact.threshold_band(),
            Some((b, b)),
            "exact band is a point"
        );
        let _ = ea;
    }

    let ma = approx.metrics();
    let me = exact.metrics();
    assert!(
        ma.band_hits > 0,
        "ε never reached the shard sessions through sized()"
    );
    assert_eq!(me.band_hits, 0);
    assert_eq!(zero.metrics(), me, "ε = 0 metrics must equal exact");
    assert!(
        ma.resets < me.resets,
        "band hits must replace shard resets: approx {} vs exact {}",
        ma.resets,
        me.resets
    );
    assert!(
        ma.total_up() < me.total_up(),
        "the shard band must save up-messages"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Arbitrary walks, dimensions, seeds and engines: the sharded service
    /// conforms bit-identically on every shard count.
    #[test]
    fn arbitrary_walks_conform_across_shard_counts(
        n in 6usize..26,
        k_off in 0usize..5,
        seed in 0u64..1000,
        step_max in 1u64..1500,
        engine_pick in 0u8..2,
    ) {
        let spec = WorkloadSpec::RandomWalk {
            n,
            lo: 0,
            hi: 1 << 14,
            step_max,
            lazy_p: 0.3,
        };
        let k = 1 + k_off.min(n - 2);
        let engine = if engine_pick == 0 { Engine::Sequential } else { Engine::Threaded };
        assert_sharded_conformance(&spec, k, seed, 60, engine);
    }
}
