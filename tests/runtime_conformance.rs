//! Cross-runtime conformance suite: every execution path of Algorithm 1 —
//! dense sequential, sparse sequential, the socket runtime (real
//! loopback-TCP frames) densely driven and delta-driven, and the push-based
//! `MonitorSession` facade on every engine — must be
//! **bit-identical** in everything the model can observe: top-k answers,
//! comm ledgers (counts *and* payload bits), node filter state, and the
//! per-node RNG streams. The session arms must additionally agree on their
//! typed event streams (engine choice is not observable through the
//! facade).
//!
//! RNG agreement is asserted both structurally (node state after hundreds of
//! randomized protocol episodes) and behaviorally (a churny iid tail whose
//! coin flips would diverge loudly if any stream had drifted). The socket
//! paths additionally agree on `sync_frames` and on every wire byte with
//! each other: the dense `step` entry point diffs against the driver's
//! cached row, so both drives use the identical delta transport.
//!
//! Every step that completes a FILTERRESET is also pinned to ground truth:
//! the post-reset threshold must be `⌊(v_k + v_{k+1})/2⌋` of the sorted
//! committed row. The reset is Las Vegas-exact, so this holds on every
//! seed, not just in expectation.

use proptest::prelude::*;

use topk_monitoring::core::RunMetrics;
use topk_monitoring::net::behavior::emit_dense;
use topk_monitoring::net::id::{midpoint_floor, true_topk};
use topk_monitoring::prelude::*;

/// Model-observable ledger tuple (sync frames excluded — they are transport
/// accounting, compared separately between the two socket drives).
fn model(l: &LedgerSnapshot) -> (u64, u64, u64, u64, u64, u64) {
    (
        l.up,
        l.down,
        l.broadcast,
        l.up_bits,
        l.down_bits,
        l.broadcast_bits,
    )
}

/// Drive all four runtimes — plus a push-based session on each engine —
/// over `steps` of the spec plus a 30-step churny tail, asserting identical
/// observable state at every step and identical node state at the end.
/// `eps = 0` is exact mode; `eps > 0` runs the whole matrix in ε-band
/// approximate mode (identity must hold there too — approximation is a
/// coordinator decision, bit-identical on every engine — and the answers
/// are checked ε-valid instead of exactly valid).
fn assert_conformant_with(
    spec: &WorkloadSpec,
    k: usize,
    seed: u64,
    steps: u64,
    eps: u64,
) -> RunMetrics {
    let n = spec.n();
    let cfg = MonitorConfig::new(n, k).with_epsilon(eps);
    let mut seq_dense = TopkMonitor::new(cfg, seed);
    let mut seq_sparse = TopkMonitor::new(cfg, seed);
    let mut soc_dense = SocketTopkMonitor::new(cfg, seed);
    let mut soc_sparse = SocketTopkMonitor::new(cfg, seed);
    let builder = MonitorBuilder::new(n, k).epsilon(eps).seed(seed);
    let mut ses_seq = builder.clone().engine(Engine::Sequential).build();
    let mut ses_soc = builder.engine(Engine::Socket).build();

    // One dense feed drives both densely-stepped monitors, one delta feed
    // the two sparsely-stepped ones and (via `update_batch`) the two
    // session arms; same spec + seed ⇒ identical streams.
    let mut dense_feed = spec.build(seed ^ 0xfeed);
    let mut delta_feed = spec.build(seed ^ 0xfeed);

    let mut row = vec![0u64; n];
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    let drive = |t: u64,
                 row: &[Value],
                 changes: &[(NodeId, Value)],
                 seq_dense: &mut TopkMonitor,
                 seq_sparse: &mut TopkMonitor,
                 soc_dense: &mut SocketTopkMonitor,
                 soc_sparse: &mut SocketTopkMonitor,
                 ses_seq: &mut MonitorSession,
                 ses_soc: &mut MonitorSession| {
        seq_dense.step(t, row);
        seq_sparse.step_sparse(t, changes);
        soc_dense.step(t, row);
        soc_sparse.step_sparse(t, changes);
        ses_seq.update_batch(changes.iter().copied());
        let ev_seq: Vec<TopkEvent> = ses_seq.advance(t).to_vec();
        ses_soc.update_batch(changes.iter().copied());
        let ev_soc: Vec<TopkEvent> = ses_soc.advance(t).to_vec();

        let answer = seq_dense.topk();
        let ledger = seq_dense.ledger();
        for (name, m) in [
            ("seq-sparse", seq_sparse as &mut dyn Monitor),
            ("soc-dense", soc_dense as &mut dyn Monitor),
            ("soc-sparse", soc_sparse as &mut dyn Monitor),
        ] {
            assert_eq!(answer, m.topk(), "t={t}: {name} top-k diverged");
            assert_eq!(
                model(&ledger),
                model(&m.ledger()),
                "t={t}: {name} ledger diverged"
            );
        }
        // The session facade is bit-identical to the raw drives on answers
        // and ledgers, on every engine — and the engines' event streams are
        // indistinguishable.
        for (name, s) in [("session-seq", &*ses_seq), ("session-soc", &*ses_soc)] {
            assert_eq!(answer, s.topk(), "t={t}: {name} top-k diverged");
            assert_eq!(
                model(&ledger),
                model(&s.ledger()),
                "t={t}: {name} ledger diverged"
            );
        }
        assert_eq!(ev_seq, ev_soc, "t={t}: session event streams diverged");
        // A completed reset selected the true top-(k+1), so the threshold
        // it broadcast is the midpoint of the true k-th and (k+1)-st values.
        if ev_seq
            .iter()
            .any(|e| matches!(e, TopkEvent::ResetCompleted { .. }))
        {
            let mut sorted = row.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(
                ses_seq.threshold(),
                Some(midpoint_floor(sorted[k - 1], sorted[k])),
                "t={t}: post-reset threshold is not the midpoint of the true v_k, v_(k+1)"
            );
        }
        if eps == 0 {
            assert!(is_valid_topk(row, &answer), "t={t}: invalid answer");
        } else {
            assert!(
                is_eps_valid_topk(row, &answer, eps),
                "t={t}: answer beyond the ε tolerance"
            );
        }
    };

    for t in 0..steps {
        dense_feed.fill_step(t, &mut row);
        delta_feed.fill_delta(t, &mut changes);
        drive(
            t,
            &row,
            &changes,
            &mut seq_dense,
            &mut seq_sparse,
            &mut soc_dense,
            &mut soc_sparse,
            &mut ses_seq,
            &mut ses_soc,
        );
    }

    // RNG streams: a churny iid tail forces fresh randomized protocol
    // episodes; any earlier RNG divergence surfaces as differing coin flips
    // and thus differing ledgers.
    let tail = WorkloadSpec::IidUniform {
        n,
        lo: 0,
        hi: 1 << 20,
    };
    let mut tail_dense = tail.build(seed ^ 0x7a11);
    let mut tail_delta = tail.build(seed ^ 0x7a11);
    for t in steps..steps + 30 {
        tail_dense.fill_step(t, &mut row);
        tail_delta.fill_delta(t, &mut changes);
        drive(
            t,
            &row,
            &changes,
            &mut seq_dense,
            &mut seq_sparse,
            &mut soc_dense,
            &mut soc_sparse,
            &mut ses_seq,
            &mut ses_soc,
        );
    }

    // The two socket drives share one transport: identical frame counts
    // and identical bytes on the wire.
    assert_eq!(
        soc_dense.sync_frames(),
        soc_sparse.sync_frames(),
        "dense step diffs internally; both socket drives must frame identically"
    );
    assert_eq!(
        soc_dense.wire(),
        soc_sparse.wire(),
        "both socket drives must write identical bytes"
    );
    // The model metrics match the sequential twin once the wire block
    // (socket-only by design) is zeroed.
    assert!(
        soc_sparse.metrics().wire.bytes_total > 0,
        "the socket engine must actually put bytes on the wire"
    );
    let soc_scrubbed = RunMetrics {
        wire: Default::default(),
        ..*soc_sparse.metrics()
    };
    assert_eq!(
        soc_scrubbed,
        *seq_dense.metrics(),
        "socket protocol metrics diverged from the sequential twin"
    );

    // Node state — values, filters, membership, and the RNG-bearing state
    // machines' observable fields — must agree across all four runtimes.
    let soc_dense_nodes = soc_dense.shutdown();
    let soc_sparse_nodes = soc_sparse.shutdown();
    assert!(
        soc_dense_nodes.len() == n && soc_sparse_nodes.len() == n,
        "socket shutdown must return every node"
    );
    for (((d, s), sd), ss) in seq_dense
        .nodes()
        .iter()
        .zip(seq_sparse.nodes().iter())
        .zip(soc_dense_nodes.iter())
        .zip(soc_sparse_nodes.iter())
    {
        for (name, node) in [("seq-sparse", s), ("soc-dense", sd), ("soc-sparse", ss)] {
            assert_eq!(d.value(), node.value(), "{name}: node value diverged");
            assert_eq!(
                d.threshold(),
                node.threshold(),
                "{name}: node filter diverged"
            );
            assert_eq!(
                d.in_topk(),
                node.in_topk(),
                "{name}: top-k membership diverged"
            );
        }
    }
    *seq_dense.metrics()
}

/// The exact-mode entry point (ε = 0); returns the run's metrics.
fn assert_conformant(spec: &WorkloadSpec, k: usize, seed: u64, steps: u64) -> RunMetrics {
    let m = assert_conformant_with(spec, k, seed, steps, 0);
    assert_eq!(m.band_hits, 0, "exact mode must never take the band arm");
    m
}

/// Chaos conformance: a socket-engine monitor behind a seeded
/// fault-injection transport ([`ChaosPolicy`]) against a fault-free
/// sequential twin. At every *committed* step the chaotic run must be
/// indistinguishable — identical answers, thresholds, typed event streams,
/// model ledgers and (recovery and wire blocks aside) protocol metrics.
/// When the policy cannot restart the coordinator the pin tightens to full
/// transport identity against a clean socket twin: the same `sync_frames`
/// (frames are charged at dispatch intent, so drops/dups/retries never leak
/// into the model), and a physical wire ledger whose model split —
/// up/down/broadcast frames *and* bytes — is byte-identical (faulty traffic
/// lands on the retransmit channel only).
///
/// Returns the chaotic run's recovery counters so callers can assert
/// coverage of specific fault classes across arms.
fn assert_chaos_conformant(
    policy: ChaosPolicy,
    spec: &WorkloadSpec,
    k: usize,
    seed: u64,
    steps: u64,
) -> RecoveryMetrics {
    let n = spec.n();
    let builder = MonitorBuilder::new(n, k).seed(seed);
    let mut twin = builder.clone().engine(Engine::Sequential).build();
    let mut clean = builder.clone().engine(Engine::Socket).build();
    let mut chaotic = builder.engine(Engine::Socket).chaos(policy).build();

    let mut twin_feed = spec.build(seed ^ 0xfeed);
    let mut chaos_feed = spec.build(seed ^ 0xfeed);
    let mut clean_feed = spec.build(seed ^ 0xfeed);
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    let tag = format!("chaos(seed={})", policy.seed);

    for t in 0..steps {
        twin_feed.fill_delta(t, &mut changes);
        twin.update_batch(changes.iter().copied());
        let ev_twin: Vec<TopkEvent> = twin.advance(t).to_vec();

        chaos_feed.fill_delta(t, &mut changes);
        chaotic.update_batch(changes.iter().copied());
        let ev_chaos: Vec<TopkEvent> = chaotic.advance(t).to_vec();

        clean_feed.fill_delta(t, &mut changes);
        clean.update_batch(changes.iter().copied());
        clean.advance(t);

        assert_eq!(ev_twin, ev_chaos, "t={t}: {tag} event stream diverged");
        assert_eq!(twin.topk(), chaotic.topk(), "t={t}: {tag} answer diverged");
        assert_eq!(
            twin.threshold(),
            chaotic.threshold(),
            "t={t}: {tag} threshold diverged"
        );
        assert_eq!(
            model(&twin.ledger()),
            model(&chaotic.ledger()),
            "t={t}: {tag} model ledger diverged"
        );
    }

    // Protocol metrics match exactly once the engine-local blocks are
    // zeroed: recovery counts the faults themselves, wire counts physical
    // bytes (faulty traffic legitimately inflates the totals).
    let recovery = *chaotic.recovery().expect("chaotic engines expose recovery");
    let scrubbed = RunMetrics {
        recovery: Default::default(),
        wire: Default::default(),
        ..*chaotic.metrics()
    };
    let twin_scrubbed = RunMetrics {
        wire: Default::default(),
        ..*twin.metrics()
    };
    assert_eq!(scrubbed, twin_scrubbed, "{tag}: protocol metrics diverged");
    assert!(
        recovery.injected_total() > 0,
        "{tag}: the policy must actually inject faults: {recovery:?}"
    );
    if policy.restart_permille == 0 {
        assert_eq!(recovery.restarts, 0, "{tag}: no restarts without a rate");
        assert_eq!(
            chaotic.sync_frames(),
            clean.sync_frames(),
            "{tag}: without restarts even transport frames are identical"
        );
        let (cw, ww) = (chaotic.wire().unwrap(), clean.wire().unwrap());
        assert_eq!(
            (cw.up_frames, cw.up_bytes, cw.down_frames, cw.down_bytes),
            (ww.up_frames, ww.up_bytes, ww.down_frames, ww.down_bytes),
            "{tag}: wire model split (up/down) diverged from clean socket"
        );
        assert_eq!(
            (cw.broadcast_frames, cw.broadcast_bytes),
            (ww.broadcast_frames, ww.broadcast_bytes),
            "{tag}: wire model split (broadcast) diverged from clean socket"
        );
        assert_eq!(
            (ww.retransmit_frames, ww.retransmit_bytes),
            (0, 0),
            "{tag}: a fault-free socket twin never retransmits"
        );
        assert!(
            cw.retransmit_bytes > 0,
            "{tag}: faulty wire traffic must land on the retransmit channel"
        );
    }
    recovery
}

#[test]
fn socket_chaos_seeds_conform_to_fault_free_twin() {
    // Six rotating fault seeds on a reset-heavy boundary churn. Every frame
    // crosses a real loopback socket through the seeded fault layer — the
    // frame classes (drop, duplicate, delay, stall, reply loss, coordinator
    // crash) plus the [`WireChaos`] classes (torn frames, connection
    // resets, half-open connections, reconnect storms) — and every
    // committed step must still be bit-identical to the fault-free
    // sequential twin (answers, thresholds, events, model ledger). Recovery
    // rides the protocol semantics alone: `(t, run, m)` dedup, `Hello`
    // re-handshake, snapshot + step re-run.
    let spec = WorkloadSpec::BoundaryCross {
        n: 10,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    let mut sum = RecoveryMetrics::default();
    for chaos_seed in 1u64..=6 {
        let policy = ChaosPolicy::from_seed(chaos_seed);
        let r = assert_chaos_conformant(policy, &spec, 2, 17, 120);
        sum.injected_torn_frames += r.injected_torn_frames;
        sum.injected_conn_resets += r.injected_conn_resets;
        sum.injected_half_opens += r.injected_half_opens;
        sum.injected_storms += r.injected_storms;
        sum.reconnects += r.reconnects;
        sum.redelivered_frames += r.redelivered_frames;
    }
    // Across the 6 arms every wire fault class must actually have fired,
    // and every severed connection must have come back via re-handshake.
    assert!(
        sum.injected_torn_frames > 0,
        "no torn frames fired: {sum:?}"
    );
    assert!(sum.injected_conn_resets > 0, "no resets fired: {sum:?}");
    assert!(sum.injected_half_opens > 0, "no half-opens fired: {sum:?}");
    assert!(sum.reconnects > 0, "wire faults must force reconnects");
    assert!(
        sum.redelivered_frames > 0,
        "reconnects must re-deliver frames through the (t, run, m) dedup"
    );
}

#[test]
fn socket_chaos_without_restarts_is_wire_model_identical() {
    // No coordinator crashes (drop/dup/delay/stall/reply-drop plus boosted
    // wire rates): the pin tightens inside `assert_chaos_conformant` to
    // sync-frame identity with a clean twin and byte-identity of the wire
    // ledger's model split against a clean socket twin — torn halves,
    // duplicates and re-deliveries are all charged to the retransmit
    // channel, never to up/down/broadcast.
    let spec = WorkloadSpec::default_walk(12);
    let mut sum = RecoveryMetrics::default();
    for chaos_seed in [7u64, 8, 9] {
        let policy = ChaosPolicy::from_seed(chaos_seed)
            .with_rates(40, 40, 25, 10, 25, 0)
            .with_wire_rates(25, 25, 20, 400);
        let r = assert_chaos_conformant(policy, &spec, 3, 23, 100);
        sum.injected_torn_frames += r.injected_torn_frames;
        sum.injected_conn_resets += r.injected_conn_resets;
        sum.injected_half_opens += r.injected_half_opens;
        sum.reconnects += r.reconnects;
    }
    assert!(
        sum.injected_torn_frames + sum.injected_conn_resets + sum.injected_half_opens > 0,
        "boosted wire rates must inject wire faults: {sum:?}"
    );
    assert!(sum.reconnects > 0, "wire faults must force reconnects");
}

#[test]
fn socket_chaos_restart_storm_still_conforms() {
    // Crash-heavy policy on the socket engine: the coordinator restores
    // from its committed `CoordSnapshot` and re-runs whole steps over real
    // sockets (abort frames, reply-cache dedup, reconnects racing the
    // re-run). Committed answers stay exact; the model ledger is
    // deliberately not compared — a re-run legitimately repeats rounds.
    let spec = WorkloadSpec::RotatingMax {
        n: 8,
        base: 100,
        bonus: 10_000,
    };
    let mut restarts_seen = 0;
    let mut reconnects_seen = 0;
    for chaos_seed in [4u64, 5, 6] {
        let policy = ChaosPolicy::from_seed(chaos_seed).with_rates(20, 20, 10, 5, 10, 120);
        let builder = MonitorBuilder::new(8, 2)
            .seed(31)
            .engine(Engine::Socket)
            .chaos(policy);
        let mut chaotic = builder.build();
        let mut twin = MonitorBuilder::new(8, 2).seed(31).build();
        let mut feed_a = spec.build(99);
        let mut feed_b = spec.build(99);
        for t in 0..100 {
            chaotic.ingest(&mut feed_a, t);
            twin.ingest(&mut feed_b, t);
            let (ea, eb) = (chaotic.advance(t).to_vec(), twin.advance(t).to_vec());
            assert_eq!(ea, eb, "t={t}: socket restart arm event stream diverged");
            assert_eq!(chaotic.topk(), twin.topk(), "t={t}");
            assert_eq!(chaotic.threshold(), twin.threshold(), "t={t}");
        }
        let r = chaotic.recovery().expect("socket engine exposes recovery");
        restarts_seen += r.restarts;
        reconnects_seen += r.reconnects;
    }
    assert!(
        restarts_seen > 0,
        "a 12% crash rate over 3×100 churny steps must restart at least once"
    );
    assert!(
        reconnects_seen > 0,
        "wire faults under restarts must force reconnects"
    );
}

#[test]
fn random_walk_400_steps_conformant() {
    assert_conformant(&WorkloadSpec::default_walk(16), 4, 42, 400);
}

#[test]
fn boundary_churn_resets_conform() {
    // Periodic boundary crossings force regular resets.
    let spec = WorkloadSpec::BoundaryCross {
        n: 10,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    // k = 1: the oscillating pair *is* the rank-1/2 boundary, so every
    // crossing violates and the gap certificate forces regular resets.
    let m = assert_conformant(&spec, 1, 11, 250);
    assert!(m.resets >= 2, "workload must be reset-heavy: {m:?}");
}

#[test]
fn rotating_max_resets_conform() {
    let spec = WorkloadSpec::RotatingMax {
        n: 8,
        base: 100,
        bonus: 10_000,
    };
    let m = assert_conformant(&spec, 2, 5, 250);
    assert!(m.resets >= 2, "workload must be reset-heavy: {m:?}");
}

#[test]
fn sparse_walk_400_steps_conformant() {
    assert_conformant(&WorkloadSpec::default_sparse_walk(48, 0.05), 6, 7, 400);
}

/// The ISSUE 7 acceptance pin: the socket engine is driven to bit-identical
/// answers, thresholds, events, model ledgers and RNG tails against the
/// sequential twin for ≥ 3 seeds.
#[test]
fn socket_engine_conforms_across_seeds() {
    let spec = WorkloadSpec::BoundaryCross {
        n: 10,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    for seed in [42u64, 7, 3] {
        let cfg = MonitorConfig::new(10, 2);
        let mut seq = TopkMonitor::new(cfg, seed);
        let mut soc = SocketTopkMonitor::new(cfg, seed);
        let mut ses_seq = MonitorBuilder::new(10, 2)
            .seed(seed)
            .engine(Engine::Sequential)
            .build();
        let mut ses_soc = MonitorBuilder::new(10, 2)
            .seed(seed)
            .engine(Engine::Socket)
            .build();
        let tag = format!("socket(seed={seed})");

        // Reset-heavy main body, then an iid churn tail that would expose
        // any RNG-stream drift as diverging coin flips.
        let mut feed_a = spec.build(seed ^ 0xfeed);
        let mut feed_b = spec.build(seed ^ 0xfeed);
        let tail = WorkloadSpec::IidUniform {
            n: 10,
            lo: 0,
            hi: 1 << 20,
        };
        let mut tail_a = tail.build(seed ^ 0x7a11);
        let mut tail_b = tail.build(seed ^ 0x7a11);
        let mut row = vec![0u64; 10];
        let mut changes: Vec<(NodeId, Value)> = Vec::new();
        for t in 0..150 {
            if t < 120 {
                feed_a.fill_step(t, &mut row);
                feed_b.fill_delta(t, &mut changes);
            } else {
                tail_a.fill_step(t, &mut row);
                tail_b.fill_delta(t, &mut changes);
            }
            seq.step(t, &row);
            soc.step_sparse(t, &changes);
            ses_seq.update_batch(changes.iter().copied());
            let ev_seq: Vec<TopkEvent> = ses_seq.advance(t).to_vec();
            ses_soc.update_batch(changes.iter().copied());
            let ev_soc: Vec<TopkEvent> = ses_soc.advance(t).to_vec();

            assert_eq!(seq.topk(), soc.topk(), "t={t}: {tag} answer diverged");
            assert_eq!(
                seq.coordinator().current_threshold(),
                soc.coordinator().current_threshold(),
                "t={t}: {tag} threshold diverged"
            );
            assert_eq!(
                model(&seq.ledger()),
                model(&soc.ledger()),
                "t={t}: {tag} model ledger diverged"
            );
            assert_eq!(ev_seq, ev_soc, "t={t}: {tag} event stream diverged");
        }

        let scrubbed = RunMetrics {
            wire: Default::default(),
            ..*soc.metrics()
        };
        assert_eq!(scrubbed, *seq.metrics(), "{tag}: protocol metrics diverged");
        assert!(soc.metrics().wire.bytes_total > 0, "{tag}: no bytes moved");
        assert_eq!(
            ses_soc.wire().map(|w| w.bytes_total > 0),
            Some(true),
            "{tag}: session wire accessor must surface the socket ledger"
        );

        // Node state (values, filters, membership, RNG-bearing fields).
        let soc_nodes = soc.shutdown();
        for (a, b) in seq.nodes().iter().zip(soc_nodes.iter()) {
            assert_eq!(a.value(), b.value(), "{tag}: node value diverged");
            assert_eq!(a.threshold(), b.threshold(), "{tag}: filter diverged");
            assert_eq!(a.in_topk(), b.in_topk(), "{tag}: membership diverged");
        }
    }
}

/// Drive a socket session and a sequential twin, both from `builder`, over
/// `steps` update batches from `fill`, asserting at every step the same
/// events, answers, thresholds and model ledger (`sync_frames` is transport
/// accounting and left out), and at the end the same protocol metrics.
/// Returns the sequential session for further checks.
fn assert_socket_session_conforms(
    builder: MonitorBuilder,
    steps: u64,
    mut fill: impl FnMut(u64, &mut Vec<(NodeId, Value)>),
) -> MonitorSession {
    let mut seq = builder.clone().engine(Engine::Sequential).build();
    let mut soc = builder.engine(Engine::Socket).build();
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    for t in 0..steps {
        fill(t, &mut changes);
        seq.update_batch(changes.iter().copied());
        let ev_seq: Vec<TopkEvent> = seq.advance(t).to_vec();
        soc.update_batch(changes.iter().copied());
        let ev_soc: Vec<TopkEvent> = soc.advance(t).to_vec();
        assert_eq!(ev_seq, ev_soc, "t={t}: event stream diverged");
        assert_eq!(seq.topk(), soc.topk(), "t={t}: answer diverged");
        assert_eq!(
            seq.threshold(),
            soc.threshold(),
            "t={t}: threshold diverged"
        );
        assert_eq!(
            model(&seq.ledger()),
            model(&soc.ledger()),
            "t={t}: model ledger diverged"
        );
    }
    let scrubbed = RunMetrics {
        wire: Default::default(),
        ..*soc.metrics()
    };
    assert_eq!(scrubbed, *seq.metrics(), "protocol metrics diverged");
    seq
}

/// Large waves: at n = 4096 each of the four shards hosts 1024 nodes, so a
/// dense wave packs 1024 entries into each shard's frame and the shard
/// answers all of them in one reply frame. (Waves above `MAX_FRAME_LEN`,
/// which split, are pinned by the `socket.rs` unit tests.) The socket
/// session must still match the sequential one at every step, the init
/// reset included.
#[test]
fn socket_waves_larger_than_stream_buffers_conform() {
    let (n, k, seed) = (4096, 8, 17);
    let spec = WorkloadSpec::RandomWalk {
        n,
        lo: 0,
        hi: 1 << 19,
        step_max: 256,
        lazy_p: 0.2,
    };
    let mut feed = spec.build(seed ^ 0xfeed);
    let seq = assert_socket_session_conforms(MonitorBuilder::new(n, k).seed(seed), 40, |t, c| {
        feed.fill_delta(t, c)
    });
    assert!(seq.metrics().resets >= 1, "the init reset ran");
    assert!(seq.ledger().up > 0, "the protocol exchanged messages");
}

/// A large `k`. The socket engine sizes its micro-round guard without
/// knowing `k`, so a reset whose round count grows with `k` trips it. At
/// n = 4096, k = 2047 the socket session must match the
/// sequential one through the init reset, a silent step, a forced reset
/// (the whole order flips at t = 2) and a step after it.
#[test]
fn socket_engine_conforms_at_large_k() {
    let (n, k) = (4096usize, 2047usize);
    let ascending: Vec<Value> = (0..n as u64).map(|i| 1_000 + 10 * i).collect();
    let descending: Vec<Value> = ascending.iter().rev().copied().collect();
    let seq = assert_socket_session_conforms(MonitorBuilder::new(n, k).seed(29), 4, |t, c| {
        emit_dense(c, if t < 2 { &ascending } else { &descending })
    });
    assert_eq!(seq.topk(), true_topk(&descending, k), "wrong answer");
    assert_eq!(seq.metrics().resets, 1, "the flip forced one reset");
}

/// The E8 ablation knobs on a transport engine: every
/// `{OnChange, EveryRound} × {Tight, Faithful}` pair runs a socket session
/// against its sequential twin on a reset-heavy boundary churn, with
/// answers, thresholds, events and the model ledger pinned at every step.
/// Both knobs must show in the run: `EveryRound` announces more than
/// `OnChange` under the same handler, and only `Faithful` runs extra
/// handler protocols.
#[test]
fn ablation_knob_pairs_conform_on_socket() {
    let spec = WorkloadSpec::BoundaryCross {
        n: 10,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    for mode in [HandlerMode::Tight, HandlerMode::Faithful] {
        let mut broadcasts = Vec::new();
        for policy in [BroadcastPolicy::OnChange, BroadcastPolicy::EveryRound] {
            // k = 1: the oscillating pair is the rank-1/2 boundary, so
            // every crossing violates and forces regular resets.
            let builder = MonitorBuilder::new(10, 1)
                .seed(17)
                .handler_mode(mode)
                .policy(policy);
            let mut feed = spec.build(17 ^ 0xfeed);
            let seq = assert_socket_session_conforms(builder, 120, |t, c| feed.fill_delta(t, c));
            assert!(
                seq.metrics().resets >= 3,
                "{mode:?}/{policy:?}: workload must be reset-heavy: {:?}",
                seq.metrics()
            );
            assert_eq!(
                seq.metrics().handler_protocols > 0,
                mode == HandlerMode::Faithful,
                "{mode:?}/{policy:?}: only Faithful re-runs the handler protocols"
            );
            broadcasts.push(seq.ledger().broadcast);
        }
        assert!(
            broadcasts[1] > broadcasts[0],
            "{mode:?}: EveryRound must announce more than OnChange: {broadcasts:?}"
        );
    }
}

/// The ISSUE 10 tentpole pin: ε-approximate mode is a *full conformance
/// peer* — the whole 4-runtime + 2-session matrix stays bit-identical with
/// the band engaged, on the adversarial boundary-oscillation workload
/// built to hammer the band arm. The band must actually fire (band hits,
/// avoided resets) or the arm proves nothing.
#[test]
fn approx_band_mode_is_a_full_conformance_peer() {
    let spec = WorkloadSpec::BoundaryOscillate {
        n: 10,
        k: 2,
        base: 100,
        spread: 60,
        amplitude: 12,
        period: 6,
    };
    for seed in [5u64, 21] {
        // ε = 30 ≥ 2·amplitude: every flip is in-band.
        let m = assert_conformant_with(&spec, 2, seed, 200, 30);
        assert!(m.band_hits > 0, "seed {seed}: the band never engaged");
        assert_eq!(m.band_bcast, m.band_hits, "one broadcast per band hit");
    }
}

/// The ε = 0 equivalence arm of the matrix: a session built with
/// `.epsilon(0)` is bit-identical to one that never touched the knob —
/// answers, thresholds, typed events, model ledgers and the full metrics
/// block — on every engine.
#[test]
fn approx_epsilon_zero_is_bit_identical_to_exact_mode() {
    let spec = WorkloadSpec::BoundaryCross {
        n: 10,
        base: 100,
        spread: 25,
        amplitude: 30,
        period: 4,
    };
    for engine in [Engine::Sequential, Engine::Socket] {
        let seed = 13;
        let tag = format!("eps0({engine:?})");
        let base = MonitorBuilder::new(10, 2).seed(seed).engine(engine);
        let mut exact = base.build();
        let mut zero = base.epsilon(0).build();
        let mut fa = spec.build(seed ^ 0xfeed);
        let mut fb = spec.build(seed ^ 0xfeed);
        for t in 0..150 {
            exact.ingest(&mut fa, t);
            zero.ingest(&mut fb, t);
            let (ea, eb) = (exact.advance(t).to_vec(), zero.advance(t).to_vec());
            assert_eq!(ea, eb, "t={t}: {tag} event streams diverged");
            assert_eq!(exact.topk(), zero.topk(), "t={t}: {tag} answer diverged");
            assert_eq!(
                exact.threshold(),
                zero.threshold(),
                "t={t}: {tag} threshold diverged"
            );
            assert_eq!(
                model(&exact.ledger()),
                model(&zero.ledger()),
                "t={t}: {tag} ledger diverged"
            );
        }
        assert_eq!(exact.metrics(), zero.metrics(), "{tag}: metrics diverged");
        assert_eq!(zero.metrics().band_hits, 0, "{tag}: ε = 0 must never band");
    }
}

#[test]
fn rotating_max_adversarial_conformant() {
    let spec = WorkloadSpec::RotatingMax {
        n: 8,
        base: 100,
        bonus: 10_000,
    };
    assert_conformant(&spec, 1, 3, 300);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary walk shapes, k, and seeds: all four execution paths are
    /// indistinguishable over 300 steps.
    #[test]
    fn arbitrary_walks_conformant(
        n in 2usize..16,
        k_off in 0usize..4,
        seed in 0u64..1000,
        step_max in 1u64..2000,
        lazy_pct in 0u64..100,
    ) {
        let spec = WorkloadSpec::RandomWalk {
            n,
            lo: 0,
            hi: 1 << 16,
            step_max,
            lazy_p: lazy_pct as f64 / 100.0,
        };
        let k = 1 + k_off.min(n - 1);
        assert_conformant(&spec, k, seed, 300);
    }

    /// Natively sparse workloads — the regime the delta transport targets —
    /// stay conformant for arbitrary sparsity.
    #[test]
    fn sparse_walks_conformant(
        n in 4usize..32,
        seed in 0u64..1000,
        sparsity_pct in 1u64..50,
    ) {
        let spec = WorkloadSpec::default_sparse_walk(n, sparsity_pct as f64 / 100.0);
        assert_conformant(&spec, 2, seed, 300);
    }

    /// Adversarial boundary churn (violations + randomized resets every
    /// period) is conformant too.
    #[test]
    fn adversarial_feeds_conformant(
        n in 3usize..12,
        seed in 0u64..100,
        period in 2u64..30,
    ) {
        let spec = WorkloadSpec::BoundaryCross {
            n,
            base: 100,
            spread: 25,
            amplitude: 10,
            period,
        };
        assert_conformant(&spec, 1, seed, 300);
    }

    /// ε-approximate runs stay conformant for arbitrary oscillation
    /// shapes, band widths and phases.
    #[test]
    fn approx_oscillation_conformant(
        n in 4usize..12,
        seed in 0u64..100,
        period in 2u64..12,
        amplitude in 1u64..20,
    ) {
        let spec = WorkloadSpec::BoundaryOscillate {
            n,
            k: 1,
            base: 100,
            spread: 2 * amplitude + 10,
            amplitude,
            period,
        };
        assert_conformant_with(&spec, 1, seed, 200, 2 * amplitude);
    }

    /// Arbitrary reset-heavy boundary churn: every reset's threshold is the
    /// ground-truth midpoint, on every execution path.
    #[test]
    fn adversarial_strategy_matrix_agrees(
        n in 4usize..10,
        seed in 0u64..100,
        period in 2u64..10,
    ) {
        let spec = WorkloadSpec::BoundaryCross {
            n,
            base: 100,
            spread: 25,
            amplitude: 30,
            period,
        };
        assert_conformant(&spec, 1, seed, 200);
    }
}
