//! ISSUE 10 headline pin: on the boundary-oscillation adversary, ε-band
//! approximate mode pays O(1) where exact mode pays a `FILTERRESET`.
//!
//! An exact twin and an ε-approximate run (same seed, same trace) are
//! driven over [`WorkloadSpec::BoundaryOscillate`], whose square-wave mover
//! pair crosses the k/k+1 boundary by exactly `2·amplitude` every half
//! period. With `ε ≥ 2·amplitude` every crossing is in-band:
//!
//! * the approximate run triggers **zero** resets (every crossing becomes
//!   a band hit = one broadcast, `RunMetrics::band_hits`);
//! * the exact twin resets on every crossing and pays **≥ 10×** the
//!   up-messages — the competitive gap of arXiv 1601.04448, pinned at
//!   `(n, k) = (64, 2)` and `(256, 4)`;
//! * answers stay ε-indistinguishable from the true top-k at every step;
//! * the `ApproxBoundary` event stream is lossless: an [`EventReplay`]
//!   reconstructs answer, threshold *and* the band-hit count exactly.

use topk_monitoring::prelude::*;

/// The headline workload: movers at ranks k/k+1 over a wide static field,
/// flipping every `period/2` steps by exactly `2·amplitude`.
fn oscillation(n: usize, k: usize) -> (WorkloadSpec, u64) {
    let amplitude = 40;
    let spec = WorkloadSpec::BoundaryOscillate {
        n,
        k,
        base: 1_000,
        spread: 200,
        amplitude,
        period: 8,
    };
    (spec, 2 * amplitude)
}

/// Drive `session` over `steps` of the spec; return per-step true rows for
/// ε-validity checking.
fn drive(session: &mut MonitorSession, spec: &WorkloadSpec, seed: u64, steps: u64, eps: u64) {
    let mut feed = spec.build(seed);
    let mut dense = spec.build(seed);
    let mut row = vec![0u64; spec.n()];
    for t in 0..steps {
        session.ingest(feed.as_mut(), t);
        session.advance(t);
        dense.fill_step(t, &mut row);
        assert!(
            is_eps_valid_topk(&row, session.topk(), eps),
            "t={t}: answer drifted beyond ε = {eps}"
        );
    }
}

#[test]
fn approx_zero_resets_and_10x_fewer_up_messages_than_exact() {
    for (n, k) in [(64, 2), (256, 4)] {
        let (spec, eps) = oscillation(n, k);
        for seed in [3u64, 17] {
            let mut exact = MonitorBuilder::new(n, k).seed(seed).build();
            let mut approx = MonitorBuilder::new(n, k).seed(seed).epsilon(eps).build();
            drive(&mut exact, &spec, seed, 400, 0);
            drive(&mut approx, &spec, seed, 400, eps);

            let me = *exact.metrics();
            let ma = *approx.metrics();

            // The band arm absorbs every violating crossing: zero resets, one
            // broadcast per hit. Only every *other* flip bands — after a band
            // hit keeps the membership ε-stale, the next flip puts the stale
            // member genuinely back on top and repairs the answer silently
            // (no violation at all), while the exact twin pays a reset on
            // every single flip (100 over 400 steps at period 8).
            assert_eq!(
                ma.resets, 0,
                "({n}, {k}) seed {seed}: approx must never reset"
            );
            assert!(
                ma.band_hits >= 45,
                "({n}, {k}) seed {seed}: every other flip over 400 steps must band ≥ 45 times, got {}",
                ma.band_hits
            );
            assert_eq!(ma.band_bcast, ma.band_hits, "one broadcast per band hit");
            assert_eq!(ma.avoided_resets(), ma.band_hits);

            // The exact twin pays a FILTERRESET per crossing on the same trace.
            assert!(
                me.resets >= 90,
                "({n}, {k}) seed {seed}: exact twin must reset per flip, got {}",
                me.resets
            );
            assert_eq!(me.band_hits, 0, "exact mode never takes the band arm");

            // Headline: ≥ 10× fewer up-messages (and strictly fewer total
            // messages) than the exact twin on the identical trace.
            assert!(
                me.total_up() >= 10 * ma.total_up(),
                "({n}, {k}) seed {seed}: up-message gap too small: exact {} vs approx {}",
                me.total_up(),
                ma.total_up()
            );
            assert!(
                me.total() > ma.total(),
                "({n}, {k}) seed {seed}: total message gap inverted: exact {} vs approx {}",
                me.total(),
                ma.total()
            );
        }
    }
}

#[test]
fn approx_boundary_events_replay_losslessly() {
    let (n, k) = (16, 1);
    let (spec, eps) = oscillation(n, k);
    let seed = 9;
    let mut session = MonitorBuilder::new(n, k).seed(seed).epsilon(eps).build();
    let mut feed = spec.build(seed);
    let mut replay = EventReplay::new();
    let mut band_events = 0u64;
    for t in 0..200 {
        session.ingest(feed.as_mut(), t);
        let events = session.advance(t).to_vec();
        band_events += events
            .iter()
            .filter(|e| matches!(e, TopkEvent::ApproxBoundary { .. }))
            .count() as u64;
        replay.apply(&events);
        assert_eq!(
            replay.topk(),
            session.topk(),
            "t={t}: replay answer drifted"
        );
        assert_eq!(
            replay.threshold(),
            session.threshold(),
            "t={t}: replay threshold drifted"
        );
    }
    assert!(band_events > 0, "the band must fire ApproxBoundary events");
    assert_eq!(
        replay.band_hits(),
        session.metrics().band_hits,
        "replay must count exactly the coordinator's band hits"
    );
    assert_eq!(band_events, session.metrics().band_hits);
    assert_eq!(replay.resets(), session.metrics().resets + 1, "init reset");
}
