//! Empirical validation of the competitive guarantee (Theorems 3.3/4.4):
//! on every tested workload the measured ratio ALG/OPT stays within a small
//! constant of the theory factor `(log₂Δ + k)·log₂n`, and the cost ordering
//! between algorithms matches the paper's narrative.

use topk_monitoring::prelude::*;
use topk_monitoring::sim::{run_scenario_on_trace, Scenario};

/// Generous constant absorbing the O(·): the per-event costs are a few
/// protocol executions, each within ~2–3× of log n, plus the (r+1)/r
/// slack of the theorem's interval accounting.
const BOUND_CONSTANT: f64 = 8.0;

fn ratio_for(_n: usize, k: usize, spec: WorkloadSpec, steps: usize, seed: u64) -> (f64, f64) {
    let trace = spec.record(seed, steps);
    let sc = Scenario {
        k,
        steps,
        workload: spec,
        algo: AlgoSpec::hero(),
        seed,
    };
    let out = run_scenario_on_trace(&sc, &trace);
    assert_eq!(out.correct_steps, out.steps);
    (out.ratio, out.theory_factor())
}

#[test]
fn ratio_within_bound_random_walks() {
    for &(n, k) in &[(16usize, 2usize), (64, 4), (128, 8)] {
        for seed in 0..3 {
            let spec = WorkloadSpec::RandomWalk {
                n,
                lo: 0,
                hi: 1 << 20,
                step_max: 256,
                lazy_p: 0.2,
            };
            let (ratio, factor) = ratio_for(n, k, spec, 600, seed);
            assert!(
                ratio <= BOUND_CONSTANT * factor,
                "n={n} k={k} seed={seed}: ratio {ratio:.1} > {BOUND_CONSTANT}·{factor:.1}"
            );
        }
    }
}

#[test]
fn ratio_within_bound_adversarial() {
    // Rotating max: OPT pays every step, so the ratio is the per-step cost
    // of a reset — exactly the (k+1)·log n regime.
    let (ratio, factor) = ratio_for(
        32,
        1,
        WorkloadSpec::RotatingMax {
            n: 32,
            base: 10,
            bonus: 1 << 20,
        },
        400,
        1,
    );
    assert!(
        ratio <= BOUND_CONSTANT * factor,
        "{ratio:.1} vs {factor:.1}"
    );

    // Boundary crossing at k.
    let (ratio, factor) = ratio_for(
        16,
        1,
        WorkloadSpec::BoundaryCross {
            n: 16,
            base: 10_000,
            spread: 500,
            amplitude: 300,
            period: 32,
        },
        800,
        2,
    );
    assert!(
        ratio <= BOUND_CONSTANT * factor,
        "{ratio:.1} vs {factor:.1}"
    );
}

/// ISSUE 10 satellite: on the oscillation lower-bound instances of the
/// follow-up paper (arXiv 1601.04448) — a mover pair forcing a genuine
/// top-k change per half period — the ε-band run's competitive ratio
/// against offline OPT collapses to a small constant (it pays O(1)
/// broadcasts per OPT update), while the exact hero stays in the
/// Θ(FILTERRESET) regime on the identical trace. Seed-rotated, and CI's
/// `conformance` job adds `PROPTEST_SEED` as an extra rotation.
#[test]
fn approx_band_collapses_the_competitive_ratio_on_oscillation() {
    let (n, k, steps) = (48usize, 2usize, 400usize);
    let amplitude = 40u64;
    let eps = 2 * amplitude;
    let mut seeds = vec![0u64, 1, 2];
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(v) = s.parse::<u64>() {
            seeds.push(v % 1_000);
        }
    }
    for seed in seeds {
        let spec = WorkloadSpec::BoundaryOscillate {
            n,
            k,
            base: 1_000,
            spread: 200,
            amplitude,
            period: 8,
        };
        let trace = spec.record(seed, steps);

        // Exact hero on the recorded trace, with the OPT denominator.
        let out = run_scenario_on_trace(
            &Scenario {
                k,
                steps,
                workload: spec.clone(),
                algo: AlgoSpec::hero(),
                seed,
            },
            &trace,
        );
        assert_eq!(out.correct_steps, out.steps);
        let opt = out.opt_updates.max(1);
        let exact_total = out.messages.total();

        // The ε-approximate run on the identical trace.
        let mut approx = MonitorBuilder::new(n, k).seed(seed).epsilon(eps).build();
        let mut feed = WorkloadSpec::Replay {
            trace: trace.clone(),
        }
        .build(seed);
        for t in 0..steps as u64 {
            approx.ingest(feed.as_mut(), t);
            approx.advance(t);
            assert!(
                is_eps_valid_topk(trace.step(t as usize), approx.topk(), eps),
                "seed {seed} t={t}: approx answer beyond ε"
            );
        }
        let ma = *approx.metrics();
        let approx_total = approx.ledger().total();

        assert_eq!(
            ma.resets, 0,
            "seed {seed}: the band must absorb every crossing"
        );
        assert!(ma.band_hits > 0, "seed {seed}: the band never engaged");
        assert!(
            approx_total >= opt,
            "seed {seed}: OPT ({opt}) must stay a lower bound (approx {approx_total})"
        );
        let ratio_exact = exact_total as f64 / opt as f64;
        let ratio_approx = approx_total as f64 / opt as f64;
        assert!(
            ratio_approx <= 8.0,
            "seed {seed}: approx must pay O(1) per OPT update, ratio {ratio_approx:.2}"
        );
        assert!(
            4.0 * ratio_approx <= ratio_exact,
            "seed {seed}: competitive gap too small: approx {ratio_approx:.2} vs exact {ratio_exact:.2}"
        );
    }
}

#[test]
fn hero_wins_where_the_paper_says_it_should() {
    // Smooth workload: Algorithm 1 ≪ naive and ≪ periodic recompute.
    let n = 64;
    let k = 4;
    let steps = 800;
    let spec = WorkloadSpec::RandomWalk {
        n,
        lo: 0,
        hi: 1 << 20,
        step_max: 64,
        lazy_p: 0.2,
    };
    let trace = spec.record(5, steps);
    let run = |algo: AlgoSpec| {
        let out = run_scenario_on_trace(
            &Scenario {
                k,
                steps,
                workload: spec.clone(),
                algo,
                seed: 5,
            },
            &trace,
        );
        assert_eq!(out.correct_steps, out.steps, "{}", out.algo);
        out.messages.total()
    };
    let hero = run(AlgoSpec::hero());
    let naive = run(AlgoSpec::Naive);
    let periodic = run(AlgoSpec::PeriodicRecompute);
    let poll_filters = run(AlgoSpec::FilterNaiveResolve);
    assert!(
        hero * 10 < naive,
        "hero {hero} should be ≥10× below naive {naive}"
    );
    assert!(
        hero * 10 < periodic,
        "hero {hero} should be ≥10× below periodic {periodic}"
    );
    assert!(
        hero <= poll_filters,
        "randomized resolution {hero} must not exceed polling {poll_filters}"
    );
}

#[test]
fn protocol_resolution_beats_polling_at_scale() {
    // The isolated value of Algorithm 2 inside the monitoring loop: same
    // filter skeleton, resolution by protocol vs by poll. On a churny
    // workload with large n the gap must be decisive.
    let n = 256;
    let k = 4;
    let steps = 300;
    let spec = WorkloadSpec::IidUniform {
        n,
        lo: 0,
        hi: 1 << 20,
    };
    let trace = spec.record(9, steps);
    let run = |algo: AlgoSpec| {
        run_scenario_on_trace(
            &Scenario {
                k,
                steps,
                workload: spec.clone(),
                algo,
                seed: 9,
            },
            &trace,
        )
        .messages
        .total()
    };
    let hero = run(AlgoSpec::hero());
    let poll = run(AlgoSpec::FilterNaiveResolve);
    assert!(
        hero * 2 < poll,
        "at n={n}, protocol resolution ({hero}) must clearly beat polling ({poll})"
    );
}

#[test]
fn opt_is_a_true_lower_bound_for_filter_algorithms() {
    // Sanity: no filter-based algorithm in the suite beats OPT's update
    // count on any tested workload (they all at least initialize).
    for spec in [
        WorkloadSpec::default_walk(24),
        WorkloadSpec::SensorField { n: 24 },
    ] {
        let trace = spec.record(3, 300);
        for algo in [
            AlgoSpec::hero(),
            AlgoSpec::FilterNaiveResolve,
            AlgoSpec::OrderedTopk,
        ] {
            let out = run_scenario_on_trace(
                &Scenario {
                    k: 3,
                    steps: 300,
                    workload: spec.clone(),
                    algo,
                    seed: 3,
                },
                &trace,
            );
            assert!(
                out.messages.total() >= out.opt_updates,
                "{}: {} messages < OPT {} updates?!",
                out.algo,
                out.messages.total(),
                out.opt_updates
            );
        }
    }
}
