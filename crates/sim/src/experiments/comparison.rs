//! E7/E8/E9/E14 — algorithm comparisons, design-choice ablations and the
//! ε-slack accuracy/communication trade-off.

use topk_core::HandlerMode;
use topk_proto::extremum::BroadcastPolicy;
use topk_streams::WorkloadSpec;

use crate::montecarlo::{across_seeds, Aggregate};
use crate::scenario::{AlgoSpec, Scenario};
use crate::stats::Summary;
use crate::table::{f1, f2, Table};

use super::ExpCfg;

fn workloads(n: usize) -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::RandomWalk {
            n,
            lo: 0,
            hi: 1 << 20,
            step_max: 64,
            lazy_p: 0.2,
        },
        WorkloadSpec::SensorField { n },
        WorkloadSpec::ZipfJumps {
            n,
            lo: 0,
            hi: 1 << 20,
            max_jump: 1 << 14,
            s: 1.2,
        },
        WorkloadSpec::BoundaryCross {
            n,
            base: 1000,
            spread: 100,
            amplitude: 64,
            period: 16,
        },
        WorkloadSpec::RotatingMax {
            n,
            base: 100,
            bonus: 10_000,
        },
        WorkloadSpec::IidUniform {
            n,
            lo: 0,
            hi: 1 << 20,
        },
    ]
}

/// E7 — the headline comparison: total messages of every algorithm on every
/// workload (the Babcock–Olston "order of magnitude below naive" check and
/// the §2.1/§3.1 motivations, all in one table).
pub fn e7_algorithm_comparison(cfg: &ExpCfg) -> Vec<Table> {
    let n = if cfg.quick { 48 } else { 128 };
    let k = 4;
    let steps = if cfg.quick { 300 } else { 1500 };
    let algos = [
        AlgoSpec::hero(),
        AlgoSpec::Naive,
        AlgoSpec::PeriodicRecompute,
        AlgoSpec::FilterNaiveResolve,
        AlgoSpec::DominanceMidpoint,
        AlgoSpec::OrderedTopk,
    ];
    let mut table = Table::new(
        "e7_algorithm_comparison",
        "Total messages by algorithm and workload",
        &format!(
            "Mean total messages over seeds (n = {n}, k = {k}, {steps} \
             steps). Expected shape: the filter algorithms collapse on \
             smooth workloads (random-walk, sensor) and everything converges \
             toward per-step costs on adversarial ones (rotating-max, iid). \
             All algorithms are verified exactly correct at every step."
        ),
        &[
            "workload",
            "topk-filter (Alg 1)",
            "naive",
            "periodic-recompute",
            "filter-naive-resolve",
            "dominance-midpoint",
            "ordered-topk",
            "OPT updates",
        ],
    );
    for w in workloads(n) {
        let mut cells = vec![w.name().to_string()];
        let mut opt_mean = 0.0;
        for algo in algos {
            let base = Scenario {
                k,
                steps,
                workload: w.clone(),
                algo,
                seed: 0,
            };
            let count = if cfg.quick { 3 } else { 6 };
            let outs = across_seeds(&base, cfg.seed..cfg.seed + count);
            assert!(
                (Aggregate::correctness(&outs) - 1.0).abs() < 1e-9,
                "{} incorrect on {}",
                algo.name(),
                w.name()
            );
            cells.push(f1(Aggregate::total_messages(&outs).mean));
            opt_mean = Aggregate::opt_updates(&outs).mean;
        }
        cells.push(f1(opt_mean));
        table.push_row(cells);
    }
    vec![table]
}

/// E8 — ablations of our two documented implementation choices: broadcast
/// policy ([`BroadcastPolicy`]) and handler faithfulness ([`HandlerMode`]).
pub fn e8_ablations(cfg: &ExpCfg) -> Vec<Table> {
    let n = if cfg.quick { 48 } else { 128 };
    let k = 4;
    let steps = if cfg.quick { 300 } else { 1500 };
    let wl = [
        WorkloadSpec::RandomWalk {
            n,
            lo: 0,
            hi: 1 << 20,
            step_max: 64,
            lazy_p: 0.2,
        },
        WorkloadSpec::SensorField { n },
        WorkloadSpec::IidUniform {
            n,
            lo: 0,
            hi: 1 << 20,
        },
    ];
    let variants: [(&str, BroadcastPolicy, HandlerMode); 4] = [
        (
            "OnChange+Tight (default)",
            BroadcastPolicy::OnChange,
            HandlerMode::Tight,
        ),
        (
            "OnChange+Faithful",
            BroadcastPolicy::OnChange,
            HandlerMode::Faithful,
        ),
        (
            "EveryRound+Tight",
            BroadcastPolicy::EveryRound,
            HandlerMode::Tight,
        ),
        (
            "EveryRound+Faithful",
            BroadcastPolicy::EveryRound,
            HandlerMode::Faithful,
        ),
    ];
    let mut table = Table::new(
        "e8_ablations",
        "Ablation: broadcast policy × handler mode (total messages)",
        "OnChange announces protocol extrema only on improvement (silence = \
         unchanged, free in the synchronous model); EveryRound is the \
         literal line 18 of Algorithm 2. Tight skips the handler's provably \
         redundant re-run when both violation protocols reported; Faithful \
         is the literal lines 22–26. All variants are exactly correct; the \
         bound holds for all.",
        &[
            "workload",
            variants[0].0,
            variants[1].0,
            variants[2].0,
            variants[3].0,
        ],
    );
    for w in &wl {
        let mut cells = vec![w.name().to_string()];
        for (_, policy, mode) in variants {
            let base = Scenario {
                k,
                steps,
                workload: w.clone(),
                algo: AlgoSpec::TopkFilter {
                    policy,
                    handler_mode: mode,
                },
                seed: 0,
            };
            let count = if cfg.quick { 3 } else { 6 };
            let outs = across_seeds(&base, cfg.seed..cfg.seed + count);
            assert!((Aggregate::correctness(&outs) - 1.0).abs() < 1e-9);
            cells.push(f1(Aggregate::total_messages(&outs).mean));
        }
        table.push_row(cells);
    }
    vec![table]
}

/// E9 — the §5 ordered extension vs plain Algorithm 1.
pub fn e9_ordered_extension(cfg: &ExpCfg) -> Vec<Table> {
    let n = if cfg.quick { 48 } else { 128 };
    let steps = if cfg.quick { 400 } else { 2000 };
    let mut table = Table::new(
        "e9_ordered_extension",
        "Ordered top-k (§5 conjecture) vs plain Algorithm 1",
        "The ordered variant must additionally pay for internal rank swaps \
         (span repairs) and protocol re-selections at boundary crossings; \
         its overhead over the set-only algorithm is the price of ordering \
         information. Both are exactly correct; the ordered monitor's \
         ranking is verified against ground truth.",
        &[
            "k",
            "plain msgs (mean)",
            "ordered msgs (mean)",
            "overhead ×",
            "span repairs",
            "re-selections",
            "OPT updates",
        ],
    );
    for &k in &[2usize, 4, 8, 16] {
        let w = WorkloadSpec::RandomWalk {
            n,
            lo: 0,
            hi: 1 << 20,
            step_max: 64,
            lazy_p: 0.2,
        };
        let count = if cfg.quick { 3 } else { 6 };
        let plain = across_seeds(
            &Scenario {
                k,
                steps,
                workload: w.clone(),
                algo: AlgoSpec::hero(),
                seed: 0,
            },
            cfg.seed..cfg.seed + count,
        );
        let ordered = across_seeds(
            &Scenario {
                k,
                steps,
                workload: w,
                algo: AlgoSpec::OrderedTopk,
                seed: 0,
            },
            cfg.seed..cfg.seed + count,
        );
        assert!((Aggregate::correctness(&plain) - 1.0).abs() < 1e-9);
        assert!((Aggregate::correctness(&ordered) - 1.0).abs() < 1e-9);
        let pm = Aggregate::total_messages(&plain).mean;
        let om = Aggregate::total_messages(&ordered).mean;
        // Span/reselection counts via a direct ordered run (metrics are not
        // part of RunOutcome for non-hero algorithms).
        let (spans, resels) = ordered_event_counts(n, k, steps, cfg.seed);
        table.push_row(vec![
            k.to_string(),
            f1(pm),
            f1(om),
            f2(om / pm.max(1.0)),
            f1(spans),
            f1(resels),
            f1(Aggregate::opt_updates(&plain).mean),
        ]);
    }
    vec![table]
}

fn ordered_event_counts(n: usize, k: usize, steps: usize, seed: u64) -> (f64, f64) {
    use topk_core::monitor::Monitor;
    let w = WorkloadSpec::RandomWalk {
        n,
        lo: 0,
        hi: 1 << 20,
        step_max: 64,
        lazy_p: 0.2,
    };
    let trace = w.record(seed, steps);
    let mut mon = topk_ordered::OrderedTopkMonitor::new(n, k, seed ^ 0x005e_ed0f_a160_u64);
    for t in 0..trace.steps() {
        mon.step(t as u64, trace.step(t));
    }
    let m = mon.metrics();
    (m.span_repairs as f64, m.reselections as f64)
}

/// E14 — the ε-slack extension: accuracy vs communication trade-off.
pub fn e14_slack_tradeoff(cfg: &ExpCfg) -> Vec<Table> {
    use topk_core::{is_eps_valid_topk, is_valid_topk, Monitor, MonitorConfig, TopkMonitor};
    let n = if cfg.quick { 16 } else { 32 };
    let k = 4;
    let steps = if cfg.quick { 400 } else { 2000 };
    let sigma = 400.0;
    let spec = WorkloadSpec::GaussianWalk {
        n,
        lo: 0,
        hi: 200_000,
        sigma,
    };
    let mut table = Table::new(
        "e14_slack_tradeoff",
        "ε-slack extension: messages vs approximation tolerance",
        &format!(
            "Gaussian walks (σ = {sigma}) at n = {n}, k = {k}, {steps} steps. \
             Filters become hysteresis bands [M−ε, ∞]/[−∞, M+ε]; the answer \
             is guaranteed 2ε-valid (asserted every step). ε = 0 is the \
             paper's exact algorithm; growing ε trades exactness on noisy \
             boundaries for communication."
        ),
        &[
            "ε",
            "total msgs (mean)",
            "vs exact",
            "violation steps",
            "exactly-valid steps %",
            "2ε-valid steps %",
        ],
    );
    let slacks: &[u64] = &[0, 100, 400, 1600, 6400, 25_600];
    let seed_count = if cfg.quick { 3 } else { 6 };
    let mut exact_baseline = 0.0f64;
    for &slack in slacks {
        let mut msgs = Vec::new();
        let mut viol = Vec::new();
        let mut exact_ok = 0u64;
        let mut eps_ok = 0u64;
        let mut total_steps = 0u64;
        for seed in 0..seed_count {
            let trace = spec.record(cfg.seed ^ seed, steps);
            let mut mon =
                TopkMonitor::new(MonitorConfig::new(n, k).with_slack(slack), cfg.seed ^ seed);
            for t in 0..trace.steps() {
                let row = trace.step(t);
                mon.step(t as u64, row);
                total_steps += 1;
                if is_valid_topk(row, &mon.topk()) {
                    exact_ok += 1;
                }
                if is_eps_valid_topk(row, &mon.topk(), 2 * slack) {
                    eps_ok += 1;
                }
            }
            msgs.push(mon.ledger().total() as f64);
            viol.push(mon.metrics().violation_steps as f64);
        }
        assert_eq!(eps_ok, total_steps, "2ε-validity must never fail");
        let m = Summary::of(&msgs).mean;
        if slack == 0 {
            exact_baseline = m;
        }
        table.push_row(vec![
            slack.to_string(),
            f1(m),
            f2(m / exact_baseline.max(1.0)),
            f1(Summary::of(&viol).mean),
            f2(100.0 * exact_ok as f64 / total_steps as f64),
            f2(100.0 * eps_ok as f64 / total_steps as f64),
        ]);
    }
    vec![table]
}
