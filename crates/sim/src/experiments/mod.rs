//! The experiment registry: every quantitative claim of the paper mapped to
//! a regenerating function. The list below is the index.
//!
//! * E1–E3, E11 — §4 protocol theorems (Thm 4.2 bound + whp tail, Thm 4.3
//!   lower bound, Lemma 4.1 per-rank probabilities);
//! * E4–E6, E12, E14 — §3 competitive analysis + the ε-slack extension (Theorem 3.3/4.4 scaling in `n`,
//!   `k`, `Δ`; epoch structure);
//! * E7–E9 — comparisons and ablations (naive / §2.1 / filter-poll /
//!   dominance tracking / ordered extension);
//! * E10 — model sanity: socket runtime ≡ sequential simulator.

pub mod comparison;
pub mod monitoring;
pub mod protocol;
pub mod socket;

use crate::table::Table;

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpCfg {
    /// Reduced sizes for CI / integration tests.
    pub quick: bool,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Worker threads for scenario fan-out (0 = available parallelism).
    pub threads: usize,
}

impl Default for ExpCfg {
    fn default() -> Self {
        ExpCfg {
            quick: false,
            seed: 0x70aa_2015,
            threads: 0,
        }
    }
}

impl ExpCfg {
    pub fn quick() -> Self {
        ExpCfg {
            quick: true,
            ..Default::default()
        }
    }
}

/// All experiment identifiers, in presentation order.
pub const ALL_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
];

/// Run one experiment by id.
pub fn run(id: &str, cfg: &ExpCfg) -> Vec<Table> {
    match id {
        "e1" => protocol::e1_max_protocol_scaling(cfg),
        "e2" => protocol::e2_tail_probability(cfg),
        "e3" => protocol::e3_lower_bound_baselines(cfg),
        "e4" => monitoring::e4_ratio_vs_n(cfg),
        "e5" => monitoring::e5_ratio_vs_k(cfg),
        "e6" => monitoring::e6_ratio_vs_delta(cfg),
        "e7" => comparison::e7_algorithm_comparison(cfg),
        "e8" => comparison::e8_ablations(cfg),
        "e9" => comparison::e9_ordered_extension(cfg),
        "e10" => socket::e10_socket_equivalence(cfg),
        "e11" => protocol::e11_lemma41_per_rank(cfg),
        "e12" => monitoring::e12_epoch_structure(cfg),
        "e13" => protocol::e13_growth_schedules(cfg),
        "e14" => comparison::e14_slack_tradeoff(cfg),
        other => panic!("unknown experiment id {other:?}; known: {ALL_IDS:?}"),
    }
}

/// Run every experiment.
pub fn run_all(cfg: &ExpCfg) -> Vec<Table> {
    ALL_IDS.iter().flat_map(|id| run(id, cfg)).collect()
}
