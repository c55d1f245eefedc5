//! # topk-sim — experiment harness for the Top-k-Position Monitoring
//! reproduction
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems. This
//! crate regenerates an empirical validation for each of them ([`experiments`]
//! maps claim → experiment):
//!
//! * [`scenario`] — (workload × algorithm × k) runs with OPT and the
//!   measured competitive ratio;
//! * [`faults`] — declarative stream-fault schedules ([`FaultSpec`],
//!   seeded boundary storms) shared by the failure-injection and
//!   chaos-transport soaks;
//! * [`montecarlo`] — parallel multi-seed execution;
//! * [`stats`] / [`table`] / [`report`] — aggregation and rendering;
//! * [`experiments`] — the E1–E14 registry
//!   (`cargo run --release --example experiments` regenerates everything).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod faults;
pub mod montecarlo;
pub mod report;
pub mod scenario;
pub mod stats;
pub mod table;

pub use experiments::{run as run_experiment, run_all as run_all_experiments, ExpCfg, ALL_IDS};
pub use faults::{boundary_storm, FaultSchedule, FaultSpec};
pub use montecarlo::{across_seeds, run_all, Aggregate};
pub use scenario::{run_scenario, run_scenario_on_trace, AlgoSpec, RunOutcome, Scenario};
pub use stats::Summary;
pub use table::Table;
