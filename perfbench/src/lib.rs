//! End-to-end and per-layer benchmark of the top-k monitoring system.
//!
//! Four workloads drive the public surface only — `WorkloadSpec` →
//! `MonitorBuilder`/`MonitorSession` or `ServeBuilder`/`TopkService` — and
//! every answer is checked against ground truth the benchmark computes from
//! its own inputs. See `README.md` in this directory for the workloads, the
//! metrics and how to run, trace and compare.

pub mod check;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod reps;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
