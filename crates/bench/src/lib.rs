//! Shared helpers for the Criterion bench suite.
//!
//! Each bench file covers one experiment family (the E-numbers of the
//! `topk_sim::experiments` registry):
//! `max_protocol` (E1/E3 wall-clock), `topk_step` (E4/E5 throughput),
//! `comparison` (E7), `filters`, `streams`, and `end_to_end` (E4 + OPT).

use topk_net::id::{NodeId, Value};
use topk_net::rng::substream_rng;

use rand::seq::SliceRandom;

/// Deterministic shuffled `(id, value)` entries of `0..n`.
pub fn permuted_entries(n: usize, seed: u64) -> Vec<(NodeId, Value)> {
    let mut rng = substream_rng(seed, n as u64);
    let mut values: Vec<Value> = (0..n as Value).collect();
    values.shuffle(&mut rng);
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (NodeId(i as u32), v))
        .collect()
}

/// Standard bench sizes (kept moderate so `cargo bench` finishes quickly).
pub const PROTOCOL_SIZES: &[usize] = &[256, 1024, 4096, 16_384];
pub const MONITOR_SIZES: &[usize] = &[64, 256, 1024];
