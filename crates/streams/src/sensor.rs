//! Physically-flavoured sensor workloads — the paper's §1/§5 motivation
//! ("temperatures, frequencies and similar parameters ... naturally bounded
//! by the application domain").
//!
//! No public dataset accompanies the paper; these generators are the
//! documented synthetic substitution: what matters for the
//! algorithm is (a) step-to-step similarity and (b) the size of the k/k+1
//! gap, both of which these models exhibit with realistic shapes.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_net::rng::substream_rng;

use crate::walk::standard_normal;

/// A field of temperature-like sensors.
///
/// Node `i` observes
/// `base + diurnal·sin(2π(t/period + phase_i)) + drift_i(t) + event_i(t) + noise`
/// scaled to integers, where `drift` is a slow per-node random walk, and
/// `event` is an occasional exponential-decay spike (a "hot spot" passing a
/// sensor) that shuffles who is hottest.
#[derive(Debug, Clone)]
pub struct SensorField {
    base: f64,
    diurnal: f64,
    period: f64,
    noise_sigma: f64,
    event_rate: f64,
    event_magnitude: f64,
    event_decay: f64,
    phase: Vec<f64>,
    drift: Vec<f64>,
    event: Vec<f64>,
    rngs: Vec<ChaCha12Rng>,
    /// Scratch row for `fill_delta` (noise touches every node every step,
    /// so the delta is dense; the scratch avoids per-step allocation).
    row: Vec<Value>,
}

impl SensorField {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        base: f64,
        diurnal: f64,
        period: f64,
        noise_sigma: f64,
        event_rate: f64,
        event_magnitude: f64,
        event_decay: f64,
        seed: u64,
    ) -> Self {
        assert!(n > 0 && period > 1.0 && base > diurnal + event_magnitude + 10.0 * noise_sigma);
        assert!((0.0..=1.0).contains(&event_rate));
        assert!((0.0..1.0).contains(&event_decay));
        let mut rngs: Vec<ChaCha12Rng> = (0..n)
            .map(|i| substream_rng(seed, 4_000_000 + i as u64))
            .collect();
        let phase = rngs.iter_mut().map(|r| r.gen_range(0.0..1.0)).collect();
        SensorField {
            base,
            diurnal,
            period,
            noise_sigma,
            event_rate,
            event_magnitude,
            event_decay,
            phase,
            drift: vec![0.0; n],
            event: vec![0.0; n],
            rngs,
            row: vec![0; n],
        }
    }

    /// A reasonable default: 1 unit = 0.01 °C, base 25 °C, ±4 °C diurnal
    /// cycle, 0.05 °C sensor noise, rare 8 °C hot spots.
    pub fn standard(n: usize, seed: u64) -> Self {
        SensorField::new(n, 2500.0, 400.0, 500.0, 5.0, 0.002, 800.0, 0.97, seed)
    }
}

impl ValueFeed for SensorField {
    fn n(&self) -> usize {
        self.rngs.len()
    }

    #[allow(clippy::needless_range_loop)] // parallel per-node state arrays
    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        let tau = std::f64::consts::TAU;
        for i in 0..self.rngs.len() {
            let rng = &mut self.rngs[i];
            // Slow drift: tiny Gaussian increments, leashed back to zero.
            self.drift[i] = self.drift[i] * 0.999 + standard_normal(rng) * 0.5;
            // Events spike then decay geometrically.
            self.event[i] *= self.event_decay;
            if rng.gen_bool(self.event_rate) {
                self.event[i] += self.event_magnitude * rng.gen_range(0.5..1.0);
            }
            let diurnal = self.diurnal * (tau * (t as f64 / self.period + self.phase[i])).sin();
            let noise = standard_normal(rng) * self.noise_sigma;
            let v = self.base + diurnal + self.drift[i] + self.event[i] + noise;
            out[i] = v.max(0.0).round() as Value;
        }
    }

    /// Sensor noise perturbs every node every step, so the delta is simply
    /// the full row — emitted without per-call allocation. (Included so the
    /// sparse driver works uniformly; this workload gains nothing from it.)
    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        let mut row = std::mem::take(&mut self.row);
        self.fill_step(t, &mut row);
        topk_net::behavior::emit_dense(changes, &row);
        self.row = row;
    }
}

/// Two-state (quiet/burst) Markov-modulated walk: long calm phases with
/// unit steps, occasional bursts with large steps — a load-spike /
/// failure-cascade shape common in operational telemetry.
#[derive(Debug, Clone)]
pub struct Bursty {
    lo: Value,
    hi: Value,
    quiet_step: u64,
    burst_step: u64,
    p_enter_burst: f64,
    p_exit_burst: f64,
    state: Vec<Value>,
    in_burst: Vec<bool>,
    rngs: Vec<ChaCha12Rng>,
    initialized: bool,
    /// Scratch for deriving `fill_step` from `fill_delta`.
    delta_scratch: Vec<(NodeId, Value)>,
}

impl Bursty {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        lo: Value,
        hi: Value,
        quiet_step: u64,
        burst_step: u64,
        p_enter_burst: f64,
        p_exit_burst: f64,
        seed: u64,
    ) -> Self {
        assert!(n > 0 && lo < hi && quiet_step >= 1 && burst_step >= quiet_step);
        assert!((0.0..1.0).contains(&p_enter_burst) && (0.0..=1.0).contains(&p_exit_burst));
        Bursty {
            lo,
            hi,
            quiet_step,
            burst_step,
            p_enter_burst,
            p_exit_burst,
            state: vec![0; n],
            in_burst: vec![false; n],
            rngs: (0..n)
                .map(|i| substream_rng(seed, 5_000_000 + i as u64))
                .collect(),
            initialized: false,
            delta_scratch: Vec::new(),
        }
    }
}

impl ValueFeed for Bursty {
    fn n(&self) -> usize {
        self.state.len()
    }

    /// Dense view of the single (delta) implementation: advance, then copy
    /// the state row — `fill_step` and `fill_delta` cannot drift.
    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        let mut scratch = std::mem::take(&mut self.delta_scratch);
        self.fill_delta(t, &mut scratch);
        self.delta_scratch = scratch;
        out.copy_from_slice(&self.state);
    }

    /// Emit only actual movers (a step can reflect back onto the old value).
    fn fill_delta(&mut self, _t: u64, changes: &mut Vec<(NodeId, Value)>) {
        if !self.initialized {
            for (i, rng) in self.rngs.iter_mut().enumerate() {
                self.state[i] = rng.gen_range(self.lo..=self.hi);
            }
            self.initialized = true;
            topk_net::behavior::emit_dense(changes, &self.state);
            return;
        }
        changes.clear();
        let span = self.hi - self.lo;
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            let burst = self.in_burst[i];
            self.in_burst[i] = if burst {
                !rng.gen_bool(self.p_exit_burst)
            } else {
                rng.gen_bool(self.p_enter_burst)
            };
            let step_max = if self.in_burst[i] {
                self.burst_step
            } else {
                self.quiet_step
            }
            .min(span);
            let mag = rng.gen_range(1..=step_max) as i64;
            let delta = if rng.gen_bool(0.5) { mag } else { -mag };
            let new = crate::walk_reflect(self.state[i], delta, self.lo, self.hi);
            if new != self.state[i] {
                self.state[i] = new;
                changes.push((NodeId(i as u32), new));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_field_is_bounded_and_smooth() {
        let mut s = SensorField::standard(16, 3);
        let mut prev = vec![0u64; 16];
        let mut cur = vec![0u64; 16];
        s.fill_step(0, &mut prev);
        let mut max_jump = 0u64;
        for t in 1..400 {
            s.fill_step(t, &mut cur);
            for i in 0..16 {
                assert!(cur[i] < 10_000, "plausible range");
                max_jump = max_jump.max(cur[i].abs_diff(prev[i]));
            }
            prev.copy_from_slice(&cur);
        }
        // Mostly smooth: even event onsets stay below the magnitude bound +
        // diurnal slope + noise tails.
        assert!(max_jump < 1200, "max_jump={max_jump}");
    }

    #[test]
    fn sensor_events_shuffle_leader() {
        let mut s = SensorField::standard(12, 7);
        let mut out = vec![0u64; 12];
        let mut leaders = std::collections::HashSet::new();
        for t in 0..4000 {
            s.fill_step(t, &mut out);
            leaders.insert(topk_net::id::true_topk(&out, 1)[0]);
        }
        assert!(
            leaders.len() >= 3,
            "events + diurnal phase must rotate the max"
        );
    }

    #[test]
    fn bursty_respects_bounds_and_bursts() {
        let mut b = Bursty::new(8, 0, 100_000, 2, 512, 0.01, 0.2, 5);
        let mut prev = vec![0u64; 8];
        let mut cur = vec![0u64; 8];
        b.fill_step(0, &mut prev);
        let mut saw_big = false;
        for t in 1..2000 {
            b.fill_step(t, &mut cur);
            for i in 0..8 {
                assert!(cur[i] <= 100_000);
                if cur[i].abs_diff(prev[i]) > 64 {
                    saw_big = true;
                }
            }
            prev.copy_from_slice(&cur);
        }
        assert!(saw_big, "bursts must occur");
    }

    #[test]
    fn deterministic_per_seed() {
        let sample = |seed| {
            let mut s = SensorField::standard(4, seed);
            let mut out = vec![0u64; 4];
            let mut all = Vec::new();
            for t in 0..50 {
                s.fill_step(t, &mut out);
                all.extend_from_slice(&out);
            }
            all
        };
        assert_eq!(sample(1), sample(1));
        assert_ne!(sample(1), sample(2));
    }
}
