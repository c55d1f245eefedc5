//! Adversarial workloads targeting specific terms of the competitive bound.

use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};

/// The k/k+1 boundary crossing adversary.
///
/// Nodes `0..n-2` hold well-separated constants. The two *boundary* nodes
/// (`n-2` and `n-1`) oscillate with a triangle wave of amplitude `amplitude`
/// and period `period`, in anti-phase, so they swap ranks twice per period.
/// With `k` chosen so the boundary sits between them, every swap forces the
/// monitoring algorithm through a violation cascade and eventually a
/// `FILTERRESET` — *and OPT must also communicate* (the top-k set genuinely
/// changes), keeping the competitive ratio meaningful.
#[derive(Debug, Clone)]
pub struct BoundaryCross {
    n: usize,
    base: Value,
    spread: Value,
    center: Value,
    amplitude: Value,
    period: u64,
    /// Wave value of the last `fill_delta` emission (`None` before init).
    last_wave: Option<i64>,
}

impl BoundaryCross {
    pub fn new(n: usize, base: Value, spread: Value, amplitude: Value, period: u64) -> Self {
        assert!(n >= 2 && period >= 2 && amplitude >= 1);
        assert!(spread >= 1);
        // The oscillating pair is centred above the static field.
        let center = base + spread * (n as u64) + 4 * amplitude;
        BoundaryCross {
            n,
            base,
            spread,
            center,
            amplitude,
            period,
            last_wave: None,
        }
    }

    /// Triangle wave in `[-amplitude, +amplitude]` with the given period.
    fn wave(&self, t: u64) -> i64 {
        let a = self.amplitude as i64;
        let p = self.period;
        let phase = (t % p) as i64;
        let half = (p / 2).max(1) as i64;
        // Rise for the first half, fall for the second.
        let tri = if phase <= half {
            -a + (2 * a * phase) / half
        } else {
            a - (2 * a * (phase - half)) / half
        };
        tri.clamp(-a, a)
    }
}

impl ValueFeed for BoundaryCross {
    fn n(&self) -> usize {
        self.n
    }

    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        for (i, slot) in out.iter_mut().take(self.n - 2).enumerate() {
            *slot = self.base + self.spread * (i as u64);
        }
        let w = self.wave(t);
        out[self.n - 2] = (self.center as i64 + w) as Value;
        out[self.n - 1] = (self.center as i64 - w) as Value;
    }

    /// The static field never moves: after initialization only the two
    /// oscillators are emitted (and only when the wave actually advanced) —
    /// an O(1) delta regardless of `n`.
    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        changes.clear();
        let w = self.wave(t);
        if self.last_wave.is_none() {
            for i in 0..self.n - 2 {
                changes.push((NodeId(i as u32), self.base + self.spread * (i as u64)));
            }
        }
        if self.last_wave != Some(w) {
            changes.push((
                NodeId((self.n - 2) as u32),
                (self.center as i64 + w) as Value,
            ));
            changes.push((
                NodeId((self.n - 1) as u32),
                (self.center as i64 - w) as Value,
            ));
            self.last_wave = Some(w);
        }
    }
}

/// The ε-band adversary: a square-wave mover pair straddling the k/k+1
/// boundary, flipping instantaneously every half period.
///
/// Nodes `0..n-2` hold well-separated constants; the mover pair (ids `n-2`
/// and `n-1`) sits in the gap between the `(k-1)`-th and `k`-th largest
/// statics at `center ± amplitude`, swapping *instantaneously* (square
/// wave, not triangle) every `period/2` steps. Each flip genuinely changes
/// the top-k set, but the crossing width is always exactly `2·amplitude`:
///
/// * **exact mode** pays the full violation → `FILTERRESET` cascade on
///   every flip (the new gap certificate is empty);
/// * **ε-approximate mode** with `ε ≥ 2·amplitude` absorbs every flip as
///   an in-band re-centering — one broadcast, zero resets.
///
/// That makes it the headline workload of approximate mode
/// (`tests/approx_mode.rs`): the gap between the two modes *is* the
/// competitive gap of arXiv 1601.04448. The `seed` only shifts the wave's
/// phase (`seed mod period`), so runs are fully deterministic per seed.
#[derive(Debug, Clone)]
pub struct BoundaryOscillate {
    n: usize,
    k: usize,
    base: Value,
    spread: Value,
    center: Value,
    amplitude: Value,
    period: u64,
    /// Phase shift derived from the seed.
    offset: u64,
    /// Wave polarity of the last `fill_delta` emission.
    last_hi: Option<bool>,
}

impl BoundaryOscillate {
    /// `k` picks which boundary the pair straddles: exactly `k − 1` statics
    /// sit above the movers, so the movers occupy ranks `k` and `k + 1`
    /// (`1 ≤ k ≤ n − 2`). Requires `spread > 2·amplitude + 1` so the pair
    /// never crosses a static.
    pub fn new(
        n: usize,
        k: usize,
        base: Value,
        spread: Value,
        amplitude: Value,
        period: u64,
        seed: u64,
    ) -> Self {
        assert!(n >= 3 && k >= 1 && k <= n - 2);
        assert!(period >= 2 && amplitude >= 1);
        assert!(
            spread > 2 * amplitude + 1,
            "movers must stay strictly inside their static slot"
        );
        // Exactly k − 1 statics above: the pair lives halfway between the
        // statics of index n−2−k and n−1−k (the latter may not exist for
        // k = 1, which puts the pair above the whole field).
        let center = base + spread * (n as u64 - 2 - k as u64) + spread / 2;
        BoundaryOscillate {
            n,
            k,
            base,
            spread,
            center,
            amplitude,
            period,
            offset: seed % period,
            last_hi: None,
        }
    }

    /// The boundary-crossing width of every flip — the smallest ε that
    /// turns all of this workload's resets into band hits.
    pub fn band_width(&self) -> Value {
        2 * self.amplitude
    }

    /// The `k` whose k/k+1 boundary the pair straddles.
    pub fn boundary_k(&self) -> usize {
        self.k
    }

    /// Square wave: is mover `n-2` currently the upper one?
    fn hi_phase(&self, t: u64) -> bool {
        let half = (self.period / 2).max(1);
        ((t + self.offset) / half).is_multiple_of(2)
    }
}

impl ValueFeed for BoundaryOscillate {
    fn n(&self) -> usize {
        self.n
    }

    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        for (i, slot) in out.iter_mut().take(self.n - 2).enumerate() {
            *slot = self.base + self.spread * (i as u64);
        }
        let hi = self.hi_phase(t);
        let (top, bot) = (self.center + self.amplitude, self.center - self.amplitude);
        out[self.n - 2] = if hi { top } else { bot };
        out[self.n - 1] = if hi { bot } else { top };
    }

    /// The statics never move: after initialization only the two movers are
    /// emitted, and only on the steps where the wave actually flips — an
    /// O(1) delta with long silent stretches between flips.
    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        changes.clear();
        let hi = self.hi_phase(t);
        if self.last_hi.is_none() {
            for i in 0..self.n - 2 {
                changes.push((NodeId(i as u32), self.base + self.spread * (i as u64)));
            }
        }
        if self.last_hi != Some(hi) {
            let (top, bot) = (self.center + self.amplitude, self.center - self.amplitude);
            changes.push((NodeId((self.n - 2) as u32), if hi { top } else { bot }));
            changes.push((NodeId((self.n - 1) as u32), if hi { bot } else { top }));
            self.last_hi = Some(hi);
        }
    }
}

/// The §2.1 worst case: the maximum position rotates every step.
///
/// Node `(t mod n)` spikes to `base + bonus`, everyone else sits at
/// `base + id` (distinct). Filters are useless here — the top-k set changes
/// every step and *every* algorithm, including OPT, must communicate
/// continually.
#[derive(Debug, Clone)]
pub struct RotatingMax {
    n: usize,
    base: Value,
    bonus: Value,
    /// Spiking node of the last `fill_delta` emission.
    last_spike: Option<u32>,
}

impl RotatingMax {
    pub fn new(n: usize, base: Value, bonus: Value) -> Self {
        assert!(n >= 1 && bonus > n as u64);
        RotatingMax {
            n,
            base,
            bonus,
            last_spike: None,
        }
    }
}

impl ValueFeed for RotatingMax {
    fn n(&self) -> usize {
        self.n
    }

    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.base + i as u64;
        }
        out[(t % self.n as u64) as usize] = self.base + self.bonus;
    }

    /// Exactly two nodes change per step (old spike falls, new spike
    /// rises) — worst case for *communication*, best case for the sparse
    /// compute path.
    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        changes.clear();
        let spike = (t % self.n as u64) as u32;
        match self.last_spike {
            None => {
                for i in 0..self.n as u32 {
                    let v = if i == spike {
                        self.base + self.bonus
                    } else {
                        self.base + i as u64
                    };
                    changes.push((NodeId(i), v));
                }
            }
            Some(prev) if prev != spike => {
                let mut pair = [
                    (NodeId(prev), self.base + prev as u64),
                    (NodeId(spike), self.base + self.bonus),
                ];
                pair.sort_by_key(|(id, _)| *id);
                changes.extend_from_slice(&pair);
            }
            Some(_) => {}
        }
        self.last_spike = Some(spike);
    }
}

/// Boundary *grind*: a single non-top-k node creeps up one unit per step
/// toward the k-th value, then retreats — maximizing filter violations whose
/// midpoint updates keep succeeding (exercises the `log Δ` halving chain
/// without forcing resets on most steps).
#[derive(Debug, Clone)]
pub struct BoundaryGrind {
    n: usize,
    base: Value,
    spread: Value,
    period: u64,
    /// Grinder value of the last `fill_delta` emission.
    last_grind: Option<Value>,
}

impl BoundaryGrind {
    pub fn new(n: usize, base: Value, spread: Value, period: u64) -> Self {
        assert!(n >= 2 && period >= 2 && spread >= period);
        BoundaryGrind {
            n,
            base,
            spread,
            period,
            last_grind: None,
        }
    }

    fn grind_value(&self, t: u64) -> Value {
        let phase = t % self.period;
        let half = (self.period / 2).max(1);
        let tri = if phase < half {
            phase
        } else {
            self.period - phase
        };
        let climb = tri * (self.spread - 1) / half;
        self.base + self.spread + climb.min(self.spread - 1)
    }
}

impl ValueFeed for BoundaryGrind {
    fn n(&self) -> usize {
        self.n
    }

    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.base + self.spread * (i as u64 + 1);
        }
        // Node 0 (the lowest) grinds across the full gap toward node 1's
        // value and back, staying strictly below it (climb ≤ spread − 1).
        out[0] = self.grind_value(t);
    }

    /// Only the single grinder ever moves: an O(1) delta.
    fn fill_delta(&mut self, t: u64, changes: &mut Vec<(NodeId, Value)>) {
        changes.clear();
        let g = self.grind_value(t);
        if self.last_grind.is_none() {
            changes.push((NodeId(0), g));
            for i in 1..self.n as u32 {
                changes.push((NodeId(i), self.base + self.spread * (i as u64 + 1)));
            }
        } else if self.last_grind != Some(g) {
            changes.push((NodeId(0), g));
        }
        self.last_grind = Some(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::id::true_topk;

    #[test]
    fn boundary_cross_swaps_ranks() {
        let mut g = BoundaryCross::new(6, 100, 50, 20, 10);
        let mut out = vec![0u64; 6];
        let mut leaders = std::collections::HashSet::new();
        for t in 0..20 {
            g.fill_step(t, &mut out);
            let top1 = true_topk(&out, 1)[0];
            leaders.insert(top1);
        }
        assert_eq!(leaders.len(), 2, "the two boundary nodes must alternate");
    }

    #[test]
    fn boundary_cross_statics_stay_below() {
        let mut g = BoundaryCross::new(8, 100, 50, 25, 16);
        let mut out = vec![0u64; 8];
        for t in 0..40 {
            g.fill_step(t, &mut out);
            let static_max = out[..6].iter().max().unwrap();
            let osc_min = out[6..].iter().min().unwrap();
            assert!(osc_min > static_max, "oscillators must stay on top");
        }
    }

    #[test]
    fn oscillate_straddles_the_requested_boundary() {
        // n = 7, k = 2: one static above the pair, movers at ranks 2 and 3.
        let mut g = BoundaryOscillate::new(7, 2, 100, 50, 10, 6, 0);
        let mut out = vec![0u64; 7];
        let mut upper_seen = std::collections::HashSet::new();
        for t in 0..24 {
            g.fill_step(t, &mut out);
            let top2 = true_topk(&out, 2);
            // Rank 1 is always the top static (id 4); rank 2 alternates
            // between the two movers.
            assert!(top2.contains(&NodeId(4)), "t={t}: top static dethroned");
            let mover = top2.iter().find(|id| id.0 >= 5).unwrap();
            upper_seen.insert(*mover);
            // The crossing width is constant: exactly band_width().
            let gap = out[5].abs_diff(out[6]);
            assert_eq!(gap, g.band_width(), "t={t}");
        }
        assert_eq!(upper_seen.len(), 2, "movers must alternate at rank k");
    }

    #[test]
    fn oscillate_seed_shifts_phase_only() {
        let mut a = BoundaryOscillate::new(5, 1, 0, 100, 8, 8, 0);
        let mut b = BoundaryOscillate::new(5, 1, 0, 100, 8, 8, 4);
        let mut ra = vec![0u64; 5];
        let mut rb = vec![0u64; 5];
        // Seed 4 with period 8 (half = 4) is exactly one half-period ahead.
        for t in 0..32 {
            a.fill_step(t + 4, &mut ra);
            b.fill_step(t, &mut rb);
            assert_eq!(ra, rb, "t={t}: seed must act as a pure phase shift");
        }
    }

    #[test]
    fn rotating_max_rotates() {
        let mut g = RotatingMax::new(5, 10, 100);
        let mut out = vec![0u64; 5];
        for t in 0..10 {
            g.fill_step(t, &mut out);
            let top = true_topk(&out, 1)[0];
            assert_eq!(top.0 as u64, t % 5);
        }
    }

    #[test]
    fn boundary_grind_keeps_order() {
        let mut g = BoundaryGrind::new(4, 0, 100, 20);
        let mut out = vec![0u64; 4];
        for t in 0..60 {
            g.fill_step(t, &mut out);
            // Node 0 never overtakes node 1.
            assert!(out[0] < out[1], "t={t}: {:?}", out);
        }
    }

    #[test]
    fn wave_is_periodic_and_bounded() {
        let g = BoundaryCross::new(4, 0, 10, 7, 12);
        for t in 0..48 {
            let w = g.wave(t);
            assert!(w.abs() <= 7);
            assert_eq!(w, g.wave(t + 12), "period 12");
        }
    }
}
