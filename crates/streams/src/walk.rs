//! Random-walk style generators — the "similar consecutive values" regime
//! the paper's filter approach is designed for (§2.1).

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use topk_net::behavior::ValueFeed;
use topk_net::id::{NodeId, Value};
use topk_net::rng::substream_rng;

/// Per-node lazy reflecting random walk on `[lo, hi]`.
///
/// Each step, independently per node: with probability `lazy_p` stay; else
/// move up or down by `Uniform{1..=step_max}`, reflecting at the domain
/// boundaries. Initial positions are iid `Uniform[lo, hi]`.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    lo: Value,
    hi: Value,
    step_max: u64,
    lazy_p: f64,
    state: Vec<Value>,
    rngs: Vec<ChaCha12Rng>,
    initialized: bool,
    /// Scratch for deriving `fill_step` from `fill_delta`.
    delta_scratch: Vec<(NodeId, Value)>,
}

impl RandomWalk {
    pub fn new(n: usize, lo: Value, hi: Value, step_max: u64, lazy_p: f64, seed: u64) -> Self {
        assert!(n > 0 && lo < hi && step_max >= 1);
        assert!((0.0..1.0).contains(&lazy_p));
        RandomWalk {
            lo,
            hi,
            step_max,
            lazy_p,
            state: vec![0; n],
            rngs: (0..n).map(|i| substream_rng(seed, i as u64)).collect(),
            initialized: false,
            delta_scratch: Vec::new(),
        }
    }

    fn init(&mut self) {
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            self.state[i] = rng.gen_range(self.lo..=self.hi);
        }
        self.initialized = true;
    }
}

/// Reflect `pos + delta` into `[lo, hi]` (single reflection suffices because
/// callers bound `|delta| ≤ hi - lo`).
pub(crate) fn reflect(pos: Value, delta: i64, lo: Value, hi: Value) -> Value {
    debug_assert!(delta.unsigned_abs() <= hi - lo);
    if delta >= 0 {
        let d = delta as u64;
        let room = hi - pos;
        if d <= room {
            pos + d
        } else {
            hi - (d - room)
        }
    } else {
        let d = delta.unsigned_abs();
        let room = pos - lo;
        if d <= room {
            pos - d
        } else {
            lo + (d - room)
        }
    }
}

impl ValueFeed for RandomWalk {
    fn n(&self) -> usize {
        self.state.len()
    }

    /// Dense view of the single (delta) implementation: advance, then copy
    /// the state row. Keeping one walk body guarantees `fill_step` and
    /// `fill_delta` can never drift out of RNG lockstep.
    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        let mut scratch = std::mem::take(&mut self.delta_scratch);
        self.fill_delta(t, &mut scratch);
        self.delta_scratch = scratch;
        out.copy_from_slice(&self.state);
    }

    /// Emit only the nodes that actually moved. (The generator still pays
    /// O(n) RNG work per step — per-node streams require it — but the
    /// *consumer* sees only the movers.)
    fn fill_delta(&mut self, _t: u64, changes: &mut Vec<(NodeId, Value)>) {
        if !self.initialized {
            self.init();
            topk_net::behavior::emit_dense(changes, &self.state);
            return;
        }
        changes.clear();
        let span = self.hi - self.lo;
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            if !rng.gen_bool(self.lazy_p) {
                let mag = rng.gen_range(1..=self.step_max.min(span)) as i64;
                let delta = if rng.gen_bool(0.5) { mag } else { -mag };
                let new = reflect(self.state[i], delta, self.lo, self.hi);
                if new != self.state[i] {
                    self.state[i] = new;
                    changes.push((NodeId(i as u32), new));
                }
            }
        }
    }
}

/// Per-node Gaussian-increment walk (Box–Muller discretized to integers),
/// reflecting on `[lo, hi]`. Produces smoother, more "physical" trajectories
/// than the uniform-step walk.
#[derive(Debug, Clone)]
pub struct GaussianWalk {
    lo: Value,
    hi: Value,
    sigma: f64,
    state: Vec<Value>,
    rngs: Vec<ChaCha12Rng>,
    initialized: bool,
    /// Scratch for deriving `fill_step` from `fill_delta`.
    delta_scratch: Vec<(NodeId, Value)>,
}

impl GaussianWalk {
    pub fn new(n: usize, lo: Value, hi: Value, sigma: f64, seed: u64) -> Self {
        assert!(n > 0 && lo < hi && sigma > 0.0);
        GaussianWalk {
            lo,
            hi,
            sigma,
            state: vec![0; n],
            rngs: (0..n)
                .map(|i| substream_rng(seed, 1_000_000 + i as u64))
                .collect(),
            initialized: false,
            delta_scratch: Vec::new(),
        }
    }
}

/// One standard normal via Box–Muller.
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

impl ValueFeed for GaussianWalk {
    fn n(&self) -> usize {
        self.state.len()
    }

    /// Dense view of the single (delta) implementation — see [`RandomWalk`].
    fn fill_step(&mut self, t: u64, out: &mut [Value]) {
        let mut scratch = std::mem::take(&mut self.delta_scratch);
        self.fill_delta(t, &mut scratch);
        self.delta_scratch = scratch;
        out.copy_from_slice(&self.state);
    }

    /// Emit only actual movers (sub-unit increments round to zero).
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
        let span = (self.hi - self.lo) as i64;
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            let z = standard_normal(rng) * self.sigma;
            let delta = (z.round() as i64).clamp(-span, span);
            let new = reflect(self.state[i], delta, self.lo, self.hi);
            if new != self.state[i] {
                self.state[i] = new;
                changes.push((NodeId(i as u32), new));
            }
        }
    }
}

/// Natively sparse random walk: per step only `⌈n · sparsity⌉` randomly
/// chosen nodes move (uniform step like [`RandomWalk`]); everyone else is
/// exactly constant. Unlike the per-node-RNG walks, a *counter-based*
/// generator (a splitmix64-style mix of a seed key and a running draw
/// counter — no sequential cipher state) drives the whole field, so
/// generating a step is `O(movers)` with one multiply-mix per mover —
/// combined with `step_sparse` the entire monitoring loop is independent
/// of `n` on quiet steps. This is the regime the paper's filter bound
/// targets: huge `n`, tiny active set.
///
/// Mover indices are drawn *stratified*: mover `j` is uniform on the slice
/// `[jn/m, (j+1)n/m)` of the id space, so the touched list is generated in
/// ascending order — no post-hoc sort or dedup (the `fill_delta` contract
/// requires sorted unique ids). Compared to i.i.d. index draws this pins
/// the mover count exactly and spreads movers across the fleet; for a
/// synthetic workload that is a feature, not a bias.
///
/// `fill_step` and `fill_delta` consume the draw counter identically, so
/// dense and delta-driven twins built from the same seed see the same
/// values.
#[derive(Debug, Clone)]
pub struct SparseWalk {
    lo: Value,
    hi: Value,
    step_max: u64,
    movers_per_step: usize,
    state: Vec<Value>,
    /// Counter-based RNG: `mix64(key ^ f(ctr))` per draw.
    key: u64,
    ctr: u64,
    /// Scratch: indices touched in the current step (ascending by
    /// construction — one stratum per mover).
    touched: Vec<u32>,
    initialized: bool,
}

/// The splitmix64 finalizer — a full-avalanche 64-bit mix, the standard
/// counter-based generator for simulation workloads.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SparseWalk {
    /// `sparsity` is the expected fraction of nodes moving per step,
    /// `0 < sparsity ≤ 1`; at least one node moves each step.
    pub fn new(n: usize, lo: Value, hi: Value, step_max: u64, sparsity: f64, seed: u64) -> Self {
        assert!(n > 0 && lo < hi && step_max >= 1);
        assert!(
            sparsity > 0.0 && sparsity <= 1.0,
            "sparsity must be in (0, 1], got {sparsity}"
        );
        // The packed single-draw advance (below) takes magnitudes from 31
        // bits; larger steps would be silently truncated.
        assert!(
            step_max < (1 << 31),
            "step_max must be < 2^31 (got {step_max}); the packed draw has 31 magnitude bits"
        );
        let movers_per_step = ((n as f64 * sparsity).round() as usize).clamp(1, n);
        SparseWalk {
            lo,
            hi,
            step_max,
            movers_per_step,
            state: vec![0; n],
            key: mix64(seed ^ 0x5bd1_e995_6000_0000),
            ctr: 0,
            touched: Vec::new(),
            initialized: false,
        }
    }

    /// Number of nodes moved per step.
    pub fn movers_per_step(&self) -> usize {
        self.movers_per_step
    }

    /// One counter-based draw: the stream is a pure function of
    /// `(seed, draw index)`, so state is two words and cloned walks stay in
    /// lockstep by construction.
    #[inline]
    fn draw(&mut self) -> u64 {
        self.ctr = self.ctr.wrapping_add(1);
        mix64(self.key ^ self.ctr.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn init(&mut self) {
        let span = self.hi - self.lo;
        for i in 0..self.state.len() {
            // Widening multiply maps the draw onto [lo, hi] (bias O(2⁻⁶⁴)).
            let h = self.draw();
            self.state[i] = self.lo + ((h as u128 * (span as u128 + 1)) >> 64) as u64;
        }
        self.initialized = true;
    }

    /// Advance one step: move `movers_per_step` random nodes, recording the
    /// touched indices in `self.touched` (ascending).
    ///
    /// One 64-bit counter-based draw decides a mover's index, magnitude,
    /// and direction — index from the high 32 bits via the widening
    /// multiply (Lemire) map onto the mover's stratum, magnitude a 31-bit
    /// modulo, direction bit 31; the biases are O(width/2³²) resp.
    /// O(step_max/2³¹) — negligible for the sizes the constructor admits.
    /// Stratification emits `touched` pre-sorted and duplicate-free, so the
    /// former ChaCha block generation *and* the touched-index sort are both
    /// gone from the hot path (perfbench's `silent-100k` workload reports
    /// this generator's cost as `streams.fill_delta_us.p50`).
    fn advance(&mut self) {
        let n = self.state.len() as u64;
        let m = self.movers_per_step as u64;
        let span = self.hi - self.lo;
        let step = self.step_max.min(span);
        self.touched.clear();
        for j in 0..m {
            let bits = self.draw();
            let stratum_lo = j * n / m;
            let width = (j + 1) * n / m - stratum_lo;
            let i = (stratum_lo + (((bits >> 32) * width) >> 32)) as usize;
            let mag = (1 + (bits & 0x7fff_ffff) % step) as i64;
            let delta = if bits & 0x8000_0000 != 0 { mag } else { -mag };
            self.state[i] = reflect(self.state[i], delta, self.lo, self.hi);
            self.touched.push(i as u32);
        }
        debug_assert!(self.touched.windows(2).all(|w| w[0] < w[1]));
    }
}

impl ValueFeed for SparseWalk {
    fn n(&self) -> usize {
        self.state.len()
    }

    fn fill_step(&mut self, _t: u64, out: &mut [Value]) {
        if !self.initialized {
            self.init();
        } else {
            self.advance();
        }
        out.copy_from_slice(&self.state);
    }

    fn fill_delta(&mut self, _t: u64, changes: &mut Vec<(NodeId, Value)>) {
        if !self.initialized {
            self.init();
            topk_net::behavior::emit_dense(changes, &self.state);
            return;
        }
        changes.clear();
        self.advance();
        // Touched nodes are emitted even when a reflection happens to land
        // on the old value — the superset contract permits it.
        let state = &self.state;
        changes.extend(self.touched.iter().map(|&i| (NodeId(i), state[i as usize])));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflect_stays_in_domain() {
        for pos in [0u64, 5, 10] {
            for delta in -10i64..=10 {
                let v = reflect(pos, delta, 0, 10);
                assert!(v <= 10, "pos={pos} delta={delta} -> {v}");
            }
        }
        assert_eq!(reflect(8, 5, 0, 10), 7); // 8+5=13 → reflect to 10-(3)=7
        assert_eq!(reflect(2, -5, 0, 10), 3); // 2-5=-3 → reflect to 0+3
    }

    #[test]
    fn walk_is_deterministic_and_bounded() {
        let run = |seed| {
            let mut w = RandomWalk::new(8, 100, 200, 5, 0.2, seed);
            let mut out = vec![0u64; 8];
            let mut rows = Vec::new();
            for t in 0..50 {
                w.fill_step(t, &mut out);
                assert!(out.iter().all(|&v| (100..=200).contains(&v)));
                rows.push(out.clone());
            }
            rows
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn walk_steps_are_bounded_by_step_max() {
        let mut w = RandomWalk::new(4, 0, 1_000_000, 10, 0.0, 3);
        let mut prev = vec![0u64; 4];
        let mut cur = vec![0u64; 4];
        w.fill_step(0, &mut prev);
        for t in 1..200 {
            w.fill_step(t, &mut cur);
            for i in 0..4 {
                let d = cur[i].abs_diff(prev[i]);
                assert!(d <= 10, "step {d} exceeds bound at t={t}");
            }
            prev.copy_from_slice(&cur);
        }
    }

    #[test]
    fn gaussian_walk_bounded_and_moves() {
        let mut w = GaussianWalk::new(4, 0, 10_000, 25.0, 11);
        let mut out = vec![0u64; 4];
        let mut moved = false;
        let mut last = vec![0u64; 4];
        w.fill_step(0, &mut last);
        for t in 1..100 {
            w.fill_step(t, &mut out);
            assert!(out.iter().all(|&v| v <= 10_000));
            moved |= out != last;
            last.copy_from_slice(&out);
        }
        assert!(moved, "walk must actually move");
    }

    /// Shared harness (see `crate::testutil`), 200 steps, no size cap.
    fn assert_delta_matches_dense(dense: impl ValueFeed, sparse: impl ValueFeed) {
        crate::testutil::assert_delta_matches_dense(dense, sparse, 200, None, "walk");
    }

    #[test]
    fn random_walk_delta_equals_dense() {
        let mk = || RandomWalk::new(12, 100, 900, 7, 0.6, 42);
        assert_delta_matches_dense(mk(), mk());
    }

    #[test]
    fn gaussian_walk_delta_equals_dense() {
        let mk = || GaussianWalk::new(9, 0, 5_000, 0.8, 13);
        assert_delta_matches_dense(mk(), mk());
    }

    #[test]
    fn sparse_walk_delta_equals_dense() {
        let mk = || SparseWalk::new(64, 0, 10_000, 16, 0.05, 7);
        assert_delta_matches_dense(mk(), mk());
    }

    #[test]
    fn sparse_walk_emits_few_movers() {
        let n = 1000;
        let mut w = SparseWalk::new(n, 0, 1 << 20, 32, 0.01, 5);
        assert_eq!(w.movers_per_step(), 10);
        let mut changes = Vec::new();
        w.fill_delta(0, &mut changes);
        assert_eq!(changes.len(), n, "first step emits everyone");
        for t in 1..100 {
            w.fill_delta(t, &mut changes);
            assert!(
                !changes.is_empty() && changes.len() <= 10,
                "t={t}: {} movers",
                changes.len()
            );
            assert!(changes.iter().all(|&(_, v)| v <= 1 << 20));
        }
    }

    #[test]
    fn sparse_walk_bounded_and_deterministic() {
        let run = |seed| {
            let mut w = SparseWalk::new(32, 50, 150, 5, 0.1, seed);
            let mut out = vec![0u64; 32];
            let mut rows = Vec::new();
            for t in 0..50 {
                w.fill_step(t, &mut out);
                assert!(out.iter().all(|&v| (50..=150).contains(&v)));
                rows.push(out.clone());
            }
            rows
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = substream_rng(1, 2);
        let samples = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..samples {
            let z = standard_normal(&mut rng);
            sum += z;
            sq += z * z;
        }
        let mean = sum / samples as f64;
        let var = sq / samples as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
