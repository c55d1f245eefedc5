//! Deterministic randomness plumbing.
//!
//! Experiments must be exactly reproducible from a single master seed, and
//! the sequential simulator and the socket runtime must draw *identical*
//! coin-flip sequences. Both follow from giving every stream owner its own
//! independent substream derived from the master seed by SplitMix64 mixing:
//! within one node the draw order is fully determined by the protocol
//! schedule, independent of thread interleaving. Two substream flavours
//! exist:
//!
//! * [`substream_rng`] — a [`ChaCha12Rng`] stream (generators and harness
//!   code that draw heavily);
//! * [`CounterRng`] — a two-word counter-based splitmix64 stream for hot
//!   per-node state (`topk_core::NodeMachine`-style): state is just
//!   `(key, counter)`, each draw one multiply-mix, no cipher blocks. The
//!   fire-round calendar draws **once per protocol episode**, so the cheap
//!   mix is statistically ample and the node struct stays flat.
//!
//! The paper's nodes flip coins with success probability exactly `2^r / N`;
//! [`bernoulli_pow2`] implements that as an exact integer draw (no floating
//! point), skipping the draw entirely in probability-1 rounds.

use rand::Rng;
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// SplitMix64 — the standard 64-bit seed mixer (Steele et al.).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive a statistically independent substream seed from `(master, stream)`.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream.wrapping_add(0xa076_1d64_78bd_642f)))
}

/// Construct the RNG for substream `stream` of `master`.
pub fn substream_rng(master: u64, stream: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(derive_seed(master, stream))
}

/// The splitmix64 finalizer — a full-avalanche 64-bit mix, the standard
/// counter-based generator for simulation workloads (same mix the
/// `SparseWalk` generator uses).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two-word counter-based splitmix64 substream: draw `i` is the pure
/// function `mix64(key ^ (i+1)·φ)` of `(key, i)`, so state is 16 bytes,
/// cloning never entangles streams, and a draw is one multiply-mix — no
/// cipher state to initialize or advance. This is the per-node RNG of the
/// flat node layout: the fire-round calendar needs one draw per protocol
/// episode, so stream quality requirements are mild and construction cost
/// (the dominant term at n = 10⁶ nodes) is two arithmetic ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
    ctr: u64,
}

impl CounterRng {
    /// The counter substream `stream` of `master` (same `(master, stream)`
    /// derivation as [`substream_rng`], different generator).
    pub fn substream(master: u64, stream: u64) -> Self {
        CounterRng {
            key: derive_seed(master, stream),
            ctr: 0,
        }
    }

    /// Number of 64-bit draws consumed so far — the witness for the
    /// "probability-1 episodes perform zero draws" contract.
    #[inline]
    pub fn draws(&self) -> u64 {
        self.ctr
    }
}

impl RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.ctr = self.ctr.wrapping_add(1);
        mix64(self.key ^ self.ctr.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// One exact Bernoulli trial with success probability `min(1, 2^r / n_bound)`.
///
/// Implemented as a uniform draw from `0..n_bound` compared against
/// `min(2^r, n_bound)` — an exact rational probability, as the model's nodes
/// are specified to support. Probability-1 trials (the protocol's final
/// round, and every round of an `n_bound = 1` participant) return `true`
/// without touching the RNG: the draw could not change the outcome, so
/// skipping it is free determinism (all runtimes skip identically).
#[inline]
pub fn bernoulli_pow2(rng: &mut impl Rng, r: u32, n_bound: u64) -> bool {
    debug_assert!(n_bound >= 1);
    let threshold = if r >= 63 {
        n_bound
    } else {
        (1u64 << r).min(n_bound)
    };
    if threshold >= n_bound {
        return true;
    }
    rng.gen_range(0..n_bound) < threshold
}

/// `⌈log₂ n⌉` for `n ≥ 1`; the number of the *last* protocol round (rounds
/// run `0..=log2_ceil(n)` — the last round has success probability 1).
#[inline]
pub fn log2_ceil(n: u64) -> u32 {
    debug_assert!(n >= 1);
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
        assert_eq!(log2_ceil(u64::MAX), 64);
    }

    #[test]
    fn final_round_probability_is_one() {
        // At r = log2_ceil(n), threshold = min(2^r, n) = n, so the trial
        // always succeeds.
        let mut rng = substream_rng(42, 0);
        for n in [1u64, 2, 3, 7, 8, 1000] {
            let r = log2_ceil(n);
            for _ in 0..50 {
                assert!(bernoulli_pow2(&mut rng, r, n), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn round_zero_probability_roughly_one_over_n() {
        let mut rng = substream_rng(7, 1);
        let n = 64u64;
        let trials = 200_000;
        let mut hits = 0u64;
        for _ in 0..trials {
            if bernoulli_pow2(&mut rng, 0, n) {
                hits += 1;
            }
        }
        let p = hits as f64 / trials as f64;
        let expect = 1.0 / n as f64;
        assert!((p - expect).abs() < 0.005, "p={p} expected≈{expect}");
    }

    #[test]
    fn substreams_differ_and_are_deterministic() {
        let mut a1 = substream_rng(1, 10);
        let mut a2 = substream_rng(1, 10);
        let mut b = substream_rng(1, 11);
        let xs1: Vec<u64> = (0..8).map(|_| a1.gen()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs1, xs2, "same (master, stream) must reproduce");
        assert_ne!(xs1, ys, "distinct streams must differ");
    }

    #[test]
    fn probability_one_trials_skip_the_draw() {
        // A counting RNG witnesses that no randomness is consumed when the
        // outcome is forced.
        let mut rng = CounterRng::substream(1, 2);
        for n in [1u64, 2, 8, 1000] {
            let r = log2_ceil(n);
            assert!(bernoulli_pow2(&mut rng, r, n));
            assert!(
                bernoulli_pow2(&mut rng, r + 7, n),
                "beyond-final rounds too"
            );
        }
        assert_eq!(rng.draws(), 0, "probability-1 rounds must not draw");
        // A genuine coin flip does draw.
        let _ = bernoulli_pow2(&mut rng, 0, 8);
        assert!(rng.draws() >= 1);
    }

    #[test]
    fn counter_rng_is_deterministic_and_stream_separated() {
        let mut a1 = CounterRng::substream(3, 5);
        let mut a2 = CounterRng::substream(3, 5);
        let mut b = CounterRng::substream(3, 6);
        let xs1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs1, xs2);
        assert_ne!(xs1, ys);
        assert_eq!(a1.draws(), 8);
        // Clones fork the stream without entanglement: the clone replays
        // the original's future exactly (counter-based purity).
        let c = a1.clone();
        assert_eq!(a1.next_u64(), c.clone().next_u64());
    }

    #[test]
    fn counter_rng_uniformity_rough() {
        let mut rng = CounterRng::substream(11, 0);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn splitmix_spreads_small_inputs() {
        let outs: Vec<u64> = (0..16).map(splitmix64).collect();
        let mut uniq = outs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), outs.len());
    }
}
