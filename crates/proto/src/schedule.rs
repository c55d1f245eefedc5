//! Fire-round calendar — the one-draw schedule of the sampling protocols.
//!
//! Algorithm 2's participant flips a `2^r/N` coin in every round `r` until
//! it sends or deactivates, and *never acts again after sending* (§4). Its
//! observable behaviour is therefore fully determined by a single quantity,
//! the **first-send round**
//!
//! ```text
//! P(r* = r) = p_r · Π_{j<r} (1 − p_j),   p_j = min(1, 2^j / N),
//! ```
//!
//! which is a fixed distribution of the protocol bound `N` alone. A
//! participant can thus sample `r*` **once when the episode starts**
//! (inverse-CDF, one uniform draw) and tell the runtime exactly when it
//! will speak — the "know in advance when a node sends" discipline that the
//! top-k structures of Biermeier et al. (arXiv:1709.07259) use for
//! communication, applied here to compute time: a protocol round needs to
//! visit only that round's scheduled firers, not every active participant.
//!
//! Deactivation stays lazy: announcements a scheduled participant skipped
//! are applied when it is next polled (at `r*`, or earlier in a full-fanout
//! round). Since a dominating announcement only ever *clears* the send —
//! the per-round coins are independent of the announcement history — firing
//! iff `r* <` (the round the deactivating announcement would have been
//! applied) is observably identical to flipping the coins round by round.
//!
//! # Exactness
//!
//! The CDF is precomputed in 64-bit fixed point (survival carried in
//! 128-bit intermediates), so each round probability is honoured to within
//! `2⁻⁶⁴` absolute rounding per round — ~`2⁻⁶⁰` over a full 20-round
//! schedule, astronomically below what any statistical pin can resolve
//! (`tests/message_bounds.rs` averages hundreds of runs with ~2×
//! headroom). The structural guarantees are exact: `r*` is always
//! `≤ last_round()`, so the final round still sends with probability 1 and
//! the Las Vegas exactness of Theorem 4.1/4.2 and the k-select sweep is
//! untouched. Bounds of `N = 1` (probability-1 round 0) sample without
//! consuming randomness at all.

use rand::{Rng, RngCore};

use topk_net::rng::log2_ceil;

/// Precomputed first-send-round distribution for protocol bound `N` —
/// build once per `(protocol, N)`, share across all participants (the
/// monitoring layer keeps the three relevant instances in its shared
/// node-parameter block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FireDist {
    /// `cdf[r] = ⌊P(r* ≤ r) · 2⁶⁴⌋` for `r < last`; the final round is
    /// implicit (`r* = last` whenever the draw clears every entry), which
    /// is what makes the probability-1 round structural rather than
    /// numerical. Empty iff `last == 0` (bound 1): no draw needed.
    cdf: Vec<u64>,
    /// `start[b]` = the number of `cdf` entries `≤ b << 56`: where the scan
    /// of a draw whose top byte is `b` begins.
    start: [u8; 256],
    last: u32,
    n_bound: u64,
}

impl FireDist {
    /// The schedule for participant bound `n_bound ≥ 1` (Algorithm 2 runs
    /// rounds `0..=⌈log₂ n_bound⌉`; k-select callers pass
    /// [`crate::kselect::sampling_bound`]).
    pub fn for_bound(n_bound: u64) -> Self {
        assert!(n_bound >= 1, "protocol bound must be positive");
        let last = log2_ceil(n_bound);
        let one = 1u128 << 64;
        let mut survival = one; // Π_{j≤r} (1 − p_j), Q0.64
        let mut cdf = Vec::with_capacity(last as usize);
        for r in 0..last {
            // r < last ⇒ 2^r < n_bound, so the factor is in (0, 1).
            let miss = n_bound - (1u64 << r);
            survival = survival * miss as u128 / n_bound as u128;
            cdf.push((one - survival).min(u64::MAX as u128) as u64);
        }
        let mut start = [0u8; 256];
        for (b, s) in start.iter_mut().enumerate() {
            *s = cdf.partition_point(|&c| c <= (b as u64) << 56) as u8;
        }
        FireDist {
            cdf,
            start,
            last,
            n_bound,
        }
    }

    /// Index of the final round (send probability 1); `r*` never exceeds it.
    #[inline]
    pub fn last_round(&self) -> u32 {
        self.last
    }

    /// The bound this distribution was built for.
    #[inline]
    pub fn n_bound(&self) -> u64 {
        self.n_bound
    }

    /// Sample the first-send round: one uniform draw, zero draws when the
    /// schedule is a single probability-1 round (`n_bound = 1`).
    ///
    /// `r*` is the number of CDF entries `≤` the draw. The draw's top byte
    /// indexes a 256-entry table that already counts every entry `≤` that
    /// byte's floor, so the forward scan from there usually stops after
    /// one or two comparisons instead of touching all `⌈log₂N⌉` entries —
    /// the per-node cost of an episode start that fans out to every node.
    #[inline]
    pub fn sample(&self, rng: &mut impl RngCore) -> u32 {
        if self.cdf.is_empty() {
            return 0;
        }
        let u: u64 = rng.next_u64();
        // First r with u < cdf[r]; all entries cleared ⇒ the final round.
        let from = self.start[(u >> 56) as usize] as usize;
        (from + self.cdf[from..].iter().take_while(|&&c| c <= u).count()) as u32
    }

    /// Exact per-round probabilities of the underlying coin chain, in `f64`
    /// (reference for tests and analysis — sampling never touches floats).
    pub fn reference_pmf(&self) -> Vec<f64> {
        let n = self.n_bound as f64;
        let mut pmf = Vec::with_capacity(self.last as usize + 1);
        let mut survival = 1.0f64;
        for r in 0..=self.last {
            let p = ((1u64 << r.min(63)) as f64 / n).min(1.0);
            pmf.push(survival * p);
            survival *= 1.0 - p;
        }
        pmf
    }
}

/// Simulate the per-round coin chain with [`bernoulli_pow2`] draws — the
/// pre-calendar sampling loop, kept as the reference implementation the
/// one-draw schedule is tested against.
///
/// [`bernoulli_pow2`]: topk_net::rng::bernoulli_pow2
pub fn chain_first_send_round(n_bound: u64, rng: &mut impl Rng) -> u32 {
    let last = log2_ceil(n_bound);
    for r in 0..last {
        if topk_net::rng::bernoulli_pow2(rng, r, n_bound) {
            return r;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::rng::{substream_rng, CounterRng};

    #[test]
    fn bound_one_samples_round_zero_without_drawing() {
        let dist = FireDist::for_bound(1);
        assert_eq!(dist.last_round(), 0);
        let mut rng = CounterRng::substream(1, 1);
        for _ in 0..32 {
            assert_eq!(dist.sample(&mut rng), 0);
        }
        assert_eq!(rng.draws(), 0, "probability-1 schedules must not draw");
    }

    #[test]
    fn sample_always_within_schedule() {
        for n in [1u64, 2, 3, 7, 8, 100, 1 << 17] {
            let dist = FireDist::for_bound(n);
            let mut rng = substream_rng(5, n);
            for _ in 0..200 {
                assert!(dist.sample(&mut rng) <= dist.last_round(), "n={n}");
            }
        }
    }

    /// Hands out one fixed draw.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The table-started scan returns exactly the count of CDF entries
    /// `≤ u` at every edge a draw can sit on: both ends of the range, each
    /// entry and its neighbours, and each table boundary.
    #[test]
    fn table_driven_sample_counts_cdf_entries_exactly() {
        for n in [2u64, 3, 37, 1024, 11_111, (1 << 20) - 3] {
            let dist = FireDist::for_bound(n);
            let mut draws = vec![0, u64::MAX];
            for &c in &dist.cdf {
                draws.extend([c.wrapping_sub(1), c, c.wrapping_add(1)]);
            }
            for b in 0..256u64 {
                draws.extend([(b << 56).wrapping_sub(1), b << 56]);
            }
            for u in draws {
                let want = dist.cdf.iter().filter(|&&c| c <= u).count() as u32;
                assert_eq!(dist.sample(&mut Fixed(u)), want, "n={n} u={u:#x}");
            }
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_below_one() {
        for n in [2u64, 3, 37, 1024, (1 << 20) - 3] {
            let dist = FireDist::for_bound(n);
            assert!(dist.cdf.windows(2).all(|w| w[0] <= w[1]), "n={n}");
            assert_eq!(dist.cdf.len() as u32, dist.last_round());
        }
    }

    /// The one-draw inverse CDF matches the per-round Bernoulli chain to
    /// statistical accuracy on every round of the schedule.
    #[test]
    fn one_draw_schedule_matches_coin_chain_distribution() {
        for n in [3u64, 8, 37, 256] {
            let dist = FireDist::for_bound(n);
            let pmf = dist.reference_pmf();
            assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);

            let trials = 60_000u32;
            let mut sched_counts = vec![0u32; pmf.len()];
            let mut chain_counts = vec![0u32; pmf.len()];
            let mut rng_s = substream_rng(7, n);
            let mut rng_c = substream_rng(8, n);
            for _ in 0..trials {
                sched_counts[dist.sample(&mut rng_s) as usize] += 1;
                chain_counts[chain_first_send_round(n, &mut rng_c) as usize] += 1;
            }
            for (r, &p) in pmf.iter().enumerate() {
                let got = sched_counts[r] as f64 / trials as f64;
                let chain = chain_counts[r] as f64 / trials as f64;
                // Binomial std dev at 60k trials is ≤ ~0.002; allow 4σ-ish.
                let tol = 0.009;
                assert!(
                    (got - p).abs() < tol,
                    "n={n} r={r}: schedule freq {got:.4} vs exact {p:.4}"
                );
                assert!(
                    (got - chain).abs() < 2.0 * tol,
                    "n={n} r={r}: schedule freq {got:.4} vs chain {chain:.4}"
                );
            }
        }
    }

    /// The expected first-send round is dominated by the late rounds (the
    /// survival product stays near 1 until `2^r ≈ N`) — a sanity pin that
    /// the distribution is the protocol's, not, say, a geometric.
    #[test]
    fn mass_concentrates_near_the_final_rounds() {
        let dist = FireDist::for_bound(1 << 16);
        let pmf = dist.reference_pmf();
        let tail: f64 = pmf[pmf.len() - 4..].iter().sum();
        assert!(
            tail > 0.8,
            "last 4 of {} rounds should carry most mass, got {tail:.3}",
            pmf.len()
        );
    }
}
