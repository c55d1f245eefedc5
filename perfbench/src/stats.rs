//! Order statistics shared by the run loop, the repetition report and
//! `--compare`.

/// Nearest-rank percentile, `p` in `[0, 1]` (`0.0` for no values).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here equals the one a Python reader computes from
/// the same values. Fewer than two values give that value three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (d[0], d[0], d[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                d[j - 1] + (d[j] - d[j - 1]) * delta
            };
            let mid = if len % 2 == 1 {
                d[len / 2]
            } else {
                (d[len / 2 - 1] + d[len / 2]) / 2.0
            };
            (cut(1), mid, cut(3))
        }
    }
}

/// Interquartile distance as a share of the median (`0.0` when the median
/// is `0`).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Log-bucketed latency histogram: fixed memory whatever the sample count
/// (so a run's `peak_rss_mb` does not depend on how many steps it made),
/// 0.1 % relative resolution from 10 ns to 100 s.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_us: f64,
}

const HIST_MIN_US: f64 = 0.01;
const HIST_GROWTH: f64 = 1.001;
/// `ln(100 s / 10 ns) / ln(1.001)`, rounded up.
const HIST_BUCKETS: usize = 23_038;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
            sum_us: 0.0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, us: f64) {
        let idx = ((us / HIST_MIN_US).ln() / HIST_GROWTH.ln()).max(0.0) as usize;
        self.counts[idx.min(HIST_BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum_us += us;
    }

    /// Sum of the recorded values, exact (not bucketed).
    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Nearest-rank percentile (`0.0` when empty). The samples of a bucket
    /// are taken as spread evenly across it, so the result moves with the
    /// rank instead of snapping to one value per bucket.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let within = (rank - below) as f64 - 0.5;
                return HIST_MIN_US * HIST_GROWTH.powf(idx as f64 + within / c as f64);
            }
            below += c;
        }
        unreachable!("rank ≤ total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_resolution() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.sum_us(), 500_500.0);
        for (p, want) in [(0.5, 500.0), (0.99, 990.0), (1.0, 1000.0)] {
            let got = h.percentile(p);
            assert!((got / want - 1.0).abs() < 1e-3, "p{p}: {got} vs {want}");
        }
        assert_eq!(Histogram::default().percentile(0.5), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
