//! Order statistics over small sample sets. Everything the benchmark
//! reports is a median, a percentile or a geometric mean of per-round
//! values, so the estimators live in one place and are unit-tested.

/// Sorts a copy of `values` ascending (NaNs are a bug in the caller).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median (mean of the two middle samples for even counts); NaN if empty.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Percentile of integer nanosecond samples, returned in microseconds.
/// Sorts `samples` in place (the caller is done with their order).
pub fn percentile_ns_as_us(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable();
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    f64::from(samples[idx.min(samples.len() - 1)]) / 1e3
}

/// Geometric mean; NaN if empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Five-number summary plus the sample count, as `result.json` carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            min: s.first().copied().unwrap_or(f64::NAN),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// Half-width, relative to the median, of the interval in which a
    /// repeat of this run's median is expected: the standard error of a
    /// median (1.2533·σ/√n) with σ estimated from the quartile distance
    /// (IQR/1.349), doubled. `compare` calls a difference smaller than this
    /// unresolved rather than unchanged.
    pub fn median_spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            return 0.0;
        }
        let sigma = (self.q3 - self.q1) / 1.349;
        (2.0 * 1.2533 * sigma / (self.n as f64).sqrt() / self.median).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_degenerate_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[10.0, 11.0, 12.0, 13.0, 900.0]), 12.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert!((quantile_sorted(&v, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn integer_percentile_picks_a_recorded_sample() {
        let mut ns: Vec<u32> = (1..=100).map(|i| i * 1000).collect();
        ns.reverse();
        assert_eq!(percentile_ns_as_us(&mut ns, 50.0), 51.0);
        assert_eq!(percentile_ns_as_us(&mut ns, 99.0), 99.0);
        assert!(percentile_ns_as_us(&mut [], 50.0).is_nan());
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn summary_matches_python_inclusive_quartiles() {
        // statistics.quantiles(range(1, 10), n=4, method="inclusive")
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max), (9, 1.0, 9.0));
        assert_eq!((s.q1, s.median, s.q3), (3.0, 5.0, 7.0));
    }

    #[test]
    fn median_spread_shrinks_with_more_rounds() {
        let few = Summary::of(&[9.0, 10.0, 11.0, 12.0]);
        let many: Vec<f64> = (0..64).map(|i| 9.0 + f64::from(i % 4)).collect();
        assert!(Summary::of(&many).median_spread() < few.median_spread());
        assert_eq!(Summary::of(&[5.0]).median_spread(), 0.0);
    }
}
