//! Log2-bucketed latency histogram.
//!
//! Values (nanoseconds by convention) are binned into 64 power-of-two
//! buckets: bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 also absorbs 0).
//! Recording is a single relaxed atomic increment, so a histogram can be
//! shared freely across the guest, router and server threads. Percentile
//! estimates are exact to within one bucket (~2× resolution), which is
//! ample for attributing microseconds-to-milliseconds forwarding latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// Index of the bucket covering `v`: `floor(log2(v))`, with 0 and 1
/// sharing bucket 0.
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive lower and exclusive upper bound of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < BUCKETS);
    if i == 0 {
        (0, 2)
    } else if i == BUCKETS - 1 {
        (1 << i, u64::MAX)
    } else {
        (1 << i, 1 << (i + 1))
    }
}

struct Inner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A shareable, lock-free latency histogram handle.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Non-destructive snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.inner;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`). The estimate is the
    /// midpoint of the bucket containing the rank-`ceil(q·count)` sample,
    /// clamped to the exact maximum, so it always falls within one bucket
    /// of the true value and is monotone in `q`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo.max(1)), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi - 1), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let h = Histogram::new();
        for v in [1u64, 5, 9, 100, 1000, 10_000, 1_000_000, 30_000_000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let s = h.snapshot();
        let p50 = s.percentile(0.50);
        let p95 = s.percentile(0.95);
        let p99 = s.percentile(0.99);
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        assert!(p99 <= s.max, "p99 {p99} > max {}", s.max);
    }

    #[test]
    fn max_is_exact_and_clamps_estimates() {
        let h = Histogram::new();
        h.record(1000); // bucket [512, 1024): midpoint 768
        let s = h.snapshot();
        assert_eq!(s.max, 1000);
        assert_eq!(s.percentile(1.0), 768);
        let h = Histogram::new();
        h.record(600); // same bucket, midpoint 768 > max 600 → clamp
        assert_eq!(h.snapshot().percentile(0.5), 600);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
