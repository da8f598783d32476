//! The workspace's one streaming histogram: log₂ major buckets with 32
//! linear sub-buckets each, giving ≤ ~3% relative error over the full
//! `u64` range in a fixed footprint of atomics. Recording is wait-free
//! (three `fetch_add`s and a `fetch_max`), so any number of producers
//! can feed it while a scrape or the drain thread reads it.
//!
//! The metrics registry (`dnswild_metrics` re-exports this type)
//! renders it as a Prometheus histogram, so a percentile scraped over
//! HTTP and one read off `Registry::value_at` are quantised the same
//! way. For exposition it also carries a running
//! value *sum* and cumulative counts at power-of-two `le` bounds
//! (powers of two are exact bucket boundaries of the table, so the
//! cumulative counts never straddle a bucket).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::interp_rank;

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32 sub-buckets per major bucket
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB as usize + SUB as usize;

/// Power-of-two `le` exponents rendered for each histogram: 256 ns up
/// to ~17 s, factor-of-two steps. Wide enough for per-stage span times
/// (tens of ns .. µs) and full round-trip latencies (µs .. s).
const LE_EXPONENTS: std::ops::RangeInclusive<u32> = 8..=34;

#[derive(Debug)]
pub struct LogHistogram {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - u64::from(v.leading_zeros()); // ≥ SUB_BITS
        let major = msb - u64::from(SUB_BITS) + 1;
        (major * SUB + (v >> (msb - u64::from(SUB_BITS))) - SUB) as usize
    }

    /// Midpoint of the value range bucket `i` covers.
    fn value_of(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let major = i / SUB; // ≥ 1
        let sub = i % SUB;
        let low = (SUB + sub) << (major - 1);
        let width = 1u64 << (major - 1);
        low + width / 2
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate percentile `p` (0–100): walks the cumulative counts
    /// to the rank the shared estimator picks and returns that bucket's
    /// midpoint. `None` when nothing has been recorded.
    pub fn value_at(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let (target, _, _) = interp_rank(total as usize, p);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum > target as u64 {
                return Some(Self::value_of(i).min(self.max()));
            }
        }
        Some(self.max())
    }

    /// `(le_bound, cumulative_count)` pairs at power-of-two bounds, in
    /// ascending order. Each bound is an exact bucket boundary of the
    /// table, so the cumulative count is the exact number of recorded
    /// values strictly below the bound.
    pub fn cumulative_le(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(LE_EXPONENTS.size_hint().0);
        let mut cum = 0u64;
        let mut next_bucket = 0usize;
        for exp in LE_EXPONENTS {
            let bound = 1u64 << exp;
            let end = Self::index(bound);
            for c in &self.counts[next_bucket..end] {
                cum += c.load(Ordering::Relaxed);
            }
            next_bucket = end;
            out.push((bound, cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_value_stay_within_error_bound() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 123_456, u32::MAX as u64, 1 << 60] {
            let rep = LogHistogram::value_of(LogHistogram::index(v));
            let err = rep.abs_diff(v) as f64 / (v.max(1)) as f64;
            assert!(err <= 0.04, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn index_is_monotone_in_value() {
        let mut last = 0usize;
        // The chained powers must continue upward from the dense range
        // (the walk tracks a single running maximum).
        for v in (0..10_000u64).chain((14..63).map(|s| 1u64 << s)) {
            let i = LogHistogram::index(v);
            if v > 0 {
                assert!(i >= last, "index not monotone at v={v}");
            }
            last = i;
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000); // 1µs .. 10ms ramp
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000_000);
        let p50 = h.value_at(50.0).unwrap();
        let p99 = h.value_at(99.0).unwrap();
        assert!((p50 as f64 - 5_000_000.0).abs() / 5_000_000.0 < 0.05, "p50={p50}");
        assert!((p99 as f64 - 9_900_000.0).abs() / 9_900_000.0 < 0.05, "p99={p99}");
        assert!(h.value_at(100.0).unwrap() <= h.max());
        assert!(LogHistogram::new().value_at(50.0).is_none());
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.cumulative_le().iter().all(|&(_, c)| c == 0));
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.value_at(p), None, "p={p}");
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = LogHistogram::new();
        h.record(123_456);
        for p in [0.0, 50.0, 99.9, 100.0] {
            let v = h.value_at(p).unwrap();
            // One sample: every percentile is that sample, up to the
            // ≤ ~3% bucket quantisation (and clamped to the exact max).
            assert!(v <= 123_456 && v.abs_diff(123_456) as f64 / 123_456.0 <= 0.04, "p={p} v={v}");
        }
        assert_eq!(h.value_at(100.0).unwrap(), h.max());
        assert_eq!(h.sum(), 123_456);
    }

    #[test]
    fn all_equal_samples_collapse_to_one_bucket() {
        let h = LogHistogram::new();
        for _ in 0..500 {
            h.record(42_000);
        }
        assert_eq!(h.count(), 500);
        let i = LogHistogram::index(42_000);
        assert_eq!(h.counts[i].load(Ordering::Relaxed), 500);
        let p1 = h.value_at(1.0).unwrap();
        let p99 = h.value_at(99.0).unwrap();
        assert_eq!(p1, p99, "degenerate distribution must have zero spread");
        assert_eq!(h.sum(), 500 * 42_000);
    }

    #[test]
    fn cumulative_le_is_exact_at_power_of_two_boundaries() {
        let h = LogHistogram::new();
        for _ in 0..500 {
            h.record(4_096); // an exact bucket boundary
        }
        // Everything below 2^13, nothing below 2^12.
        let le: std::collections::BTreeMap<u64, u64> = h.cumulative_le().into_iter().collect();
        assert_eq!(le[&(1 << 12)], 0);
        assert_eq!(le[&(1 << 13)], 500);
    }

    #[test]
    fn cumulative_le_is_monotone_and_ends_at_count() {
        let h = LogHistogram::new();
        for v in [1u64, 300, 5_000, 70_000, 1 << 20, (1 << 34) + 1] {
            h.record(v);
        }
        let le = h.cumulative_le();
        for w in le.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1, "monotone: {w:?}");
        }
        // Everything except the sample beyond the last bound.
        assert_eq!(le.last().unwrap().1, 5);
        assert_eq!(h.count(), 6);
    }
}
