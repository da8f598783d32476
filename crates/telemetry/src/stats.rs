//! The workspace's one percentile estimator.
//!
//! `percentile_sorted` started life in `dnswild-analysis` and feeds the
//! figure pipelines, so its float behaviour must not change (the
//! `results/exp_*.txt` goldens depend on it byte for byte). It lives
//! here — the leaf of the dependency graph — so `netio::load` and the
//! telemetry histogram can share it instead of each carrying its own
//! nearest-rank variant; `analysis::stats` re-exports it unchanged.

/// Interpolated rank of percentile `p` (0–100, clamped) in a sorted
/// collection of `len` items: returns `(lo, hi, frac)` such that the
/// estimate is `v[lo] + (v[hi] - v[lo]) * frac` (linear interpolation
/// between closest ranks, the R type-7 / NumPy default).
pub fn interp_rank(len: usize, p: f64) -> (usize, usize, f64) {
    assert!(len > 0, "interp_rank of an empty collection");
    let p = p.clamp(0.0, 100.0);
    if len == 1 {
        return (0, 0, 0.0);
    }
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    (lo, hi, rank - lo as f64)
}

/// Percentile `p` (0–100) of an ascending-sorted slice, linearly
/// interpolated between the closest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    let (lo, hi, frac) = interp_rank(sorted.len(), p);
    if lo == hi {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Integer-sample variant (latency nanoseconds): interpolates in `f64`
/// and rounds to the nearest integer. Returns `None` when empty.
pub fn percentile_sorted_u64(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let (lo, hi, frac) = interp_rank(sorted.len(), p);
    if lo == hi {
        return Some(sorted[lo]);
    }
    let (a, b) = (sorted[lo] as f64, sorted[hi] as f64);
    Some((a + (b - a) * frac).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_and_midpoint() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 40.0);
        assert_eq!(percentile_sorted(&v, 50.0), 25.0);
        assert_eq!(percentile_sorted(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn clamps_out_of_range() {
        let v = [1.0, 2.0];
        assert_eq!(percentile_sorted(&v, -5.0), 1.0);
        assert_eq!(percentile_sorted(&v, 250.0), 2.0);
    }

    #[test]
    fn integer_variants_round() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(percentile_sorted_u64(&v, 0.0), Some(10));
        assert_eq!(percentile_sorted_u64(&v, 100.0), Some(40));
        assert_eq!(percentile_sorted_u64(&v, 50.0), Some(25));
        assert_eq!(percentile_sorted_u64(&[], 50.0), None);
        assert_eq!(percentile_sorted_u64(&[10, 11], 50.0), Some(11)); // 10.5 rounds up
    }

    #[test]
    fn interp_rank_matches_direct_lerp() {
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        for p in [0.0, 12.5, 50.0, 90.0, 99.0, 100.0] {
            assert!((percentile_sorted(&v, p) - p).abs() < 1e-9);
        }
    }
}
