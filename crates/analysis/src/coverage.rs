//! Figure 2: how many queries it takes a recursive to probe *all*
//! authoritatives, and what share of recursives ever do.

use std::collections::HashSet;

use dnswild_atlas::MeasurementResult;

use crate::stats::BoxStats;

/// Per-configuration coverage summary (one box of Figure 2).
#[derive(Debug, Clone)]
pub struct CoverageSummary {
    /// Configuration label, e.g. `"2A"`.
    pub config: String,
    /// Number of authoritatives in the deployment.
    pub ns_count: usize,
    /// VPs with at least one successful probe.
    pub vp_count: usize,
    /// Percentage of those VPs whose recursive queried every
    /// authoritative at least once during the run (the x-axis labels of
    /// Figure 2: 75–96% in the paper).
    pub pct_reaching_all: f64,
    /// Among VPs that reached all: the number of queries *after the
    /// first* needed to see every authoritative (the boxes of Figure 2).
    pub queries_after_first: Option<BoxStats>,
}

/// Queries-after-the-first until all authoritatives were seen, per VP.
/// `None` when the VP never saw them all.
pub fn queries_to_cover(vp_probes: &[(u32, &str)], ns_count: usize) -> Option<u32> {
    let mut seen: HashSet<&str> = HashSet::new();
    for (i, (_round, auth)) in vp_probes.iter().enumerate() {
        seen.insert(auth);
        if seen.len() == ns_count {
            return Some(i as u32); // i probes after the first (0-based index)
        }
    }
    None
}

/// Computes the Figure 2 summary for one measurement.
pub fn coverage(result: &MeasurementResult) -> CoverageSummary {
    let ns_count = result.deployment.ns_count();
    let mut covered: Vec<f64> = Vec::new();
    let mut vp_count = 0usize;
    for vp in &result.vps {
        if vp.probes.is_empty() {
            continue;
        }
        vp_count += 1;
        let seq: Vec<(u32, &str)> =
            vp.probes.iter().map(|p| (p.round, &*p.auth)).collect();
        if let Some(n) = queries_to_cover(&seq, ns_count) {
            covered.push(n as f64);
        }
    }
    let pct_reaching_all =
        if vp_count == 0 { 0.0 } else { covered.len() as f64 / vp_count as f64 * 100.0 };
    CoverageSummary {
        config: result.deployment.name.clone(),
        ns_count,
        vp_count,
        pct_reaching_all,
        queries_after_first: BoxStats::of(&covered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_immediately_with_two() {
        // First query A, second query B: 1 query after the first.
        let probes = [(0, "A"), (1, "B"), (2, "A")];
        assert_eq!(queries_to_cover(&probes, 2), Some(1));
    }

    #[test]
    fn cover_on_first_impossible_with_two() {
        let probes = [(0, "A")];
        assert_eq!(queries_to_cover(&probes, 2), None);
    }

    #[test]
    fn never_covering() {
        let probes = [(0, "A"), (1, "A"), (2, "A")];
        assert_eq!(queries_to_cover(&probes, 2), None);
    }

    #[test]
    fn four_auth_coverage() {
        let probes =
            [(0, "A"), (1, "B"), (2, "A"), (3, "C"), (4, "B"), (5, "D")];
        assert_eq!(queries_to_cover(&probes, 4), Some(5));
    }

    #[test]
    fn end_to_end_small_measurement() {
        use dnswild_atlas::{run_measurement, MeasurementConfig, StandardConfig};
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2A, 80, 11);
        cfg.rounds = 20;
        let result = run_measurement(&cfg);
        let summary = coverage(&result);
        assert_eq!(summary.config, "2A");
        assert_eq!(summary.ns_count, 2);
        // Paper: 75–96% of recursives query all authoritatives. Our mix
        // should land in a similar band (sticky resolvers are the gap).
        assert!(
            summary.pct_reaching_all > 70.0,
            "coverage too low: {:.1}%",
            summary.pct_reaching_all
        );
        let b = summary.queries_after_first.expect("some VPs covered");
        // With two authoritatives, half the recursives see both by their
        // second query (median = 1 in the paper).
        assert!(b.median <= 3.0, "median queries-to-cover {b:?}");
    }
}
