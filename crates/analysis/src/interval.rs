//! Figure 6: how the query interval (2–30 minutes) affects preference,
//! probing the infrastructure-cache expiry of the resolver population.

use dnswild_atlas::MeasurementResult;
use dnswild_netsim::Continent;

/// One point of Figure 6: fraction of a continent's queries going to the
/// target authoritative at one probing interval.
#[derive(Debug, Clone)]
pub struct IntervalPoint {
    /// Query interval in minutes.
    pub interval_min: u64,
    /// Continent.
    pub continent: Continent,
    /// Fraction of hot-cache queries to the target authoritative.
    pub fraction: f64,
    /// Queries contributing.
    pub queries: u64,
}

/// Computes the per-continent fraction of queries going to `target_auth`
/// for a set of measurements taken at different intervals.
pub fn interval_sweep(
    results: &[(u64, &MeasurementResult)],
    target_auth: &str,
) -> Vec<IntervalPoint> {
    let mut points = Vec::new();
    for &(interval_min, result) in results {
        let ns_count = result.deployment.ns_count();
        for &continent in &Continent::ALL {
            let mut to_target = 0u64;
            let mut total = 0u64;
            for vp in result.vps.iter().filter(|v| v.continent == continent) {
                // Hot-cache restriction, consistent with the other figures.
                let mut seen = std::collections::HashSet::new();
                let mut start = None;
                for (i, p) in vp.probes.iter().enumerate() {
                    seen.insert(&*p.auth);
                    if seen.len() == ns_count {
                        start = Some(i + 1);
                        break;
                    }
                }
                let Some(start) = start else { continue };
                for p in &vp.probes[start..] {
                    total += 1;
                    if *p.auth == *target_auth {
                        to_target += 1;
                    }
                }
            }
            if total > 0 {
                points.push(IntervalPoint {
                    interval_min,
                    continent,
                    fraction: to_target as f64 / total as f64,
                    queries: total,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_atlas::{run_measurement, MeasurementConfig, StandardConfig};
    use dnswild_netsim::SimDuration;

    #[test]
    fn preference_weakens_but_persists_at_long_intervals() {
        // The paper's Figure 6 finding: frequent probing sharpens the
        // preference; at 30-minute intervals (beyond BIND's 10-minute and
        // Unbound's 15-minute infra timeouts) it weakens but persists.
        let run = |minutes: u64| {
            let mut cfg = MeasurementConfig::quick(StandardConfig::C2C, 150, 61);
            cfg.interval = SimDuration::from_mins(minutes);
            cfg.rounds = 16;
            run_measurement(&cfg)
        };
        let fast = run(2);
        let slow = run(30);
        let results = vec![(2u64, &fast), (30u64, &slow)];
        let points = interval_sweep(&results, "FRA");

        let eu_at = |min: u64| {
            points
                .iter()
                .find(|p| p.interval_min == min && p.continent == Continent::Eu)
                .map(|p| p.fraction)
                .expect("EU point present")
        };
        let at2 = eu_at(2);
        let at30 = eu_at(30);
        assert!(at2 > 0.7, "EU fraction to FRA at 2min should be strong, got {at2:.2}");
        assert!(
            at30 > 0.5,
            "preference persists past cache expiry (PowerDNS-likes + sticky), got {at30:.2}"
        );
        assert!(
            at2 > at30,
            "frequent probing should sharpen preference: {at2:.2} vs {at30:.2}"
        );
    }
}
