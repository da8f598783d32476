//! Figure 3: the share of queries each authoritative receives, against
//! the median RTT recursives see to it.

use std::collections::HashMap;

use dnswild_atlas::MeasurementResult;

use crate::stats::{median, percentile};

/// One bar (and the matching RTT point) of Figure 3.
#[derive(Debug, Clone)]
pub struct AuthShare {
    /// Authoritative code.
    pub auth: String,
    /// Fraction of hot-cache queries that went to this authoritative.
    pub share: f64,
    /// Median RTT from recursives to this authoritative, milliseconds
    /// (measured at the recursives, as real infrastructure caches do).
    pub median_rtt_ms: Option<f64>,
    /// 90th-percentile RTT to this authoritative — the tail §7's
    /// "worst-case latency" recommendation is about.
    pub p90_rtt_ms: Option<f64>,
}

/// Index of the first probe at which a VP had seen every authoritative;
/// used to restrict analysis to the hot-cache regime like §4.2.
fn hot_cache_start(probes: &[dnswild_atlas::ProbeRecord], ns_count: usize) -> Option<usize> {
    let mut seen = std::collections::HashSet::new();
    for (i, p) in probes.iter().enumerate() {
        seen.insert(&*p.auth);
        if seen.len() == ns_count {
            return Some(i + 1); // analysis starts after this probe
        }
    }
    None
}

/// Computes per-authoritative query share (hot-cache only) and median
/// recursive-side RTT.
pub fn query_share(result: &MeasurementResult) -> Vec<AuthShare> {
    let ns_count = result.deployment.ns_count();
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for vp in &result.vps {
        let Some(start) = hot_cache_start(&vp.probes, ns_count) else {
            continue;
        };
        for p in &vp.probes[start..] {
            *counts.entry(&*p.auth).or_default() += 1;
        }
    }
    let total: u64 = counts.values().sum();

    // RTT samples from the resolvers, keyed by authoritative code.
    let mut rtts: HashMap<&str, Vec<f64>> = HashMap::new();
    for vp in &result.vps {
        for s in &vp.samples {
            if let Some(code) = result.addr_to_auth.get(&s.server) {
                rtts.entry(code.as_str()).or_default().push(s.rtt.as_millis_f64());
            }
        }
    }

    result
        .deployment
        .authoritatives
        .iter()
        .map(|spec| {
            let code = spec.code.as_str();
            let share = if total == 0 {
                0.0
            } else {
                counts.get(code).copied().unwrap_or(0) as f64 / total as f64
            };
            AuthShare {
                auth: spec.code.clone(),
                share,
                median_rtt_ms: rtts.get(code).and_then(|v| median(v)),
                p90_rtt_ms: rtts.get(code).and_then(|v| percentile(v, 90.0)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_atlas::{run_measurement, MeasurementConfig, StandardConfig};

    #[test]
    fn shares_sum_to_one_and_fast_wins() {
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2C, 120, 21);
        cfg.rounds = 15;
        let result = run_measurement(&cfg);
        let shares = query_share(&result);
        assert_eq!(shares.len(), 2);
        let total: f64 = shares.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum {total}");

        let fra = shares.iter().find(|s| s.auth == "FRA").unwrap();
        let syd = shares.iter().find(|s| s.auth == "SYD").unwrap();
        // The population is EU-heavy, so FRA is faster for most
        // recursives and must receive the larger share (Figure 3's
        // "FRA always sees most queries").
        assert!(
            fra.share > syd.share,
            "FRA {:.2} vs SYD {:.2}",
            fra.share,
            syd.share
        );
        // And the RTT ordering matches the share ordering, inversely.
        assert!(fra.median_rtt_ms.unwrap() < syd.median_rtt_ms.unwrap());
    }

    #[test]
    fn hot_cache_start_logic() {
        use dnswild_atlas::ProbeRecord;
        use dnswild_netsim::SimDuration;
        let p = |round: u32, auth: &str| ProbeRecord {
            time: dnswild_netsim::SimTime::from_micros(round as u64 * 120_000_000),
            round,
            auth: auth.into(),
            site: auth.into(),
            rtt: SimDuration::from_millis(10),
        };
        let probes = vec![p(0, "A"), p(1, "A"), p(2, "B"), p(3, "A")];
        assert_eq!(hot_cache_start(&probes, 2), Some(3));
        let never = vec![p(0, "A"), p(1, "A")];
        assert_eq!(hot_cache_start(&never, 2), None);
    }
}
