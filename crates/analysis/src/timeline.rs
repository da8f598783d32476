//! Time-series view of a measurement: probes, failures and latency per
//! time bucket. This is the analysis behind resilience experiments —
//! what clients experience while an NS is dead or an anycast site is
//! withdrawn, and how fast the resolver population routes around it.

use std::collections::HashMap;

use dnswild_atlas::MeasurementResult;
use dnswild_netsim::{SimDuration, SimTime};

use crate::stats::median;

/// One bucket of the measurement timeline.
#[derive(Debug, Clone)]
pub struct TimeBucket {
    /// Bucket start.
    pub start: SimTime,
    /// Successful probes in the bucket.
    pub probes: u64,
    /// Failed probes (SERVFAIL or never answered) in the bucket.
    pub failures: u64,
    /// Median client-observed RTT of the bucket's successful probes.
    pub median_rtt_ms: Option<f64>,
    /// Per-authoritative share of the bucket's successful probes, in
    /// deployment NS order.
    pub share: Vec<f64>,
}

impl TimeBucket {
    /// Failures as a fraction of all probes in the bucket.
    pub fn failure_rate(&self) -> f64 {
        let total = self.probes + self.failures;
        if total == 0 {
            0.0
        } else {
            self.failures as f64 / total as f64
        }
    }
}

/// Buckets the measurement into windows of `bucket` duration.
pub fn timeline(result: &MeasurementResult, bucket: SimDuration) -> Vec<TimeBucket> {
    assert!(bucket.as_micros() > 0, "bucket must be non-empty");
    let auth_codes = result.auth_codes();
    let auth_index: HashMap<&str, usize> =
        auth_codes.iter().enumerate().map(|(i, c)| (c.as_str(), i)).collect();

    let bucket_of = |t: SimTime| (t.as_micros() / bucket.as_micros()) as usize;

    let mut n_buckets = 0usize;
    for vp in &result.vps {
        for p in &vp.probes {
            n_buckets = n_buckets.max(bucket_of(p.time) + 1);
        }
        for &t in &vp.failure_times {
            n_buckets = n_buckets.max(bucket_of(t) + 1);
        }
    }

    let mut probes = vec![0u64; n_buckets];
    let mut failures = vec![0u64; n_buckets];
    let mut rtts: Vec<Vec<f64>> = vec![Vec::new(); n_buckets];
    let mut auth_counts: Vec<Vec<u64>> = vec![vec![0; auth_codes.len()]; n_buckets];

    for vp in &result.vps {
        for p in &vp.probes {
            let b = bucket_of(p.time);
            probes[b] += 1;
            rtts[b].push(p.rtt.as_millis_f64());
            if let Some(&i) = auth_index.get(&*p.auth) {
                auth_counts[b][i] += 1;
            }
        }
        for &t in &vp.failure_times {
            failures[bucket_of(t)] += 1;
        }
    }

    (0..n_buckets)
        .map(|b| {
            let total: u64 = auth_counts[b].iter().sum();
            let share = auth_counts[b]
                .iter()
                .map(|&c| if total == 0 { 0.0 } else { c as f64 / total as f64 })
                .collect();
            TimeBucket {
                start: SimTime::from_micros(b as u64 * bucket.as_micros()),
                probes: probes[b],
                failures: failures[b],
                median_rtt_ms: median(&rtts[b]),
                share,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_atlas::{run_measurement, MeasurementConfig, OutageSpec, StandardConfig};

    #[test]
    fn buckets_cover_run_and_counts_add_up() {
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2B, 60, 31);
        cfg.rounds = 10;
        let result = run_measurement(&cfg);
        let buckets = timeline(&result, SimDuration::from_mins(4));
        assert!(!buckets.is_empty());
        let total_probes: u64 = buckets.iter().map(|b| b.probes).sum();
        assert_eq!(total_probes as usize, result.probe_count());
        for b in &buckets {
            let share_sum: f64 = b.share.iter().sum();
            if b.probes > 0 {
                assert!((share_sum - 1.0).abs() < 1e-9);
            }
            assert!((0.0..=1.0).contains(&b.failure_rate()));
        }
    }

    #[test]
    fn unicast_ns_outage_shows_in_failure_and_share() {
        // Kill FRA (auth 0) from minute 20 to minute 40 of a one-hour
        // 2C run; before/after buckets should favour FRA, the outage
        // buckets must shift everything to SYD.
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2C, 80, 32);
        cfg.rounds = 31;
        cfg.outages = vec![OutageSpec {
            auth: 0,
            site: None,
            from: SimDuration::from_mins(20),
            until: SimDuration::from_mins(40),
        }];
        let result = run_measurement(&cfg);
        let buckets = timeline(&result, SimDuration::from_mins(10));

        // Buckets 0-1: healthy. Buckets 2-3: FRA dead. Buckets 4+: healthy.
        let fra_share = |b: &TimeBucket| b.share[0];
        assert!(fra_share(&buckets[1]) > 0.5, "healthy: FRA favoured");
        assert!(
            fra_share(&buckets[2]) < 0.35,
            "outage: SYD takes over, FRA share {:.2}",
            fra_share(&buckets[2])
        );
        // Clients pay for the dead NS in latency: queries that first hit
        // FRA burn a timeout before the retry lands on SYD, and everyone
        // is stuck with the far server.
        let healthy_rtt = buckets[1].median_rtt_ms.unwrap();
        let outage_rtt = buckets[2].median_rtt_ms.unwrap();
        assert!(
            outage_rtt > healthy_rtt * 1.5,
            "outage median RTT {outage_rtt:.0}ms vs healthy {healthy_rtt:.0}ms"
        );
        // Recovery: the last bucket with traffic favours FRA again.
        let last_busy = buckets.iter().rev().find(|b| b.probes > 50).unwrap();
        assert!(fra_share(last_busy) > 0.4, "recovered share {:.2}", fra_share(last_busy));
    }

    #[test]
    fn anycast_site_outage_reroutes_without_failures() {
        use dnswild_atlas::{AuthoritativeSpec, DeploymentSpec};
        use dnswild_netsim::geo::datacenters;
        let deployment = DeploymentSpec {
            name: "anycast-outage".into(),
            authoritatives: vec![AuthoritativeSpec::anycast(
                "ns1",
                &[&datacenters::FRA, &datacenters::IAD, &datacenters::SYD],
            )],
        };
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2A, 60, 33);
        cfg.deployment = deployment;
        cfg.rounds = 31;
        cfg.outages = vec![OutageSpec {
            auth: 0,
            site: Some(0), // FRA site withdrawn
            from: SimDuration::from_mins(20),
            until: SimDuration::from_mins(40),
        }];
        let result = run_measurement(&cfg);

        // During the withdrawal, EU traffic lands at other sites.
        let mut during_fra = 0u64;
        let mut during_total = 0u64;
        for vp in &result.vps {
            for p in &vp.probes {
                let minute = p.time.as_micros() / 60_000_000;
                if (21..39).contains(&minute) {
                    during_total += 1;
                    if &*p.site == "FRA" {
                        during_fra += 1;
                    }
                }
            }
        }
        assert!(during_total > 0);
        assert_eq!(during_fra, 0, "withdrawn site must receive nothing");

        // And the rerouting is lossless: failure rate stays at the
        // background level set by packet loss.
        let buckets = timeline(&result, SimDuration::from_mins(10));
        for b in &buckets {
            assert!(
                b.failure_rate() < 0.05,
                "anycast absorbed the outage, rate {:.3}",
                b.failure_rate()
            );
        }
    }
}
