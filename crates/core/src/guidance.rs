//! The operator-guidance engine: §7 of the paper as runnable what-if
//! analysis.
//!
//! The paper's primary recommendation: *when optimizing user latency,
//! worst-case latency is limited by the least-anycast authoritative* —
//! because recursives keep sending some queries to every NS, a single
//! slow unicast NS leaks latency to everyone. This module quantifies
//! that: it measures candidate deployments against the same VP
//! population and reports query-weighted latency, the per-NS breakdown,
//! and which NS bounds the worst case.

use dnswild_analysis::{median, percentile, query_share, AuthShare};
use dnswild_atlas::{
    run_measurement, AuthoritativeSpec, DeploymentSpec, MeasurementConfig, MeasurementResult,
    PolicyMix, StandardConfig,
};
use dnswild_netsim::geo::datacenters;

/// Latency assessment of one deployment.
#[derive(Debug, Clone)]
pub struct DeploymentAssessment {
    /// Deployment name.
    pub name: String,
    /// Mean of all recursive→authoritative RTT samples (query-weighted:
    /// policies that concentrate traffic on fast NSes pull this down).
    pub mean_rtt_ms: f64,
    /// Median sample RTT.
    pub median_rtt_ms: f64,
    /// 90th-percentile sample RTT — the worst-case tail the paper's
    /// recommendation is about.
    pub p90_rtt_ms: f64,
    /// Per-authoritative share and median RTT.
    pub per_auth: Vec<AuthShare>,
    /// The authoritative with the highest tail (p90) RTT — the "least
    /// anycast" NS bounding the worst case — with that p90 RTT.
    pub worst_auth: Option<(String, f64)>,
}

fn assess_result(result: &MeasurementResult) -> DeploymentAssessment {
    let samples: Vec<f64> = result
        .vps
        .iter()
        .flat_map(|v| v.samples.iter().map(|s| s.rtt.as_millis_f64()))
        .collect();
    let per_auth = query_share(result);
    let worst_auth = per_auth
        .iter()
        .filter_map(|a| a.p90_rtt_ms.map(|r| (a.auth.clone(), r)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("RTTs are never NaN"));
    DeploymentAssessment {
        name: result.deployment.name.clone(),
        mean_rtt_ms: samples.iter().sum::<f64>() / samples.len().max(1) as f64,
        median_rtt_ms: median(&samples).unwrap_or(0.0),
        p90_rtt_ms: percentile(&samples, 90.0).unwrap_or(0.0),
        per_auth,
        worst_auth,
    }
}

/// Measures several candidate deployments in parallel, against
/// identically-seeded VP populations so the comparison is apples to
/// apples.
pub fn compare(
    deployments: Vec<DeploymentSpec>,
    vp_count: usize,
    rounds: u32,
    seed: u64,
    mix: &PolicyMix,
) -> Vec<DeploymentAssessment> {
    std::thread::scope(|s| {
        let handles: Vec<_> = deployments
            .into_iter()
            .map(|deployment| {
                let mix = mix.clone();
                s.spawn(move || {
                    let mut config = MeasurementConfig::standard(StandardConfig::C2A, seed);
                    config.deployment = deployment;
                    config.vp_count = vp_count;
                    config.rounds = rounds;
                    config.mix = mix;
                    assess_result(&run_measurement(&config))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise a worker panic on the caller's thread instead
                // of swallowing it behind a generic join error.
                h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// The paper's `.nl` case study (§7): SIDN ran 5 unicast authoritatives
/// in the Netherlands plus 3 anycast services. Returns (as-deployed,
/// all-anycast) deployment specs for comparison.
pub fn nl_case_study() -> (DeploymentSpec, DeploymentSpec) {
    use datacenters::*;
    // Five unicast NSes "in the Netherlands": clustered near AMS. We use
    // DUB/FRA coordinates' neighbourhood via dedicated places.
    let nl_site = dnswild_netsim::Place::new("AMS", "Amsterdam", 52.37, 4.90, dnswild_netsim::Continent::Eu);
    let unicast_nl: Vec<AuthoritativeSpec> =
        (0..5).map(|i| {
            let mut spec = AuthoritativeSpec::unicast(&nl_site);
            spec.code = format!("nl-u{}", i + 1);
            spec
        }).collect();
    // Three anycast services with global sites.
    let anycast = vec![
        AuthoritativeSpec::anycast("nl-a1", &[&FRA, &IAD, &SYD]),
        AuthoritativeSpec::anycast("nl-a2", &[&DUB, &SFO, &NRT]),
        AuthoritativeSpec::anycast("nl-a3", &[&FRA, &GRU, &IAD]),
    ];

    let mut as_deployed = unicast_nl.clone();
    as_deployed.extend(anycast.clone());
    let as_deployed =
        DeploymentSpec { name: "nl-as-deployed".into(), authoritatives: as_deployed };

    // The recommendation: upgrade every unicast NS to anycast.
    let mut upgraded: Vec<AuthoritativeSpec> = (0..5)
        .map(|i| {
            let mut spec = AuthoritativeSpec::anycast(
                format!("nl-u{}+", i + 1),
                &[&FRA, &IAD, &NRT],
            );
            // Keep the home site too.
            spec.sites.push(nl_site.clone());
            spec
        })
        .collect();
    upgraded.extend(anycast);
    let all_anycast =
        DeploymentSpec { name: "nl-all-anycast".into(), authoritatives: upgraded };

    (as_deployed, all_anycast)
}

/// Renders the paper's primary recommendation for a measured deployment:
/// which NS bounds worst-case latency and what the anycast upgrade would
/// buy.
pub fn primary_recommendation(
    current: &DeploymentAssessment,
    upgraded: &DeploymentAssessment,
) -> String {
    let mut out = String::new();
    if let Some((auth, rtt)) = &current.worst_auth {
        out.push_str(&format!(
            "Worst-case latency of '{}' is bounded by NS '{}' (p90 {:.0} ms): \
             recursives keep sending queries to every NS, so its latency leaks \
             into the aggregate.\n",
            current.name, auth, rtt
        ));
    }
    let gain_p90 = current.p90_rtt_ms - upgraded.p90_rtt_ms;
    let gain_mean = current.mean_rtt_ms - upgraded.mean_rtt_ms;
    out.push_str(&format!(
        "Upgrading every NS to anycast ('{}') changes mean RTT {:.0} → {:.0} ms \
         (-{:.0} ms) and p90 {:.0} → {:.0} ms (-{:.0} ms).\n",
        upgraded.name,
        current.mean_rtt_ms,
        upgraded.mean_rtt_ms,
        gain_mean,
        current.p90_rtt_ms,
        upgraded.p90_rtt_ms,
        gain_p90,
    ));
    out.push_str(
        "Recommendation (paper §7): if some authoritatives in a server system \
         are anycast, all should be.\n",
    );
    out
}

/// Where an anycast service's traffic would land: one row per site,
/// with the share of a reference VP population in its catchment and the
/// mean base RTT those VPs would see. Computed purely from routing (no
/// traffic is simulated), so it is fast enough for interactive what-ifs.
#[derive(Debug, Clone)]
pub struct CatchmentRow {
    /// Site code.
    pub site: String,
    /// Fraction of the VP population whose catchment this site is.
    pub share: f64,
    /// Mean base RTT from those VPs to the site, milliseconds.
    pub mean_rtt_ms: f64,
}

/// Maps the catchments of an anycast NS against a continent-weighted VP
/// population of `vp_count` points.
pub fn catchment_map(
    spec: &AuthoritativeSpec,
    vp_count: usize,
    seed: u64,
) -> Vec<CatchmentRow> {
    use dnswild_atlas::places::{sample_city, sample_continent, vp_catalog};
    use dnswild_netsim::{HostConfig, SimDuration, Simulator};
    use detrand::{DetRng, Rng};
    use std::any::Any;

    struct Nop;
    impl dnswild_netsim::Actor for Nop {
        fn on_datagram(
            &mut self,
            _: &mut dnswild_netsim::Context<'_>,
            _: dnswild_netsim::Datagram,
        ) {
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let mut sim = Simulator::new(seed);
    let site_hosts: Vec<_> = spec
        .sites
        .iter()
        .map(|place| {
            sim.add_host(
                HostConfig::at_place(place, SimDuration::from_millis(1), 1),
                Box::new(Nop),
            )
        })
        .collect();
    let addr = if site_hosts.len() == 1 {
        sim.bind_unicast(site_hosts[0])
    } else {
        sim.bind_anycast(&site_hosts)
    };

    let mut prng = DetRng::seed_from_u64(seed ^ 0x5bd1e995);
    let catalog = vp_catalog();
    let mut counts = vec![0usize; spec.sites.len()];
    let mut rtt_sums = vec![0.0f64; spec.sites.len()];
    for _ in 0..vp_count {
        let continent = sample_continent(&mut prng);
        let city = sample_city(&catalog, continent, &mut prng);
        let vp = sim.add_host(
            HostConfig::at_place(&city, SimDuration::from_millis_f64(prng.gen_range(2.0..20.0)), 2),
            Box::new(Nop),
        );
        let site = sim.catchment(vp, addr).expect("anycast service routes");
        let idx = site_hosts.iter().position(|&h| h == site).expect("known site");
        counts[idx] += 1;
        rtt_sums[idx] += sim.base_rtt(vp, site).as_millis_f64();
    }

    spec.sites
        .iter()
        .enumerate()
        .map(|(i, place)| CatchmentRow {
            site: place.code.to_string(),
            share: counts[i] as f64 / vp_count.max(1) as f64,
            mean_rtt_ms: if counts[i] == 0 { 0.0 } else { rtt_sums[i] / counts[i] as f64 },
        })
        .collect()
}

/// A smaller mixed-vs-anycast pair for quick demonstrations: one global
/// anycast NS plus one unicast NS, versus both anycast.
pub fn demo_pair() -> (DeploymentSpec, DeploymentSpec) {
    use datacenters::*;
    let mixed = DeploymentSpec {
        name: "mixed".into(),
        authoritatives: vec![
            AuthoritativeSpec::anycast("ns1", &[&FRA, &IAD, &SYD, &NRT]),
            AuthoritativeSpec::unicast(&GRU),
        ],
    };
    let all = DeploymentSpec {
        name: "all-anycast".into(),
        authoritatives: vec![
            AuthoritativeSpec::anycast("ns1", &[&FRA, &IAD, &SYD, &NRT]),
            AuthoritativeSpec::anycast("ns2", &[&GRU, &FRA, &NRT]),
        ],
    };
    (mixed, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anycast_upgrade_reduces_tail_latency() {
        let (mixed, all) = demo_pair();
        let results = compare(vec![mixed, all], 120, 12, 71, &PolicyMix::default());
        let mixed = &results[0];
        let all = &results[1];
        assert!(
            all.p90_rtt_ms < mixed.p90_rtt_ms,
            "all-anycast p90 {:.0} must beat mixed {:.0}",
            all.p90_rtt_ms,
            mixed.p90_rtt_ms
        );
        assert!(
            all.mean_rtt_ms < mixed.mean_rtt_ms,
            "all-anycast mean {:.0} must beat mixed {:.0}",
            all.mean_rtt_ms,
            mixed.mean_rtt_ms
        );
        // The worst NS in the mixed deployment is the unicast one.
        assert_eq!(mixed.worst_auth.as_ref().unwrap().0, "GRU");
    }

    #[test]
    fn recommendation_text_mentions_the_bound() {
        let (mixed, all) = demo_pair();
        let results = compare(vec![mixed, all], 60, 8, 72, &PolicyMix::default());
        let text = primary_recommendation(&results[0], &results[1]);
        assert!(text.contains("GRU"));
        assert!(text.contains("all should be"));
    }

    #[test]
    fn nl_case_study_shapes() {
        let (as_deployed, all_anycast) = nl_case_study();
        assert_eq!(as_deployed.ns_count(), 8, "5 unicast + 3 anycast");
        assert_eq!(all_anycast.ns_count(), 8);
        let unicast_count =
            as_deployed.authoritatives.iter().filter(|a| a.sites.len() == 1).count();
        assert_eq!(unicast_count, 5);
        assert!(all_anycast.authoritatives.iter().all(|a| a.sites.len() > 1));
    }

    #[test]
    fn catchment_map_covers_population() {
        use dnswild_netsim::geo::datacenters::{FRA, IAD, SYD};
        let spec = AuthoritativeSpec::anycast("svc", &[&FRA, &IAD, &SYD]);
        let rows = catchment_map(&spec, 500, 61);
        assert_eq!(rows.len(), 3);
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum {total}");
        // The EU-heavy population makes FRA the dominant catchment.
        let fra = rows.iter().find(|r| r.site == "FRA").unwrap();
        assert!(fra.share > 0.5, "FRA share {:.2}", fra.share);
        // Catchment RTTs are local-ish: being routed to your nearest
        // site should beat intercontinental latency for everyone.
        for r in rows.iter().filter(|r| r.share > 0.0) {
            assert!(r.mean_rtt_ms < 150.0, "{}: {:.0}ms", r.site, r.mean_rtt_ms);
        }
    }

    #[test]
    fn catchment_map_unicast_single_site() {
        use dnswild_netsim::geo::datacenters::GRU;
        let spec = AuthoritativeSpec::unicast(&GRU);
        let rows = catchment_map(&spec, 200, 62);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].share - 1.0).abs() < 1e-9);
        // A single São Paulo site serving an EU-heavy world is far from
        // most VPs — the "worst-case" §7 warns about.
        assert!(rows[0].mean_rtt_ms > 150.0, "{:.0}ms", rows[0].mean_rtt_ms);
    }
}
