//! Figure 7's substrate: synthetic production traffic against Root-like
//! and `.nl`-like deployments, observed — like DITL — at only a subset
//! of the authoritatives.
//!
//! The paper analyzes DITL 2017 captures from 10 of 13 Root letters and
//! ENTRADA captures from 4 of 8 `.nl` NSes, selecting recursives that
//! sent ≥250 queries in an hour. We cannot use those traces, so we
//! generate the equivalent observable: a long-lived, warm-cache resolver
//! population continuously querying the deployment, with per-client
//! query counts tallied only at the *observed* subset.

use std::collections::HashMap;

use dnswild_atlas::{
    run_measurement, DeploymentSpec, MeasurementConfig, PolicyMix, StandardConfig,
};
use dnswild_netsim::geo::datacenters;
use dnswild_netsim::{Continent, Place, SimDuration};
use dnswild_resolver::PolicyKind;

/// Parameters of a production-trace generation run.
#[derive(Debug, Clone)]
pub struct ProductionConfig {
    /// The deployment (use [`root_deployment`] or [`nl_deployment`]).
    pub deployment: DeploymentSpec,
    /// How many of the deployment's NSes are observed (DITL had 10 of
    /// 13 letters; `.nl` had 4 of 8 NSes).
    pub observed: usize,
    /// Number of busy recursives to simulate.
    pub clients: usize,
    /// Queries each client issues over the hour.
    pub queries_per_client: u32,
    /// Seed.
    pub seed: u64,
    /// Client-implementation mix. Production clients of the Root skew
    /// stickier than the Atlas population (forwarders, embedded stubs).
    pub mix: PolicyMix,
    /// Minimum observed queries for a client to count (paper: 250).
    pub min_queries: u64,
    /// Per-client probability of being able to reach each authoritative
    /// (see [`dnswild_atlas::MeasurementConfig::reach_probability`]).
    /// Production clients carry prior state and sit behind filters and
    /// middleboxes, so most never touch a few Root letters.
    pub reach_probability: Option<f64>,
}

impl ProductionConfig {
    /// The Root-like setup: 13 letters, 10 observed.
    pub fn root(clients: usize, seed: u64) -> Self {
        ProductionConfig {
            deployment: root_deployment(),
            observed: 10,
            clients,
            queries_per_client: 400,
            seed,
            mix: root_client_mix(),
            min_queries: 250,
            reach_probability: Some(0.7),
        }
    }

    /// The `.nl`-like setup: 8 NSes, 4 observed. Only half the NS set is
    /// observed, so clients need enough total volume for their observed
    /// share to clear the 250-query threshold.
    pub fn nl(clients: usize, seed: u64) -> Self {
        ProductionConfig {
            deployment: nl_deployment(),
            observed: 4,
            clients,
            queries_per_client: 700,
            seed,
            mix: PolicyMix::default(),
            min_queries: 250,
            reach_probability: None,
        }
    }
}

/// What the observed authoritatives would log.
#[derive(Debug, Clone)]
pub struct ProductionResult {
    /// The observed authoritative codes.
    pub observed_auths: Vec<String>,
    /// Per-client query counts over the observed authoritatives only.
    pub per_client_counts: Vec<HashMap<String, u64>>,
}

/// Thirteen Root-letter stand-ins at globally diverse locations. Real
/// letters are anycast services; for Figure 7 only letter-level identity
/// and RTT diversity matter, so each letter is a site of its own.
pub fn root_deployment() -> DeploymentSpec {
    use datacenters::*;
    let extras = [
        Place::new("LON", "London", 51.51, -0.13, Continent::Eu),
        Place::new("AMS", "Amsterdam", 52.37, 4.90, Continent::Eu),
        Place::new("NYC", "New York", 40.71, -74.01, Continent::Na),
        Place::new("SIN", "Singapore", 1.35, 103.82, Continent::As),
        Place::new("JNB", "Johannesburg", -26.20, 28.05, Continent::Af),
        Place::new("STO", "Stockholm", 59.33, 18.07, Continent::Eu),
    ];
    let sites: Vec<Place> = [GRU, NRT, DUB, FRA, SYD, IAD, SFO]
        .into_iter()
        .chain(extras)
        .collect();
    let letters: Vec<_> = sites
        .iter()
        .enumerate()
        .map(|(i, place)| {
            let mut spec = dnswild_atlas::AuthoritativeSpec::unicast(place);
            spec.code = format!("{}-root", (b'a' + i as u8) as char);
            spec
        })
        .collect();
    DeploymentSpec { name: "root".into(), authoritatives: letters }
}

/// Eight `.nl`-like NSes: five clustered in the Netherlands, three
/// spread out — the shape §7 describes for SIDN.
pub fn nl_deployment() -> DeploymentSpec {
    use datacenters::*;
    let ams = |i: u32| {
        Place::new("AMS", "Amsterdam", 52.37 + 0.01 * i as f64, 4.90, Continent::Eu)
    };
    let mut auths: Vec<dnswild_atlas::AuthoritativeSpec> = (0..5)
        .map(|i| {
            let mut spec = dnswild_atlas::AuthoritativeSpec::unicast(&ams(i));
            spec.code = format!("ns{}.dns.nl", i + 1);
            spec
        })
        .collect();
    for (i, place) in [&FRA, &IAD, &NRT].iter().enumerate() {
        let mut spec = dnswild_atlas::AuthoritativeSpec::unicast(place);
        spec.code = format!("ns{}.dns.nl", i + 6);
        auths.push(spec);
    }
    DeploymentSpec { name: "nl".into(), authoritatives: auths }
}

/// A client mix skewed toward sticky behaviour, reflecting that Root
/// traffic includes many forwarders and minimal stubs (the paper sees
/// ~20% of busy Root clients querying a single letter).
pub fn root_client_mix() -> PolicyMix {
    PolicyMix::new(vec![
        (PolicyKind::BindSrtt, 0.27),
        (PolicyKind::PowerDnsSpeed, 0.12),
        (PolicyKind::UnboundBand, 0.18),
        (PolicyKind::UniformRandom, 0.13),
        (PolicyKind::RoundRobin, 0.08),
        (PolicyKind::StickyPrimary, 0.22),
    ])
}

/// Generates the production traces.
pub fn run_production(config: &ProductionConfig) -> ProductionResult {
    assert!(config.observed <= config.deployment.ns_count());
    // Reuse the measurement harness: clients are "VPs" probing with
    // unique labels (cache-miss traffic, what actually reaches a TLD or
    // the Root), continuously over the hour.
    let hour = SimDuration::from_secs(3_600);
    let interval = SimDuration::from_micros(
        (hour.as_micros() / config.queries_per_client.max(1) as u64).max(1),
    );
    let mut mc = MeasurementConfig::standard(StandardConfig::C2A, config.seed);
    mc.deployment = config.deployment.clone();
    mc.vp_count = config.clients;
    mc.interval = interval;
    mc.rounds = config.queries_per_client;
    mc.mix = config.mix.clone();
    mc.reach_probability = config.reach_probability;
    let result = run_measurement(&mc);

    // DITL's partial vantage: only a subset of authoritatives kept logs.
    let observed_auths: Vec<String> = config
        .deployment
        .authoritatives
        .iter()
        .take(config.observed)
        .map(|a| a.code.clone())
        .collect();
    let observed_set: std::collections::HashSet<&str> =
        observed_auths.iter().map(String::as_str).collect();

    let per_client_counts = result
        .vps
        .iter()
        .map(|vp| {
            let mut counts: HashMap<String, u64> = HashMap::new();
            for p in &vp.probes {
                if observed_set.contains(&*p.auth) {
                    *counts.entry(p.auth.to_string()).or_default() += 1;
                }
            }
            counts
        })
        .collect();

    ProductionResult { observed_auths, per_client_counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_analysis::rank_profile;

    #[test]
    fn deployments_have_paper_shapes() {
        assert_eq!(root_deployment().ns_count(), 13);
        assert_eq!(nl_deployment().ns_count(), 8);
        let codes: Vec<String> =
            root_deployment().authoritatives.iter().map(|a| a.code.clone()).collect();
        assert_eq!(codes[0], "a-root");
        assert_eq!(codes[12], "m-root");
    }

    #[test]
    fn root_profile_resembles_figure7() {
        let mut cfg = ProductionConfig::root(180, 81);
        cfg.queries_per_client = 350; // keep the test quick
        let result = run_production(&cfg);
        assert_eq!(result.observed_auths.len(), 10);
        let profile = rank_profile(&result.per_client_counts, 10, 250);
        assert!(profile.client_count > 60, "enough busy clients: {}", profile.client_count);
        // Paper: ~20% of busy Root clients query a single letter; a
        // sticky client whose letter is observed sends all 350 there.
        assert!(
            profile.single_auth_pct > 8.0 && profile.single_auth_pct < 40.0,
            "single-letter share {:.0}%",
            profile.single_auth_pct
        );
        // Paper: 60% query at least 6 letters.
        assert!(
            profile.at_least_k_pct[5] > 40.0,
            "at-least-6 share {:.0}%",
            profile.at_least_k_pct[5]
        );
        // The favourite letter dominates each client's traffic on average.
        assert!(profile.mean_rank_share[0] > 0.3);
    }

    #[test]
    fn nl_profile_majority_query_all_observed() {
        let cfg = ProductionConfig::nl(120, 82);
        let result = run_production(&cfg);
        let profile = rank_profile(&result.per_client_counts, 4, 250);
        assert!(profile.client_count > 40);
        // Paper (§5): at .nl, the majority of recursives query all the
        // (observed) authoritatives, and fewer single-NS clients than at
        // the Root.
        assert!(
            profile.all_auths_pct > 50.0,
            "all-4 share {:.0}%",
            profile.all_auths_pct
        );
        assert!(profile.single_auth_pct < 25.0);
    }

    #[test]
    fn deterministic() {
        let cfg = ProductionConfig { clients: 30, queries_per_client: 300, ..ProductionConfig::nl(30, 83) };
        let a = run_production(&cfg);
        let b = run_production(&cfg);
        assert_eq!(a.per_client_counts, b.per_client_counts);
    }
}
