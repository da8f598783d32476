//! Experiment configurations: the paper's Table 1 deployments and the
//! resolver-implementation mix of the simulated wild.

use dnswild_netsim::geo::datacenters;
use dnswild_netsim::Place;
use dnswild_resolver::PolicyKind;
use detrand::{DetRng, Rng};

/// One authoritative NS of a deployment: a code (its NS label in reports)
/// plus one site (unicast) or several (an IP anycast service).
#[derive(Debug, Clone)]
pub struct AuthoritativeSpec {
    /// Report label, e.g. `"FRA"` for the paper's unicast NSes or
    /// `"any1"` for an anycast service.
    pub code: String,
    /// The site(s) announcing this NS's address.
    pub sites: Vec<Place>,
}

impl AuthoritativeSpec {
    /// A unicast NS at one datacenter, labelled by its airport code.
    pub fn unicast(place: &Place) -> Self {
        AuthoritativeSpec { code: place.code.to_string(), sites: vec![place.clone()] }
    }

    /// An anycast NS announced from several sites.
    pub fn anycast(code: impl Into<String>, sites: &[&Place]) -> Self {
        let sites: Vec<Place> = sites.iter().map(|p| (*p).clone()).collect();
        assert!(!sites.is_empty(), "anycast service needs at least one site");
        AuthoritativeSpec { code: code.into(), sites }
    }
}

/// A full deployment: the NS set of one zone.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Report name, e.g. `"2A"`.
    pub name: String,
    /// The authoritatives, in NS order.
    pub authoritatives: Vec<AuthoritativeSpec>,
}

impl DeploymentSpec {
    /// An all-unicast deployment at the given datacenters (the shape of
    /// every configuration in Table 1).
    pub fn all_unicast(name: impl Into<String>, places: &[&Place]) -> Self {
        DeploymentSpec {
            name: name.into(),
            authoritatives: places.iter().map(|p| AuthoritativeSpec::unicast(p)).collect(),
        }
    }

    /// Number of NSes.
    pub fn ns_count(&self) -> usize {
        self.authoritatives.len()
    }
}

/// The paper's seven authoritative combinations (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StandardConfig {
    /// GRU + NRT (far apart).
    C2A,
    /// DUB + FRA (close together).
    C2B,
    /// FRA + SYD (far apart).
    C2C,
    /// GRU + NRT + SYD.
    C3A,
    /// DUB + FRA + IAD.
    C3B,
    /// GRU + NRT + SYD + DUB.
    C4A,
    /// DUB + FRA + IAD + SFO.
    C4B,
}

impl StandardConfig {
    /// All seven, in Table 1 order.
    pub const ALL: [StandardConfig; 7] = [
        StandardConfig::C2A,
        StandardConfig::C2B,
        StandardConfig::C2C,
        StandardConfig::C3A,
        StandardConfig::C3B,
        StandardConfig::C4A,
        StandardConfig::C4B,
    ];

    /// The paper's label, e.g. `"2A"`.
    pub fn label(self) -> &'static str {
        match self {
            StandardConfig::C2A => "2A",
            StandardConfig::C2B => "2B",
            StandardConfig::C2C => "2C",
            StandardConfig::C3A => "3A",
            StandardConfig::C3B => "3B",
            StandardConfig::C4A => "4A",
            StandardConfig::C4B => "4B",
        }
    }

    /// Datacenters of this configuration (Table 1).
    pub fn places(self) -> Vec<&'static Place> {
        use datacenters::*;
        match self {
            StandardConfig::C2A => vec![&GRU, &NRT],
            StandardConfig::C2B => vec![&DUB, &FRA],
            StandardConfig::C2C => vec![&FRA, &SYD],
            StandardConfig::C3A => vec![&GRU, &NRT, &SYD],
            StandardConfig::C3B => vec![&DUB, &FRA, &IAD],
            StandardConfig::C4A => vec![&GRU, &NRT, &SYD, &DUB],
            StandardConfig::C4B => vec![&DUB, &FRA, &IAD, &SFO],
        }
    }

    /// VPs that saw this configuration in the paper (Table 1). We default
    /// experiment populations to the same sizes.
    pub fn vp_count(self) -> usize {
        match self {
            StandardConfig::C2A => 8_702,
            StandardConfig::C2B => 8_685,
            StandardConfig::C2C => 8_658,
            StandardConfig::C3A => 8_684,
            StandardConfig::C3B => 8_693,
            StandardConfig::C4A => 8_702,
            StandardConfig::C4B => 8_689,
        }
    }

    /// The deployment spec (all unicast, as deployed in the paper).
    pub fn deployment(self) -> DeploymentSpec {
        DeploymentSpec::all_unicast(self.label(), &self.places())
    }
}

/// The distribution of resolver implementations attached to VPs.
///
/// The true mix in the wild is unknown — that is precisely why the paper
/// measures aggregates. This default is calibrated so the aggregate
/// reproduces the paper's headline numbers (§4.1–§4.3): roughly half of
/// recursives latency-driven (Yu et al.), a substantial latency-blind
/// population, and a small sticky tail (~20% of Root clients query a
/// single letter, Figure 7, which includes forwarders).
#[derive(Debug, Clone)]
pub struct PolicyMix {
    weights: Vec<(PolicyKind, f64)>,
}

impl Default for PolicyMix {
    fn default() -> Self {
        PolicyMix::new(vec![
            (PolicyKind::BindSrtt, 0.33),
            (PolicyKind::PowerDnsSpeed, 0.15),
            (PolicyKind::UnboundBand, 0.24),
            (PolicyKind::UniformRandom, 0.14),
            (PolicyKind::RoundRobin, 0.08),
            (PolicyKind::StickyPrimary, 0.06),
        ])
    }
}

impl PolicyMix {
    /// A mix from explicit weights (normalized internally).
    pub fn new(weights: Vec<(PolicyKind, f64)>) -> Self {
        assert!(!weights.is_empty(), "mix needs at least one policy");
        assert!(weights.iter().all(|&(_, w)| w >= 0.0), "negative weight");
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "mix weights sum to zero");
        PolicyMix {
            weights: weights.into_iter().map(|(k, w)| (k, w / total)).collect(),
        }
    }

    /// A degenerate mix: every resolver runs `kind` (for ablations).
    pub fn pure(kind: PolicyKind) -> Self {
        PolicyMix::new(vec![(kind, 1.0)])
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[(PolicyKind, f64)] {
        &self.weights
    }

    /// Samples a policy.
    pub fn sample(&self, rng: &mut DetRng) -> PolicyKind {
        let mut x: f64 = rng.gen_range(0.0..1.0);
        for &(kind, w) in &self.weights {
            x -= w;
            if x <= 0.0 {
                return kind;
            }
        }
        self.weights.last().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn table1_shapes() {
        assert_eq!(StandardConfig::C2A.deployment().ns_count(), 2);
        assert_eq!(StandardConfig::C3B.deployment().ns_count(), 3);
        assert_eq!(StandardConfig::C4B.deployment().ns_count(), 4);
        assert_eq!(StandardConfig::C2C.places()[0].code, "FRA");
        assert_eq!(StandardConfig::C2C.places()[1].code, "SYD");
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = StandardConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["2A", "2B", "2C", "3A", "3B", "4A", "4B"]);
    }

    #[test]
    fn vp_counts_match_table1() {
        assert_eq!(StandardConfig::C2A.vp_count(), 8_702);
        assert_eq!(StandardConfig::C4B.vp_count(), 8_689);
    }

    #[test]
    fn unicast_and_anycast_specs() {
        let u = AuthoritativeSpec::unicast(&datacenters::FRA);
        assert_eq!(u.sites.len(), 1);
        assert_eq!(u.code, "FRA");
        let a = AuthoritativeSpec::anycast("any1", &[&datacenters::FRA, &datacenters::SYD]);
        assert_eq!(a.sites.len(), 2);
    }

    #[test]
    fn mix_normalizes_and_samples() {
        let mix = PolicyMix::new(vec![
            (PolicyKind::BindSrtt, 2.0),
            (PolicyKind::UniformRandom, 2.0),
        ]);
        let mut rng = DetRng::seed_from_u64(3);
        let mut counts: HashMap<PolicyKind, usize> = HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(mix.sample(&mut rng)).or_default() += 1;
        }
        let bind = counts[&PolicyKind::BindSrtt] as f64 / 10_000.0;
        assert!((0.45..0.55).contains(&bind), "bind share {bind}");
    }

    #[test]
    fn default_mix_sums_to_one() {
        let mix = PolicyMix::default();
        let total: f64 = mix.weights().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pure_mix_always_samples_same() {
        let mix = PolicyMix::pure(PolicyKind::RoundRobin);
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), PolicyKind::RoundRobin);
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn zero_weights_rejected() {
        PolicyMix::new(vec![(PolicyKind::BindSrtt, 0.0)]);
    }
}
