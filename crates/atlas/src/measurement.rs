//! The measurement harness: deploys a configuration of authoritatives,
//! builds a VP population, probes the test domain on a schedule, and
//! collects the per-query records every analysis in the paper is built
//! from.
//!
//! Mirrors §3.1 of the paper: each VP queries a TXT record under the test
//! domain through its locally-configured recursive; labels are unique per
//! query (cold record cache); each authoritative answers with its own
//! identity so the answering NS/site is known in-band.

use std::any::Any;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use detrand::{DetRng, Rng};

use dnswild_netsim::{
    Actor, AddrFamily, Context, Continent, Datagram, HostConfig, HostId, LatencyConfig,
    SimAddr, SimDuration, SimTime, Simulator,
};
use dnswild_proto::{
    Class, Header, Message, MessageWriter, Name, RData, RType, Rcode, DEFAULT_EDNS_PAYLOAD,
};
use dnswild_resolver::{PolicyKind, RecursiveResolver, UpstreamSample};
use dnswild_server::AuthoritativeServer;
use dnswild_zone::presets::test_domain_zone;

use crate::config::{DeploymentSpec, PolicyMix, StandardConfig};
use crate::places::{sample_city, sample_continent, vp_catalog};

/// Parameters of one measurement run.
#[derive(Debug, Clone)]
pub struct MeasurementConfig {
    /// The deployment under test.
    pub deployment: DeploymentSpec,
    /// Number of vantage points (each with its own recursive).
    pub vp_count: usize,
    /// Probe interval (the paper's default is 2 minutes).
    pub interval: SimDuration,
    /// Probes per VP (the paper's 1-hour runs at 2 minutes give 31).
    pub rounds: u32,
    /// Simulation seed; same seed, same result.
    pub seed: u64,
    /// Resolver-implementation mix.
    pub mix: PolicyMix,
    /// Network latency model parameters.
    pub latency: LatencyConfig,
    /// Address authoritatives over IPv6-like addresses (the paper's §3.1
    /// IPv6 spot-check).
    pub ipv6: bool,
    /// Per-VP reachability: when `Some(p)`, each authoritative is
    /// included in a VP's resolver delegation independently with
    /// probability `p` (at least one is always kept). `None` (the
    /// default) gives every resolver the full NS set.
    ///
    /// Production populations need this: the paper's Figure 7 clients
    /// carry prior state, sit behind middleboxes and filters, and run
    /// partial configurations, so most never touch some Root letters —
    /// something a cold-start full-delegation population cannot show.
    pub reach_probability: Option<f64>,
    /// Failures to inject during the run (dead NSes, withdrawn anycast
    /// sites) — the substrate for resilience experiments (§7 mentions
    /// DDoS mitigation as a key reason for anycast).
    pub outages: Vec<OutageSpec>,
    /// When set, overrides every resolver's infrastructure-cache expiry
    /// (inner `None` = never expires). Used by the Figure 6 ablation
    /// that sweeps cache lifetimes against probing intervals.
    pub infra_expiry_override: Option<Option<SimDuration>>,
    /// Fraction of VPs placed behind a DNS forwarder that round-robins
    /// over two recursives (the MI middleboxes of Figure 1). The paper
    /// verifies such boxes have "only minor effects" on its client-side
    /// data (§3.1); setting this reproduces that check.
    pub forwarder_fraction: f64,
}

/// One injected failure.
#[derive(Debug, Clone)]
pub struct OutageSpec {
    /// Index of the authoritative (NS order in the deployment).
    pub auth: usize,
    /// For anycast NSes: take down only this site (index into
    /// `sites`), withdrawing its announcement so BGP reroutes around
    /// it. `None` takes the whole NS down (every site's server process
    /// stops answering) — what a dead unicast NS looks like.
    pub site: Option<usize>,
    /// Outage start, from the beginning of the measurement.
    pub from: SimDuration,
    /// Outage end.
    pub until: SimDuration,
}

impl MeasurementConfig {
    /// The paper's standard setup for a Table 1 configuration: 2-minute
    /// probes for one hour from the table's VP count.
    pub fn standard(config: StandardConfig, seed: u64) -> Self {
        MeasurementConfig {
            deployment: config.deployment(),
            vp_count: config.vp_count(),
            interval: SimDuration::from_mins(2),
            rounds: 31,
            seed,
            mix: PolicyMix::default(),
            latency: LatencyConfig::default(),
            ipv6: false,
            reach_probability: None,
            outages: Vec::new(),
            infra_expiry_override: None,
            forwarder_fraction: 0.0,
        }
    }

    /// A scaled-down setup for tests and quick runs.
    pub fn quick(config: StandardConfig, vp_count: usize, seed: u64) -> Self {
        MeasurementConfig { vp_count, ..MeasurementConfig::standard(config, seed) }
    }
}

/// One successful probe as the VP saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRecord {
    /// When the probe was answered.
    pub time: SimTime,
    /// Probe round (0-based; round 0 is "the first query" of Figure 2).
    pub round: u32,
    /// Authoritative code that answered (NS-level identity, e.g. `"FRA"`).
    /// Interned: every probe of a run shares one copy per code.
    pub auth: Arc<str>,
    /// Site that answered (differs from `auth` only for anycast services).
    /// Interned like `auth`.
    pub site: Arc<str>,
    /// Client-observed response time.
    pub rtt: SimDuration,
}

/// Everything recorded about one VP.
#[derive(Debug, Clone)]
pub struct VpResult {
    /// VP index.
    pub index: usize,
    /// The VP's continent.
    pub continent: Continent,
    /// City code the VP (and its recursive) sit in.
    pub city: String,
    /// The selection policy of its recursive(s).
    pub policy: PolicyKind,
    /// Whether this VP sits behind a forwarder middlebox.
    pub forwarded: bool,
    /// Successful probes, in round order.
    pub probes: Vec<ProbeRecord>,
    /// Probes that never completed (lost or SERVFAIL).
    pub failures: u32,
    /// When each failure was observed (SERVFAIL arrival, or send time
    /// for probes that never got any response).
    pub failure_times: Vec<SimTime>,
    /// The recursive's own upstream RTT samples.
    pub samples: Vec<UpstreamSample>,
}

/// The outcome of a measurement run.
#[derive(Debug, Clone)]
pub struct MeasurementResult {
    /// The deployment measured.
    pub deployment: DeploymentSpec,
    /// Probe interval used.
    pub interval: SimDuration,
    /// Rounds per VP.
    pub rounds: u32,
    /// Per-VP records.
    pub vps: Vec<VpResult>,
    /// Authoritative service address → code, for resolving resolver
    /// samples to NS identities.
    pub addr_to_auth: HashMap<SimAddr, String>,
}

impl MeasurementResult {
    /// Authoritative codes in NS order.
    pub fn auth_codes(&self) -> Vec<String> {
        self.deployment.authoritatives.iter().map(|a| a.code.clone()).collect()
    }

    /// Total successful probes.
    pub fn probe_count(&self) -> usize {
        self.vps.iter().map(|v| v.probes.len()).sum()
    }
}

/// The VP actor: a stub resolver probing on a schedule.
struct VpStub {
    resolver: SimAddr,
    origin: Name,
    index: usize,
    interval: SimDuration,
    rounds: u32,
    stagger: SimDuration,
    sent: u32,
    /// Probes awaiting an answer: (query ID, round, send time). Rarely
    /// more than one, so a scan beats a map.
    outstanding: Vec<(u16, u32, SimTime)>,
    /// The probe label, rewritten in place each round.
    label: String,
    /// The run's auth and site codes, which answers are interned into.
    codes: Arc<[Arc<str>]>,
    probes: Vec<ProbeRecord>,
    failure_times: Vec<SimTime>,
}

impl VpStub {
    fn qname(&mut self, round: u32) -> Name {
        self.label.clear();
        write!(self.label, "v{}-r{round}", self.index).expect("writing to a String cannot fail");
        self.origin.prepend(&self.label).expect("probe label fits")
    }
}

impl Actor for VpStub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.stagger, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.sent >= self.rounds {
            return;
        }
        let round = self.sent;
        self.sent += 1;
        let id = (round + 1) as u16;
        let query = write_probe_query(ctx.buffer(), id, &self.qname(round));
        self.outstanding.push((id, round, ctx.now()));
        let own = ctx.own_addr();
        ctx.send(own, self.resolver, query);
        if self.sent < self.rounds {
            ctx.set_timer(self.interval, 0);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let decoded = Message::decode(&dgram.payload);
        ctx.recycle(dgram.payload);
        let Ok(resp) = decoded else {
            return;
        };
        let Some(i) = self.outstanding.iter().position(|&(id, ..)| id == resp.header.id) else {
            return;
        };
        let (_, round, sent_at) = self.outstanding.swap_remove(i);
        if resp.rcode() != Rcode::NoError || resp.answers.is_empty() {
            self.failure_times.push(ctx.now());
            return;
        }
        let RData::Txt(txt) = &resp.answers[0].rdata else {
            self.failure_times.push(ctx.now());
            return;
        };
        let Some((auth, site)) = txt.strings().first().and_then(|s| parse_site(s)) else {
            self.failure_times.push(ctx.now());
            return;
        };
        self.probes.push(ProbeRecord {
            time: ctx.now(),
            round,
            auth: intern(&self.codes, auth),
            site: intern(&self.codes, site),
            rtt: ctx.now().since(sent_at),
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Writes into `buf` a VP's probe: the bytes of
/// `Message::stub_query(id, qname, RType::Txt).encode()`, with no
/// `Message` built.
fn write_probe_query(buf: Vec<u8>, id: u16, qname: &Name) -> Vec<u8> {
    let header = Header { id, recursion_desired: true, ..Header::default() };
    let mut w = MessageWriter::new(buf, &header);
    w.question_parts(qname, RType::Txt, Class::In).expect("query encodes");
    w.edns(DEFAULT_EDNS_PAYLOAD).expect("query encodes");
    w.finish()
}

/// Parses the TXT string `site=FRA@FRA` into `("FRA", "FRA")`.
fn parse_site(txt: &[u8]) -> Option<(&[u8], &[u8])> {
    let ident = txt.strip_prefix(b"site=")?;
    let at = ident.iter().position(|&b| b == b'@')?;
    Some((&ident[..at], &ident[at + 1..]))
}

/// The run's shared copy of `code`: a scan of the few codes a
/// deployment has, and a fresh string only for a code it does not.
fn intern(codes: &[Arc<str>], code: &[u8]) -> Arc<str> {
    match codes.iter().find(|c| c.as_bytes() == code) {
        Some(c) => Arc::clone(c),
        None => Arc::from(String::from_utf8_lossy(code)),
    }
}

/// Runs one measurement.
pub fn run_measurement(config: &MeasurementConfig) -> MeasurementResult {
    let mut sim = Simulator::with_latency(config.seed, config.latency.clone());
    let origin = Name::parse("ourtestdomain.nl").expect("static name");
    let family = if config.ipv6 { AddrFamily::V6 } else { AddrFamily::V4 };

    // Authoritatives: one host per site, one address per NS.
    let ns_count = config.deployment.ns_count();
    let mut auth_addrs: Vec<SimAddr> = Vec::new();
    let mut addr_to_auth: HashMap<SimAddr, String> = HashMap::new();
    for (i, spec) in config.deployment.authoritatives.iter().enumerate() {
        let mut site_hosts: Vec<HostId> = Vec::new();
        for (si, site) in spec.sites.iter().enumerate() {
            let zone = test_domain_zone(&origin, ns_count);
            let code = format!("{}@{}", spec.code, site.code);
            let mut server = AuthoritativeServer::new(code, vec![zone]);
            // Whole-NS outages stop every site's server process.
            for outage in config.outages.iter().filter(|o| o.auth == i) {
                let applies = match outage.site {
                    None => true,
                    Some(s) => s == si && spec.sites.len() == 1,
                };
                if applies {
                    server = server.with_outage(
                        SimTime::ZERO + outage.from,
                        SimTime::ZERO + outage.until,
                    );
                }
            }
            let host = sim.add_host(
                HostConfig::at_place(site, SimDuration::from_millis(1), 16_509 + i as u32),
                Box::new(server),
            );
            site_hosts.push(host);
        }
        let addr = if site_hosts.len() == 1 {
            sim.bind_unicast_with_family(site_hosts[0], family)
        } else {
            sim.bind_anycast_with_family(&site_hosts, family)
        };
        // Site-level outages on anycast services: withdraw the
        // announcement so remaining sites absorb the catchment.
        if site_hosts.len() > 1 {
            for outage in config.outages.iter().filter(|o| o.auth == i) {
                if let Some(s) = outage.site {
                    sim.schedule_withdrawal(
                        addr,
                        site_hosts[s],
                        SimTime::ZERO + outage.from,
                        SimTime::ZERO + outage.until,
                    );
                }
            }
        }
        auth_addrs.push(addr);
        addr_to_auth.insert(addr, spec.code.clone());
    }

    // Every code an answer can name, interned once for the whole run.
    let mut codes: Vec<Arc<str>> = Vec::new();
    for spec in &config.deployment.authoritatives {
        for code in std::iter::once(spec.code.as_str()).chain(spec.sites.iter().map(|s| s.code)) {
            if !codes.iter().any(|c| **c == *code) {
                codes.push(Arc::from(code));
            }
        }
    }
    let codes: Arc<[Arc<str>]> = codes.into();

    // Population: separate RNG so placement doesn't depend on packet
    // timing and vice versa.
    let mut prng = DetRng::seed_from_u64(config.seed ^ 0x9e3779b97f4a7c15);
    let catalog = vp_catalog();
    let mut vp_hosts: Vec<HostId> = Vec::with_capacity(config.vp_count);
    let mut resolver_hosts: Vec<Vec<HostId>> = Vec::with_capacity(config.vp_count);
    let mut meta: Vec<(Continent, String, PolicyKind, bool)> =
        Vec::with_capacity(config.vp_count);

    for index in 0..config.vp_count {
        let continent = sample_continent(&mut prng);
        let city = sample_city(&catalog, continent, &mut prng);
        let policy = config.mix.sample(&mut prng);

        let delegation = match config.reach_probability {
            Some(p) => {
                let mut subset: Vec<SimAddr> = auth_addrs
                    .iter()
                    .copied()
                    .filter(|_| prng.gen_bool(p.clamp(0.0, 1.0)))
                    .collect();
                if subset.is_empty() {
                    subset.push(auth_addrs[prng.gen_range(0..auth_addrs.len())]);
                }
                subset
            }
            None => auth_addrs.clone(),
        };
        let forwarded = config.forwarder_fraction > 0.0
            && prng.gen_bool(config.forwarder_fraction.clamp(0.0, 1.0));
        let resolver_count = if forwarded { 2 } else { 1 };
        let mut vp_resolver_hosts = Vec::with_capacity(resolver_count);
        let mut vp_resolver_addrs = Vec::with_capacity(resolver_count);
        for r in 0..resolver_count {
            let mut resolver = match config.infra_expiry_override {
                Some(expiry) => {
                    let mut rc = dnswild_resolver::ResolverConfig::for_policy(policy);
                    rc.infra_expiry = expiry;
                    RecursiveResolver::new(rc)
                }
                None => RecursiveResolver::with_policy(policy),
            };
            resolver.add_delegation(origin.clone(), delegation.clone());
            let r_access = SimDuration::from_millis_f64(prng.gen_range(0.5..4.0));
            let resolver_host = sim.add_host(
                HostConfig {
                    point: city.point,
                    continent: city.continent,
                    asn: 64_512 + (index as u32 % 1_024),
                    access_latency: r_access,
                    label: format!("resolver-{index}-{r}"),
                },
                Box::new(resolver),
            );
            vp_resolver_hosts.push(resolver_host);
            vp_resolver_addrs.push(sim.bind_unicast_with_family(resolver_host, family));
        }
        let resolver_addr = if forwarded {
            let fwd_host = sim.add_host(
                HostConfig {
                    point: city.point,
                    continent: city.continent,
                    asn: 64_512 + (index as u32 % 1_024),
                    access_latency: SimDuration::from_millis_f64(prng.gen_range(0.2..1.5)),
                    label: format!("forwarder-{index}"),
                },
                Box::new(crate::forwarder::Forwarder::new(vp_resolver_addrs.clone())),
            );
            sim.bind_unicast_with_family(fwd_host, family)
        } else {
            vp_resolver_addrs[0]
        };

        let stagger_us = prng.gen_range(0..config.interval.as_micros().max(1));
        let v_access = SimDuration::from_millis_f64(prng.gen_range(2.0..20.0));
        let stub = VpStub {
            resolver: resolver_addr,
            origin: origin.clone(),
            index,
            interval: config.interval,
            rounds: config.rounds,
            stagger: SimDuration::from_micros(stagger_us),
            sent: 0,
            outstanding: Vec::new(),
            label: String::new(),
            codes: Arc::clone(&codes),
            probes: Vec::with_capacity(config.rounds as usize),
            failure_times: Vec::new(),
        };
        let vp_host = sim.add_host(
            HostConfig {
                point: city.point,
                continent: city.continent,
                asn: 64_512 + (index as u32 % 1_024),
                access_latency: v_access,
                label: format!("vp-{index}"),
            },
            Box::new(stub),
        );
        sim.bind_unicast_with_family(vp_host, family);

        vp_hosts.push(vp_host);
        resolver_hosts.push(vp_resolver_hosts);
        meta.push((continent, city.code.to_string(), policy, forwarded));
    }

    // Run: all rounds plus a grace period for stragglers and timeouts.
    let total = config.interval.saturating_mul(config.rounds as u64 + 1)
        + SimDuration::from_secs(60);
    sim.run_until(SimTime::ZERO + total);

    // Harvest: move every record out of the actors, copying nothing.
    let mut vps = Vec::with_capacity(config.vp_count);
    for (index, (continent, city, policy, forwarded)) in meta.into_iter().enumerate() {
        let mut samples = Vec::new();
        for &rh in &resolver_hosts[index] {
            let resolver = sim.actor_mut::<RecursiveResolver>(rh).expect("resolver actor");
            let taken = resolver.take_samples();
            if samples.is_empty() {
                samples = taken;
            } else {
                samples.extend(taken);
            }
        }
        samples.sort_by_key(|s| s.time);
        let stub = sim.actor_mut::<VpStub>(vp_hosts[index]).expect("vp actor");
        let mut failure_times = std::mem::take(&mut stub.failure_times);
        // Probes still in flight at harvest never completed: count them
        // as failures at their send time.
        failure_times.extend(stub.outstanding.iter().map(|&(_, _, sent)| sent));
        failure_times.sort_unstable();
        vps.push(VpResult {
            index,
            continent,
            city,
            policy,
            forwarded,
            probes: std::mem::take(&mut stub.probes),
            failures: failure_times.len() as u32,
            failure_times,
            samples,
        });
    }

    MeasurementResult {
        deployment: config.deployment.clone(),
        interval: config.interval,
        rounds: config.rounds,
        vps,
        addr_to_auth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(vps: usize, seed: u64) -> MeasurementResult {
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2C, vps, seed);
        cfg.rounds = 10;
        run_measurement(&cfg)
    }

    /// The probe writer and the site parser stand in for a `Message`
    /// encode and `first_as_string`: same bytes, same strings.
    #[test]
    fn probe_query_and_site_parse_match_the_message_path() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        for (id, label) in [(1u16, "v0-r0"), (31, "v2499-r30"), (u16::MAX, "v12-r7")] {
            let qname = origin.prepend(label).unwrap();
            let want = Message::stub_query(id, qname.clone(), RType::Txt).encode().unwrap();
            assert_eq!(write_probe_query(vec![0xa5; 300], id, &qname), want, "{label}");
        }
        assert_eq!(parse_site(b"site=FRA@FRA"), Some((&b"FRA"[..], &b"FRA"[..])));
        assert_eq!(parse_site(b"site=B@LHR@x"), Some((&b"B"[..], &b"LHR@x"[..])));
        assert_eq!(parse_site(b"site=FRA"), None);
        assert_eq!(parse_site(b"FRA@FRA"), None);
    }

    #[test]
    fn probes_complete_and_identify_sites() {
        let result = quick(40, 1);
        assert_eq!(result.vps.len(), 40);
        let total = result.probe_count();
        let expected = 40 * 10;
        // Default loss is 0.3% per leg; almost everything completes.
        assert!(
            total as f64 > expected as f64 * 0.97,
            "only {total}/{expected} probes completed"
        );
        for vp in &result.vps {
            for p in &vp.probes {
                assert!(matches!(&*p.auth, "FRA" | "SYD"), "unexpected auth {}", p.auth);
                assert_eq!(p.auth, p.site, "unicast: site equals auth");
                assert!(Arc::ptr_eq(&p.auth, &p.site), "one interned copy per code");
                assert!(p.rtt.as_millis_f64() > 0.0);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(15, 7);
        let b = quick(15, 7);
        for (va, vb) in a.vps.iter().zip(b.vps.iter()) {
            assert_eq!(va.probes, vb.probes);
            assert_eq!(va.policy, vb.policy);
            assert_eq!(va.city, vb.city);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(15, 8);
        let b = quick(15, 9);
        let fingerprint = |r: &MeasurementResult| -> Vec<Arc<str>> {
            r.vps.iter().flat_map(|v| v.probes.iter().map(|p| p.auth.clone())).collect()
        };
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn eu_vps_prefer_fra_in_2c() {
        // The aggregate preference the whole paper is about, in miniature:
        // European VPs see FRA at ~20ms and SYD at ~300ms; the
        // latency-driven part of the mix must tilt the aggregate.
        let result = quick(120, 2);
        let (mut fra, mut syd) = (0usize, 0usize);
        for vp in result.vps.iter().filter(|v| v.continent == Continent::Eu) {
            for p in &vp.probes {
                match &*p.auth {
                    "FRA" => fra += 1,
                    "SYD" => syd += 1,
                    _ => {}
                }
            }
        }
        let share = fra as f64 / (fra + syd) as f64;
        assert!(share > 0.6, "EU share to FRA should be strong, got {share:.2}");
    }

    #[test]
    fn resolver_samples_map_to_auth_codes() {
        let result = quick(10, 3);
        for vp in &result.vps {
            for s in &vp.samples {
                assert!(
                    result.addr_to_auth.contains_key(&s.server),
                    "sample server missing from addr map"
                );
            }
        }
    }

    #[test]
    fn anycast_deployment_reports_site_and_auth() {
        use crate::config::AuthoritativeSpec;
        use dnswild_netsim::geo::datacenters;
        let deployment = DeploymentSpec {
            name: "anycast-test".into(),
            authoritatives: vec![
                AuthoritativeSpec::anycast(
                    "any1",
                    &[&datacenters::FRA, &datacenters::SYD, &datacenters::IAD],
                ),
                AuthoritativeSpec::unicast(&datacenters::GRU),
            ],
        };
        let cfg = MeasurementConfig {
            deployment,
            vp_count: 60,
            interval: SimDuration::from_mins(2),
            rounds: 8,
            seed: 4,
            mix: PolicyMix::default(),
            latency: LatencyConfig::default(),
            ipv6: false,
            reach_probability: None,
            outages: Vec::new(),
            infra_expiry_override: None,
            forwarder_fraction: 0.0,
        };
        let result = run_measurement(&cfg);
        let mut anycast_sites = std::collections::HashSet::new();
        for vp in &result.vps {
            for p in &vp.probes {
                if &*p.auth == "any1" {
                    anycast_sites.insert(p.site.clone());
                } else {
                    assert_eq!(&*p.auth, "GRU");
                    assert_eq!(&*p.site, "GRU");
                }
            }
        }
        assert!(
            anycast_sites.len() >= 2,
            "anycast catchments should split VPs across sites, got {anycast_sites:?}"
        );
    }

    #[test]
    fn ipv6_measurement_runs_identically_in_shape() {
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2B, 30, 5);
        cfg.rounds = 6;
        cfg.ipv6 = true;
        let result = run_measurement(&cfg);
        assert!(result.probe_count() > 30 * 6 * 9 / 10);
        for (addr, _) in result.addr_to_auth.iter() {
            assert_eq!(addr.family(), AddrFamily::V6);
        }
    }

    #[test]
    fn continent_distribution_is_atlas_like() {
        let result = quick(400, 6);
        let eu = result.vps.iter().filter(|v| v.continent == Continent::Eu).count();
        let share = eu as f64 / 400.0;
        assert!((0.6..0.8).contains(&share), "EU share {share}");
    }
}
