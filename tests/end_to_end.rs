//! Integration tests spanning the whole stack: proto ↔ zone ↔ server ↔
//! resolver ↔ atlas ↔ analysis, through the simulator.

use std::collections::HashMap;
use std::sync::Arc;

use std::sync::Mutex;

use dnswild::analysis;
use dnswild::atlas::{run_measurement, MeasurementConfig, StandardConfig};
use dnswild::netsim::geo::datacenters;
use dnswild::netsim::{Continent, HostConfig, LatencyConfig, SimDuration, Simulator};
use dnswild::proto::{Message, Name, RType};
use dnswild::resolver::{PolicyKind, RecursiveResolver};
use dnswild::server::{AuthoritativeServer, ServerLog};
use dnswild::zone::presets::test_domain_zone;
use dnswild::Experiment;

#[test]
fn full_pipeline_produces_consistent_analyses() {
    let mut cfg = MeasurementConfig::quick(StandardConfig::C2B, 120, 1);
    cfg.rounds = 12;
    let result = run_measurement(&cfg);

    let coverage = analysis::coverage(&result);
    let shares = analysis::query_share(&result);
    let pref = analysis::preference(&result);

    // Cross-consistency: the same probes drive all three analyses.
    assert_eq!(coverage.vp_count, result.vps.iter().filter(|v| !v.probes.is_empty()).count());
    let share_total: f64 = shares.iter().map(|s| s.share).sum();
    assert!((share_total - 1.0).abs() < 1e-9);

    // Table 2 shares must be consistent with per-VP fractions: every
    // continent row's shares sum to 1.
    for row in pref.table.iter().filter(|r| r.vp_count > 0) {
        assert!((row.share[0] + row.share[1] - 1.0).abs() < 1e-9);
    }
}

/// The paper's middlebox sanity check (§3.1): client-side observations
/// and authoritative-side logs tell the same story.
#[test]
fn client_and_server_views_agree() {
    // Build a small measurement manually so we can attach server logs.
    let mut sim = Simulator::with_latency(
        7,
        LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.5, ..LatencyConfig::default() },
    );
    let origin = Name::parse("ourtestdomain.nl").unwrap();
    let log: ServerLog = Arc::new(Mutex::new(Vec::new()));

    let mut server_addrs = Vec::new();
    let mut server_hosts = Vec::new();
    for site in [&datacenters::FRA, &datacenters::SYD] {
        let zone = test_domain_zone(&origin, 2);
        let server =
            AuthoritativeServer::new(format!("{}@{}", site.code, site.code), vec![zone])
                .with_log(log.clone());
        let h = sim.add_host(
            HostConfig::at_place(site, SimDuration::from_millis(1), 1),
            Box::new(server),
        );
        server_hosts.push(h);
        server_addrs.push(sim.bind_unicast(h));
    }

    let mut resolver = RecursiveResolver::with_policy(PolicyKind::UniformRandom);
    resolver.add_delegation(origin.clone(), server_addrs.clone());
    let rh = sim.add_host(
        HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
        Box::new(resolver),
    );
    let raddr = sim.bind_unicast(rh);

    // Drive queries directly as a stub actor would.
    use dnswild::netsim::{Actor, Context, Datagram};
    use std::any::Any;
    struct Driver {
        resolver: dnswild::netsim::SimAddr,
        origin: Name,
        sent: u32,
        answers: Vec<String>,
    }
    impl Actor for Driver {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
            if self.sent >= 20 {
                return;
            }
            let qname = self.origin.prepend(&format!("q{}", self.sent)).unwrap();
            let q = Message::stub_query(self.sent as u16 + 1, qname, RType::Txt);
            self.sent += 1;
            let own = ctx.own_addr();
            ctx.send(own, self.resolver, q.encode().unwrap());
            ctx.set_timer(SimDuration::from_secs(10), 0);
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, d: Datagram) {
            let m = Message::decode(&d.payload).unwrap();
            if let dnswild::proto::RData::Txt(t) = &m.answers[0].rdata {
                self.answers.push(t.first_as_string());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let dh = sim.add_host(
        HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(5), 3),
        Box::new(Driver { resolver: raddr, origin, sent: 0, answers: vec![] }),
    );
    sim.bind_unicast(dh);
    sim.run_until_idle();

    // Client view: count answers by site.
    let driver = sim.actor::<Driver>(dh).unwrap();
    assert_eq!(driver.answers.len(), 20);
    let mut client_counts: HashMap<String, usize> = HashMap::new();
    for a in &driver.answers {
        *client_counts.entry(a.clone()).or_default() += 1;
    }

    // Server view: the combined logs, counted per service address.
    let entries = log.lock().expect("server log mutex poisoned");
    assert_eq!(entries.len(), 20, "every probe reached exactly one authoritative");
    let mut server_counts: HashMap<String, usize> = HashMap::new();
    for e in entries.iter() {
        let idx = server_addrs.iter().position(|&a| a == e.service).unwrap();
        let code = ["FRA", "SYD"][idx];
        *server_counts.entry(format!("site={code}@{code}")).or_default() += 1;
    }
    assert_eq!(client_counts, server_counts, "middleboxes absent: views agree");
}

#[test]
fn three_and_four_ns_configs_work_end_to_end() {
    for (config, ns) in [(StandardConfig::C3B, 3usize), (StandardConfig::C4A, 4usize)] {
        let report = Experiment::standard(config, 3).vantage_points(60).rounds(12).run();
        let coverage = report.coverage();
        assert_eq!(coverage.ns_count, ns);
        assert!(coverage.pct_reaching_all > 50.0, "{}: {:.0}%", config.label(), coverage.pct_reaching_all);
        let shares = report.share();
        assert_eq!(shares.len(), ns);
        let total: f64 = shares.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn continents_present_in_population() {
    let report = Experiment::standard(StandardConfig::C2B, 4).vantage_points(500).rounds(4).run();
    for continent in Continent::ALL {
        let n = report.result.vps.iter().filter(|v| v.continent == continent).count();
        assert!(n > 0, "no VPs on {continent}");
    }
}

#[test]
fn experiment_is_deterministic_across_full_stack() {
    let run = || {
        let report =
            Experiment::standard(StandardConfig::C2C, 99).vantage_points(50).rounds(8).run();
        let pref = report.preference();
        (
            format!("{:.6}", pref.weak_pct),
            format!("{:.6}", pref.strong_pct),
            report.result.probe_count(),
        )
    };
    assert_eq!(run(), run());
}

/// The chaos plane on real sockets: the same retry/backoff/SRTT stack,
/// but with the simulator's loss/jitter replaced by the seed-driven
/// fault proxy of `dnswild_netio::chaos`.
mod chaos_plane {
    use std::sync::Arc;

    use dnswild::lab::{origin, run, Faults, GateReport, Scenario};
    use dnswild::netio::{
        resolve, serve, ChaosProxy, FaultPlan, FaultProfile, ResolveConfig, ServeConfig,
    };
    use dnswild::zone::presets::test_domain_zone;

    /// One complete chaos gate: a real server behind two fault proxies
    /// sharing one plan — 10% loss split across the two directions, 2%
    /// duplication, delays up to 20 ms — driven by the resolver client.
    fn chaos_run(seed: u64) -> GateReport {
        let faults = Faults { corrupt: 0.0, ..Faults::CANONICAL };
        let report = run(&Scenario { faults: Some(faults), ..Scenario::chaos(120, seed) }).unwrap();
        assert!(report.passed(), "seed {seed}: {:?}", report.failures);
        report
    }

    /// Two fixed seeds, each run twice: byte-identical fault schedules
    /// (digest + event count) and identical resolver/server counter
    /// summaries across runs (the per-server split is deliberately not
    /// a deterministic line — it follows real RTTs); the seeds diverge
    /// from each other.
    #[test]
    fn chaos_runs_reproduce_for_fixed_seeds() {
        let (a1, a2) = (chaos_run(11), chaos_run(11));
        assert_eq!(a1.deterministic(), a2.deterministic(), "seed 11 must reproduce exactly");
        assert_eq!(a1.server, a2.server);
        let (b1, b2) = (chaos_run(12), chaos_run(12));
        assert_eq!(b1.deterministic(), b2.deterministic(), "seed 12 must reproduce exactly");
        assert_eq!(b1.server, b2.server);
        // Past the `chaos-summary` line, which names the seed itself.
        assert_ne!(
            a1.deterministic()[1..],
            b1.deterministic()[1..],
            "different seeds must produce different schedules"
        );
        // Under this profile nothing should be lost outright.
        let books = a1.client.unwrap();
        assert_eq!(books.answered + books.servfails, 120);
        assert!(books.answered > 100, "10% loss cannot starve the run: {books:?}");
    }

    /// §4.2 on real sockets: with one fast lossless path and one slow
    /// path to the same authoritative, the BIND-style SRTT policy
    /// shifts the bulk of the attempts onto the fast path.
    #[test]
    fn srtt_reranking_prefers_the_fast_path() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let fast_plan =
            Arc::new(FaultPlan::new(1, FaultProfile::lossless(), FaultProfile::lossless()));
        let slow_profile = FaultProfile::lossless().delay_ms(15, 25);
        let slow_plan = Arc::new(FaultPlan::new(2, slow_profile, slow_profile));
        let server = handle.local_addr();
        let fast = ChaosProxy::spawn("127.0.0.1:0", server, fast_plan, None).unwrap();
        let slow = ChaosProxy::spawn("127.0.0.1:0", server, slow_plan, None).unwrap();

        let report = resolve(
            ResolveConfig::new(vec![fast.local_addr(), slow.local_addr()], origin())
                .transactions(300)
                .concurrency(2),
        )
        .unwrap();
        fast.shutdown();
        slow.shutdown();
        handle.shutdown();

        report.stats.check().unwrap();
        assert_eq!(report.stats.answered, 300, "both paths are lossless: {:?}", report.stats);
        let total: u64 = report.per_server.iter().sum();
        assert!(
            report.per_server[0] * 10 >= total * 6,
            "SRTT re-ranking should put >=60% of attempts on the fast path: {:?}",
            report.per_server
        );
    }
}
