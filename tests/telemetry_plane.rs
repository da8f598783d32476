//! End-to-end tests of the telemetry plane over real loopback sockets:
//! a traced serve + blast must close the books exactly against the
//! server's own atomic counters, reproduce the same trace digest for
//! the same seed, and feed the paper's analyses; tracing adds no
//! answer of its own (`CH TXT stats.dnswild.` stays REFUSED).

use std::net::UdpSocket;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dnswild::lab::{origin, run, GateReport, Rig, Scenario};
use dnswild_analysis::{trace_auth_counts, trace_client_counts, trace_to_measurement};
use dnswild_netio::{serve, Collector, CollectorConfig, ServeConfig, Trace};
use dnswild_proto::{Class, Message, Name, RType, Rcode};
use dnswild_telemetry::EventKind;
use dnswild_zone::presets::test_domain_zone;

fn temp_trace(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dnswild-tplane-{name}-{}.dwt", std::process::id()));
    p
}

/// One traced plain gate on loopback — serve + blast, both ends feeding
/// the same collector, the server as auth 0 ("FRA") — which must pass.
/// Returns the report and the trace it read back.
fn traced_run(name: &str, queries: u64) -> (GateReport, Trace) {
    let path = temp_trace(name);
    let spec = Scenario { rig: Rig::traced(&path), ..Scenario::blast(queries, 2) };
    let mut report = run(&spec).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(report.passed(), "loopback run failed: {:?}", report.failures);
    let trace = report.trace.take().expect("traced run reads its trace back");
    (report, trace)
}

#[test]
fn traced_round_trip_closes_against_server_counters() {
    let (report, trace) = traced_run("closure", 400);
    assert_eq!(trace.overflow, 0, "ring overflow during a smoke-rate run");

    // Exact closure: one ServerQuery event per decoded query, one
    // ClientQuery event per attempt — all three views agree.
    let sent = report.load.as_ref().unwrap().stats.sent;
    let count = |kind| trace.events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count(EventKind::ServerQuery), report.server.queries);
    assert_eq!(count(EventKind::ServerQuery), sent);
    assert_eq!(count(EventKind::ClientQuery), sent);

    let counts = trace_auth_counts(&trace);
    assert_eq!(counts.get("FRA").copied(), Some(report.server.queries));
    assert_eq!(counts.len(), 1);
}

#[test]
fn same_seed_runs_produce_identical_trace_digests() {
    let (r1, t1) = traced_run("digest-a", 300);
    let (r2, t2) = traced_run("digest-b", 300);
    assert_eq!(t1.events.len(), t2.events.len());
    // The digest keys on event *content* (qname hash, auth, kind,
    // rcode, sizes, flags) and ignores wall-clock fields, so two runs
    // of the same seeded workload match even though their timestamps,
    // latencies and ephemeral ports differ — which is why the plain
    // gate marks its `trace-digest` line deterministic.
    assert_eq!(t1.digest(), t2.digest());
    assert_eq!(r1.deterministic(), r2.deterministic());
    assert_eq!(r1.deterministic(), [format!("trace-digest: {:016x}", t1.digest())]);
}

#[test]
fn trace_feeds_the_paper_analyses() {
    let (_, trace) = traced_run("analyses", 200);

    let result = trace_to_measurement(&trace);
    let cov = dnswild_analysis::coverage(&result);
    // Two blast sockets → two server-side client groups with probes.
    assert_eq!(cov.vp_count, 2, "one covered VP per client socket");
    let shares = dnswild_analysis::query_share(&result);
    let total: f64 = shares.iter().map(|s| s.share).sum();
    assert!((total - 1.0).abs() < 1e-6, "shares sum to 1, got {total}");

    let clients = trace_client_counts(&trace);
    let profile = dnswild_analysis::rank_profile(&clients, 1, 1);
    assert_eq!(profile.client_count, clients.len());
}

#[test]
fn stats_dnswild_answer_is_refused_traced_or_not() {
    let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
    let mut q = Message::iterative_query(7, Name::parse("stats.dnswild").unwrap(), RType::Txt);
    q.questions[0].qclass = Class::Ch;
    let payload = q.encode().unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 2048];
    let path = temp_trace("stats");
    let collector =
        Arc::new(Collector::start(CollectorConfig::new(&path).auths(["FRA"])).unwrap());
    for traced in [false, true] {
        let mut config = ServeConfig::new("127.0.0.1:0", "FRA", Arc::clone(&zones)).threads(1);
        if traced {
            config = config.collector(Arc::clone(&collector), 0);
        }
        let handle = serve(config).unwrap();
        sock.send_to(&payload, handle.local_addr()).unwrap();
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        let resp = Message::decode(&buf[..n]).unwrap();
        assert_eq!(resp.rcode(), Rcode::Refused, "traced={traced}: exactly like the simulator");
        assert!(resp.answers.is_empty());
        handle.shutdown();
    }
    collector.finish().unwrap();
    std::fs::remove_file(&path).ok();
}
