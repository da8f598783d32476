//! End-to-end tests of the metrics plane over real loopback sockets:
//! a metered serve + blast must expose counters over HTTP that agree
//! *exactly* with the server's own atomic books, time every hot-path
//! stage, keep the share-vs-RTT watchdog healthy on a clean run, and
//! tell the same story through the CH TXT `stats.dnswild.` answer and
//! the Prometheus scrape.

use std::net::UdpSocket;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnswild::lab::{chaos, origin, plain, ChaosSpec, PlainSpec, Rig};
use dnswild_metrics::{
    parse_exposition, scrape, MetricsServer, Registry, Watchdog, WatchdogConfig,
};
use dnswild_netio::{blast, mirror_collector, serve, Collector, CollectorConfig, LoadConfig, ServeConfig};
use dnswild_proto::{Class, Message, Name, RData, RType, Rcode};
use dnswild_zone::presets::test_domain_zone;

fn temp_trace(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dnswild-mplane-{name}-{}.dwt", std::process::id()));
    p
}

/// A metered plain gate, scraped over real HTTP: the rig's shared
/// epilogue requires the per-auth `dnswild_server_events_total`
/// counters to equal the server's final [`dnswild_server::ServerStats`]
/// field for field; on top, the load generator's counters must equal
/// its report and all five hot-path stages must have recorded spans.
#[test]
fn scraped_counters_match_the_server_books_exactly() {
    let spec = PlainSpec { queries: 400, concurrency: 2 };
    let report = plain(&Rig::default().metered(), &spec).unwrap();
    assert!(report.passed(), "{:?}", report.failures);
    let load = report.load.as_ref().unwrap();
    let sample = |name: &str| {
        report.samples.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no {name}"))
    };
    assert_eq!(sample("dnswild_load_sent_total").value, load.sent as f64);
    assert_eq!(sample("dnswild_load_answered_total").value, load.received as f64);
    for stage in ["recv", "decode", "engine", "encode", "send"] {
        let count = report
            .samples
            .iter()
            .find(|s| s.name == "dnswild_stage_ns_count" && s.label("stage") == Some(stage))
            .unwrap_or_else(|| panic!("no span histogram for stage={stage}"));
        assert!(count.value > 0.0, "stage {stage} never timed");
    }
}

/// A fault-free resolve through the chaos gate's two proxies must leave
/// every watchdog law unbreached: full coverage, zero SERVFAILs, no
/// ring overflow, and a share-vs-1/SRTT deviation that is either in
/// tolerance or vacuous (near-equal RTTs on loopback).
#[test]
fn watchdog_stays_healthy_on_a_clean_resolve() {
    let spec = ChaosSpec { loss: 0.0, corrupt: 0.0, ..ChaosSpec::new(300, 2017) };
    let report = chaos(&Rig::default().metered(), &spec).unwrap();
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(report.client.unwrap().servfails, 0, "clean loopback must not give up");
    let verdict = report.watchdog.expect("metered runs keep the watchdog's verdict");
    assert!(verdict.healthy(), "clean run breached a law: {verdict:?}");
    assert!((verdict.coverage - 1.0).abs() < 1e-9, "every auth was reached");
    assert_eq!(verdict.servfail_rate, 0.0);
}

/// The CH TXT `stats.dnswild.` introspection answer and the Prometheus
/// scrape are two views of the same snapshot cell: after the trace
/// drains, `seen=` in the TXT answer equals `dnswild_trace_queries` in
/// the scrape, and the answer advertises both planes as live.
#[test]
fn ch_txt_stats_and_scrape_tell_the_same_story() {
    let path = temp_trace("chtxt");
    let collector =
        Arc::new(Collector::start(CollectorConfig::new(&path).auths(["FRA"])).unwrap());
    let registry = Arc::new(Registry::new());
    let http = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    mirror_collector(&registry, &collector);
    let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
    let handle = serve(
        ServeConfig::new("127.0.0.1:0", "FRA", zones)
            .threads(1)
            .collector(Arc::clone(&collector), 0)
            .metrics(Arc::clone(&registry)),
    )
    .unwrap();
    let report =
        blast(LoadConfig::new(handle.local_addr(), origin()).concurrency(1).queries(120)).unwrap();
    assert!(report.all_answered());

    // Wait for the drain thread to absorb all 120 query events.
    let deadline = Instant::now() + Duration::from_secs(10);
    while collector.snapshot().queries < 120 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let drained = collector.snapshot().queries;
    assert!(drained >= 120, "drain stalled at {drained} events");

    let text = scrape(http.local_addr()).unwrap();
    let samples = parse_exposition(&text);
    let gauge = samples.iter().find(|s| s.name == "dnswild_trace_queries").unwrap();
    assert_eq!(gauge.value, drained as f64);

    let mut q = Message::iterative_query(7, Name::parse("stats.dnswild").unwrap(), RType::Txt);
    q.questions[0].qclass = Class::Ch;
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sock.send_to(&q.encode().unwrap(), handle.local_addr()).unwrap();
    let mut buf = [0u8; 2048];
    let (n, _) = sock.recv_from(&mut buf).unwrap();
    let resp = Message::decode(&buf[..n]).unwrap();
    assert_eq!(resp.rcode(), Rcode::NoError);
    let RData::Txt(t) = &resp.answers[0].rdata else { panic!("expected a TXT answer") };
    let answer = t.first_as_string();
    // The TXT query's own event may or may not have drained by the time
    // the engine renders the snapshot, so allow seen ∈ {drained, drained+1}.
    let seen: u64 = answer
        .strip_prefix("seen=")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparseable TXT answer: {answer:?}"));
    assert!(
        seen == drained || seen == drained + 1,
        "TXT and scrape disagree: seen={seen} vs drained={drained} ({answer:?})"
    );
    assert!(answer.contains(" uptime_s="), "no uptime in {answer:?}");
    assert!(answer.contains(" trace=1"), "trace plane not advertised in {answer:?}");
    assert!(answer.ends_with(" metrics=1"), "metrics plane not advertised in {answer:?}");

    handle.shutdown();
    collector.finish().unwrap();
    http.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The ring-overflow law must not depend on anyone scraping: the
/// `dnswild_trace_overflow` gauge is refreshed by a scrape hook, and a
/// `serve --metrics-addr` nobody polls still has to breach when its
/// rings drop events. Overflow a tiny ring, never scrape, evaluate.
#[test]
fn watchdog_sees_ring_overflow_on_an_unscraped_registry() {
    use dnswild_telemetry::{Event, EventKind};
    let path = temp_trace("unscraped");
    let collector = Arc::new(
        Collector::start(
            CollectorConfig::new(&path)
                .auths(["FRA"])
                .ring_capacity(8)
                .drain_interval(Duration::from_millis(200)),
        )
        .unwrap(),
    );
    let registry = Arc::new(Registry::new());
    mirror_collector(&registry, &collector);
    let watchdog = Watchdog::new(Arc::clone(&registry), WatchdogConfig::default());
    assert!(!watchdog.eval_now().overflow_breach, "nothing recorded yet");

    let producer = collector.producer();
    let dropped =
        (0..64).filter(|_| !producer.record(&Event::new(EventKind::ServerQuery))).count();
    assert!(dropped > 0, "64 events into an 8-slot ring must overflow");

    let verdict = watchdog.eval_now();
    assert!(verdict.overflow_breach, "overflow of {dropped} never reached the watchdog");
    assert_eq!(verdict.overflow, dropped as f64);
    collector.finish().unwrap();
    std::fs::remove_file(&path).ok();
}

/// The exposition endpoint speaks enough HTTP for real scrapers: the
/// content type is versioned Prometheus text, unknown paths 404, and
/// histograms carry a `+Inf` bucket equal to `_count`.
#[test]
fn exposition_is_wellformed_prometheus_text() {
    let registry = Arc::new(Registry::new());
    let c = registry.counter("dnswild_test_total", "a counter");
    c.add(7);
    let h = registry.histogram("dnswild_test_ns", "a histogram");
    h.record(500);
    h.record(70_000);
    let http = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&registry)).unwrap();

    let text = scrape(http.local_addr()).unwrap();
    assert!(text.contains("# TYPE dnswild_test_total counter"));
    assert!(text.contains("dnswild_test_total 7"));
    assert!(text.contains("# TYPE dnswild_test_ns histogram"));
    assert!(text.contains("dnswild_test_ns_bucket{le=\"+Inf\"} 2"));
    assert!(text.contains("dnswild_test_ns_count 2"));

    let samples = parse_exposition(&text);
    let count = samples.iter().find(|s| s.name == "dnswild_test_ns_count").unwrap();
    let inf = samples
        .iter()
        .find(|s| s.name == "dnswild_test_ns_bucket" && s.label("le") == Some("+Inf"))
        .unwrap();
    assert_eq!(count.value, inf.value);
    http.shutdown();
}
