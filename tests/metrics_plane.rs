//! End-to-end tests of the metrics plane over real loopback sockets:
//! a metered serve + blast must expose counters over HTTP that agree
//! *exactly* with the server's own atomic books, time every hot-path
//! stage and keep the share-vs-RTT watchdog healthy on a clean run —
//! and every other ledger the registry mirrors (cache, resolver client,
//! load generator, chaos plan, trace collector) must scrape as exactly
//! its owner's books.

use std::net::UdpSocket;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dnswild::lab::{origin, run, start_collector, Faults, Rig, Scenario};
use dnswild_metrics::watchdog::inputs;
use dnswild_metrics::{
    parse_exposition, scrape, CounterSet, MetricsServer, Registry, Watchdog,
};
use dnswild_netio::{
    blast, resolve, serve, CacheConfig, CollectorConfig, Direction, FaultPlan, FaultProfile,
    LoadConfig, ResolveConfig, ServeConfig, SharedCache, TcpFaultProfile,
};
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
    let spec = Scenario { rig: Rig::default().metered(), ..Scenario::blast(400, 2) };
    let report = run(&spec).unwrap();
    assert!(report.passed(), "{:?}", report.failures);
    let load = report.load.as_ref().unwrap();
    let sample = |kind: &str| {
        let name = "dnswild_load_events_total";
        let found = report.samples.iter().find(|s| s.name == name && s.label("kind") == Some(kind));
        found.unwrap_or_else(|| panic!("no {name}{{kind={kind}}}"))
    };
    assert_eq!(sample("sent").value, load.stats.sent as f64);
    assert_eq!(sample("received").value, load.stats.received as f64);
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
    let clean = Faults { loss: 0.0, corrupt: 0.0 };
    let spec = Scenario { faults: Some(clean), ..Scenario::chaos(300, 2017) };
    let report = run(&Scenario { rig: Rig::default().metered(), ..spec }).unwrap();
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(report.client.unwrap().servfails, 0, "clean loopback must not give up");
    let verdict = report.watchdog.expect("metered runs keep the watchdog's verdict");
    assert!(verdict.healthy(), "clean run breached a law: {verdict:?}");
    assert!((verdict.coverage - 1.0).abs() < 1e-9, "every auth was reached");
    assert_eq!(verdict.servfail_rate, 0.0);
}

/// The ring-overflow law must not depend on anyone scraping: the
/// `dnswild_trace_events_total{kind="overflow"}` series is refreshed by
/// a scrape hook, and a `serve --metrics-addr` nobody polls still has to
/// breach when its rings drop events. Overflow a tiny ring, never
/// scrape, evaluate.
#[test]
fn watchdog_sees_ring_overflow_on_an_unscraped_registry() {
    use dnswild_telemetry::{Event, EventKind};
    let path = temp_trace("unscraped");
    let registry = Arc::new(Registry::new());
    let config = CollectorConfig::new(&path)
        .auths(["FRA"])
        .ring_capacity(8)
        .drain_interval(Duration::from_millis(200));
    let collector = start_collector(config, Some(&registry)).unwrap();
    let watchdog = Watchdog::new(Arc::clone(&registry));
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

/// After quiescence, every `kind` of `family{labels.., kind}` in the
/// exposition is exactly its owner's `books` — one sample per field.
fn assert_scrape_is_the_books<S: CounterSet<N>, const N: usize>(
    registry: &Registry,
    family: &str,
    labels: &[(&str, &str)],
    books: S,
) {
    let samples = parse_exposition(&registry.render());
    for (kind, want) in books.kinds() {
        let got: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == family && s.label("kind") == Some(kind))
            .filter(|s| labels.iter().all(|(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
            .collect();
        assert_eq!(got, [want as f64], "{family}{labels:?} kind={kind}");
    }
}

/// The one sample of an unlabelled gauge.
fn gauge(registry: &Registry, name: &str) -> f64 {
    let samples = parse_exposition(&registry.render());
    samples.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

/// A record cache filled cold, then hit warm: its registered feed is
/// its own books, kind for kind, and its entry count.
#[test]
fn the_cache_scrapes_as_its_books() {
    let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
    let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
    let registry = Registry::new();
    let cache = SharedCache::new(CacheConfig { capacity: 48, ..CacheConfig::default() });
    cache.register(&registry);
    let cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
        .transactions(64)
        .concurrency(2)
        .cache(Arc::clone(&cache));
    for _ in 0..2 {
        resolve(cfg.clone()).unwrap();
    }
    handle.shutdown();
    let books = cache.stats();
    assert!(books.hits > 0 && books.evictions > 0, "{books:?}");
    assert_scrape_is_the_books(&registry, "dnswild_cache_events_total", &[], books);
    assert_eq!(gauge(&registry, "dnswild_cache_entries"), cache.len() as f64);
}

/// One metered `resolve()` against a live and a silent authoritative:
/// the client ledger scrapes as the report's books, and each auth's
/// attempt series as its `per_server` entry.
#[test]
fn one_resolve_scrapes_as_its_report() {
    let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
    let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
    let silent = UdpSocket::bind("127.0.0.1:0").unwrap();
    let servers = vec![handle.local_addr(), silent.local_addr().unwrap()];
    let registry = Arc::new(Registry::new());
    let report = resolve(
        ResolveConfig::new(servers.clone(), origin())
            .transactions(80)
            .concurrency(2)
            .timeout(Duration::from_millis(20))
            .metrics(Arc::clone(&registry)),
    )
    .unwrap();
    handle.shutdown();
    assert!(report.stats.timeouts > 0 && report.stats.answered > 0, "{:?}", report.stats);
    assert_scrape_is_the_books(&registry, inputs::CLIENT_EVENTS, &[], report.stats);
    let attempts = registry.counters(inputs::ATTEMPTS);
    for (server, want) in servers.iter().zip(&report.per_server) {
        let auth = ("auth".to_string(), server.to_string());
        let got: Vec<u64> =
            attempts.iter().filter(|(labels, _)| labels.contains(&auth)).map(|s| s.1).collect();
        assert_eq!(got, [*want], "attempts of {server}");
    }
}

/// One metered `blast()`: the load ledger scrapes as the report's books.
#[test]
fn one_blast_scrapes_as_its_report() {
    let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
    let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
    let registry = Arc::new(Registry::new());
    let report = blast(
        LoadConfig::new(handle.local_addr(), origin())
            .concurrency(2)
            .queries(150)
            .metrics(Arc::clone(&registry)),
    )
    .unwrap();
    handle.shutdown();
    assert!(report.all_answered(), "{report:?}");
    assert_scrape_is_the_books(&registry, "dnswild_load_events_total", &[], report.stats);
}

/// One chaos plan with duplication, truncation, corruption, reordering
/// and delay all on, both directions and TCP: every kind scrapes as the
/// plan's own tally — counted per copy where the plan counts per copy,
/// so a duplicated datagram whose two copies are both damaged counts
/// twice in the scrape too.
#[test]
fn a_chaos_plan_scrapes_as_its_tallies() {
    let profile = FaultProfile {
        drop: 0.1,
        dup: 0.5,
        corrupt: 0.5,
        truncate: 0.3,
        reorder: 0.3,
        ..FaultProfile::lossless()
    }
    .delay_ms(0, 5);
    let tcp = TcpFaultProfile { refuse: 0.2, reset: 0.2, stall: 0.2, corrupt_len: 0.2 };
    let plan = Arc::new(FaultPlan::new(2017, profile, profile).with_tcp(tcp));
    let registry = Registry::new();
    plan.register(&registry);
    for i in 0..400u32 {
        let payload = format!("datagram-{i}").into_bytes();
        plan.decide(Direction::Forward, &payload);
        plan.decide(Direction::Reverse, &payload);
        plan.decide_tcp(&payload);
    }
    for (dir, label) in [(Direction::Forward, "forward"), (Direction::Reverse, "reverse")] {
        let tally = plan.tally(dir);
        assert!(tally.kinds().iter().all(|&(_, n)| n > 0), "{}", tally.line());
        assert!(tally.corrupted + tally.truncated > tally.duplicated, "{}", tally.line());
        let family = "dnswild_chaos_events_total";
        assert_scrape_is_the_books(&registry, family, &[("dir", label)], tally);
    }
    assert_scrape_is_the_books(&registry, "dnswild_chaos_tcp_events_total", &[], plan.tcp_tally());
}

/// A collector fed every event class it counts — answered and silent
/// server queries, RRL slips and drops, decode errors, cache hits,
/// misses and stale serves, client attempts — through a ring small
/// enough to overflow: once finished, its ledger scrapes as its
/// snapshot, and the slowest-journey gauge as the worst client latency
/// in the trace it wrote.
#[test]
fn a_collector_scrapes_as_its_snapshot() {
    use dnswild_telemetry::{
        Event, EventKind, Trace, FLAG_DECODE_ERROR, FLAG_RESPONSE, FLAG_RRL, FLAG_TIMEOUT,
    };
    let path = temp_trace("books");
    let registry = Registry::new();
    // Nothing drains until `finish`: the ring keeps the first 64 events
    // (every class) and counts the rest as overflow.
    let config = CollectorConfig::new(&path)
        .auths(["FRA"])
        .ring_capacity(64)
        .drain_interval(Duration::from_secs(3600));
    let collector = start_collector(config, Some(&registry)).unwrap();
    let producer = collector.producer();
    let classes = [
        (EventKind::ServerQuery, FLAG_RESPONSE),
        (EventKind::ServerQuery, 0),
        (EventKind::ServerQuery, FLAG_RRL | FLAG_RESPONSE),
        (EventKind::ServerQuery, FLAG_RRL),
        (EventKind::ServerBad, FLAG_DECODE_ERROR),
        (EventKind::CacheLookup, FLAG_RESPONSE),
        (EventKind::CacheLookup, FLAG_TIMEOUT),
        (EventKind::CacheLookup, 0),
        (EventKind::ClientQuery, FLAG_RESPONSE),
    ];
    for i in 0..200u64 {
        let (kind, flags) = classes[i as usize % classes.len()];
        let mut ev = Event::new(kind);
        (ev.flags, ev.journey, ev.latency_ns) = (flags, i + 1, 1_000 + i as u32);
        producer.record(&ev);
    }
    drop(producer);
    collector.finish().unwrap();
    let books = collector.snapshot();
    assert!(books.kinds().iter().all(|&(_, n)| n > 0), "{}", books.line());
    assert_scrape_is_the_books(&registry, inputs::TRACE_EVENTS, &[], books);
    let trace = Trace::read_from(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let slowest = max_client_latency_ns(&trace);
    assert!(slowest > 0);
    assert_eq!(gauge(&registry, "dnswild_journey_slowest_rtt_ns"), slowest as f64);
}

/// The worst `ClientQuery` latency a trace holds.
fn max_client_latency_ns(trace: &dnswild_telemetry::Trace) -> u64 {
    let clients = trace.events.iter().filter(|e| e.kind == dnswild_telemetry::EventKind::ClientQuery);
    clients.map(|e| u64::from(e.latency_ns)).max().unwrap_or(0)
}

/// On a metered, traced chaos run the slowest-journey exemplar gauge is
/// the worst client latency in the trace — the journey `explain <trace>
/// --slowest 1` prints.
#[test]
fn the_slowest_journey_gauge_is_the_worst_client_latency_in_the_trace() {
    let path = temp_trace("slowest");
    let report = run(&Scenario { rig: Rig::traced(&path).metered(), ..Scenario::chaos(200, 2017) });
    std::fs::remove_file(&path).ok();
    let report = report.unwrap();
    assert!(report.passed(), "{:?}", report.failures);
    let slowest = max_client_latency_ns(report.trace.as_ref().expect("traced run"));
    let scraped = report.samples.iter().find(|s| s.name == "dnswild_journey_slowest_rtt_ns");
    assert!(slowest > 0);
    assert_eq!(scraped.map(|s| s.value), Some(slowest as f64));
}
