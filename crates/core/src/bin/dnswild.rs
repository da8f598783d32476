//! The `dnswild` operator CLI: the real-socket serving plane, its load
//! generator, and the chaos plane.
//!
//! * `dnswild serve` — run the authoritative UDP front-end on a real
//!   socket, answering the preset measurement zone with a site identity;
//! * `dnswild blast` — closed-loop load generator against any address,
//!   reporting qps and latency percentiles; with `--chaos` it instead
//!   drives the resolver retry/backoff client through a fault-injecting
//!   proxy spawned in front of the target;
//! * `dnswild chaos` — standalone fault-injecting UDP proxy to place
//!   between any client and any server;
//! * `dnswild smoke` — self-contained loopback check: start a server on
//!   an ephemeral port, fire queries at it, assert 100% answered and
//!   consistent counters. With `--chaos` the traffic crosses two
//!   seed-driven fault proxies and the pass criteria become
//!   resolver-level: every transaction answered or SERVFAIL, every
//!   datagram accounted, and — because the fault schedule is a pure
//!   function of the seed — every `chaos-` output line identical across
//!   runs. Exits non-zero on any discrepancy. Every smoke mode is one
//!   gate function of [`dnswild::lab`]; this file only reads flags,
//!   prints the gate's report and turns its failures into an exit code;
//! * `dnswild gate` — the named CI configurations of those gates, run
//!   twice where reproducibility is the claim and compared in Rust;
//! * `dnswild report` — the paper's analyses over a recorded trace,
//!   plus `--tails` journey-level tail attribution;
//! * `dnswild explain` — per-query hop-by-hop timelines reconstructed
//!   from a recorded trace (slowest-N, failed, or one journey by id).
//!
//! Each command's flags are one [`Command`] table beside the function
//! that reads them; parsing, `--help` and the cross-flag rules derive
//! from it (see [`dnswild::cli`]).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnswild::cli::{wrap, Command, Flag, Opts, Stop};
use dnswild::lab::{
    self, Faults, GateReport, Rig, Scenario, ATTACK_DELEGATION_NS, CACHE_STALE_WINDOW,
};
use dnswild::report::{render_coverage, render_rank_profile, render_share};
use dnswild_analysis::{
    coverage, query_share, rank_profile, reconstruct, render_timeline, tail_report,
    trace_auth_counts, trace_cache_counts, trace_client_counts, trace_to_measurement, Journey,
};
use dnswild_metrics::{parse_exposition, scrape, CounterSet};
use dnswild_netio::{
    blast, resolve, serve, AttackMode, CacheConfig, ChaosProxy, Collector, CollectorConfig,
    Direction, FaultPlan, FaultProfile, IoBackend, LoadConfig, QueryMix, ResolveConfig,
    ServeConfig, SharedCache, TcpFaultProfile, TcpOptions, Trace, Workload, DRAIN_WINDOW,
};
use dnswild_proto::Name;
use dnswild_server::{RateLimitPolicy, RrlScope, ServerStats, TruncationPolicy};
use dnswild_zone::presets::{attack_test_domain_zone, padded_test_domain_zone};

/// Unwraps a rig result or exits 1 with the rig's complaint.
fn or_die<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn report_blast(report: &dnswild_netio::LoadReport) {
    let pct = |q: f64| report.latency_percentile(q).unwrap_or(0);
    let (elapsed_ms, qps) = (report.elapsed.as_millis(), report.qps());
    println!("{} elapsed_ms={elapsed_ms} qps={qps:.0}", report.stats.line());
    println!(
        "latency_us: p50={:.1} p90={:.1} p99={:.1} max={:.1}",
        pct(0.50) as f64 / 1e3,
        pct(0.90) as f64 / 1e3,
        pct(0.99) as f64 / 1e3,
        pct(1.0) as f64 / 1e3
    );
}

/// Sleeps `secs`; without it, runs `every_10s` every ten seconds until
/// the process is killed.
fn run_for(secs: Option<u64>, every_10s: impl Fn()) {
    let Some(secs) = secs else {
        loop {
            std::thread::sleep(Duration::from_secs(10));
            every_10s();
        }
    };
    std::thread::sleep(Duration::from_secs(secs));
}

/// Finishes the collector and prints the trace summary. The event and
/// overflow counts are deterministic for a fixed seed; the content
/// digest additionally commits to which server each client attempt
/// picked, so it is only run-to-run stable for non-chaos runs.
fn finish_trace(collector: &Collector, path: &Path) {
    let (summary, trace) = or_die(lab::finish_trace(collector, path));
    println!("trace-summary: events={} overflow={}", summary.events, summary.overflow);
    println!("trace-digest: {:016x}", trace.digest());
}

/// A counter set's `(label, value)` pairs as comma-separated JSON
/// members.
fn json_members(kinds: &[(&str, u64)]) -> String {
    kinds.iter().map(|(kind, n)| format!("\"{kind}\":{n}")).collect::<Vec<_>>().join(",")
}

/// One JSON object summarising a load run — counters, latency
/// percentiles and, when the server ran in-process, its stats. Values
/// are numbers only, so the object is hand-rolled.
fn json_blast(report: &dnswild_netio::LoadReport, stats: Option<&ServerStats>) -> String {
    let pct = |q: f64| report.latency_percentile(q).unwrap_or(0) as f64 / 1e3;
    let mut out = format!(
        "{{{},\"elapsed_ms\":{},\
         \"qps\":{:.1},\"latency_us\":{{\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"max\":{:.1}}}",
        json_members(&report.stats.kinds()),
        report.elapsed.as_millis(),
        report.qps(),
        pct(0.50),
        pct(0.90),
        pct(0.99),
        pct(1.0)
    );
    if let Some(s) = stats {
        out.push_str(&format!(",\"server\":{{{}}}", json_members(&s.kinds())));
    }
    out.push('}');
    out
}

static SERVE: Command = Command {
    about: "run the UDP serving plane",
    flags: &[
        Flag::value::<String>("--addr", "A:P", "bind address; port 0 = ephemeral")
            .default("127.0.0.1:5300"),
        Flag::value::<usize>("--threads", "N", "worker shards (default: available parallelism, \
            capped at 8; an explicit value is never capped)"),
        Flag::value::<IoBackend>("--io", "MODE", "I/O loop: auto|std|mmsg — auto batches with \
            recvmmsg/sendmmsg where the kernel supports it").default("auto"),
        Flag::value::<String>("--site", "CODE", "site identity").default("FRA"),
        Flag::value::<Name>("--origin", "NAME", "zone origin").default("ourtestdomain.nl"),
        Flag::value::<usize>("--ns", "N", "NS count in the preset zone").default("2"),
        Flag::value::<usize>("--pad", "N", "pad the wildcard TXT answer with ~N extra rdata \
            bytes (forces truncation under --edns-size)").default("0"),
        Flag::switch("--attack-zone", "serve the adversarial preset instead: an NXDOMAIN anchor \
            (void.<origin>) and a 20-NS fattened delegation (lab.<origin>) for `blast --attack`")
        .excludes(&["--pad"]),
        Flag::switch("--tcp", "also serve RFC 7766 TCP on the same port"),
        Flag::value::<u16>("--edns-size", "N", "symmetric EDNS truncation policy: advertise N \
            and truncate UDP answers over N").default("1232"),
        Flag::value::<u64>("--duration", "SECS", "stop after SECS (default: run until killed)"),
        // The trace footer is written when the collector is finished; an
        // open-ended run would leave an unreadable file behind.
        Flag::value::<PathBuf>("--trace", "PATH", "record one telemetry event per datagram to \
            PATH").needs(&["--duration"]),
        Flag::value::<String>("--metrics-addr", "A:P", "expose Prometheus-text metrics over \
            HTTP and run the share-vs-RTT watchdog"),
        Flag::switch("--rrl", "enable response-rate limiting (BIND-style token buckets per \
            client prefix; TCP is never limited); every --rrl-* flag implies it"),
        Flag::value::<u32>("--rrl-burst", "N", "bucket capacity").default("50"),
        Flag::value::<u32>("--rrl-rate", "N", "tokens refilled per period").default("1"),
        Flag::value::<u32>("--rrl-period", "N", "charged queries per refill").default("8"),
        Flag::value::<u32>("--rrl-slip", "N", "answer 1 in N limited responses with TC=1")
            .default("2"),
        Flag::value::<u32>("--rrl-nx-budget", "N", "site-wide NXDOMAIN bucket (0 = off)")
            .default("0"),
        Flag::switch("--rrl-all", "charge every query, not just NXDOMAIN/referral/REFUSED \
            responses"),
        Flag::switch("--rrl-key-ports", "mix the source port into the client key (loopback \
            harness knob; deployments aggregate by prefix)"),
    ],
};

/// The rate-limit policy the `--rrl-*` rows describe.
fn rrl_policy(o: &Opts) -> RateLimitPolicy {
    let mut policy = RateLimitPolicy {
        burst: o.get("--rrl-burst"),
        rate: o.get("--rrl-rate"),
        period: o.get("--rrl-period"),
        slip: o.get("--rrl-slip"),
        nxdomain_budget: o.get("--rrl-nx-budget"),
        key_ports: o.has("--rrl-key-ports"),
        ..RateLimitPolicy::default()
    };
    if o.has("--rrl-all") {
        policy.scope = RrlScope::All;
    }
    policy
}

fn cmd_serve(o: &Opts) {
    let origin: Name = o.get("--origin");
    let site: String = o.get("--site");
    let zones = Arc::new(vec![if o.has("--attack-zone") {
        attack_test_domain_zone(&origin, o.get("--ns"), ATTACK_DELEGATION_NS)
    } else {
        padded_test_domain_zone(&origin, o.get("--ns"), o.get("--pad"))
    }]);
    let edns_size = o.get("--edns-size");
    let mut config = ServeConfig::new(o.get::<String>("--addr"), site.clone(), zones)
        .io(o.get("--io"))
        .truncation(TruncationPolicy::symmetric(edns_size));
    if o.has("--tcp") {
        config = config.tcp(TcpOptions::default());
    }
    if o.given().any(|flag| flag.starts_with("--rrl")) {
        let rrl_policy = rrl_policy(o);
        eprintln!(
            "serve: rate limiting — burst {} rate {}/{} slip 1-in-{} nx-budget {} scope {:?}",
            rrl_policy.burst,
            rrl_policy.rate,
            rrl_policy.period,
            rrl_policy.slip,
            rrl_policy.nxdomain_budget,
            rrl_policy.scope
        );
        config = config.rate_limit(rrl_policy);
    }
    match o.opt("--threads") {
        // An explicit --threads is honoured exactly — no silent cap.
        Some(t) => config = config.threads(t),
        None => {
            let avail =
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(config.threads);
            if avail > config.threads {
                eprintln!(
                    "serve: defaulting to {} worker shards (of {} available cores); \
                     pass --threads {} to use them all",
                    config.threads, avail, avail
                );
            }
        }
    }
    let metrics = o.opt::<String>("--metrics-addr").map(|addr| or_die(lab::start_metrics(&addr)));
    let registry = metrics.as_ref().map(|(r, _)| r.as_ref());
    let trace = o.opt::<PathBuf>("--trace");
    let collector = trace.as_ref().map(|path| {
        or_die(lab::start_collector(CollectorConfig::new(path).auths([&site]), registry))
    });
    if let Some(c) = &collector {
        config = config.collector(Arc::clone(c), 0);
    }
    if let Some((registry, _)) = &metrics {
        config = config.metrics(Arc::clone(registry));
    }
    let watchdog = metrics.as_ref().map(|(registry, _)| or_die(lab::start_watchdog(registry)));
    let handle = serve(config).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1)
    });
    eprintln!(
        "serving {} as site {} on udp://{} with {} shards (io={}, reuseport={})",
        origin,
        site,
        handle.local_addr(),
        handle.threads(),
        handle.backend().name(),
        handle.reuseport()
    );
    if let Some(tcp_addr) = handle.tcp_addr() {
        eprintln!(
            "serving tcp://{tcp_addr} (RFC 7766; udp answers truncate over {edns_size} bytes)"
        );
    }
    run_for(o.opt("--duration"), || println!("stats: {}", handle.stats().line()));
    let tcp_stats = handle.tcp_addr().map(|_| handle.tcp_stats());
    println!("stats: {}", handle.shutdown().line());
    if let Some(t) = tcp_stats {
        let (accepted, over_cap, frame_errors) = (t.accepted, t.over_cap, t.frame_errors);
        println!("tcp: accepted={accepted} over_cap={over_cap} frame_errors={frame_errors}");
    }
    if let (Some(c), Some(path)) = (&collector, &trace) {
        finish_trace(c, path);
    }
    if let Some(w) = watchdog {
        eprintln!("watchdog: healthy={}", w.shutdown().healthy());
    }
    if let Some((_, server)) = metrics {
        server.shutdown();
    }
}

/// Prefetch window for `blast --cache --prefetch`: hot entries refresh
/// when less than this many seconds of TTL remain. Two seconds sits
/// under the preset zone's 5-second probe TTL, so a long blast keeps
/// its hot set warm instead of letting it expire.
const BLAST_PREFETCH_WINDOW: u32 = 2;

static BLAST: Command = Command {
    about: "closed-loop load generator; with --chaos, the resolver retry/backoff client through \
        a fault proxy instead",
    flags: &[
        Flag::value::<SocketAddr>("--addr", "A:P", "target address").default("127.0.0.1:5300"),
        Flag::value::<usize>("--concurrency", "N",
            "load lanes (queries in flight, polled by one thread per core); with --chaos, \
            resolver lanes (transactions in flight)").default("4"),
        Flag::value::<u64>("--queries", "N", "total queries").default("10000"),
        // The resolver client has its own attempt windows and query mix.
        Flag::value::<u64>("--timeout-ms", "M", "per-query timeout").default("1000")
            .excludes(&["--chaos"]),
        Flag::value::<u64>("--seed", "S", "query-mix / fault seed").default("2017"),
        Flag::value::<Name>("--origin", "NAME", "zone origin").default("ourtestdomain.nl"),
        Flag::switch("--probe-only", "send only probe TXT queries").excludes(&["--chaos"]),
        Flag::value::<AttackMode>("--attack", "MODE", "offer an adversarial workload instead of \
            the legitimate mix: nxdomain (water torture), nxns (delegation amplification), \
            spoof (port-multiplexed flood)").excludes(&["--chaos", "--probe-only", "--json"]),
        Flag::value::<usize>("--spoofed-sources", "N", "socket pool per lane of the spoof \
            attack").default("16").needs(&["--attack"]),
        Flag::switch("--chaos", "route through a fault proxy and drive the resolver \
            retry/backoff client instead"),
        Flag::value::<f64>("--loss", "P", "total drop probability").default("0.10")
            .needs(&["--chaos"]),
        Flag::value::<f64>("--corrupt", "P", "per-copy corruption probability").default("0.01")
            .needs(&["--chaos"]),
        // The plain blaster is a UDP-only throughput tool; EDNS negotiation,
        // TCP fallback and the record cache live in the resolver client.
        Flag::value::<u16>("--edns-size", "N", "advertise N in the client's OPT; truncated \
            answers are retried over TCP (RFC 7766)").needs(&["--chaos"]),
        Flag::switch("--no-tcp-fallback", "let TC=1 answers doom the attempt instead")
            .needs(&["--chaos"]),
        Flag::switch("--cache", "attach a record cache to the client: TTL hits answer repeats \
            with zero socket I/O and NXDOMAIN/NODATA are negatively cached (RFC 2308)")
        .needs(&["--chaos"]),
        Flag::value::<usize>("--cache-cap", "N", "bounded LRU capacity (0 = unbounded)")
            .default("0").needs(&["--cache"]),
        Flag::switch("--serve-stale", "answer from expired entries when every upstream is dead \
            (RFC 8767)").needs(&["--cache"]),
        Flag::switch("--prefetch", "refresh hot entries before they expire").needs(&["--cache"]),
        Flag::value::<PathBuf>("--trace", "PATH", "record one telemetry event per query to PATH"),
        Flag::switch("--json", "emit one JSON object instead of the text report"),
        Flag::value::<String>("--metrics-addr", "A:P", "expose load/client metrics over HTTP"),
    ],
};

fn cmd_blast(o: &Opts) {
    let (target, origin, seed) = (o.get("--addr"), o.get("--origin"), o.get("--seed"));
    let (queries, concurrency) = (o.get("--queries"), o.get("--concurrency"));
    let metrics = o.opt::<String>("--metrics-addr").map(|addr| or_die(lab::start_metrics(&addr)));
    let registry = metrics.as_ref().map(|(r, _)| r.as_ref());
    // The client side only knows the target address, so that is the
    // auth table entry (auth id 0).
    let trace = o.opt::<PathBuf>("--trace");
    let collector = trace.as_ref().map(|path| {
        let auths = [o.get::<String>("--addr")];
        or_die(lab::start_collector(CollectorConfig::new(path).auths(auths), registry))
    });
    if o.has("--chaos") {
        // Interpose a fault proxy and drive the resolver client, whose
        // retry/backoff/SRTT loop is what makes lossy paths survivable.
        let (fwd, rev) = lab::canonical_profiles(o.get("--loss"), o.get("--corrupt"));
        let plan = Arc::new(FaultPlan::new(seed, fwd, rev));
        if let Some(registry) = registry {
            plan.register(registry);
        }
        let proxy = ChaosProxy::spawn(
            "127.0.0.1:0",
            target,
            Arc::clone(&plan),
            collector.as_ref().map(Arc::clone),
        )
        .unwrap_or_else(|e| {
            eprintln!("blast: chaos proxy: {e}");
            std::process::exit(1)
        });
        eprintln!("blast: chaos proxy on udp://{} -> {}", proxy.local_addr(), target);
        let watchdog = metrics.as_ref().map(|(registry, _)| or_die(lab::start_watchdog(registry)));
        let shared_cache = o.has("--cache").then(|| {
            let cache = SharedCache::new(CacheConfig {
                capacity: o.get("--cache-cap"),
                prefetch_window_s: if o.has("--prefetch") { BLAST_PREFETCH_WINDOW } else { 0 },
                max_stale_s: if o.has("--serve-stale") { CACHE_STALE_WINDOW } else { 0 },
            });
            if let Some(registry) = registry {
                cache.register(registry);
            }
            cache
        });
        let mut cfg = ResolveConfig::new(vec![proxy.local_addr()], origin)
            .transactions(queries)
            .concurrency(concurrency)
            .tcp_fallback(!o.has("--no-tcp-fallback"));
        if let Some(size) = o.opt("--edns-size") {
            cfg = cfg.edns_size(size);
        }
        if let Some(sc) = &shared_cache {
            cfg = cfg.cache(Arc::clone(sc));
        }
        cfg.seed = seed;
        if let Some(c) = &collector {
            cfg = cfg.collector(Arc::clone(c));
        }
        if let Some((registry, _)) = &metrics {
            cfg = cfg.metrics(Arc::clone(registry));
        }
        let report = resolve(cfg).unwrap_or_else(|e| {
            eprintln!("blast: resolve: {e}");
            std::process::exit(1)
        });
        proxy.shutdown();
        if let Some(w) = watchdog {
            let wd = w.shutdown();
            eprintln!("watchdog: healthy={}", wd.healthy());
        }
        // Attempts per second of sending, net of the fixed drain tail
        // every run ends with.
        let sending = report.elapsed.saturating_sub(DRAIN_WINDOW).as_secs_f64().max(1e-9);
        let qps = report.stats.attempts as f64 / sending;
        if o.has("--json") {
            // The client and cache counters under their line labels.
            let mut obj = json_members(&report.stats.kinds());
            if let Some(sc) = &shared_cache {
                let cache = json_members(&sc.stats().kinds());
                obj.push_str(&format!(",\"cache\":{{{cache},\"entries\":{}}}", sc.len()));
            }
            println!("{{{obj},\"elapsed_ms\":{},\"qps\":{qps:.1}}}", report.elapsed.as_millis());
        } else {
            println!("chaos-client: {}", report.stats.line());
            println!("chaos-fwd: {}", plan.tally(Direction::Forward).line());
            println!("chaos-rev: {}", plan.tally(Direction::Reverse).line());
            println!("chaos-tcp: {}", plan.tcp_tally().render());
            if let Some(sc) = &shared_cache {
                println!("cache-stats: {} entries={}", sc.stats().line(), sc.len());
            }
            println!("elapsed_ms={} qps={qps:.0}", report.elapsed.as_millis());
        }
        if let (Some(c), Some(path)) = (&collector, &trace) {
            finish_trace(c, path);
        }
        if let Some((_, server)) = metrics {
            server.shutdown();
        }
        if let Err(complaint) = report.stats.check() {
            eprintln!("blast: FAIL — {complaint}");
            std::process::exit(1);
        }
        return;
    }
    let attack = o.opt::<AttackMode>("--attack");
    let mut config = LoadConfig::new(target, origin).concurrency(concurrency).queries(queries);
    config.timeout = Duration::from_millis(o.get("--timeout-ms"));
    config.seed = seed;
    if o.has("--probe-only") {
        config = config.workload(Workload::Mix(QueryMix::probe_only()));
    }
    if let Some(mode) = attack {
        config = config
            .workload(Workload::Attack { mode, spoofed_sources: o.get("--spoofed-sources") });
    }
    if let Some(c) = &collector {
        config = config.collector(Arc::clone(c), 0);
    }
    if let Some((registry, _)) = &metrics {
        config = config.metrics(Arc::clone(registry));
    }
    let report = blast(config).unwrap_or_else(|e| {
        eprintln!("blast: {e}");
        std::process::exit(1)
    });
    if attack.is_some() {
        println!("attack-client: {}", report.stats.line());
        if let Some(amp) = report.amplification() {
            println!("attack-amplification: {amp:.2}");
        }
        println!(
            "elapsed_ms={} qps={:.0}",
            report.elapsed.as_millis(),
            report.stats.sent as f64 / report.elapsed.as_secs_f64()
        );
    } else if o.has("--json") {
        println!("{}", json_blast(&report, None));
    } else {
        report_blast(&report);
    }
    if let (Some(c), Some(path)) = (&collector, &trace) {
        finish_trace(c, path);
    }
    if let Some((_, server)) = metrics {
        server.shutdown();
    }
    // A flood expects to be shed, so its books need only balance; the
    // legitimate mix must be answered in full.
    let ok = if attack.is_some() { report.all_accounted() } else { report.all_answered() };
    if !ok {
        eprintln!("blast: FAIL — lost, stale or unaccounted datagrams");
        std::process::exit(1);
    }
}

static CHAOS: Command = Command {
    about: "standalone fault-injecting UDP proxy; it always relays TCP too",
    flags: &[
        Flag::value::<String>("--listen", "A:P", "address to accept clients on")
            .default("127.0.0.1:5301"),
        Flag::value::<SocketAddr>("--upstream", "A:P", "server to proxy to")
            .default("127.0.0.1:5300"),
        Flag::value::<u64>("--seed", "S", "fault schedule seed").default("2017"),
        Flag::value::<f64>("--drop", "P", "per-datagram drop probability").default("0"),
        Flag::value::<f64>("--dup", "P", "per-datagram duplication probability").default("0"),
        Flag::value::<f64>("--corrupt", "P", "per-copy corruption probability").default("0"),
        Flag::value::<f64>("--truncate", "P", "per-datagram truncation probability").default("0"),
        Flag::value::<f64>("--reorder", "P", "per-datagram reordering probability").default("0"),
        Flag::value::<u64>("--delay-min-ms", "M", "per-copy delay lower bound").default("0"),
        Flag::value::<u64>("--delay-max-ms", "M", "per-copy delay upper bound").default("0"),
        Flag::value::<f64>("--tcp-refuse", "P", "per-frame probability the connection closes \
            before forwarding").default("0"),
        Flag::value::<f64>("--tcp-reset", "P", "per-frame probability the connection resets \
            before the response").default("0"),
        Flag::value::<f64>("--tcp-stall", "P", "per-frame probability the frame is swallowed \
            and the connection left open").default("0"),
        Flag::value::<f64>("--tcp-badlen", "P", "per-frame probability the response's length \
            prefix overstates it").default("0"),
        Flag::value::<u64>("--duration", "SECS", "stop after SECS (default: run until killed)"),
    ],
};

fn cmd_chaos(o: &Opts) {
    let (delay_min_ms, delay_max_ms) = (o.get("--delay-min-ms"), o.get("--delay-max-ms"));
    let profile = FaultProfile {
        drop: o.get("--drop"),
        dup: o.get("--dup"),
        corrupt: o.get("--corrupt"),
        truncate: o.get("--truncate"),
        reorder: o.get("--reorder"),
        ..FaultProfile::lossless()
    }
    .delay_ms(delay_min_ms, delay_max_ms);
    let tcp_profile = TcpFaultProfile {
        refuse: o.get("--tcp-refuse"),
        reset: o.get("--tcp-reset"),
        stall: o.get("--tcp-stall"),
        corrupt_len: o.get("--tcp-badlen"),
    };
    let (seed, upstream) = (o.get("--seed"), o.get("--upstream"));
    let plan = Arc::new(FaultPlan::new(seed, profile, profile).with_tcp(tcp_profile));
    let listen = o.get::<String>("--listen");
    let proxy = ChaosProxy::spawn(listen.as_str(), upstream, Arc::clone(&plan), None)
        .unwrap_or_else(|e| {
            eprintln!("chaos: {e}");
            std::process::exit(1)
        });
    eprintln!(
        "chaos proxy on udp://{} -> {} (seed {}, drop {} dup {} corrupt {} truncate {} \
         reorder {} delay {}..{} ms each way)",
        proxy.local_addr(),
        upstream,
        seed,
        profile.drop,
        profile.dup,
        profile.corrupt,
        profile.truncate,
        profile.reorder,
        delay_min_ms,
        delay_max_ms
    );
    let report = |plan: &FaultPlan| {
        println!("chaos-fwd: {}", plan.tally(Direction::Forward).line());
        println!("chaos-rev: {}", plan.tally(Direction::Reverse).line());
        println!("chaos-tcp: {}", plan.tcp_tally().render());
        println!(
            "chaos-summary: seed={} digest={:016x} events={}",
            plan.seed(),
            plan.schedule_digest(),
            plan.events()
        );
    };
    run_for(o.opt("--duration"), || report(&plan));
    report(&plan);
    proxy.shutdown();
}

static SMOKE: Command = Command {
    about: "loopback self-test (server + blast in-process): exits 0 only if the chosen gate's \
        every law holds",
    flags: &[
        Flag::value::<u64>("--queries", "N", "total queries").default("1000"),
        Flag::value::<usize>("--threads", "N", "server worker shards").default("2"),
        Flag::value::<IoBackend>("--io", "MODE", "server I/O loop: auto|std|mmsg").default("auto"),
        // The chaos and cache gates fix their worker counts for determinism.
        Flag::value::<usize>("--concurrency", "N", "load lanes (queries in flight, polled by \
            one thread per core)").default("4")
            .excludes(&["--chaos", "--cache"]),
        Flag::value::<AttackMode>("--attack", "MODE", "the attack gate: a seeded \
            nxdomain|nxns|spoof flood runs beside the legitimate mix and every `attack-` output \
            line must replay byte-identically").excludes(&["--chaos", "--json"]),
        Flag::switch("--rrl", "with --attack, defend with the default rate-limit policy: the \
            gate then requires drops, slips and a watchdog attack-pressure breach while legit \
            goodput holds at 100%; with --chaos instead, a harness-tuned limiter (per-port \
            keys, charge everything) runs under the fault plan so rate-limited journeys show \
            up in `report --tails`").needs(&["--attack", "--chaos"]),
        Flag::switch("--chaos", "route through two seeded fault proxies and apply \
            resolver-level pass criteria").excludes(&["--json"]),
        Flag::switch("--cache", "the cache gate: a low-TTL zone served cold then warm through \
            one shared record cache — the warm pass must answer over half its transactions from \
            cache, and every `cache-` line must replay byte-identically for a given seed")
        .excludes(&["--chaos", "--attack", "--json"]),
        Flag::value::<usize>("--cache-cap", "N", "bounded LRU capacity (0 = unbounded)")
            .default("0").needs(&["--cache"]),
        Flag::switch("--serve-stale", "third pass: expire the cache, blackhole the \
            authoritative behind a drop-everything chaos proxy, and require every transaction \
            to complete from stale entries (RFC 8767)").needs(&["--cache"]),
        Flag::switch("--prefetch", "sleep the warm pass into the prefetch window and require \
            hot entries to refresh before expiry").needs(&["--cache"]),
        Flag::value::<u64>("--seed", "S", "schedule seed").default("2017")
            .needs(&["--chaos", "--attack", "--cache"]),
        Flag::value::<f64>("--loss", "P", "total drop probability").default("0.10")
            .needs(&["--chaos"]),
        Flag::value::<f64>("--corrupt", "P", "per-copy corruption probability").default("0.01")
            .needs(&["--chaos"]),
        Flag::switch("--tcp", "truncation gate: serve a padded zone over UDP+TCP with a small \
            EDNS limit behind TCP connection faults, and require every truncated transaction to \
            complete over TCP").needs(&["--chaos"]),
        // A small advertisement with no stream transport behind it cannot
        // meet the gate's completion criteria.
        Flag::value::<u16>("--edns-size", "N", "EDNS limit for the truncation gate").default("512")
            .needs(&["--tcp"]),
        Flag::value::<u64>("--budget-secs", "S", "wall-clock budget").default("120")
            .needs(&["--chaos"]),
        Flag::value::<PathBuf>("--trace", "PATH", "record server+client+proxy telemetry to PATH"),
        Flag::switch("--json", "emit one JSON object instead of the text report"),
        Flag::value::<String>("--metrics-addr", "A:P", "expose metrics over HTTP; with --chaos \
            this also runs the scrape-equality and watchdog gates"),
    ],
};

fn cmd_smoke(o: &Opts) {
    let (queries, seed) = (o.get("--queries"), o.get("--seed"));
    let concurrency = o.get("--concurrency");
    let (attack, json) = (o.opt::<AttackMode>("--attack"), o.has("--json"));
    let mut scenario = if o.has("--cache") {
        let (capacity, serve_stale, prefetch) =
            (o.get("--cache-cap"), o.has("--serve-stale"), o.has("--prefetch"));
        Scenario::cache(queries, seed, capacity, serve_stale, prefetch)
    } else if let Some(mode) = attack {
        Scenario::attack(mode, o.has("--rrl"), queries, concurrency, seed)
    } else if o.has("--chaos") {
        let mut s = Scenario::chaos(queries, seed);
        let (loss, corrupt) = (o.get("--loss"), o.get("--corrupt"));
        s.faults = Some(Faults { loss, corrupt });
        s.server.rrl = o.has("--rrl");
        s.budget = Duration::from_secs(o.get("--budget-secs"));
        if o.has("--tcp") {
            s = s.truncated(o.get("--edns-size"));
        }
        s
    } else {
        Scenario::blast(queries, concurrency)
    };
    scenario.rig = Rig {
        threads: o.get("--threads"),
        io: o.get("--io"),
        trace: o.opt("--trace"),
        metrics_addr: o.opt("--metrics-addr"),
    };
    let report = lab::run(&scenario).unwrap_or_else(|e| {
        eprintln!("smoke: {e}");
        std::process::exit(1)
    });
    // Only the plain smoke carries a load summary outside its lines:
    // `--json` swaps its rendering, and keeps stdout machine-readable by
    // sending the verdict to stderr.
    if let (Some(load), None) = (&report.load, attack) {
        if json {
            println!("{}", json_blast(load, Some(&report.server)));
        } else {
            report_blast(load);
            println!("stats: {}", report.server.line());
        }
    }
    conclude("smoke", &report, json);
}

/// Prints a gate report's lines and verdict; exits 1 on any failure.
fn conclude(who: &str, report: &GateReport, verdict_to_stderr: bool) {
    for line in &report.lines {
        println!("{}", line.text);
    }
    if !report.passed() {
        for f in &report.failures {
            eprintln!("{who}: FAIL — {f}");
        }
        std::process::exit(1);
    }
    let pass = format!("{who}: PASS — {}", report.pass);
    if verdict_to_stderr {
        eprintln!("{pass}");
    } else {
        println!("{pass}");
    }
}

static GATE: Command = Command {
    about: "one named CI gate: the smoke configuration scripts/verify.sh pins, run twice where \
        reproducibility is the claim, with the deterministic lines compared in-process",
    flags: &[Flag::positional::<String>("<name>", "the gate to run; `list` prints every name")],
};

/// `dnswild gate <name>`: one row of [`lab::GATES`]. The gate prints what
/// its (first) run printed, then every cross-run expectation that broke.
fn cmd_gate(o: &Opts) {
    let name: String = o.get("<name>");
    if name == "list" {
        for (gate, law, _) in lab::GATES {
            println!("{gate:<14} {law}");
        }
        return;
    }
    let Some(run) = lab::run_gate(&name) else {
        eprintln!("unknown gate: {name} (`dnswild gate list` prints them)");
        std::process::exit(2)
    };
    let report = run.unwrap_or_else(|e| {
        eprintln!("gate {name}: {e}");
        std::process::exit(1)
    });
    conclude(&format!("gate {name}"), &report, false);
}

static TOP: Command = Command {
    about: "live view over a running metrics endpoint",
    flags: &[
        Flag::value::<String>("--addr", "A:P", "metrics endpoint to poll")
            .default("127.0.0.1:9153"),
        Flag::value::<u64>("--interval-ms", "M", "poll interval").default("1000"),
        Flag::value::<u64>("--iterations", "N", "exit after N polls (default: run until killed)"),
        Flag::switch("--plain", "no screen clearing between polls"),
    ],
};

/// `dnswild top`: a live text view over any running metrics endpoint.
/// Polls the Prometheus exposition, derives qps from counter deltas
/// between polls, and shows the per-stage latency gauges, the per-auth
/// attempt share, and the watchdog's law gauges.
fn cmd_top(o: &Opts) {
    let addr: String = o.get("--addr");
    let iterations = o.opt::<u64>("--iterations");
    // The ledger kinds whose per-poll delta is worth a qps column, in
    // display order; whichever are present are shown.
    const RATES: [(&str, &str, &str); 4] = [
        ("dnswild_server_events_total", "queries", "server"),
        ("dnswild_load_events_total", "sent", "load"),
        ("dnswild_client_events_total", "attempts", "client"),
        ("dnswild_chaos_events_total", "in", "chaos"),
    ];
    let sum_of = |samples: &[dnswild_metrics::Sample], name: &str, kind: &str| -> f64 {
        let of_kind = samples.iter().filter(|s| s.name == name && s.label("kind") == Some(kind));
        of_kind.map(|s| s.value).sum()
    };
    let gauge_of = |samples: &[dnswild_metrics::Sample], name: &str| -> Option<f64> {
        samples.iter().find(|s| s.name == name).map(|s| s.value)
    };
    let mut prev: Option<(Instant, Vec<f64>)> = None;
    let mut round = 0u64;
    loop {
        let text = match scrape(addr.as_str()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("top: {addr}: {e}");
                std::process::exit(1)
            }
        };
        let samples = parse_exposition(&text);
        let now = Instant::now();
        let totals: Vec<f64> =
            RATES.iter().map(|(name, kind, _)| sum_of(&samples, name, kind)).collect();
        if !o.has("--plain") {
            // ANSI clear + home; `--plain` keeps every poll on the log.
            print!("\x1b[2J\x1b[H");
        }
        println!("dnswild top — {addr} (poll {round})");
        let mut rates = String::new();
        if let Some((t0, old)) = &prev {
            let dt = now.duration_since(*t0).as_secs_f64().max(1e-9);
            for (i, (.., short)) in RATES.iter().enumerate() {
                if totals[i] > 0.0 || old[i] > 0.0 {
                    rates.push_str(&format!("  {short}={:.0}/s", (totals[i] - old[i]).max(0.0) / dt));
                }
            }
        }
        println!("rates:{}", if rates.is_empty() { "  (first poll)".into() } else { rates });
        if let (Some(p50), Some(p99)) =
            (gauge_of(&samples, "dnswild_stage_p50_ns"), gauge_of(&samples, "dnswild_stage_p99_ns"))
        {
            println!("hot path: p50={:.1}us p99={:.1}us", p50 / 1e3, p99 / 1e3);
        }
        let attempts: Vec<&dnswild_metrics::Sample> = samples
            .iter()
            .filter(|s| s.name == "dnswild_client_attempts_total")
            .collect();
        let total_attempts: f64 = attempts.iter().map(|s| s.value).sum();
        if total_attempts > 0.0 {
            for s in &attempts {
                let auth = s.label("auth").unwrap_or("?");
                let srtt = samples
                    .iter()
                    .find(|g| g.name == "dnswild_client_srtt_ms" && g.label("auth") == Some(auth))
                    .map(|g| g.value);
                match srtt {
                    Some(ms) => println!(
                        "auth {auth}: share={:.1}% srtt={ms:.2}ms",
                        100.0 * s.value / total_attempts
                    ),
                    None => {
                        println!("auth {auth}: share={:.1}%", 100.0 * s.value / total_attempts)
                    }
                }
            }
        }
        if let Some(evals) = gauge_of(&samples, "dnswild_watchdog_evals_total") {
            let g = |n| gauge_of(&samples, n).unwrap_or(0.0);
            let breaches = g("dnswild_watchdog_share_breach")
                + g("dnswild_watchdog_coverage_breach")
                + g("dnswild_watchdog_servfail_breach")
                + g("dnswild_watchdog_overflow_breach");
            println!(
                "watchdog: {} — share_dev={:.3} coverage={:.3} servfail_rate={:.3} (evals={evals:.0})",
                if breaches > 0.0 { "BREACH" } else { "healthy" },
                g("dnswild_watchdog_share_dev"),
                g("dnswild_watchdog_coverage"),
                g("dnswild_watchdog_servfail_rate"),
            );
        }
        prev = Some((now, totals));
        round += 1;
        if iterations.is_some_and(|n| round >= n) {
            return;
        }
        std::thread::sleep(Duration::from_millis(o.get("--interval-ms")));
    }
}

static REPORT: Command = Command {
    about: "analyses over a recorded telemetry trace",
    flags: &[
        Flag::value::<PathBuf>("--from-trace", "PATH", "trace file written by --trace").required(),
        Flag::value::<u64>("--min-queries", "N", "rank-profile client threshold").default("1"),
        Flag::switch("--tails", "per-query journey attribution: an exclusive tail-cause table \
            (clean|retried|chaos-faulted|tc-tcp-detour|rrl-slipped|cache-stale|servfail) with \
            touched counts, shares and tail latency percentiles; `tails-` lines are \
            seed-deterministic, `tail-latency-`/`tail-mass` lines carry wall-clock time"),
    ],
};

/// `dnswild report --from-trace`: run the paper's analyses over a
/// recorded telemetry trace. Query share (Figure 3) and coverage
/// (Figure 2) come from the server-side view; the rank profile
/// (Figure 7) prefers the client-side view when the trace has one.
fn cmd_report(o: &Opts) {
    let path: PathBuf = o.get("--from-trace");
    let trace = Trace::read_from(&path).unwrap_or_else(|e| {
        eprintln!("report: {}: {e}", path.display());
        std::process::exit(1)
    });
    println!(
        "trace-summary: version={} events={} overflow={}",
        trace.version,
        trace.events.len(),
        trace.overflow
    );
    println!("trace-digest: {:016x}", trace.digest());
    let counts = trace_auth_counts(&trace);
    let rendered: Vec<String> = counts.iter().map(|(code, n)| format!("{code}={n}")).collect();
    println!("trace-auth-queries: {}", rendered.join(" "));
    let cache = trace_cache_counts(&trace);
    if !cache.is_empty() {
        // The §4.4 cache-decay view: how much of the recorded load the
        // record cache absorbed, re-derived from the trace alone.
        println!(
            "trace-cache: hits={} misses={} stale={} prefetches={} hit_rate={:.3}",
            cache.hits,
            cache.misses,
            cache.stale_served,
            cache.prefetches,
            cache.hit_rate().unwrap_or(0.0)
        );
    }

    if o.has("--tails") {
        // Tail attribution: reconstruct every journey, prove the books
        // balance, then attribute the latency tail to its causes. The
        // `tails-` lines are a pure function of the run's seed; the
        // `tail-latency-` / `tail-mass` lines carry wall-clock time
        // and are excluded from the determinism diff.
        let book = reconstruct(&trace);
        if let Err(e) = book.check_books() {
            eprintln!("report: journey books unbalanced: {e}");
            std::process::exit(1);
        }
        print!("{}", tail_report(&book).render());
    }

    let result = trace_to_measurement(&trace);
    println!("{}", render_coverage(&[coverage(&result)]));
    println!("{}", render_share("trace", &query_share(&result)));
    let clients = trace_client_counts(&trace);
    let profile = rank_profile(&clients, result.deployment.ns_count(), o.get("--min-queries"));
    println!("{}", render_rank_profile("trace", &profile));
}

/// A journey id as `explain` prints it: hex, `0x` optional.
struct JourneyId(u64);

impl std::str::FromStr for JourneyId {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u64::from_str_radix(s.trim_start_matches("0x"), 16).map(JourneyId)
    }
}

static EXPLAIN: Command = Command {
    about: "per-query timelines from a recorded trace",
    flags: &[
        Flag::positional::<PathBuf>("<trace>", "trace file written by --trace"),
        Flag::value::<JourneyId>("--txn", "HEXID", "one journey by its 64-bit hex id")
            .excludes(&["--slowest", "--failed"]),
        Flag::value::<usize>("--slowest", "N", "the N worst client RTTs").default("10")
            .excludes(&["--failed"]),
        Flag::switch("--failed", "every journey with a timed-out client attempt"),
        Flag::switch("--canonical", "omit timestamps and order hops by content, so same-seed \
            runs print byte-identical timelines"),
    ],
};

/// `dnswild explain`: reconstruct per-query journeys from a recorded
/// trace and print hop-by-hop timelines — the "why was this query
/// slow" view. Every invocation first proves the journey books balance
/// (each event in exactly one journey or the unattributed pool) and
/// exits non-zero if they do not.
fn cmd_explain(o: &Opts) {
    let path: PathBuf = o.get("<trace>");
    let trace = Trace::read_from(&path).unwrap_or_else(|e| {
        eprintln!("explain: {}: {e}", path.display());
        std::process::exit(1)
    });
    let book = reconstruct(&trace);
    let books = book.check_books();
    println!(
        "explain-books: events={} journeys={} unattributed={} balanced={}",
        book.total_events,
        book.journeys.len(),
        book.unattributed.len(),
        books.is_ok()
    );
    let selected: Vec<&Journey> = if let Some(JourneyId(id)) = o.opt("--txn") {
        match book.get(id) {
            Some(j) => vec![j],
            None => {
                eprintln!("explain: journey {id:016x} is not in this trace");
                std::process::exit(1)
            }
        }
    } else if o.has("--failed") {
        book.failed()
    } else {
        book.slowest(o.get("--slowest"))
    };
    for journey in &selected {
        print!("{}", render_timeline(&trace, journey, o.has("--canonical")));
    }
    if selected.is_empty() {
        println!("explain: no matching journeys");
    }
    if let Err(e) = books {
        eprintln!("explain: journey books unbalanced: {e}");
        std::process::exit(1);
    }
}

/// A subcommand: its name, its flag table and the function that runs it.
type Subcommand = (&'static str, &'static Command, fn(&Opts));

static COMMANDS: [Subcommand; 8] = [
    ("serve", &SERVE, cmd_serve),
    ("blast", &BLAST, cmd_blast),
    ("chaos", &CHAOS, cmd_chaos),
    ("smoke", &SMOKE, cmd_smoke),
    ("gate", &GATE, cmd_gate),
    ("top", &TOP, cmd_top),
    ("report", &REPORT, cmd_report),
    ("explain", &EXPLAIN, cmd_explain),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(&(_, command, run)) = COMMANDS.iter().find(|(n, ..)| *n == name) else {
        let mut text = String::from("usage: dnswild <command> [options]\n\ncommands:\n");
        for (name, command, _) in &COMMANDS {
            text += &format!("  {name:<9}{}\n", wrap(command.about, 11));
        }
        text += "\n`dnswild <command> --help` lists the command's flags\n";
        match name.as_str() {
            "--help" | "-h" => Stop { code: 0, text },
            "" => Stop { code: 2, text },
            _ => Stop { code: 2, text: format!("unknown command: {name}\n{text}") },
        }
        .exit()
    };
    run(&command.parse_or_exit(&format!("dnswild {name}"), args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_netio::DEFAULT_SPOOFED_SOURCES;

    fn parse(command: &'static Command, args: &str) -> Result<Opts, Stop> {
        command.parse("test", args.split_whitespace().map(String::from))
    }

    /// Rows whose default restates a library default must agree with
    /// it, so `--help` prints what an unset flag really does.
    #[test]
    fn row_defaults_are_the_library_defaults() {
        let serve = parse(&SERVE, "").unwrap();
        assert_eq!(rrl_policy(&serve), RateLimitPolicy::default());
        let truncation = TruncationPolicy::symmetric(serve.get("--edns-size"));
        assert_eq!(truncation, TruncationPolicy::default());
        let blast = parse(&BLAST, "").unwrap();
        assert_eq!(blast.get::<usize>("--spoofed-sources"), DEFAULT_SPOOFED_SOURCES);
        let smoke = parse(&SMOKE, "--chaos").unwrap();
        assert_eq!(smoke.get::<f64>("--loss"), Faults::CANONICAL.loss);
        assert_eq!(smoke.get::<f64>("--corrupt"), Faults::CANONICAL.corrupt);
        assert_eq!(Duration::from_secs(smoke.get("--budget-secs")), Scenario::chaos(0, 0).budget);
        assert_eq!(smoke.get::<usize>("--threads"), Rig::default().threads);
    }

    /// Every `dnswild` invocation README.md and the verify skill show
    /// still parses (a path stands in for `$t`).
    #[test]
    fn documented_invocations_parse() {
        let invocations: [(&'static Command, &str); 40] = [
            (&SERVE, "--addr 127.0.0.1:5300 --site FRA --origin ourtestdomain.nl"),
            (&SERVE, "--addr 127.0.0.1:5300 --threads 16"),
            (&SERVE, "--addr 127.0.0.1:5300 --io mmsg"),
            (&SERVE, "--addr 127.0.0.1:5300 --tcp --edns-size 512 --pad 900"),
            (&SERVE, "--addr 127.0.0.1:5300 --attack-zone --rrl"),
            (&SERVE, "--addr 127.0.0.1:5300 --site FRA --metrics-addr 127.0.0.1:9153"),
            (&SERVE, "--addr 127.0.0.1:5533 --site FRA --duration 6"),
            (&SERVE, "--addr 127.0.0.1:5643 --site FRA --tcp --edns-size 512 --pad 900 \
                      --duration 25"),
            (&SERVE, "--addr 127.0.0.1:5645 --site FRA --attack-zone --rrl --rrl-burst 20 \
                      --duration 25"),
            (&SERVE, "--addr 127.0.0.1:5533 --site FRA --duration 10 \
                      --metrics-addr 127.0.0.1:9153"),
            (&BLAST, "--addr 127.0.0.1:5300 --queries 10000 --concurrency 4"),
            (&BLAST, "--chaos --addr 127.0.0.1:5300 --queries 2000 --loss 0.10 --corrupt 0.01"),
            (&BLAST, "--chaos --addr 127.0.0.1:5300 --queries 2000 --edns-size 512"),
            (&BLAST, "--attack nxdomain --addr 127.0.0.1:5300 --queries 2000"),
            (&BLAST, "--attack nxns --addr 127.0.0.1:5300 --queries 2000"),
            (&BLAST, "--chaos --addr 127.0.0.1:5300 --queries 2000 --cache"),
            (&BLAST, "--addr 127.0.0.1:5533 --queries 3000"),
            (&BLAST, "--chaos --addr 127.0.0.1:5533 --queries 500 --loss 0.10 --corrupt 0.01 \
                      --seed 7"),
            (&BLAST, "--chaos --addr 127.0.0.1:5643 --queries 120 --edns-size 512 --seed 7"),
            (&BLAST, "--attack nxdomain --addr 127.0.0.1:5645 --queries 200 --concurrency 4 \
                      --timeout-ms 40"),
            (&CHAOS, "--listen 127.0.0.1:5301 --upstream 127.0.0.1:5300 --drop 0.1 --dup 0.02 \
                      --delay-max-ms 20 --seed 2017"),
            (&CHAOS, "--listen 127.0.0.1:5535 --upstream 127.0.0.1:5534 --drop 0.1 \
                      --delay-max-ms 20 --seed 2017"),
            (&SMOKE, "--queries 6000 --io std"),
            (&SMOKE, "--queries 2000 --threads 2"),
            (&SMOKE, "--chaos --queries 2000 --seed 2017"),
            (&SMOKE, "--chaos --tcp --edns-size 512 --queries 48 --seed 2017"),
            (&SMOKE, "--attack nxdomain --rrl --queries 400 --seed 2017"),
            (&SMOKE, "--attack nxns --queries 300 --seed 7"),
            (&SMOKE, "--cache --serve-stale --prefetch --queries 400 --seed 2017"),
            (&SMOKE, "--queries 5000 --trace /tmp/run.dwt"),
            (&SMOKE, "--queries 5000 --json"),
            (&SMOKE, "--chaos --queries 2000 --seed 2017 --trace /tmp/run.dwt"),
            (&SMOKE, "--chaos --queries 2000 --seed 2017 --metrics-addr 127.0.0.1:0"),
            (&SMOKE, "--chaos --queries 300 --seed 7 --trace /tmp/t"),
            (&REPORT, "--from-trace /tmp/run.dwt --tails"),
            (&EXPLAIN, "/tmp/run.dwt --failed"),
            (&EXPLAIN, "/tmp/t --slowest 3"),
            (&EXPLAIN, "/tmp/t --failed --canonical"),
            (&TOP, "--addr 127.0.0.1:9153 --plain --iterations 2"),
            (&GATE, "attack-sweep"),
        ];
        for (command, args) in invocations {
            assert!(parse(command, args).is_ok(), "{args}: {:?}", parse(command, args).err());
        }
    }
}
