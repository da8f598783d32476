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
//!   gate function of [`dnswild::lab`]; this file only parses flags,
//!   prints the gate's report and turns its failures into an exit code;
//! * `dnswild gate` — the named CI configurations of those gates, run
//!   twice where reproducibility is the claim and compared in Rust;
//! * `dnswild report` — the paper's analyses over a recorded trace,
//!   plus `--tails` journey-level tail attribution;
//! * `dnswild explain` — per-query hop-by-hop timelines reconstructed
//!   from a recorded trace (slowest-N, failed, or one journey by id).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnswild::lab::{
    self, AttackSpec, CacheSpec, ChaosSpec, GateReport, PlainSpec, Rig, ATTACK_DELEGATION_NS,
    CACHE_STALE_WINDOW,
};
use dnswild::report::{render_coverage, render_rank_profile, render_share};
use dnswild_analysis::{
    coverage, query_share, rank_profile, reconstruct, render_timeline, tail_report,
    trace_auth_counts, trace_cache_counts, trace_client_counts, trace_to_measurement, Journey,
};
use dnswild_metrics::{parse_exposition, scrape, CounterSet};
use dnswild_netio::{
    blast, mirror_cache, mirror_collector, resolve, serve, AttackMode, CacheConfig, ChaosProxy,
    Collector, Direction, FaultPlan, FaultProfile, IoBackend, LoadConfig, MetricsServer, QueryMix,
    Registry, ResolveConfig, ServeConfig, SharedCache, TcpFaultProfile, TcpOptions, Trace,
    Workload, DEFAULT_SPOOFED_SOURCES,
};
use dnswild_proto::Name;
use dnswild_server::{RateLimitPolicy, RrlScope, ServerStats, TruncationPolicy};
use dnswild_zone::presets::{attack_test_domain_zone, padded_test_domain_zone};

fn usage_exit(code: i32) -> ! {
    eprintln!(
        "usage: dnswild <command> [options]\n\
         \n\
         commands:\n\
           serve   run the UDP serving plane\n\
             --addr A:P       bind address (default 127.0.0.1:5300; port 0 = ephemeral)\n\
             --threads N      worker shards (default: available parallelism, capped\n\
                              at 8; an explicit value is never capped)\n\
             --io MODE        I/O loop: auto|std|mmsg (default auto — batched\n\
                              recvmmsg/sendmmsg where the kernel supports it)\n\
             --site CODE      site identity (default FRA)\n\
             --origin NAME    zone origin (default ourtestdomain.nl)\n\
             --ns N           NS count in the preset zone (default 2)\n\
             --pad N          pad the wildcard TXT answer with ~N extra rdata\n\
                              bytes (forces truncation under --edns-size)\n\
             --attack-zone    serve the adversarial preset instead: an NXDOMAIN\n\
                              anchor (void.<origin>) and a 20-NS fattened\n\
                              delegation (lab.<origin>) for `blast --attack`\n\
             --tcp            also serve RFC 7766 TCP on the same port\n\
             --edns-size N    symmetric EDNS truncation policy: advertise N\n\
                              and truncate UDP answers over N (default 1232)\n\
             --duration SECS  stop after SECS (default: run until killed)\n\
             --trace PATH     record one telemetry event per datagram to PATH\n\
             --metrics-addr A:P  expose Prometheus-text metrics over HTTP and\n\
                              run the share-vs-RTT watchdog\n\
             --rrl            enable response-rate limiting (BIND-style token\n\
                              buckets per client prefix; TCP is never limited)\n\
             --rrl-burst N --rrl-rate N --rrl-period N --rrl-slip N\n\
                              bucket capacity, refill rate per period charged\n\
                              queries, and the 1-in-N TC=1 slip ratio\n\
                              (defaults 50, 1, 8, 2; each implies --rrl)\n\
             --rrl-nx-budget N  site-wide NXDOMAIN bucket (default 0 = off)\n\
             --rrl-all        charge every query, not just NXDOMAIN/referral/\n\
                              REFUSED responses\n\
             --rrl-key-ports  mix the source port into the client key (loopback\n\
                              harness knob; deployments aggregate by prefix)\n\
           blast   closed-loop load generator\n\
             --addr A:P       target address (default 127.0.0.1:5300)\n\
             --concurrency N  client threads (default 4)\n\
             --queries N      total queries (default 10000)\n\
             --timeout-ms M   per-query timeout (default 1000)\n\
             --seed S         query-mix / fault seed (default 2017)\n\
             --origin NAME    zone origin (default ourtestdomain.nl)\n\
             --probe-only     send only probe TXT queries\n\
             --attack MODE    offer an adversarial workload instead of the\n\
                              legitimate mix: nxdomain (water torture), nxns\n\
                              (delegation amplification), spoof (port-\n\
                              multiplexed flood); exclusive with --chaos\n\
             --spoofed-sources N  (attack spoof) socket pool per thread (16)\n\
             --chaos          route through a fault proxy and drive the\n\
                              resolver retry/backoff client instead\n\
             --loss P         (chaos) total drop probability (default 0.10)\n\
             --corrupt P      (chaos) per-copy corruption probability (default 0.01)\n\
             --edns-size N    (chaos) advertise N in the client's OPT; truncated\n\
                              answers are retried over TCP (RFC 7766)\n\
             --no-tcp-fallback  (chaos) let TC=1 answers doom the attempt instead\n\
             --cache          (chaos) attach a record cache to the client: TTL\n\
                              hits answer repeats with zero socket I/O and\n\
                              NXDOMAIN/NODATA are negatively cached (RFC 2308)\n\
             --cache-cap N    (cache) bounded LRU capacity (default 0 = unbounded)\n\
             --serve-stale    (cache) answer from expired entries when every\n\
                              upstream is dead (RFC 8767)\n\
             --prefetch       (cache) refresh hot entries before they expire\n\
             --trace PATH     record one telemetry event per query to PATH\n\
             --json           emit one JSON object instead of the text report\n\
             --metrics-addr A:P  expose load/client metrics over HTTP\n\
           chaos   standalone fault-injecting UDP proxy\n\
             --listen A:P     address to accept clients on (default 127.0.0.1:5301)\n\
             --upstream A:P   server to proxy to (default 127.0.0.1:5300)\n\
             --seed S         fault schedule seed (default 2017)\n\
             --drop P --dup P --corrupt P --truncate P --reorder P\n\
                              per-datagram fault probabilities (default 0)\n\
             --delay-min-ms M --delay-max-ms M\n\
                              per-copy delay range (default 0)\n\
             --tcp-refuse P --tcp-reset P --tcp-stall P --tcp-badlen P\n\
                              per-frame TCP connection-fault probabilities\n\
                              (default 0; the proxy always relays TCP)\n\
             --duration SECS  stop after SECS (default: run until killed)\n\
           smoke   loopback self-test (server + blast in-process)\n\
             --queries N      total queries (default 1000)\n\
             --threads N      server worker shards (default 2)\n\
             --io MODE        server I/O loop: auto|std|mmsg (default auto)\n\
             --concurrency N  load client threads, non-chaos mode (default 4)\n\
             --attack MODE    the attack gate: a seeded nxdomain|nxns|spoof\n\
                              flood runs beside the legitimate mix and every\n\
                              `attack-` output line must replay byte-identically\n\
             --rrl            (attack) defend with the default rate-limit\n\
                              policy: the gate then requires drops, slips and\n\
                              a watchdog attack-pressure breach while legit\n\
                              goodput holds at 100%; with --chaos instead, a\n\
                              harness-tuned limiter (per-port keys, charge\n\
                              everything) runs under the fault plan so rate-\n\
                              limited journeys show up in `report --tails`\n\
             --chaos          route through two seeded fault proxies and\n\
                              apply resolver-level pass criteria\n\
             --cache          the cache gate: a low-TTL zone served cold then\n\
                              warm through one shared record cache — the warm\n\
                              pass must answer over half its transactions from\n\
                              cache, and every `cache-` line must replay\n\
                              byte-identically for a given seed\n\
             --cache-cap N    (cache) bounded LRU capacity (default 0 = unbounded)\n\
             --serve-stale    (cache) third pass: expire the cache, blackhole\n\
                              the authoritative behind a drop-everything chaos\n\
                              proxy, and require every transaction to complete\n\
                              from stale entries (RFC 8767)\n\
             --prefetch       (cache) sleep the warm pass into the prefetch\n\
                              window and require hot entries to refresh before\n\
                              expiry\n\
             --seed S         (chaos/attack) schedule seed (default 2017)\n\
             --loss P         (chaos) total drop probability (default 0.10)\n\
             --corrupt P      (chaos) per-copy corruption probability (default 0.01)\n\
             --tcp            (chaos) truncation gate: serve a padded zone over\n\
                              UDP+TCP with a small EDNS limit behind TCP\n\
                              connection faults, and require every truncated\n\
                              transaction to complete over TCP\n\
             --edns-size N    (chaos) EDNS limit for the truncation gate\n\
                              (default 512; requires --tcp)\n\
             --budget-secs S  (chaos) wall-clock budget (default 120)\n\
             --trace PATH     record server+client+proxy telemetry to PATH\n\
             --flight-dump PATH  (requires --trace) dump the flight recorder's\n\
                              retained journeys — every failed one, the\n\
                              slowest K, the last N — as JSONL after the run\n\
             --json           emit one JSON object instead of the text report\n\
             --metrics-addr A:P  expose metrics over HTTP; with --chaos this\n\
                              also runs the scrape-equality and watchdog gates\n\
           gate    one named CI gate: the smoke configuration scripts/verify.sh\n\
                   pins, run twice where reproducibility is the claim, with\n\
                   the deterministic lines compared in-process\n\
             <name>           the gate to run; `list` prints every name\n\
           top     live view over a running metrics endpoint\n\
             --addr A:P       metrics endpoint to poll (default 127.0.0.1:9153)\n\
             --interval-ms M  poll interval (default 1000)\n\
             --iterations N   exit after N polls (default: run until killed)\n\
             --plain          no screen clearing between polls\n\
           report  analyses over a recorded telemetry trace\n\
             --from-trace PATH  trace file written by --trace\n\
             --min-queries N    rank-profile client threshold (default 1)\n\
             --tails            per-query journey attribution: an exclusive\n\
                              tail-cause table (clean|retried|chaos-faulted|\n\
                              tc-tcp-detour|rrl-slipped|cache-stale|servfail)\n\
                              with touched counts, shares and tail latency\n\
                              percentiles; `tails-` lines are seed-\n\
                              deterministic, `tail-latency-`/`tail-mass`\n\
                              lines carry wall-clock time\n\
           explain  per-query timelines from a recorded trace\n\
             <trace>          trace file written by --trace (positional)\n\
             --txn HEXID      one journey by its 64-bit hex id\n\
             --slowest N      the N worst client RTTs (default 10)\n\
             --failed         every journey with a timed-out client attempt\n\
             --canonical      omit timestamps and order hops by content, so\n\
                              same-seed runs print byte-identical timelines"
    );
    std::process::exit(code)
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage_exit(2)
        })
}

/// Unwraps a rig result or exits 1 with the rig's complaint.
fn or_die<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn print_stats(stats: ServerStats) {
    println!("stats: {}", stats.line());
}

fn report_blast(report: &dnswild_netio::LoadReport) {
    let pct = |q: f64| report.latency_percentile(q).unwrap_or(0);
    println!(
        "sent={} received={} timeouts={} mismatched={} elapsed_ms={} qps={:.0}",
        report.sent,
        report.received,
        report.timeouts,
        report.mismatched,
        report.elapsed.as_millis(),
        report.qps()
    );
    println!(
        "latency_us: p50={:.1} p90={:.1} p99={:.1} max={:.1}",
        pct(0.50) as f64 / 1e3,
        pct(0.90) as f64 / 1e3,
        pct(0.99) as f64 / 1e3,
        pct(1.0) as f64 / 1e3
    );
}

fn parse_origin(origin: &str) -> Name {
    Name::parse(origin).unwrap_or_else(|e| {
        eprintln!("bad --origin: {e:?}");
        std::process::exit(2)
    })
}

/// Starts a telemetry collector writing to `path` with the given auth
/// table (auth id = index).
fn start_collector(path: &str, auths: &[&str]) -> Arc<Collector> {
    or_die(lab::start_collector(Path::new(path), auths))
}

/// Finishes the collector and prints the trace summary. The event and
/// overflow counts are deterministic for a fixed seed; the content
/// digest additionally commits to which server each client attempt
/// picked, so it is only run-to-run stable for non-chaos runs.
fn finish_trace(collector: &Collector, path: &str) {
    let (summary, trace) = or_die(lab::finish_trace(collector, Path::new(path)));
    println!("trace-summary: events={} overflow={}", summary.events, summary.overflow);
    println!("trace-digest: {:016x}", trace.digest());
}

/// One JSON object summarising a load run — counters, latency
/// percentiles and, when the server ran in-process, its stats. Values
/// are numbers only, so the object is hand-rolled.
fn json_blast(report: &dnswild_netio::LoadReport, stats: Option<&ServerStats>) -> String {
    let pct = |q: f64| report.latency_percentile(q).unwrap_or(0) as f64 / 1e3;
    let mut out = format!(
        "{{\"sent\":{},\"received\":{},\"timeouts\":{},\"mismatched\":{},\"elapsed_ms\":{},\
         \"qps\":{:.1},\"latency_us\":{{\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"max\":{:.1}}}",
        report.sent,
        report.received,
        report.timeouts,
        report.mismatched,
        report.elapsed.as_millis(),
        report.qps(),
        pct(0.50),
        pct(0.90),
        pct(0.99),
        pct(1.0)
    );
    if let Some(s) = stats {
        let fields: Vec<String> = s
            .kinds()
            .iter()
            .map(|(kind, n)| format!("\"{kind}\":{n}"))
            .collect();
        out.push_str(&format!(",\"server\":{{{}}}", fields.join(",")));
    }
    out.push('}');
    out
}

fn start_metrics(addr: &str) -> (Arc<Registry>, MetricsServer) {
    or_die(lab::start_metrics(addr))
}

fn start_watchdog(registry: &Arc<Registry>) -> dnswild_metrics::WatchdogHandle {
    or_die(lab::start_watchdog(registry))
}

fn cmd_serve(args: &[String]) {
    let mut addr = "127.0.0.1:5300".to_string();
    let mut threads: Option<usize> = None;
    let mut io = IoBackend::Auto;
    let mut site = "FRA".to_string();
    let mut origin = "ourtestdomain.nl".to_string();
    let mut ns = 2usize;
    let mut pad = 0usize;
    let mut attack_zone = false;
    let mut tcp = false;
    let mut edns_size: Option<u16> = None;
    let mut duration: Option<u64> = None;
    let mut trace: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut rrl = false;
    let mut rrl_policy = RateLimitPolicy::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag(&mut it, "--addr"),
            "--threads" => threads = Some(parse_flag(&mut it, "--threads")),
            "--io" => io = parse_flag(&mut it, "--io"),
            "--site" => site = parse_flag(&mut it, "--site"),
            "--origin" => origin = parse_flag(&mut it, "--origin"),
            "--ns" => ns = parse_flag(&mut it, "--ns"),
            "--pad" => pad = parse_flag(&mut it, "--pad"),
            "--attack-zone" => attack_zone = true,
            "--tcp" => tcp = true,
            "--edns-size" => edns_size = Some(parse_flag(&mut it, "--edns-size")),
            "--duration" => duration = Some(parse_flag(&mut it, "--duration")),
            "--trace" => trace = Some(parse_flag(&mut it, "--trace")),
            "--metrics-addr" => metrics_addr = Some(parse_flag(&mut it, "--metrics-addr")),
            "--rrl" => rrl = true,
            "--rrl-burst" => (rrl, rrl_policy.burst) = (true, parse_flag(&mut it, "--rrl-burst")),
            "--rrl-rate" => (rrl, rrl_policy.rate) = (true, parse_flag(&mut it, "--rrl-rate")),
            "--rrl-period" => {
                (rrl, rrl_policy.period) = (true, parse_flag(&mut it, "--rrl-period"))
            }
            "--rrl-slip" => (rrl, rrl_policy.slip) = (true, parse_flag(&mut it, "--rrl-slip")),
            "--rrl-nx-budget" => {
                (rrl, rrl_policy.nxdomain_budget) = (true, parse_flag(&mut it, "--rrl-nx-budget"))
            }
            "--rrl-all" => (rrl, rrl_policy.scope) = (true, RrlScope::All),
            "--rrl-key-ports" => (rrl, rrl_policy.key_ports) = (true, true),
            "--help" | "-h" => usage_exit(0),
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit(2)
            }
        }
    }
    if trace.is_some() && duration.is_none() {
        // The trace footer is written when the collector is finished;
        // an open-ended run would leave an unreadable file behind.
        eprintln!("serve: --trace requires --duration");
        std::process::exit(2);
    }
    if attack_zone && pad != 0 {
        eprintln!("serve: --attack-zone and --pad are mutually exclusive presets");
        std::process::exit(2);
    }
    let origin = parse_origin(&origin);
    let zones = Arc::new(vec![if attack_zone {
        attack_test_domain_zone(&origin, ns, ATTACK_DELEGATION_NS)
    } else {
        padded_test_domain_zone(&origin, ns, pad)
    }]);
    let mut config = ServeConfig::new(addr, site.clone(), zones).io(io);
    if tcp {
        config = config.tcp(TcpOptions::default());
    }
    if let Some(size) = edns_size {
        config = config.truncation(TruncationPolicy::symmetric(size));
    }
    if rrl {
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
    match threads {
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
    let collector = trace.as_ref().map(|path| start_collector(path, &[site.as_str()]));
    if let Some(c) = &collector {
        config = config.collector(Arc::clone(c), 0);
    }
    let metrics = metrics_addr.as_deref().map(start_metrics);
    if let Some((registry, _)) = &metrics {
        config = config.metrics(Arc::clone(registry));
        if let Some(c) = &collector {
            mirror_collector(registry, c);
        }
    }
    let watchdog = metrics.as_ref().map(|(registry, _)| start_watchdog(registry));
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
            "serving tcp://{} (RFC 7766; udp answers truncate over {} bytes)",
            tcp_addr,
            edns_size.unwrap_or(dnswild_proto::DEFAULT_EDNS_PAYLOAD)
        );
    }
    match duration {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs(secs));
            let tcp_stats = handle.tcp_addr().map(|_| handle.tcp_stats());
            print_stats(handle.shutdown());
            if let Some(t) = tcp_stats {
                println!(
                    "tcp: accepted={} over_cap={} frame_errors={}",
                    t.accepted, t.over_cap, t.frame_errors
                );
            }
            if let (Some(c), Some(path)) = (&collector, &trace) {
                finish_trace(c, path);
            }
            if let Some(w) = watchdog {
                let report = w.shutdown();
                eprintln!("watchdog: healthy={}", report.healthy());
            }
            if let Some((_, server)) = metrics {
                server.shutdown();
            }
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(10));
            print_stats(handle.stats());
        },
    }
}

/// Prefetch window for `blast --cache --prefetch`: hot entries refresh
/// when less than this many seconds of TTL remain. Two seconds sits
/// under the preset zone's 5-second probe TTL, so a long blast keeps
/// its hot set warm instead of letting it expire.
const BLAST_PREFETCH_WINDOW: u32 = 2;

fn cmd_blast(args: &[String]) {
    let mut addr = "127.0.0.1:5300".to_string();
    let mut concurrency = 4usize;
    let mut queries = 10_000u64;
    let mut timeout_ms = 1_000u64;
    let mut seed = 2017u64;
    let mut origin = "ourtestdomain.nl".to_string();
    let mut probe_only = false;
    let mut attack: Option<AttackMode> = None;
    let mut spoofed_sources = DEFAULT_SPOOFED_SOURCES;
    let mut chaos = false;
    let mut loss = 0.10f64;
    let mut corrupt = 0.01f64;
    let mut edns_size: Option<u16> = None;
    let mut tcp_fallback = true;
    let mut cache = false;
    let mut cache_cap = 0usize;
    let mut serve_stale = false;
    let mut prefetch = false;
    let mut trace: Option<String> = None;
    let mut json = false;
    let mut metrics_addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag(&mut it, "--addr"),
            "--concurrency" => concurrency = parse_flag(&mut it, "--concurrency"),
            "--queries" => queries = parse_flag(&mut it, "--queries"),
            "--timeout-ms" => timeout_ms = parse_flag(&mut it, "--timeout-ms"),
            "--seed" => seed = parse_flag(&mut it, "--seed"),
            "--origin" => origin = parse_flag(&mut it, "--origin"),
            "--probe-only" => probe_only = true,
            "--attack" => attack = Some(parse_flag(&mut it, "--attack")),
            "--spoofed-sources" => spoofed_sources = parse_flag(&mut it, "--spoofed-sources"),
            "--chaos" => chaos = true,
            "--loss" => loss = parse_flag(&mut it, "--loss"),
            "--corrupt" => corrupt = parse_flag(&mut it, "--corrupt"),
            "--edns-size" => edns_size = Some(parse_flag(&mut it, "--edns-size")),
            "--no-tcp-fallback" => tcp_fallback = false,
            "--cache" => cache = true,
            "--cache-cap" => cache_cap = parse_flag(&mut it, "--cache-cap"),
            "--serve-stale" => serve_stale = true,
            "--prefetch" => prefetch = true,
            "--trace" => trace = Some(parse_flag(&mut it, "--trace")),
            "--json" => json = true,
            "--metrics-addr" => metrics_addr = Some(parse_flag(&mut it, "--metrics-addr")),
            "--help" | "-h" => usage_exit(0),
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit(2)
            }
        }
    }
    let origin = parse_origin(&origin);
    if !chaos && (edns_size.is_some() || !tcp_fallback) {
        // The plain blaster is a UDP-only throughput tool; EDNS
        // negotiation and TCP fallback live in the resolver client.
        eprintln!("blast: --edns-size / --no-tcp-fallback require --chaos");
        std::process::exit(2);
    }
    if !chaos && cache {
        // Likewise the record cache hangs off the resolver client.
        eprintln!("blast: --cache requires --chaos");
        std::process::exit(2);
    }
    if !cache && (cache_cap != 0 || serve_stale || prefetch) {
        eprintln!("blast: --cache-cap / --serve-stale / --prefetch require --cache");
        std::process::exit(2);
    }
    if attack.is_some() && (chaos || probe_only || json) {
        eprintln!("blast: --attack is exclusive with --chaos / --probe-only / --json");
        std::process::exit(2);
    }
    let target: std::net::SocketAddr = addr.parse().unwrap_or_else(|e| {
        eprintln!("bad --addr: {e}");
        std::process::exit(2)
    });
    // The client side only knows the target address, so that is the
    // auth table entry (auth id 0).
    let collector = trace.as_ref().map(|path| start_collector(path, &[addr.as_str()]));
    let metrics = metrics_addr.as_deref().map(start_metrics);
    if let (Some((registry, _)), Some(c)) = (&metrics, &collector) {
        mirror_collector(registry, c);
    }
    if chaos {
        // Interpose a fault proxy and drive the resolver client, whose
        // retry/backoff/SRTT loop is what makes lossy paths survivable.
        let (fwd, rev) = lab::canonical_profiles(loss, corrupt);
        let plan = Arc::new(FaultPlan::new(seed, fwd, rev));
        let proxy = ChaosProxy::spawn_metered(
            "127.0.0.1:0",
            target,
            Arc::clone(&plan),
            collector.as_ref().map(Arc::clone),
            metrics.as_ref().map(|(r, _)| (Arc::clone(r), "p0")),
        )
        .unwrap_or_else(|e| {
            eprintln!("blast: chaos proxy: {e}");
            std::process::exit(1)
        });
        eprintln!("blast: chaos proxy on udp://{} -> {}", proxy.local_addr(), target);
        let watchdog = metrics.as_ref().map(|(registry, _)| start_watchdog(registry));
        let shared_cache = cache.then(|| {
            SharedCache::new(CacheConfig {
                capacity: cache_cap,
                prefetch_window_s: if prefetch { BLAST_PREFETCH_WINDOW } else { 0 },
                max_stale_s: if serve_stale { CACHE_STALE_WINDOW } else { 0 },
                ..CacheConfig::default()
            })
        });
        let mut cfg = ResolveConfig::new(vec![proxy.local_addr()], origin)
            .transactions(queries)
            .concurrency(concurrency)
            .tcp_fallback(tcp_fallback);
        if let Some(size) = edns_size {
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
            if let Some(sc) = &shared_cache {
                mirror_cache(registry, sc);
            }
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
        if json {
            let s = &report.stats;
            let mut obj = format!(
                "{{\"transactions\":{},\"attempts\":{},\"answered\":{},\"servfails\":{},\
                 \"timeouts\":{},\"retries\":{},\"tc_seen\":{},\"tcp_attempts\":{},\
                 \"tcp_answered\":{},\"tcp_failed\":{}",
                s.transactions,
                s.attempts,
                s.answered,
                s.servfails,
                s.timeouts,
                s.retries,
                s.tc_seen,
                s.tcp_attempts,
                s.tcp_answered,
                s.tcp_failed,
            );
            if let Some(sc) = &shared_cache {
                let cs = sc.stats();
                obj.push_str(&format!(
                    ",\"cache\":{{\"hits\":{},\"misses\":{},\"expired\":{},\
                     \"negative_hits\":{},\"stale_served\":{},\"prefetches\":{},\
                     \"evictions\":{},\"entries\":{}}}",
                    cs.hits,
                    cs.misses,
                    cs.expired,
                    cs.negative_hits,
                    cs.stale_served,
                    s.prefetches,
                    cs.evictions,
                    sc.len()
                ));
            }
            obj.push_str(&format!(
                ",\"elapsed_ms\":{},\"qps\":{:.1}}}",
                report.elapsed.as_millis(),
                s.attempts as f64 / report.elapsed.as_secs_f64()
            ));
            println!("{obj}");
        } else {
            println!("chaos-client: {}", report.stats.render());
            println!("chaos-fwd: {}", plan.tally(Direction::Forward).render());
            println!("chaos-rev: {}", plan.tally(Direction::Reverse).render());
            println!("chaos-tcp: {}", plan.tcp_tally().render());
            if let Some(sc) = &shared_cache {
                println!("cache-stats: {}", lab::render_cache_stats(sc));
            }
            println!(
                "elapsed_ms={} qps={:.0}",
                report.elapsed.as_millis(),
                report.stats.attempts as f64 / report.elapsed.as_secs_f64()
            );
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
    let mut config = LoadConfig::new(target, origin).concurrency(concurrency).queries(queries);
    config.timeout = Duration::from_millis(timeout_ms);
    config.seed = seed;
    if probe_only {
        config = config.workload(Workload::Mix(QueryMix::probe_only()));
    }
    if let Some(mode) = attack {
        config = config.workload(Workload::Attack { mode, spoofed_sources });
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
        println!("{}", report.render("attack-client"));
        if let Some(amp) = report.amplification() {
            println!("attack-amplification: {amp:.2}");
        }
        println!(
            "elapsed_ms={} qps={:.0}",
            report.elapsed.as_millis(),
            report.sent as f64 / report.elapsed.as_secs_f64()
        );
    } else if json {
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

fn cmd_chaos(args: &[String]) {
    let mut listen = "127.0.0.1:5301".to_string();
    let mut upstream = "127.0.0.1:5300".to_string();
    let mut seed = 2017u64;
    let mut profile = FaultProfile::lossless();
    let mut tcp_profile = TcpFaultProfile::lossless();
    let mut delay_min_ms = 0u64;
    let mut delay_max_ms = 0u64;
    let mut duration: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => listen = parse_flag(&mut it, "--listen"),
            "--upstream" => upstream = parse_flag(&mut it, "--upstream"),
            "--seed" => seed = parse_flag(&mut it, "--seed"),
            "--drop" => profile.drop = parse_flag(&mut it, "--drop"),
            "--dup" => profile.dup = parse_flag(&mut it, "--dup"),
            "--corrupt" => profile.corrupt = parse_flag(&mut it, "--corrupt"),
            "--truncate" => profile.truncate = parse_flag(&mut it, "--truncate"),
            "--reorder" => profile.reorder = parse_flag(&mut it, "--reorder"),
            "--delay-min-ms" => delay_min_ms = parse_flag(&mut it, "--delay-min-ms"),
            "--delay-max-ms" => delay_max_ms = parse_flag(&mut it, "--delay-max-ms"),
            "--tcp-refuse" => tcp_profile.refuse = parse_flag(&mut it, "--tcp-refuse"),
            "--tcp-reset" => tcp_profile.reset = parse_flag(&mut it, "--tcp-reset"),
            "--tcp-stall" => tcp_profile.stall = parse_flag(&mut it, "--tcp-stall"),
            "--tcp-badlen" => tcp_profile.corrupt_len = parse_flag(&mut it, "--tcp-badlen"),
            "--duration" => duration = Some(parse_flag(&mut it, "--duration")),
            "--help" | "-h" => usage_exit(0),
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit(2)
            }
        }
    }
    let profile = profile.delay_ms(delay_min_ms, delay_max_ms);
    let upstream = upstream.parse().unwrap_or_else(|e| {
        eprintln!("bad --upstream: {e}");
        std::process::exit(2)
    });
    let plan = Arc::new(FaultPlan::new(seed, profile, profile).with_tcp(tcp_profile));
    let proxy = ChaosProxy::spawn(listen.as_str(), upstream, Arc::clone(&plan))
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
        println!("chaos-fwd: {}", plan.tally(Direction::Forward).render());
        println!("chaos-rev: {}", plan.tally(Direction::Reverse).render());
        println!("chaos-tcp: {}", plan.tcp_tally().render());
        println!(
            "chaos-summary: seed={} digest={:016x} events={}",
            plan.seed(),
            plan.schedule_digest(),
            plan.events()
        );
    };
    match duration {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs(secs));
            report(&plan);
            proxy.shutdown();
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(10));
            report(&plan);
        },
    }
}

fn cmd_smoke(args: &[String]) {
    let mut queries = 1_000u64;
    let mut threads = 2usize;
    let mut io = IoBackend::Auto;
    let mut concurrency = 4usize;
    let mut chaos = false;
    let mut attack: Option<AttackMode> = None;
    let mut rrl = false;
    let mut seed = 2017u64;
    let mut loss = 0.10f64;
    let mut corrupt = 0.01f64;
    let mut tcp = false;
    let mut edns_size: Option<u16> = None;
    let mut cache = false;
    let mut cache_cap = 0usize;
    let mut serve_stale = false;
    let mut prefetch = false;
    let mut budget_secs = 120u64;
    let mut trace: Option<String> = None;
    let mut flight_dump: Option<String> = None;
    let mut json = false;
    let mut metrics_addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--queries" => queries = parse_flag(&mut it, "--queries"),
            "--threads" => threads = parse_flag(&mut it, "--threads"),
            "--io" => io = parse_flag(&mut it, "--io"),
            "--concurrency" => concurrency = parse_flag(&mut it, "--concurrency"),
            "--chaos" => chaos = true,
            "--attack" => attack = Some(parse_flag(&mut it, "--attack")),
            "--rrl" => rrl = true,
            "--seed" => seed = parse_flag(&mut it, "--seed"),
            "--loss" => loss = parse_flag(&mut it, "--loss"),
            "--corrupt" => corrupt = parse_flag(&mut it, "--corrupt"),
            "--tcp" => tcp = true,
            "--edns-size" => edns_size = Some(parse_flag(&mut it, "--edns-size")),
            "--cache" => cache = true,
            "--cache-cap" => cache_cap = parse_flag(&mut it, "--cache-cap"),
            "--serve-stale" => serve_stale = true,
            "--prefetch" => prefetch = true,
            "--budget-secs" => budget_secs = parse_flag(&mut it, "--budget-secs"),
            "--trace" => trace = Some(parse_flag(&mut it, "--trace")),
            "--flight-dump" => flight_dump = Some(parse_flag(&mut it, "--flight-dump")),
            "--json" => json = true,
            "--metrics-addr" => metrics_addr = Some(parse_flag(&mut it, "--metrics-addr")),
            "--help" | "-h" => usage_exit(0),
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit(2)
            }
        }
    }
    if !chaos && (tcp || edns_size.is_some()) {
        eprintln!("smoke: --tcp / --edns-size are part of the --chaos truncation gate");
        std::process::exit(2);
    }
    if edns_size.is_some() && !tcp {
        // A small advertisement with no stream transport behind it
        // cannot meet the gate's completion criteria.
        eprintln!("smoke: --edns-size requires --tcp");
        std::process::exit(2);
    }
    if rrl && attack.is_none() && !chaos {
        eprintln!("smoke: --rrl is part of the --attack and --chaos gates");
        std::process::exit(2);
    }
    if flight_dump.is_some() && trace.is_none() {
        // The flight recorder lives in the collector, which only runs
        // when a trace is being recorded.
        eprintln!("smoke: --flight-dump requires --trace");
        std::process::exit(2);
    }
    if !cache && (cache_cap != 0 || serve_stale || prefetch) {
        eprintln!("smoke: --cache-cap / --serve-stale / --prefetch require --cache");
        std::process::exit(2);
    }
    if flight_dump.is_some() && (cache || attack.is_some()) {
        eprintln!("smoke: --flight-dump is available on the plain and --chaos smokes");
        std::process::exit(2);
    }
    if cache && (chaos || attack.is_some() || json) {
        eprintln!("smoke: --cache is exclusive with --chaos / --attack / --json");
        std::process::exit(2);
    }
    if attack.is_some() && (chaos || json) {
        eprintln!("smoke: --attack is exclusive with --chaos / --json");
        std::process::exit(2);
    }
    if chaos && json {
        eprintln!("smoke: --chaos and --json are mutually exclusive");
        std::process::exit(2);
    }
    let rig = Rig {
        threads,
        io,
        trace: trace.map(Into::into),
        flight_dump: flight_dump.map(Into::into),
        metrics_addr,
    };
    let run = if cache {
        lab::cache(&rig, &CacheSpec { queries, seed, capacity: cache_cap, serve_stale, prefetch })
    } else if let Some(mode) = attack {
        lab::attack(&rig, &AttackSpec { mode, rrl, queries, concurrency, seed })
    } else if chaos {
        lab::chaos(
            &rig,
            &ChaosSpec {
                queries,
                seed,
                loss,
                corrupt,
                rrl,
                truncation: tcp.then(|| edns_size.unwrap_or(512)),
                budget: Duration::from_secs(budget_secs),
            },
        )
    } else {
        lab::plain(&rig, &PlainSpec { queries, concurrency })
    };
    let report = run.unwrap_or_else(|e| {
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
            print_stats(report.server);
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

/// `dnswild gate <name>`: one row of [`lab::GATES`]. The gate prints what
/// its (first) run printed, then every cross-run expectation that broke.
fn cmd_gate(args: &[String]) {
    let name = match args {
        [name] if name != "--help" && name != "-h" => name.as_str(),
        [_] => usage_exit(0),
        _ => {
            eprintln!("gate needs exactly one gate name (`dnswild gate list` prints them)");
            usage_exit(2)
        }
    };
    if name == "list" {
        for (gate, law) in lab::GATES {
            println!("{gate:<14} {law}");
        }
        return;
    }
    let Some(run) = lab::run_gate(name) else {
        eprintln!("unknown gate: {name} (`dnswild gate list` prints them)");
        std::process::exit(2)
    };
    let report = run.unwrap_or_else(|e| {
        eprintln!("gate {name}: {e}");
        std::process::exit(1)
    });
    conclude(&format!("gate {name}"), &report, false);
}

/// `dnswild top`: a live text view over any running metrics endpoint.
/// Polls the Prometheus exposition, derives qps from counter deltas
/// between polls, and shows the per-stage latency gauges, the per-auth
/// attempt share, and the watchdog's law gauges.
fn cmd_top(args: &[String]) {
    let mut addr = "127.0.0.1:9153".to_string();
    let mut interval_ms = 1_000u64;
    let mut iterations: Option<u64> = None;
    let mut plain = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag(&mut it, "--addr"),
            "--interval-ms" => interval_ms = parse_flag(&mut it, "--interval-ms"),
            "--iterations" => iterations = Some(parse_flag(&mut it, "--iterations")),
            "--plain" => plain = true,
            "--help" | "-h" => usage_exit(0),
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit(2)
            }
        }
    }
    // Counters whose per-poll delta is worth a qps column, in display
    // order; whichever are present are shown.
    const RATES: [(&str, &str); 4] = [
        ("dnswild_server_events_total", "server"),
        ("dnswild_load_sent_total", "load"),
        ("dnswild_client_attempts_total", "client"),
        ("dnswild_chaos_datagrams_total", "chaos"),
    ];
    let sum_of = |samples: &[dnswild_metrics::Sample], name: &str| -> f64 {
        samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
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
        let totals: Vec<f64> = RATES.iter().map(|(name, _)| sum_of(&samples, name)).collect();
        if !plain {
            // ANSI clear + home; `--plain` keeps every poll on the log.
            print!("\x1b[2J\x1b[H");
        }
        println!("dnswild top — {addr} (poll {round})");
        let mut rates = String::new();
        if let Some((t0, old)) = &prev {
            let dt = now.duration_since(*t0).as_secs_f64().max(1e-9);
            for (i, (_, short)) in RATES.iter().enumerate() {
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
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// `dnswild report --from-trace`: run the paper's analyses over a
/// recorded telemetry trace. Query share (Figure 3) and coverage
/// (Figure 2) come from the server-side view; the rank profile
/// (Figure 7) prefers the client-side view when the trace has one.
fn cmd_report(args: &[String]) {
    let mut from_trace: Option<String> = None;
    let mut min_queries = 1u64;
    let mut tails = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--from-trace" => from_trace = Some(parse_flag(&mut it, "--from-trace")),
            "--min-queries" => min_queries = parse_flag(&mut it, "--min-queries"),
            "--tails" => tails = true,
            "--help" | "-h" => usage_exit(0),
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit(2)
            }
        }
    }
    let Some(path) = from_trace else {
        eprintln!("report needs --from-trace PATH");
        usage_exit(2)
    };
    let trace = Trace::read_from(std::path::Path::new(&path)).unwrap_or_else(|e| {
        eprintln!("report: {path}: {e}");
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

    if tails {
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
    let profile = rank_profile(&clients, result.deployment.ns_count(), min_queries);
    println!("{}", render_rank_profile("trace", &profile));
}

/// `dnswild explain`: reconstruct per-query journeys from a recorded
/// trace and print hop-by-hop timelines — the "why was this query
/// slow" view. Every invocation first proves the journey books balance
/// (each event in exactly one journey or the unattributed pool) and
/// exits non-zero if they do not.
fn cmd_explain(args: &[String]) {
    let mut path: Option<String> = None;
    let mut txn: Option<String> = None;
    let mut slowest: Option<usize> = None;
    let mut failed = false;
    let mut canonical = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--txn" => txn = Some(parse_flag(&mut it, "--txn")),
            "--slowest" => slowest = Some(parse_flag(&mut it, "--slowest")),
            "--failed" => failed = true,
            "--canonical" => canonical = true,
            "--help" | "-h" => usage_exit(0),
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                usage_exit(2)
            }
        }
    }
    let Some(path) = path else {
        eprintln!("explain needs a trace path");
        usage_exit(2)
    };
    if u32::from(txn.is_some()) + u32::from(slowest.is_some()) + u32::from(failed) > 1 {
        eprintln!("explain: --txn / --slowest / --failed are mutually exclusive");
        std::process::exit(2);
    }
    let trace = Trace::read_from(std::path::Path::new(&path)).unwrap_or_else(|e| {
        eprintln!("explain: {path}: {e}");
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
    let selected: Vec<&Journey> = if let Some(hex) = txn {
        let id = u64::from_str_radix(hex.trim_start_matches("0x"), 16).unwrap_or_else(|_| {
            eprintln!("explain: --txn wants a hex journey id (as printed by explain)");
            std::process::exit(2)
        });
        match book.get(id) {
            Some(j) => vec![j],
            None => {
                eprintln!("explain: journey {id:016x} is not in this trace");
                std::process::exit(1)
            }
        }
    } else if failed {
        book.failed()
    } else {
        book.slowest(slowest.unwrap_or(10))
    };
    for journey in &selected {
        print!("{}", render_timeline(&trace, journey, canonical));
    }
    if selected.is_empty() {
        println!("explain: no matching journeys");
    }
    if let Err(e) = books {
        eprintln!("explain: journey books unbalanced: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("blast") => cmd_blast(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("gate") => cmd_gate(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("--help") | Some("-h") | None => usage_exit(if args.is_empty() { 2 } else { 0 }),
        Some(other) => {
            eprintln!("unknown command: {other}");
            usage_exit(2)
        }
    }
}
