//! The lab rig: one in-process serving plane, optionally traced, metered
//! and watched, behind any number of chaos proxies on one fault plan —
//! plus the epilogue every gate ends with and the gates themselves.
//!
//! A *gate* re-checks one of the reproduction's laws over real loopback
//! sockets and returns a typed [`GateReport`]: the stdout lines it would
//! print (each marked seed-deterministic or not), the counters the books
//! were balanced on, and a list of failures that is empty iff the law
//! held. `dnswild smoke` prints a report, the root integration tests
//! assert on one, and [`run_gate`] (`dnswild gate <name>`) runs the named
//! CI configurations — twice where reproducibility is the claim — and
//! compares the deterministic lines in Rust. All three call the same
//! four functions: [`plain`], [`chaos`], [`cache`], [`attack`].
//!
//! What the rig owns, so no gate re-wires it: zone preset → optional
//! [`Collector`] / [`Registry`] + [`MetricsServer`] / watchdog →
//! [`serve`] → N [`ChaosProxy`] on one [`FaultPlan`]; and the shared
//! epilogue: proxy flush → settle until the server's `packets_seen`
//! catches up → shutdown → trace finish → scrape equality over
//! the `ServerStats` kinds → failures.
//!
//! Progress notes (`smoke: serving on …`) go to stderr as a run
//! proceeds; everything a caller may want to compare is in the report.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnswild_analysis::{
    amplification, reconstruct, render_timeline, tail_report, trace_auth_counts,
    trace_cache_counts, TailCause, TailReport,
};
use dnswild_metrics::watchdog::inputs;
use dnswild_metrics::{
    parse_exposition, scrape, CounterSet, Sample, Watchdog, WatchdogConfig, WatchdogHandle,
    WatchdogReport,
};
use dnswild_netio::{
    blast, resolve, serve, AttackMode, CacheConfig, ChaosProxy, ClientStats, Collector,
    CollectorConfig, Direction, FaultPlan, FaultProfile, IoBackend, IoErrorStats, LoadConfig,
    LoadReport, MetricsServer, Registry, ResolveConfig, ResolveReport, ServeConfig, ServeHandle,
    SharedCache, TcpFaultProfile, TcpOptions, Trace, TraceSummary, Workload,
    DEFAULT_SPOOFED_SOURCES, NXNS_EDNS_PAYLOAD,
};
use dnswild_proto::Name;
use dnswild_resolver::PolicyKind;
use dnswild_server::{RateLimitPolicy, RrlScope, ServerStats, TruncationPolicy};
use dnswild_zone::presets::{
    attack_test_domain_zone, padded_test_domain_zone, probe_ttl_test_domain_zone, test_domain_zone,
};
use dnswild_zone::Zone;

/// The site code every lab server answers as (auth id 0 in traces).
const SITE: &str = "FRA";

/// The measurement zone's origin.
pub fn origin() -> Name {
    Name::parse("ourtestdomain.nl").expect("static origin")
}

/// Server knobs and instrumentation shared by every gate.
#[derive(Debug, Clone)]
pub struct Rig {
    /// Server worker shards.
    pub threads: usize,
    /// Server I/O loop.
    pub io: IoBackend,
    /// Record server, client and proxy telemetry to this trace file.
    pub trace: Option<PathBuf>,
    /// Expose a Prometheus endpoint on this address; gates then also
    /// require the final scrape to equal the server's books.
    pub metrics_addr: Option<String>,
}

impl Default for Rig {
    fn default() -> Self {
        Rig {
            threads: 2,
            io: IoBackend::Auto,
            trace: None,
            metrics_addr: None,
        }
    }
}

impl Rig {
    /// The default rig recording a trace to `path`.
    pub fn traced(path: impl Into<PathBuf>) -> Rig {
        Rig { trace: Some(path.into()), ..Rig::default() }
    }

    /// This rig with a metrics endpoint on an ephemeral loopback port.
    pub fn metered(self) -> Rig {
        Rig { metrics_addr: Some("127.0.0.1:0".into()), ..self }
    }
}

/// One stdout line of a gate run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The line, without its newline.
    pub text: String,
    /// Whether the line is a pure function of the seed — the lines two
    /// same-seed runs must agree on byte for byte.
    pub deterministic: bool,
}

/// What one gate run printed, counted and concluded.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Stdout, in print order.
    pub lines: Vec<Line>,
    /// Every expectation that did not hold; empty iff the gate passed.
    pub failures: Vec<String>,
    /// The verdict sentence for a passing run.
    pub pass: String,
    /// The server's final counters.
    pub server: ServerStats,
    /// The server's socket-level error counters.
    pub io: IoErrorStats,
    /// The legitimate closed-loop blast (`plain`, `attack`).
    pub load: Option<LoadReport>,
    /// The resolver client's books (`chaos`; the warm pass of `cache`).
    pub client: Option<ClientStats>,
    /// The attacker's books (`attack`).
    pub attack: Option<LoadReport>,
    /// The watchdog's final evaluation, when the run was metered.
    pub watchdog: Option<WatchdogReport>,
    /// The final scrape, when the run was metered.
    pub samples: Vec<Sample>,
    /// The trace read back from disk, when the run was traced.
    pub trace: Option<Trace>,
}

impl GateReport {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The seed-deterministic lines, in print order.
    pub fn deterministic(&self) -> Vec<&str> {
        self.lines.iter().filter(|l| l.deterministic).map(|l| l.text.as_str()).collect()
    }

    fn det(&mut self, text: String) {
        self.lines.push(Line { text, deterministic: true });
    }

    fn say(&mut self, text: String) {
        self.lines.push(Line { text, deterministic: false });
    }

    fn fail(&mut self, complaint: String) {
        self.failures.push(complaint);
    }

    /// Every `(kind, value)` of an owner's `books` must be exactly the
    /// `family{labels.., kind}` sample of the final scrape.
    fn expect_scraped(&mut self, family: &str, labels: &[(&str, &str)], books: &[(&str, u64)]) {
        for &(kind, want) in books {
            let got = self.samples.iter().find(|s| {
                let labelled = labels.iter().all(|&(k, v)| s.label(k) == Some(v));
                s.name == family && s.label("kind") == Some(kind) && labelled
            });
            let got = got.map(|s| s.value);
            if got != Some(want as f64) {
                self.fail(format!(
                    "scrape mismatch: {family}{labels:?} kind={kind} = {got:?}, \
                     its owner counted {want}"
                ));
            }
        }
    }

    /// The trace epilogue's lines. Event and overflow counts are
    /// deterministic for a fixed seed; the content digest additionally
    /// commits to which server each client attempt picked, so only
    /// loss-free single-server runs may mark it `digest_deterministic`.
    fn trace_lines(&mut self, summary: TraceSummary, trace: Trace, digest_deterministic: bool) {
        self.say(format!("trace-summary: events={} overflow={}", summary.events, summary.overflow));
        self.lines.push(Line {
            text: format!("trace-digest: {:016x}", trace.digest()),
            deterministic: digest_deterministic,
        });
        self.trace = Some(trace);
    }

    /// On a lossless loopback nothing may fail to be received or decoded.
    fn expect_clean_io(&mut self, io: &IoErrorStats) {
        if io.decode_errors != 0 || io.recv_errors != 0 {
            self.fail(format!(
                "io errors on a lossless loopback: recv={} decode={}",
                io.recv_errors, io.decode_errors
            ));
        }
    }
}

/// Starts a telemetry collector. With a `registry`, the collector is
/// registered here, once, where it is created: its books feed
/// `dnswild_trace_events_total{kind}` — one series per
/// `TelemetrySnapshot` field, whose `overflow` kind the watchdog's
/// ring-overflow law reads — and the worst client RTT it has drained
/// the `dnswild_journey_slowest_rtt_ns` gauge, an exemplar pointing
/// dashboards at a concrete slow query (`explain <trace> --slowest 1`)
/// rather than a histogram bucket.
pub fn start_collector(
    config: CollectorConfig,
    registry: Option<&Registry>,
) -> Result<Arc<Collector>, String> {
    let collector = Arc::new(Collector::start(config).map_err(|e| format!("trace: {e}"))?);
    if let Some(registry) = registry {
        let books = Arc::clone(&collector);
        registry.mirror_counters(
            inputs::TRACE_EVENTS,
            "trace collector books, one series per TelemetrySnapshot field",
            &[],
            move || books.snapshot(),
        );
        let slowest = registry.gauge(
            "dnswild_journey_slowest_rtt_ns",
            "worst client RTT in the trace so far",
        );
        let cell = collector.snapshot_cell();
        registry.on_scrape(move || slowest.set(cell.journey_slowest_ns() as f64));
    }
    Ok(collector)
}

/// Binds the Prometheus exposition endpoint and returns the registry
/// backing it plus the server handle.
pub fn start_metrics(addr: &str) -> Result<(Arc<Registry>, MetricsServer), String> {
    let registry = Arc::new(Registry::new());
    let server = MetricsServer::spawn(addr, Arc::clone(&registry))
        .map_err(|e| format!("metrics: {e}"))?;
    eprintln!("metrics: exposing on http://{}/metrics", server.local_addr());
    Ok((registry, server))
}

/// Spawns the law watchdog over a metrics registry.
pub fn start_watchdog(registry: &Arc<Registry>) -> Result<WatchdogHandle, String> {
    Watchdog::new(Arc::clone(registry), WatchdogConfig::default())
        .spawn()
        .map_err(|e| format!("watchdog: {e}"))
}

/// Finishes the collector and reads the trace back from `path`.
pub fn finish_trace(collector: &Collector, path: &Path) -> Result<(TraceSummary, Trace), String> {
    let summary = collector.finish().map_err(|e| format!("trace: finish: {e}"))?;
    let trace = Trace::read_from(path).map_err(|e| format!("trace: read back: {e}"))?;
    Ok((summary, trace))
}

/// The canonical chaos fault mix: `loss` split 60/40 across the forward
/// and reverse directions (a query lost either way costs the client one
/// attempt), 2% duplication, `corrupt` per copy, a light truncate and
/// reorder rate, and 0–20 ms of per-copy delay. The 20 ms ceiling keeps
/// the worst-case hold (2×20 ms per direction, 80 ms round trip) far
/// below the client's 250 ms base timeout — a determinism requirement,
/// see `dnswild_netio::client`.
pub fn canonical_profiles(loss: f64, corrupt: f64) -> (FaultProfile, FaultProfile) {
    let base = FaultProfile {
        drop: 0.0,
        dup: 0.02,
        corrupt,
        truncate: 0.005,
        reorder: 0.05,
        delay_min_us: 0,
        delay_max_us: 0,
    }
    .delay_ms(0, 20);
    (FaultProfile { drop: loss * 0.6, ..base }, FaultProfile { drop: loss * 0.4, ..base })
}

/// The running rig: instrumentation, the server, and its proxies.
struct Lab {
    collector: Option<Arc<Collector>>,
    trace: Option<PathBuf>,
    metrics: Option<(Arc<Registry>, MetricsServer)>,
    watchdog: Option<WatchdogHandle>,
    server: Option<ServeHandle>,
    plan: Option<Arc<FaultPlan>>,
    proxies: Vec<ChaosProxy>,
}

impl Lab {
    /// Starts the instrumentation `rig` asks for and a server answering
    /// `zone`; `tune` adds what only this gate needs (TCP, truncation,
    /// rate limiting).
    fn start(
        rig: &Rig,
        zone: Zone,
        tune: impl FnOnce(ServeConfig) -> ServeConfig,
    ) -> Result<Lab, String> {
        let metrics = rig.metrics_addr.as_deref().map(start_metrics).transpose()?;
        let registry = metrics.as_ref().map(|(r, _)| r.as_ref());
        let collector = rig
            .trace
            .as_deref()
            .map(|p| start_collector(CollectorConfig::new(p).auths([SITE]), registry))
            .transpose()?;
        let mut cfg = tune(
            ServeConfig::new("127.0.0.1:0", SITE, Arc::new(vec![zone]))
                .threads(rig.threads)
                .io(rig.io),
        );
        if let Some(c) = &collector {
            cfg = cfg.collector(Arc::clone(c), 0);
        }
        if let Some((registry, _)) = &metrics {
            cfg = cfg.metrics(Arc::clone(registry));
        }
        let server = serve(cfg).map_err(|e| format!("serve: {e}"))?;
        Ok(Lab {
            collector,
            trace: rig.trace.clone(),
            metrics,
            watchdog: None,
            server: Some(server),
            plan: None,
            proxies: Vec::new(),
        })
    }

    fn server(&self) -> &ServeHandle {
        self.server.as_ref().expect("server runs until stop()")
    }

    fn addr(&self) -> SocketAddr {
        self.server().local_addr()
    }

    fn registry(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref().map(|(r, _)| r)
    }

    /// `count` chaos proxies in front of the server, all deciding fates
    /// from `plan` — so which proxy carries a datagram cannot change what
    /// happens to it. The plan owns the tallies, so it is registered
    /// once, whatever the count.
    fn proxies(&mut self, plan: FaultPlan, count: usize) -> Result<Vec<SocketAddr>, String> {
        let plan = Arc::new(plan);
        if let Some(registry) = self.registry() {
            plan.register(registry);
        }
        for _ in 0..count {
            let collector = self.collector.as_ref().map(Arc::clone);
            let proxy = ChaosProxy::spawn("127.0.0.1:0", self.addr(), Arc::clone(&plan), collector)
                .map_err(|e| format!("chaos proxy: {e}"))?;
            self.proxies.push(proxy);
        }
        self.plan = Some(plan);
        Ok(self.proxies.iter().map(ChaosProxy::local_addr).collect())
    }

    /// Shuts the proxies down, which sends every delayed copy their
    /// pumps still hold and joins the TCP relay threads: the plan's
    /// tallies are final afterwards.
    fn flush_proxies(&mut self) -> Arc<FaultPlan> {
        for proxy in self.proxies.drain(..) {
            proxy.shutdown();
        }
        self.plan.take().expect("proxies were spawned")
    }

    /// Runs the law watchdog for the rest of the run, when metered.
    fn watch(&mut self) -> Result<(), String> {
        self.watchdog = self.registry().map(start_watchdog).transpose()?;
        Ok(())
    }

    /// A resolver-client configuration feeding this rig's collector and
    /// registry.
    fn resolve_config(&self, servers: Vec<SocketAddr>, txns: u64, seed: u64) -> ResolveConfig {
        let mut cfg = ResolveConfig::new(servers, origin()).transactions(txns);
        cfg.seed = seed;
        if let Some(c) = &self.collector {
            cfg = cfg.collector(Arc::clone(c));
        }
        if let Some(r) = self.registry() {
            cfg = cfg.metrics(Arc::clone(r));
        }
        cfg
    }

    /// A legitimate-mix load configuration aimed at the server, feeding
    /// this rig's collector and registry.
    fn load_config(&self, queries: u64, concurrency: usize) -> LoadConfig {
        let mut cfg = LoadConfig::new(self.addr(), origin()).concurrency(concurrency).queries(queries);
        if let Some(c) = &self.collector {
            cfg = cfg.collector(Arc::clone(c), 0);
        }
        if let Some(r) = self.registry() {
            cfg = cfg.metrics(Arc::clone(r));
        }
        cfg
    }

    /// Lets the server catch up with the `expected` datagrams and frames
    /// already delivered to its sockets, then shuts it down (workers
    /// flush their final metric deltas first) and returns its books.
    fn stop(&mut self, expected: u64) -> (ServerStats, IoErrorStats) {
        let server = self.server.take().expect("server stopped twice");
        let settle = Instant::now() + Duration::from_secs(5);
        while server.stats().packets_seen() < expected && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(5));
        }
        let io = server.io_errors();
        (server.shutdown(), io)
    }

    /// Finishes the collector and reads the trace back, when traced.
    fn read_trace(&self) -> Result<Option<(TraceSummary, Trace)>, String> {
        match (&self.collector, &self.trace) {
            (Some(c), Some(path)) => finish_trace(c, path).map(Some),
            _ => Ok(None),
        }
    }

    fn finish_trace(&self, report: &mut GateReport, digest_deterministic: bool) -> Result<(), String> {
        if let Some((summary, trace)) = self.read_trace()? {
            report.trace_lines(summary, trace, digest_deterministic);
        }
        Ok(())
    }

    /// The scrape-equality epilogue, when metered: after the workers
    /// have flushed their final deltas (`stop`), the scraped per-auth
    /// counters must match the server's own books *exactly*. Returns
    /// whether the run was metered; the samples land in the report.
    fn scrape_books(&self, stats: &ServerStats, report: &mut GateReport) -> bool {
        let Some((_, server)) = &self.metrics else {
            return false;
        };
        let text = scrape(server.local_addr()).unwrap_or_else(|e| {
            report.fail(format!("final scrape failed: {e}"));
            String::new()
        });
        report.samples = parse_exposition(&text);
        report.expect_scraped("dnswild_server_events_total", &[("auth", SITE)], &stats.kinds());
        true
    }

    /// Stops the watchdog and keeps its final evaluation.
    fn stop_watchdog(&mut self, report: &mut GateReport) -> Option<WatchdogReport> {
        let wd = self.watchdog.take().map(WatchdogHandle::shutdown);
        report.watchdog = wd.or(report.watchdog);
        wd
    }

    /// Tears down what is still running and hands the report over.
    fn finish(mut self, mut report: GateReport, server: ServerStats, io: IoErrorStats) -> GateReport {
        self.stop_watchdog(&mut report);
        if let Some((_, metrics)) = self.metrics.take() {
            metrics.shutdown();
        }
        report.server = server;
        report.io = io;
        report
    }
}

/// The plain gate's workload.
#[derive(Debug, Clone)]
pub struct PlainSpec {
    /// Total queries of the legitimate mix.
    pub queries: u64,
    /// Load lanes: queries in flight, polled by one thread per core.
    pub concurrency: usize,
}

/// The plain gate: a closed-loop blast of the legitimate mix at an
/// in-process server on a lossless loopback. Every query must be
/// answered, the server's counters must be consistent with the
/// client's, nothing may fail to decode, and every datagram the server
/// saw must be one of ours. Traced, the `trace-digest` line is
/// deterministic (the digest keys on event content, not timestamps or
/// ports).
pub fn plain(rig: &Rig, spec: &PlainSpec) -> Result<GateReport, String> {
    let mut lab = Lab::start(rig, test_domain_zone(&origin(), 2), |c| c)?;
    let handle = lab.server();
    eprintln!(
        "smoke: serving on udp://{} with {} shards (io={}, reuseport={})",
        handle.local_addr(),
        handle.threads(),
        handle.backend().name(),
        handle.reuseport()
    );
    let load = blast(lab.load_config(spec.queries, spec.concurrency))
        .map_err(|e| format!("blast: {e}"))?;
    let (stats, io) = lab.stop(load.stats.sent);
    let mut report = GateReport::default();
    lab.finish_trace(&mut report, true)?;
    if !load.all_answered() {
        report.fail("lost or stale responses".into());
    }
    if let Err(complaint) = load.check_server_stats(stats) {
        report.fail(complaint);
    }
    report.expect_clean_io(&io);
    if stats.packets_seen() != load.stats.sent {
        report.fail(format!(
            "server classified {} packets, {} were sent",
            stats.packets_seen(),
            load.stats.sent
        ));
    }
    lab.scrape_books(&stats, &mut report);
    report.pass = format!("{} queries, 100% answered, counters consistent", load.stats.sent);
    report.load = Some(load);
    Ok(lab.finish(report, stats, io))
}

/// The chaos gate's workload and fault plan.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Resolver transactions.
    pub queries: u64,
    /// Fault-schedule and query seed.
    pub seed: u64,
    /// Total drop probability, split 60/40 forward/reverse.
    pub loss: f64,
    /// Per-copy corruption probability.
    pub corrupt: f64,
    /// The rrl leg: run a harness-tuned rate limiter under the plan.
    pub rrl: bool,
    /// The truncation leg: serve a padded zone over UDP+TCP behind this
    /// EDNS limit and TCP connection faults.
    pub truncation: Option<u16>,
    /// Wall-clock budget for the whole run.
    pub budget: Duration,
}

impl ChaosSpec {
    /// The canonical gate configuration: 10% loss, 1% corruption, a
    /// 120 s budget, no extra legs.
    pub fn new(queries: u64, seed: u64) -> ChaosSpec {
        ChaosSpec {
            queries,
            seed,
            loss: 0.10,
            corrupt: 0.01,
            rrl: false,
            truncation: None,
            budget: Duration::from_secs(120),
        }
    }
}

/// The chaos gate: one in-process server behind two fault proxies
/// sharing one seeded plan (so the resolver's server choice cannot
/// change any datagram's fate), driven by the retry/backoff client.
///
/// Pass criteria are resolver-level: every transaction answered or
/// SERVFAIL, the attempt books balanced, every datagram delivered by
/// the fault plan classified exactly once on each side, and the whole
/// run inside the wall-clock budget. All `chaos-` lines are
/// deterministic for a given seed.
///
/// With `truncation` set, the run becomes the truncation gate: the
/// zone's probe answers are padded past the EDNS limit so every UDP
/// answer comes back TC=1, the server also listens on TCP, and the
/// proxies inject TCP connection faults (refused connections,
/// mid-stream resets, stalls, corrupted length prefixes). The extra
/// pass criteria: answers truncated on UDP actually completed over
/// TCP, and every TCP frame the fault plan let through was classified
/// by the server — the stream books balance just like the datagram
/// books.
///
/// With `rrl` set the server additionally runs a harness-tuned response
/// rate limiter (per-port keys so every proxy session socket is its own
/// bucket, every query charged, a small burst so ~2k transactions
/// exhaust it). The limiter's refill is charge-counted, not wall-clock,
/// and each worker holds one datagram in flight at a time, so per-bucket
/// verdict order is the worker's send order — deterministic — provided
/// three wall-clock races are pinned down, each where it is configured
/// below: zero delay in the fault plan, round-robin server selection,
/// and a fresh TCP connection per detour. The rrl leg also runs 32
/// client workers instead of 8.
///
/// Metered, the gate also scrapes the live endpoint for the whole run
/// and requires scrape equality, all five hot-path stages timed, and —
/// on a fault-free plan — every watchdog law green.
pub fn chaos(rig: &Rig, spec: &ChaosSpec) -> Result<GateReport, String> {
    let &ChaosSpec { queries, seed, loss, corrupt, rrl, truncation, budget } = spec;
    // In truncation mode the wildcard probe answer is padded to ~900
    // bytes of TXT rdata, comfortably past the gate's default 512-byte
    // EDNS limit, so every UDP answer truncates.
    let zone = match truncation {
        Some(_) => padded_test_domain_zone(&origin(), 2, 900),
        None => test_domain_zone(&origin(), 2),
    };
    let mut lab = Lab::start(rig, zone, |mut cfg| {
        if let Some(size) = truncation {
            // The rrl leg churns connections (fresh connection per
            // fallback, and faulted ones linger until their relay
            // notices the hangup): against the default 64-connection
            // cap an over-cap close loses a frame the fault plan
            // already tallied as forwarded, failing the stream books.
            // Give it headroom; the plain truncation gate keeps the
            // defaults.
            let tcp_opts = if rrl {
                TcpOptions { max_conns: 512, ..TcpOptions::default() }
            } else {
                TcpOptions::default()
            };
            cfg = cfg.tcp(tcp_opts).truncation(TruncationPolicy::symmetric(size));
        }
        if rrl {
            // Small burst so a ~2k-transaction run exhausts every
            // bucket, rate 1/2 so half the post-burst charges still
            // pass (the drop feedback loop — drop, timeout, retry,
            // charge again — must damp, or the run crawls), slip=2 so
            // the limited tail splits into TC=1 slips (which complete
            // over TCP — it is never limited) and outright drops (which
            // cost the client a timeout). Per-port keys give each proxy
            // session socket its own bucket.
            cfg = cfg.rate_limit(RateLimitPolicy {
                burst: 20,
                rate: 1,
                period: 2,
                slip: 2,
                nxdomain_budget: 0,
                scope: RrlScope::All,
                key_ports: true,
                ..RateLimitPolicy::default()
            });
        }
        cfg
    })?;
    let (mut fwd, mut rev) = canonical_profiles(loss, corrupt);
    if rrl {
        // A delayed duplicate racing the next attempt into the same
        // limiter bucket would flip verdict order across runs, and the
        // tail-attribution gate compares `tails-` lines verbatim.
        fwd = FaultProfile { delay_min_us: 0, delay_max_us: 0, ..fwd };
        rev = FaultProfile { delay_min_us: 0, delay_max_us: 0, ..rev };
    }
    let mut plan = FaultPlan::new(seed, fwd, rev);
    if truncation.is_some() {
        // TCP connection faults for the truncation gate: roughly one
        // fallback in five hits a fault on its first try. The client's
        // cached-then-fresh retry absorbs a single fault per fallback,
        // and later attempts re-enter the fallback, so completion still
        // converges.
        plan = plan.with_tcp(TcpFaultProfile {
            refuse: 0.10,
            reset: 0.04,
            stall: 0.04,
            corrupt_len: 0.04,
        });
    }
    let proxies = lab.proxies(plan, 2)?;
    eprintln!(
        "smoke: serving on udp://{} (io={}) behind chaos proxies {} and {} (seed {seed})",
        lab.addr(),
        lab.server().backend().name(),
        proxies[0],
        proxies[1]
    );
    if let (Some(size), Some(tcp_addr)) = (truncation, lab.server().tcp_addr()) {
        eprintln!(
            "smoke: truncation gate — tcp://{tcp_addr} behind the same proxies, \
             EDNS limit {size} bytes"
        );
    }
    if rrl {
        eprintln!("smoke: rrl gate — per-port buckets, burst 20, slip 2, every query charged");
    }

    let started = Instant::now();
    // Fixed, not host-dependent: the transaction→worker split is part
    // of the deterministic fault schedule. The rrl leg runs wider:
    // every TC detour and every rrl-dropped attempt waits out its full
    // attempt window first, and 32 workers amortise those waits
    // without touching per-flow ordering (RRL buckets are keyed by
    // flow, so each bucket's charge order is one worker's send order
    // either way).
    let mut cfg = lab.resolve_config(proxies, queries, seed).concurrency(if rrl { 32 } else { 8 });
    if let Some(size) = truncation {
        // Fresh connection per fallback: a *reused* connection's fate
        // (alive or shed/reset since last use) is a wall-clock race,
        // and one extra retry frame shifts every later RRL verdict in
        // that bucket. No reuse keeps the frame schedule seed-pure.
        cfg = cfg.edns_size(size).tcp_reuse(false);
    }
    if rrl {
        // The default BindSrtt policy picks servers by *measured* RTT —
        // harmless without RRL (the shared fault plan is content-keyed,
        // so a query meets the same fate through either proxy) but
        // fatal with it: buckets are per flow, so which proxy carries
        // an attempt decides which bucket it charges. Round-robin makes
        // the charge schedule a pure function of the seed.
        cfg = cfg.policy(PolicyKind::RoundRobin);
    }
    lab.watch()?;
    // A scraper polls the live endpoint for the whole blast — the gate
    // requires at least one successful mid-run scrape, proving the
    // exposition works under load, not just at rest.
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = lab.metrics.as_ref().map(|(_, server)| {
        let addr = server.local_addr();
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut ok = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if scrape(addr).map(|t| t.contains("dnswild_")).unwrap_or(false) {
                    ok += 1;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            ok
        })
    });
    let run = resolve(cfg);
    scrape_stop.store(true, Ordering::Relaxed);
    let live_scrapes = scraper.map(|h| h.join().expect("scraper panicked")).unwrap_or(0);
    let ResolveReport { stats: client, per_server, .. } =
        run.map_err(|e| format!("resolve: {e}"))?;
    let plan = lab.flush_proxies();
    let fwd_tally = plan.tally(Direction::Forward);
    let rev_tally = plan.tally(Direction::Reverse);
    let tcp_tally = plan.tcp_tally();
    // TCP frames that reached the server: delivered in full, plus those
    // whose connection was reset or whose *response* length prefix was
    // corrupted — in both cases the query itself went upstream.
    let tcp_forwarded = tcp_tally.delivered + tcp_tally.reset + tcp_tally.corrupt_len;
    let (stats, io) = lab.stop(fwd_tally.delivered + tcp_forwarded);
    let elapsed = started.elapsed();

    let mut report = GateReport::default();
    report.det(format!(
        "chaos-summary: seed={} digest={:016x} events={}",
        seed,
        plan.schedule_digest(),
        plan.events()
    ));
    report.det(format!("chaos-client: {}", client.line()));
    report.det(format!("chaos-fwd: {}", fwd_tally.line()));
    report.det(format!("chaos-rev: {}", rev_tally.line()));
    report.det(format!("chaos-tcp: {}", tcp_tally.render()));
    report.det(format!(
        "chaos-server: queries={} answers={} refused={} formerr={} notimp={} dropped={} \
         truncated={} tcp_queries={} decode_errors={}",
        stats.queries,
        stats.answers,
        stats.refused,
        stats.formerr,
        stats.notimp,
        stats.dropped,
        stats.truncated,
        stats.tcp_queries,
        io.decode_errors
    ));
    if rrl {
        report.det(format!("chaos-rrl: dropped={} slipped={}", stats.rrl_dropped, stats.rrl_slipped));
    }
    // Trace lines print after the deterministic `chaos-` block: the
    // event/overflow counts are seed-deterministic too, but the digest
    // commits to which proxy each attempt picked, which is not.
    lab.finish_trace(&mut report, false)?;
    report.say(format!(
        "elapsed_ms={} recv_errors={} send_errors={} per_server={:?}",
        elapsed.as_millis(),
        io.recv_errors,
        io.send_errors,
        per_server
    ));

    if let Err(complaint) = client.check() {
        report.fail(complaint);
    }
    if client.answered == 0 {
        report.fail("no transaction was answered".into());
    }
    if stats.packets_seen() != fwd_tally.delivered + tcp_forwarded {
        report.fail(format!(
            "forward leak: plan forwarded {} datagrams + {} tcp frames, server classified {}",
            fwd_tally.delivered,
            tcp_forwarded,
            stats.packets_seen()
        ));
    }
    if client.received() != rev_tally.delivered {
        report.fail(format!(
            "reverse leak: plan delivered {} datagrams, client classified {}",
            rev_tally.delivered,
            client.received()
        ));
    }
    if truncation.is_some() {
        // The truncation gate: padded answers over a small EDNS limit
        // mean *every* UDP answer came back TC=1 — so any completed
        // transaction proves the TCP fallback, and the stream books
        // must balance like the datagram books.
        if client.tcp_answered == 0 {
            report.fail("truncation gate: no transaction completed over TCP".into());
        }
        if stats.truncated == 0 {
            report.fail("truncation gate: the server never truncated a UDP answer".into());
        }
        if client.answered != client.tcp_answered {
            report.fail(format!(
                "truncation gate: {} answers but only {} over TCP — a padded answer \
                 fit under the EDNS limit",
                client.answered, client.tcp_answered
            ));
        }
        if stats.tcp_queries != tcp_forwarded {
            report.fail(format!(
                "tcp leak: plan forwarded {} frames, server classified {}",
                tcp_forwarded, stats.tcp_queries
            ));
        }
    } else if stats.tcp_queries != 0 || client.tcp_attempts != 0 {
        report.fail("tcp traffic on a udp-only run".into());
    }
    if rrl && (stats.rrl_dropped == 0 || stats.rrl_slipped == 0) {
        // A limiter that never acted makes the rrl leg vacuous — the
        // burst/rate tuning above must exhaust the buckets.
        report.fail(format!(
            "rrl gate: limiter never exercised both verdicts (dropped={} slipped={})",
            stats.rrl_dropped, stats.rrl_slipped
        ));
    }
    if elapsed > budget {
        report.fail(format!(
            "over budget: {:.1}s > {}s",
            elapsed.as_secs_f64(),
            budget.as_secs()
        ));
    }

    // The metrics gate: scrape equality, every hot-path stage timed,
    // and the endpoint answering while the blast was running.
    let before = report.failures.len();
    if lab.scrape_books(&stats, &mut report) {
        for stage in ["recv", "decode", "engine", "encode", "send"] {
            let timed = report
                .samples
                .iter()
                .find(|s| s.name == "dnswild_stage_ns_count" && s.label("stage") == Some(stage))
                .map_or(0.0, |s| s.value);
            if timed <= 0.0 {
                report.fail(format!("stage '{stage}' has an empty span histogram"));
            }
        }
        if live_scrapes == 0 {
            report.fail("no successful scrape while the blast was running".into());
        }
        if report.failures.len() == before {
            report.say(format!(
                "metrics-gate: PASS — scrape matches ServerStats exactly, all 5 stages timed, \
                 {live_scrapes} live scrapes"
            ));
        }
        if let Some(wd) = lab.stop_watchdog(&mut report) {
            if loss == 0.0 && corrupt == 0.0 {
                // A clean loopback run must not trip any law: the share
                // deviation gauge stays in-bounds (or the law is
                // vacuous), coverage is full, nothing SERVFAILs.
                if wd.healthy() {
                    report.say(format!(
                        "watchdog-gate: PASS — no law breached on a clean run \
                         (share_dev={:.3} coverage={:.3} servfail_rate={:.3})",
                        wd.share_dev, wd.coverage, wd.servfail_rate
                    ));
                } else {
                    report.fail(format!("watchdog breach on a clean run: {wd:?}"));
                }
            } else {
                report.say(format!(
                    "watchdog: share_dev={:.3} coverage={:.3} servfail_rate={:.3} healthy={}",
                    wd.share_dev,
                    wd.coverage,
                    wd.servfail_rate,
                    wd.healthy()
                ));
            }
        }
    }

    report.pass = match truncation {
        Some(size) => format!(
            "{} transactions under {:.0}% loss with a {size}-byte EDNS limit: \
             {} truncated on UDP, {} completed over TCP, {} servfail, every datagram and \
             frame accounted",
            queries,
            loss * 100.0,
            stats.truncated,
            client.tcp_answered,
            client.servfails
        ),
        None => format!(
            "{} transactions under {:.0}% loss: {} answered, {} servfail, \
             every datagram accounted",
            queries,
            loss * 100.0,
            client.answered,
            client.servfails
        ),
    };
    report.client = Some(client);
    Ok(lab.finish(report, stats, io))
}

/// Probe TTL of the cache gate's zone without prefetch: long enough
/// that the cold and warm passes both finish well inside it on a
/// loopback, short enough that the serve-stale pass only waits a few
/// seconds for the cache to age out.
const CACHE_GATE_TTL: u32 = 4;

/// Probe TTL with prefetch: the gate sleeps the warm pass into the
/// prefetch window, so the TTL must leave slack on both sides of the
/// window boundary.
const CACHE_GATE_PREFETCH_TTL: u32 = 8;

/// Prefetch window of the gate: entries refresh when under this many
/// seconds of TTL remain. The gate sleeps [`CACHE_GATE_PREFETCH_SLEEP`]
/// after the cold pass, leaving every entry ~3.5 s of TTL — inside the
/// window, comfortably short of expiry.
const CACHE_GATE_PREFETCH_WINDOW: u32 = 4;

/// Sleep between the cold and warm passes with prefetch on.
const CACHE_GATE_PREFETCH_SLEEP: Duration = Duration::from_millis(4_500);

/// Serve-stale window for serve-stale runs: expired entries stay
/// servable for this long. RFC 8767 permits hours; ten minutes is
/// plenty for a gate whose blackhole pass runs seconds after expiry.
pub const CACHE_STALE_WINDOW: u32 = 600;

/// Per-attempt timeout in the serve-stale pass. Deliberately tiny: the
/// blackhole proxy drops every datagram, so no answer can ever arrive
/// and the only thing this bounds is how fast the pass walks its
/// transactions into the stale-serving path.
const CACHE_STALE_PASS_TIMEOUT: Duration = Duration::from_millis(10);

/// The cache gate's workload.
#[derive(Debug, Clone)]
pub struct CacheSpec {
    /// Resolver transactions per pass.
    pub queries: u64,
    /// Query-schedule seed.
    pub seed: u64,
    /// Bounded LRU capacity (0 = unbounded).
    pub capacity: usize,
    /// Add the third, blackholed pass answered from expired entries.
    pub serve_stale: bool,
    /// Run the warm pass inside the prefetch window.
    pub prefetch: bool,
}

/// The cache gate: one in-process server with a *low-TTL* preset zone,
/// resolved through one shared record cache in back-to-back passes over
/// the same deterministic transaction set.
///
/// * **cold** — every qname is new: all misses, every answer inserted;
/// * **warm** — the same qnames again, inside the TTL: over half the
///   transactions (all of them, unbounded) must answer from cache, and
///   with an unbounded cache and no prefetch the pass may not touch the
///   socket at all;
/// * with `prefetch`, the warm pass runs inside the prefetch window
///   instead, and every hit must also fire exactly one refresh that
///   re-arms the entry's TTL;
/// * with `serve_stale`, a third pass waits out the TTL and resolves
///   through a chaos proxy that blackholes *everything* — every
///   transaction must still complete, answered from expired entries
///   under RFC 8767, with zero SERVFAILs.
///
/// Every `cache-` line is deterministic for a fixed seed (the
/// transaction→qname schedule is seeded and the passes stay far from
/// their timing margins). Metered, every scraped cache series must equal
/// the cache's own books.
pub fn cache(rig: &Rig, spec: &CacheSpec) -> Result<GateReport, String> {
    let &CacheSpec { queries, seed, capacity, serve_stale, prefetch } = spec;
    let ttl = if prefetch { CACHE_GATE_PREFETCH_TTL } else { CACHE_GATE_TTL };
    let cache = SharedCache::new(CacheConfig {
        capacity,
        prefetch_window_s: if prefetch { CACHE_GATE_PREFETCH_WINDOW } else { 0 },
        max_stale_s: if serve_stale { CACHE_STALE_WINDOW } else { 0 },
        ..CacheConfig::default()
    });
    let mut lab = Lab::start(rig, probe_ttl_test_domain_zone(&origin(), 2, ttl), |c| c)?;
    if let Some(registry) = lab.registry() {
        cache.register(registry);
    }
    eprintln!(
        "smoke: cache gate — udp://{} serving a {ttl}s-TTL zone (cap {}, prefetch {}, \
         serve-stale {}, seed {seed})",
        lab.addr(),
        capacity,
        prefetch,
        serve_stale
    );
    // One pass of the deterministic transaction set. Concurrency is
    // fixed (not host-dependent) because the transaction→worker split
    // decides each worker's qname sequence, and the warm pass only hits
    // if it re-asks exactly the cold pass's questions. The 1 s timeout
    // keeps spurious loopback retries out of the deterministic lines.
    let pass = |lab: &Lab, servers: Vec<SocketAddr>, stale_pass: bool| {
        let mut cfg = lab
            .resolve_config(servers, queries, seed)
            .concurrency(8)
            .cache(Arc::clone(&cache))
            .timeout(Duration::from_secs(1));
        if stale_pass {
            cfg = cfg.timeout(CACHE_STALE_PASS_TIMEOUT).max_tries(1);
        }
        resolve(cfg).map(|r| r.stats).map_err(|e| format!("resolve: {e}"))
    };

    let started = Instant::now();
    let cold = pass(&lab, vec![lab.addr()], false)?;
    if prefetch {
        // Sleep into the prefetch window: every cold entry now has
        // ~3.5 s of TTL left, under the 4 s window, above expiry.
        std::thread::sleep(CACHE_GATE_PREFETCH_SLEEP);
    }
    let warm = pass(&lab, vec![lab.addr()], false)?;
    // Prefetch re-inserts refreshed answers, re-arming their TTL; the
    // stale pass must wait for whichever insert happened last.
    let last_insert = Instant::now();

    let mut stale = None;
    if serve_stale {
        let age_out = Duration::from_secs(u64::from(ttl)) + Duration::from_secs(1);
        std::thread::sleep(age_out.saturating_sub(last_insert.elapsed()));
        // The blackhole: a chaos proxy dropping every datagram in both
        // directions — upstream is alive but unreachable, the shape of
        // the outage RFC 8767 exists for.
        let blackhole = FaultProfile { drop: 1.0, ..FaultProfile::lossless() };
        let proxy = lab.proxies(FaultPlan::new(seed, blackhole, blackhole), 1)?;
        eprintln!("smoke: serve-stale pass — blackhole proxy udp://{} drops everything", proxy[0]);
        let books = pass(&lab, proxy, true)?;
        stale = Some((books, lab.flush_proxies().tally(Direction::Forward)));
    }
    let elapsed = started.elapsed();

    // The stale pass contributed no datagrams — the proxy delivered
    // nothing.
    let expected = cold.attempts + warm.attempts;
    let (stats, io) = lab.stop(expected);

    let mut report = GateReport::default();
    report.det(format!(
        "cache-summary: seed={seed} queries={queries} cap={capacity} ttl={ttl} \
         prefetch={prefetch} serve_stale={serve_stale}"
    ));
    report.det(format!("cache-cold: {}", cold.line()));
    report.det(format!("cache-warm: {}", warm.line()));
    if let Some((books, _)) = &stale {
        report.det(format!("cache-stale: {}", books.line()));
    }
    report.det(format!("cache-stats: {} entries={}", cache.stats().line(), cache.len()));
    lab.finish_trace(&mut report, false)?;
    report.say(format!("elapsed_ms={}", elapsed.as_millis()));

    for (name, books) in [("cold", &cold), ("warm", &warm)]
        .into_iter()
        .chain(stale.iter().map(|(b, _)| ("stale", b)))
    {
        if let Err(complaint) = books.check() {
            report.fail(format!("{name} pass books: {complaint}"));
        }
        if books.answered != queries {
            report.fail(format!("{name} pass answered {}/{} transactions", books.answered, queries));
        }
    }
    if cold.cache_hits != 0 {
        report.fail(format!(
            "{} cache hits on the cold pass — the qname schedule repeated itself",
            cold.cache_hits
        ));
    }
    // The headline gate: the warm pass answers over half its
    // transactions from cache (all of them, when unbounded).
    if warm.cache_hits * 2 <= queries {
        report.fail(format!("warm hit-rate {}/{} is not over 1/2", warm.cache_hits, queries));
    }
    if capacity == 0 && !prefetch && warm.attempts != 0 {
        report.fail(format!(
            "warm pass sent {} datagrams — cache hits must not touch the socket",
            warm.attempts
        ));
    }
    if prefetch {
        if warm.prefetches != warm.cache_hits {
            report.fail(format!(
                "only {} of {} warm hits fired a prefetch inside the window",
                warm.prefetches, warm.cache_hits
            ));
        }
        if warm.prefetch_ok != warm.prefetches {
            report.fail(format!(
                "{} of {} prefetches went unanswered on a lossless loopback",
                warm.prefetches - warm.prefetch_ok,
                warm.prefetches
            ));
        }
    }
    if let Some((books, fwd)) = &stale {
        if fwd.delivered != 0 {
            report.fail(format!(
                "blackhole leaked {} datagrams to the authoritative",
                fwd.delivered
            ));
        }
        if books.stale_served != queries || books.servfails != 0 {
            report.fail(format!(
                "serve-stale pass: {} stale answers, {} servfails — every transaction \
                 must complete from expired entries",
                books.stale_served, books.servfails
            ));
        }
    }
    // Zero unaccounted datagrams: every attempt either side of the wire
    // classified — the server saw exactly what the passes sent.
    if stats.packets_seen() != expected {
        report.fail(format!(
            "server classified {} datagrams, the passes sent {}",
            stats.packets_seen(),
            expected
        ));
    }
    report.expect_clean_io(&io);

    // The metrics gate: every scraped cache series must equal the
    // cache's own books exactly.
    let before = report.failures.len();
    if lab.scrape_books(&stats, &mut report) {
        let kinds = cache.stats().kinds();
        report.expect_scraped("dnswild_cache_events_total", &[], &kinds);
        let entries = report.samples.iter().find(|s| s.name == "dnswild_cache_entries");
        let (entries, held) = (entries.map(|s| s.value), cache.len());
        if entries != Some(held as f64) {
            report.fail(format!(
                "scrape mismatch: dnswild_cache_entries = {entries:?}, cache holds {held}"
            ));
        }
        if report.failures.len() == before {
            report.say(format!(
                "metrics-gate: PASS — scrape matches the cache books across {} series",
                kinds.len() + 1
            ));
        }
    }

    report.pass = format!(
        "{} transactions warm-answered {} from cache ({} prefetches, \
         {} stale-served), zero unaccounted datagrams",
        queries,
        warm.cache_hits,
        warm.prefetches,
        stale.as_ref().map_or(0, |(b, _)| b.stale_served)
    );
    report.client = Some(warm);
    Ok(lab.finish(report, stats, io))
}

/// NS records behind the `lab.<origin>` delegation in the attack zone —
/// fat enough that one ~45-byte NXNS query pulls a referral several
/// times its size.
pub const ATTACK_DELEGATION_NS: usize = 20;

/// Attacker-side per-query timeout in the gate. Deliberately short: a
/// rate-limited drop is the *expected* server behaviour and the
/// attacker's closed loop must classify it quickly; answered queries on
/// an in-process loopback come back three orders of magnitude faster.
const ATTACK_TIMEOUT: Duration = Duration::from_millis(40);

/// RRL-off NXNS amplification floor: the 20-NS referral must grant the
/// attacker at least this many response bytes per query byte, or the
/// zone stopped being an amplification vector and the defense gate is
/// testing nothing.
pub const NXNS_AMP_FLOOR: f64 = 4.0;

/// The attack gate's workload.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// The adversarial workload.
    pub mode: AttackMode,
    /// Defend with the default [`RateLimitPolicy`].
    pub rrl: bool,
    /// Queries of the flood, and of the legitimate mix beside it.
    pub queries: u64,
    /// Lanes of each of the two loads: queries in flight, polled by one
    /// thread per core.
    pub concurrency: usize,
    /// Schedule seed of both loads.
    pub seed: u64,
}

/// The attack gate: one in-process server offered a seeded adversarial
/// workload ([`AttackMode`]) *concurrently* with the legitimate
/// closed-loop mix — the claim under test is that goodput holds during
/// the flood, not after it.
///
/// With `rrl` the server defends with the default [`RateLimitPolicy`]:
/// the gate then requires the limiter to have dropped and slipped
/// attack responses, the attacker's books to balance against the
/// server's counters exactly, legitimate goodput to stay at 100% (the
/// default `Abusive` scope never charges positive answers), and — when
/// metered — the watchdog's attack-pressure law to breach while every
/// other law stays green. Without `rrl` the same flood must be answered
/// in full (the no-defense baseline), and in `nxns` mode its traced
/// amplification factor must clear [`NXNS_AMP_FLOOR`] — proving the
/// threat the limiter is judged against is real.
///
/// Every line prefixed `attack-` is a pure function of the seed: the
/// query schedules are `detrand` streams, and the limiter's verdicts
/// are request-tick driven (see `dnswild_server::rrl`).
pub fn attack(rig: &Rig, spec: &AttackSpec) -> Result<GateReport, String> {
    let &AttackSpec { mode, rrl, queries, concurrency, seed } = spec;
    let zone = attack_test_domain_zone(&origin(), 2, ATTACK_DELEGATION_NS);
    let mut lab = Lab::start(rig, zone, |cfg| {
        // Match the NXNS generator's EDNS advertisement so the fat
        // referral rides back whole instead of as a TC stub.
        let cfg = cfg.truncation(TruncationPolicy::symmetric(NXNS_EDNS_PAYLOAD));
        if rrl {
            cfg.rate_limit(RateLimitPolicy::default())
        } else {
            cfg
        }
    })?;
    eprintln!(
        "smoke: attack gate — {} flood vs udp://{} (rrl {}, seed {seed})",
        mode.name(),
        lab.addr(),
        if rrl { "on" } else { "off" }
    );
    lab.watch()?;

    let mut legit_cfg = lab.load_config(queries, concurrency);
    legit_cfg.seed = seed;
    // The flood shares the legitimate load's collector but not its
    // registry: the `dnswild_load_*` series stay the legitimate client's.
    let attack_cfg = LoadConfig {
        workload: Workload::Attack { mode, spoofed_sources: DEFAULT_SPOOFED_SOURCES },
        timeout: ATTACK_TIMEOUT,
        metrics: None,
        ..legit_cfg.clone()
    };
    let started = Instant::now();
    let (legit, flood) = std::thread::scope(|scope| {
        let lh = scope.spawn(move || blast(legit_cfg));
        let ah = scope.spawn(move || blast(attack_cfg));
        (lh.join().expect("legit blast panicked"), ah.join().expect("attack panicked"))
    });
    let legit = legit.map_err(|e| format!("blast: {e}"))?;
    let flood = flood.map_err(|e| format!("attack: {e}"))?;
    // A rate-limited drop leaves the attacker's last datagram with no
    // response to synchronize on: the settle gives the workers a moment
    // to classify everything already in their socket buffers.
    let (stats, io) = lab.stop(legit.stats.sent + flood.stats.sent);
    let elapsed = started.elapsed();

    let mut report = GateReport::default();
    report.det(format!(
        "attack-summary: mode={} rrl={} seed={} queries={}",
        mode.name(),
        rrl,
        seed,
        queries
    ));
    report.det(format!("attack-client: {}", flood.stats.line()));
    report.det(format!(
        "attack-legit: sent={} received={} timeouts={} mismatched={}",
        legit.stats.sent, legit.stats.received, legit.stats.timeouts, legit.stats.mismatched
    ));
    report.det(format!("attack-server: {}", stats.line()));

    // The trace cross-check: the amplification partition derived from
    // the recorded events, attacker vs legitimate, byte-exact.
    if let Some((summary, trace)) = lab.read_trace()? {
        let amp = amplification(&trace);
        report.det(format!("attack-amp: {}", amp.render()));
        if amp.attack_queries != flood.stats.sent {
            report.fail(format!(
                "trace classified {} attack queries, attacker sent {}",
                amp.attack_queries, flood.stats.sent
            ));
        }
        if rrl {
            // RRL's whole point, stated in bytes: the attacker's
            // amplification factor must not exceed the legitimate
            // baseline.
            if let (Some(af), Some(lf)) = (amp.attack_factor(), amp.legit_factor()) {
                if af > lf {
                    report.fail(format!(
                        "rate limiting left the attacker amplifying {af:.2}x \
                         vs the legitimate {lf:.2}x"
                    ));
                }
            }
        } else if mode == AttackMode::NxnsReferral {
            let af = amp.attack_factor().unwrap_or(0.0);
            if af < NXNS_AMP_FLOOR {
                report.fail(format!(
                    "undefended NXNS amplification {af:.2}x is under the \
                     {NXNS_AMP_FLOOR}x floor — the referral is no longer fat"
                ));
            }
        }
        report.trace_lines(summary, trace, false);
    }
    report.say(format!(
        "elapsed_ms={} recv_errors={} decode_errors={}",
        elapsed.as_millis(),
        io.recv_errors,
        io.decode_errors
    ));

    // The books: every datagram accounted on both sides of the wire.
    if !legit.all_answered() {
        report.fail(format!(
            "legit goodput broke under the flood: {}/{} answered",
            legit.stats.received, legit.stats.sent
        ));
    }
    if !flood.all_accounted() {
        report.fail(format!(
            "unaccounted attack datagrams: sent={} received={} timeouts={} mismatched={}",
            flood.stats.sent, flood.stats.received, flood.stats.timeouts, flood.stats.mismatched
        ));
    }
    if stats.queries != legit.stats.sent + flood.stats.sent {
        report.fail(format!(
            "server counted {} queries, clients sent {}",
            stats.queries,
            legit.stats.sent + flood.stats.sent
        ));
    }
    // The legitimate mix is never charged under the Abusive scope, so
    // the limiter's counters must mirror the attacker's books exactly.
    if stats.rrl_dropped != flood.stats.timeouts {
        report.fail(format!(
            "limiter dropped {} responses, attacker timed out {} times",
            stats.rrl_dropped, flood.stats.timeouts
        ));
    }
    if stats.rrl_slipped != flood.stats.tc_slips {
        report.fail(format!(
            "limiter slipped {} responses, attacker saw {} TC replies",
            stats.rrl_slipped, flood.stats.tc_slips
        ));
    }
    if stats.bucket_evictions != 0 {
        report.fail(format!(
            "{} buckets evicted with only a handful of client keys in play",
            stats.bucket_evictions
        ));
    }
    report.expect_clean_io(&io);
    if rrl {
        if flood.stats.timeouts == 0 {
            report.fail("rrl on, but the limiter never dropped an attack response".into());
        }
        if flood.stats.tc_slips == 0 {
            report.fail("rrl on, but the limiter never slipped a TC=1 reply".into());
        }
    } else {
        if stats.rrl_dropped + stats.rrl_slipped + flood.stats.tc_slips != 0 {
            report.fail("limiter counters moved while rrl was off".into());
        }
        if flood.stats.received != flood.stats.sent {
            report.fail(format!(
                "no limiter, yet only {}/{} attack queries were answered",
                flood.stats.received, flood.stats.sent
            ));
        }
    }

    // The metrics gate: scrape equality over all 16 server counters,
    // the verdict spans covering exactly the charged queries, and the
    // watchdog's attack-pressure law breaching iff the defense shed.
    let before = report.failures.len();
    if lab.scrape_books(&stats, &mut report) {
        if rrl {
            // Under the Abusive scope exactly the attack queries are
            // charged, so the verdict spans must total the attack load.
            let verdicts: f64 = report
                .samples
                .iter()
                .filter(|s| s.name == "dnswild_rrl_verdict_ns_count")
                .map(|s| s.value)
                .sum();
            if verdicts != flood.stats.sent as f64 {
                report.fail(format!(
                    "verdict spans timed {verdicts} decisions, {} queries were charged",
                    flood.stats.sent
                ));
            }
        }
        if report.failures.len() == before {
            report.say("metrics-gate: PASS — scrape matches ServerStats exactly across 16 kinds".into());
        }
        if let Some(wd) = lab.stop_watchdog(&mut report) {
            // Deterministic: the rate is a ratio of final counters.
            report.det(format!(
                "attack-watchdog: rate={:.4} breach={}",
                wd.attack_rate, wd.attack_breach
            ));
            if wd.share_breach || wd.coverage_breach || wd.servfail_breach || wd.overflow_breach {
                report.fail(format!("a non-attack law breached during the gate: {wd:?}"));
            }
            if rrl && !wd.attack_breach {
                report.fail(format!(
                    "rrl shed a flood but the attack-pressure law stayed green \
                     (rate {:.4})",
                    wd.attack_rate
                ));
            }
            if !rrl && wd.attack_breach {
                report.fail("attack-pressure breach with the limiter disabled".into());
            }
        }
    }

    report.pass = format!(
        "{} attack queries ({} mode, rrl {}) beside {} legit: \
         {} answered, {} slipped, {} dropped, every datagram accounted",
        flood.stats.sent,
        mode.name(),
        if rrl { "on" } else { "off" },
        legit.stats.sent,
        flood.stats.received - flood.stats.tc_slips,
        flood.stats.tc_slips,
        flood.stats.timeouts
    );
    report.load = Some(legit);
    report.attack = Some(flood);
    Ok(lab.finish(report, stats, io))
}

/// Seed of every named gate.
const GATE_SEED: u64 = 2017;

/// A scratch file path unique to this process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dnswild-gate-{tag}-{}", std::process::id()))
}

/// Runs `run` with a scratch trace path and removes the file afterwards
/// (a traced report carries the trace it read back).
fn with_scratch<T>(tag: &str, run: impl FnOnce(&Path) -> T) -> T {
    let path = scratch(tag);
    let out = run(&path);
    let _ = std::fs::remove_file(&path);
    out
}

/// Runs `run` twice and folds the second report into the first: the
/// deterministic lines must agree byte for byte, and the second run's
/// failures count too.
fn replayed(
    what: &str,
    mut run: impl FnMut(usize) -> Result<GateReport, String>,
) -> Result<(GateReport, GateReport), String> {
    let mut first = run(0)?;
    let second = run(1)?;
    if first.deterministic() != second.deterministic() {
        first.fail(format!(
            "not reproducible: {what} differ between two runs of seed {GATE_SEED}:\n  {}\nvs\n  {}",
            first.deterministic().join("\n  "),
            second.deterministic().join("\n  ")
        ));
    }
    first.failures.extend(second.failures.iter().map(|f| format!("replay: {f}")));
    Ok((first, second))
}

/// A trace's journey attribution table and its canonical
/// failed-journey timelines (`report --tails`, `explain --failed
/// --canonical`), after proving the journey books balance.
fn journeys_of(trace: &Trace, report: &mut GateReport) -> (TailReport, String) {
    let book = reconstruct(trace);
    if let Err(e) = book.check_books() {
        report.fail(format!("journey books unbalanced: {e}"));
    }
    let failed = book.failed().iter().map(|j| render_timeline(trace, j, true)).collect();
    (tail_report(&book), failed)
}

/// One named gate: its name, the law it re-checks, and how to run it.
pub type Gate = (&'static str, &'static str, fn() -> Result<GateReport, String>);

/// The named gates `dnswild gate <name>` and `scripts/verify.sh` run, in
/// order, each with the law it re-checks.
pub const GATES: &[Gate] = &[
    ("plain", "1k legitimate queries: 100% answered, counters consistent", || {
        plain(&Rig::default(), &PLAIN_GATE)
    }),
    ("chaos", "2k transactions through 10% loss + 1% corruption, replayed byte-identically", || {
        replayed("fault schedule or counters", |_| chaos(&Rig::default(), &chaos_gate()))
            .map(|(a, _)| a)
    }),
    ("truncation", "every TC=1 answer completes over faulted TCP, zero SERVFAILs, replayed", || {
        let spec = ChaosSpec { truncation: Some(512), ..ChaosSpec::new(48, GATE_SEED) };
        replayed("TCP fault schedule or counters", |_| chaos(&Rig::default(), &spec)).map(
            |(mut a, _)| {
                let books = a.client.unwrap_or_default();
                if books.servfails != 0 || books.tcp_answered == 0 {
                    a.fail(format!(
                        "expected zero SERVFAILs and >0 TCP completions, got servfail={} tcp_ok={}",
                        books.servfails, books.tcp_answered
                    ));
                }
                a
            },
        )
    }),
    (
        "trace-closure",
        "a traced chaos run: per-auth trace counts equal the server's, zero overflow",
        || {
            with_scratch("closure", |path| {
                chaos(&Rig::traced(path), &chaos_gate()).map(|mut a| {
                    let trace = a.trace.take().expect("traced run");
                    let counted = trace_auth_counts(&trace).get(SITE).copied();
                    if trace.overflow != 0 || counted != Some(a.server.queries) {
                        a.fail(format!(
                            "trace counted {SITE}={counted:?} with overflow={}, server counted {}",
                            trace.overflow, a.server.queries
                        ));
                    }
                    a
                })
            })
        },
    ),
    ("trace-digest", "two loss-free traced runs share one content digest", || {
        with_scratch("digest", |path| {
            replayed("trace digests", |_| plain(&Rig::traced(path), &PLAIN_GATE)).map(|(a, _)| a)
        })
    }),
    ("metrics", "a metered chaos run: scrape equals ServerStats, all five stages timed", || {
        chaos(&Rig::default().metered(), &chaos_gate())
    }),
    ("watchdog", "a fault-free metered run breaches no law", || {
        chaos(&Rig::default().metered(), &ChaosSpec { loss: 0.0, corrupt: 0.0, ..chaos_gate() })
    }),
    ("attack", "RRL sheds a seeded NXDOMAIN flood while legit goodput holds, replayed", || {
        with_scratch("attack", |path| {
            let spec = AttackSpec {
                mode: AttackMode::NxdomainFlood,
                rrl: true,
                queries: 400,
                concurrency: 4,
                seed: GATE_SEED,
            };
            replayed("flood schedule or RRL verdicts", |_| {
                attack(&Rig::traced(path).metered(), &spec)
            })
            .map(|(a, _)| a)
        })
    }),
    ("cache", "warm hits, prefetch, serve-stale and cache-scrape equality, replayed", gate_cache),
    (
        "explain",
        "chaos+tcp+rrl journeys: tails and failed timelines byte-identical across runs",
        || gate_explain(&ChaosSpec { rrl: true, truncation: Some(512), ..chaos_gate() }),
    ),
    (
        "attack-sweep",
        "the six-cell mode x rrl amplification table of results/attack_amp.txt",
        attack_sweep,
    ),
];

/// The plain gate's configuration.
const PLAIN_GATE: PlainSpec = PlainSpec { queries: 1_000, concurrency: 4 };

/// The canonical chaos gate configuration the chaos-based gates vary.
fn chaos_gate() -> ChaosSpec {
    ChaosSpec::new(2_000, GATE_SEED)
}

/// Runs the gate called `name` — one row of [`GATES`] — and returns its
/// (first) run's report with every cross-run and CI-only expectation
/// folded into `failures` and the gate's law as its verdict. `None` for
/// an unknown name.
pub fn run_gate(name: &str) -> Option<Result<GateReport, String>> {
    let &(_, law, run) = GATES.iter().find(|(gate, ..)| *gate == name)?;
    Some(run().map(|report| GateReport { pass: law.to_string(), ..report }))
}

/// The cache gate as CI runs it: the bare cold/warm pair replayed, then
/// one full-feature run — prefetch refreshes every warm hit, a blackhole
/// kills the authoritative and serve-stale completes every transaction
/// from expired entries — traced and metered, whose trace must yield
/// cache-lookup counts and `cache-stale` journeys.
fn gate_cache() -> Result<GateReport, String> {
    let bare =
        CacheSpec { queries: 400, seed: GATE_SEED, capacity: 0, serve_stale: false, prefetch: false };
    let (mut report, _) = replayed("cache counters", |_| cache(&Rig::default(), &bare))?;
    let warm = report.client.unwrap_or_default();
    if warm.cache_hits != bare.queries {
        report.fail(format!(
            "warm pass answered {}/{} repeats from cache",
            warm.cache_hits, bare.queries
        ));
    }
    let mut full = with_scratch("cache", |path| {
        cache(
            &Rig::traced(path).metered(),
            &CacheSpec { serve_stale: true, prefetch: true, ..bare },
        )
    })?;
    let trace = full.trace.take().expect("traced run");
    if trace_cache_counts(&trace).hits == 0 {
        full.fail("trace did not yield cache-lookup counts".into());
    }
    let (tails, _) = journeys_of(&trace, &mut full);
    if !tails.rows.iter().any(|r| r.cause == TailCause::CacheStale && r.exclusive > 0) {
        full.fail("serve-stale trace yielded no cache-stale journeys".into());
    }
    report.lines.extend(full.lines);
    report.failures.extend(full.failures);
    Ok(report)
}

/// The explain gate: the full journey pipeline over a traced chaos run
/// through the truncation plane with the harness-tuned limiter, twice.
/// Journey ids are pure functions of the seed, so the reconstructed
/// tail-attribution table and the canonical failed-journey timelines
/// must be byte-identical across runs; every non-clean tail cause the
/// leg can produce must be touched; and the hop books must balance.
fn gate_explain(spec: &ChaosSpec) -> Result<GateReport, String> {
    let paths = [scratch("explain-a"), scratch("explain-b")];
    let runs = replayed("chaos+rrl schedule", |i| chaos(&Rig::traced(&paths[i]), spec));
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    let (mut report, mut second) = runs?;
    let (trace_a, trace_b) =
        (report.trace.take().expect("traced run"), second.trace.take().expect("traced run"));
    let (tails, failed) = journeys_of(&trace_a, &mut report);
    let (tails_b, failed_b) = journeys_of(&trace_b, &mut second);
    report.failures.append(&mut second.failures);
    let table = tails.render_deterministic();
    if table != tails_b.render_deterministic() {
        report.fail("not reproducible: tail attribution tables differ between runs".into());
    }
    if failed != failed_b {
        report.fail("not reproducible: canonical failed-journey timelines differ".into());
    }
    for line in table.lines() {
        report.det(line.to_string());
    }
    for cause in [
        TailCause::Servfail,
        TailCause::RrlSlipped,
        TailCause::TcTcpDetour,
        TailCause::ChaosFaulted,
        TailCause::Retried,
    ] {
        if !tails.rows.iter().any(|r| r.cause == cause && r.touched > 0) {
            report.fail(format!("tail cause {} was never touched", cause.label()));
        }
    }
    Ok(report)
}

/// The defense-matrix sweep: every attack mode against the padded
/// referral zone, undefended and behind the default rate-limit policy,
/// 400 queries per cell. The attacker's own books give the bandwidth
/// amplification factor (response bytes per query byte). The rows are
/// seed-deterministic counters, not timings; they are the content of
/// `results/attack_amp.txt`, which `tests/attack_plane.rs` pins.
fn attack_sweep() -> Result<GateReport, String> {
    let mut sweep = GateReport::default();
    for header in [
        "# adversarial sweep — loopback, 400 queries per cell, seed 2017,",
        "# 20-NS padded referral zone under ourtestdomain.nl; amp is attacker",
        "# bytes_received/bytes_sent (drops count zero out), rrl=on is the default",
        "# policy (burst 50, refill 1/8, slip 1-in-2, NXDOMAIN budget 0, scope abusive)",
    ] {
        sweep.det(header.to_string());
    }
    for rrl in [false, true] {
        for mode in [AttackMode::NxdomainFlood, AttackMode::NxnsReferral, AttackMode::SpoofedBurst]
        {
            let spec = AttackSpec { mode, rrl, queries: 400, concurrency: 2, seed: GATE_SEED };
            let cell = attack(&Rig::default(), &spec)?;
            let flood = cell.attack.as_ref().expect("attack gate books the flood");
            let amp = flood.amplification().map_or_else(|| "n/a".to_string(), |f| format!("{f:.2}"));
            sweep.det(format!(
                "mode={} rrl={} sent={} answered={} tc_slips={} dropped={} amp={amp}",
                mode.name(),
                if rrl { "on" } else { "off" },
                flood.stats.sent,
                flood.stats.received,
                flood.stats.tc_slips,
                flood.stats.timeouts,
            ));
            let cell_name = format!("mode={} rrl={rrl}", mode.name());
            sweep.failures.extend(cell.failures.iter().map(|f| format!("{cell_name}: {f}")));
        }
    }
    sweep.pass = "six cells, every datagram accounted".into();
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gates must be able to fail. A truncation leg whose EDNS limit
    /// is wide enough for the padded answer tests nothing — and the
    /// report must say so.
    #[test]
    fn a_roomy_edns_limit_fails_the_truncation_leg() {
        let spec = ChaosSpec { truncation: Some(4096), ..ChaosSpec::new(24, 7) };
        let report = chaos(&Rig::default(), &spec).unwrap();
        for want in [
            "truncation gate: no transaction completed over TCP",
            "truncation gate: the server never truncated a UDP answer",
        ] {
            assert!(report.failures.iter().any(|f| f == want), "{want}: {:?}", report.failures);
        }
    }

    #[test]
    fn a_clean_run_passes_and_marks_only_seeded_lines_deterministic() {
        let spec = ChaosSpec { loss: 0.0, corrupt: 0.0, ..ChaosSpec::new(40, 7) };
        let report = chaos(&Rig::default(), &spec).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.client.unwrap().answered, 40);
        assert!(report.deterministic().iter().all(|l| l.starts_with("chaos-")));
        assert!(report.lines.iter().any(|l| l.text.starts_with("elapsed_ms=") && !l.deterministic));
    }

    #[test]
    fn gate_names_resolve_only_when_listed() {
        assert!(run_gate("no-such-gate").is_none());
        let plain = run_gate(GATES[0].0).expect("listed").unwrap();
        assert!(plain.passed(), "{:?}", plain.failures);
    }
}
