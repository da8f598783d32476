//! The lab rig and the gates, as data. A [`Scenario`] names everything
//! one gate run wires — instrumentation ([`Rig`]), seed, the server's
//! tuning ([`Server`]), the fault proxies in front of it ([`Faults`]),
//! the traffic ([`Workload`]) and a wall-clock budget — and [`run`]
//! wires it and books it.
//!
//! A *gate* re-checks one of the reproduction's laws over real loopback
//! sockets and returns a typed [`GateReport`]: the stdout lines it would
//! print (each marked seed-deterministic or not), the counters the books
//! were balanced on, and a list of failures that is empty iff the law
//! held. `dnswild smoke` maps its flags onto a scenario and prints the
//! report, the root integration tests assert on one, and [`run_gate`]
//! (`dnswild gate <name>`) runs the named CI scenarios — twice where
//! reproducibility is the claim — and compares the deterministic lines
//! in Rust. All three go through [`run`].
//!
//! What [`run`] owns, so no gate re-wires it: zone preset → optional
//! [`Collector`] / [`Registry`] + [`MetricsServer`] / watchdog →
//! [`serve`] → two [`ChaosProxy`] on one [`FaultPlan`] → the workload; and
//! the shared epilogue: proxy flush → settle until the server's
//! `packets_seen` catches up → shutdown → trace finish → the workload's
//! books → scrape equality over the `ServerStats` kinds → the watchdog's
//! verdict.
//!
//! Progress notes (`smoke: …`) go to stderr as a run proceeds;
//! everything a caller may want to compare is in the report.

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
    LoadReport, MetricsServer, Registry, ResolveConfig, ResolveReport, ServeConfig, SharedCache,
    TcpFaultProfile, TcpOptions, Trace, TraceSummary, Workload as LoadWorkload,
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
}

/// Fails `report` with the complaint `format!(…)` when `broken`: one
/// expectation of a gate, one statement.
macro_rules! fail_if {
    ($report:expr, $broken:expr, $($complaint:tt)+) => {
        if $broken {
            $report.fail(format!($($complaint)+));
        }
    };
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

/// How a lab server is tuned. Its zone preset follows from the
/// scenario: the attack zone under a flood, a low-TTL zone under the
/// cache passes, a padded one on the truncation leg, else the
/// measurement zone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Server {
    /// The truncation leg: serve probe answers padded past this EDNS
    /// limit over UDP and TCP, behind TCP connection faults, to resolver
    /// transactions that advertise it.
    pub truncation: Option<u16>,
    /// Rate-limit responses: the default [`RateLimitPolicy`] against a
    /// flood, a harness-tuned one under resolver transactions.
    pub rrl: bool,
}

/// The fault plan of the chaos proxies in front of a lab server.
#[derive(Debug, Clone, Copy)]
pub struct Faults {
    /// Total drop probability, split 60/40 forward/reverse.
    pub loss: f64,
    /// Per-copy corruption probability.
    pub corrupt: f64,
}

impl Faults {
    /// The canonical chaos plan: 10% loss and 1% corruption.
    pub const CANONICAL: Faults = Faults { loss: 0.10, corrupt: 0.01 };
}

/// Chaos proxies in front of a faulted server, all deciding fates from
/// one plan: the resolver picks between them, and which one carries a
/// datagram cannot change what happens to it.
const PROXIES: usize = 2;

/// The traffic a scenario offers its server.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// A closed-loop blast of the legitimate mix, straight at the server.
    Blast {
        /// Load lanes: queries in flight, polled by one thread per core.
        concurrency: usize,
    },
    /// Resolver transactions through the fault proxies, by the
    /// retry/backoff client.
    Resolve,
    /// Back-to-back resolver passes over one transaction set through one
    /// shared record cache.
    Cache {
        /// Bounded LRU capacity (0 = unbounded).
        capacity: usize,
        /// Add a third, blackholed pass answered from expired entries.
        serve_stale: bool,
        /// Run the warm pass inside the prefetch window.
        prefetch: bool,
    },
    /// A seeded adversarial flood beside the legitimate mix.
    Flood {
        /// The adversarial workload.
        mode: AttackMode,
        /// Lanes of each of the two loads.
        concurrency: usize,
    },
}

/// One gate run as data; [`run`] wires it and books it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Server shards, I/O loop, trace and metrics.
    pub rig: Rig,
    /// Seed of the fault schedule and of every query schedule.
    pub seed: u64,
    /// Queries or transactions: of the blast, of each resolver or cache
    /// pass, of the flood and of the legitimate mix beside it.
    pub queries: u64,
    /// The server's tuning.
    pub server: Server,
    /// The plan of the fault proxies resolver transactions go through;
    /// every other workload talks to the server directly.
    pub faults: Option<Faults>,
    /// The traffic.
    pub workload: Workload,
    /// Wall-clock budget for the whole run.
    pub budget: Duration,
}

impl Scenario {
    fn new(queries: u64, seed: u64, workload: Workload) -> Scenario {
        Scenario {
            rig: Rig::default(),
            seed,
            queries,
            server: Server::default(),
            faults: None,
            workload,
            budget: Duration::from_secs(120),
        }
    }

    /// The plain gate: a closed-loop blast of the legitimate mix at an
    /// in-process server on a lossless loopback. Every query must be
    /// answered, the server's counters must be consistent with the
    /// client's, nothing may fail to decode, and every datagram the
    /// server saw must be one of ours. Traced, the `trace-digest` line is
    /// deterministic (the digest keys on event content, not timestamps or
    /// ports).
    pub fn blast(queries: u64, concurrency: usize) -> Scenario {
        Scenario::new(queries, GATE_SEED, Workload::Blast { concurrency })
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
    /// With `server.rrl` the server additionally runs a harness-tuned
    /// response rate limiter, and [`run`] pins the wall-clock races that
    /// would let its verdicts vary between runs. Metered, the gate also
    /// scrapes the live endpoint for the whole run and requires scrape
    /// equality, all five hot-path stages timed, and — on a fault-free
    /// plan — every watchdog law green.
    pub fn chaos(queries: u64, seed: u64) -> Scenario {
        let s = Scenario::new(queries, seed, Workload::Resolve);
        Scenario { faults: Some(Faults::CANONICAL), ..s }
    }

    /// This scenario as the truncation gate: the zone's probe answers are
    /// padded past an `edns`-byte limit so every UDP answer comes back
    /// TC=1, the server also listens on TCP, and the proxies inject TCP
    /// connection faults (refused connections, mid-stream resets, stalls,
    /// corrupted length prefixes). The extra pass criteria: answers
    /// truncated on UDP actually completed over TCP, and every TCP frame
    /// the fault plan let through was classified by the server — the
    /// stream books balance just like the datagram books.
    pub fn truncated(self, edns: u16) -> Scenario {
        Scenario { server: Server { truncation: Some(edns), ..self.server }, ..self }
    }

    /// The cache gate: one in-process server with a *low-TTL* preset
    /// zone, resolved through one shared record cache in back-to-back
    /// passes over the same deterministic transaction set.
    ///
    /// * **cold** — every qname is new: all misses, every answer inserted;
    /// * **warm** — the same qnames again, inside the TTL: over half the
    ///   transactions (all of them, unbounded) must answer from cache, and
    ///   with an unbounded cache and no prefetch the pass may not touch
    ///   the socket at all;
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
    /// their timing margins). Metered, every scraped cache series must
    /// equal the cache's own books.
    pub fn cache(
        queries: u64,
        seed: u64,
        capacity: usize,
        serve_stale: bool,
        prefetch: bool,
    ) -> Scenario {
        let workload = Workload::Cache { capacity, serve_stale, prefetch };
        Scenario::new(queries, seed, workload)
    }

    /// The attack gate: one in-process server offered a seeded
    /// adversarial workload ([`AttackMode`]) *concurrently* with the
    /// legitimate closed-loop mix — the claim under test is that goodput
    /// holds during the flood, not after it.
    ///
    /// With `rrl` the server defends with the default
    /// [`RateLimitPolicy`]: the gate then requires the limiter to have
    /// dropped and slipped attack responses, the attacker's books to
    /// balance against the server's counters exactly, legitimate goodput
    /// to stay at 100% (the default `Abusive` scope never charges positive
    /// answers), and — when metered — the watchdog's attack-pressure law
    /// to breach while every other law stays green. Without `rrl` the same
    /// flood must be answered in full (the no-defense baseline), and in
    /// `nxns` mode its traced amplification factor must clear
    /// [`NXNS_AMP_FLOOR`] — proving the threat the limiter is judged
    /// against is real.
    ///
    /// Every line prefixed `attack-` is a pure function of the seed: the
    /// query schedules are `detrand` streams, and the limiter's verdicts
    /// are request-tick driven (see `dnswild_server::rrl`).
    pub fn attack(
        mode: AttackMode,
        rrl: bool,
        queries: u64,
        concurrency: usize,
        seed: u64,
    ) -> Scenario {
        let s = Scenario::new(queries, seed, Workload::Flood { mode, concurrency });
        Scenario { server: Server { rrl, ..s.server }, ..s }
    }

    fn probe_ttl(&self) -> u32 {
        match self.workload {
            Workload::Cache { prefetch: true, .. } => CACHE_GATE_PREFETCH_TTL,
            _ => CACHE_GATE_TTL,
        }
    }

    fn zone(&self) -> Zone {
        let origin = origin();
        match (self.workload, self.server.truncation) {
            (Workload::Cache { .. }, _) => probe_ttl_test_domain_zone(&origin, 2, self.probe_ttl()),
            (Workload::Flood { .. }, _) => {
                attack_test_domain_zone(&origin, 2, ATTACK_DELEGATION_NS)
            }
            // The wildcard probe answer padded to ~900 bytes of TXT
            // rdata, comfortably past the gate's default 512-byte EDNS
            // limit, so every UDP answer truncates.
            (_, Some(_)) => padded_test_domain_zone(&origin, 2, 900),
            _ => test_domain_zone(&origin, 2),
        }
    }

    /// The rate limiter `server.rrl` runs. Against a flood it is the
    /// default policy. Under resolver transactions it is harness-tuned:
    /// a small burst so a ~2k-transaction run exhausts every bucket,
    /// rate 1/2 so half the post-burst charges still pass (the drop
    /// feedback loop — drop, timeout, retry, charge again — must damp,
    /// or the run crawls), slip=2 so the limited tail splits into TC=1
    /// slips (which complete over TCP — it is never limited) and outright
    /// drops (which cost the client a timeout). Per-port keys give each
    /// proxy session socket its own bucket, and every query is charged.
    ///
    /// The limiter's refill is charge-counted, not wall-clock, and each
    /// worker holds one datagram in flight at a time, so per-bucket
    /// verdict order is the worker's send order — deterministic —
    /// provided three wall-clock races are pinned down, each derived in
    /// [`run`] from `server.rrl` or `server.truncation`: zero delay in
    /// the fault plan, round-robin server selection, and a fresh TCP
    /// connection per detour. The transactions also run on 32 lanes
    /// instead of 8.
    fn rate_limit(&self) -> RateLimitPolicy {
        if let Workload::Flood { .. } = self.workload {
            return RateLimitPolicy::default();
        }
        RateLimitPolicy {
            burst: 20,
            rate: 1,
            period: 2,
            slip: 2,
            nxdomain_budget: 0,
            scope: RrlScope::All,
            key_ports: true,
            ..RateLimitPolicy::default()
        }
    }

    fn fault_plan(&self, faults: Faults) -> FaultPlan {
        let (mut fwd, mut rev) = canonical_profiles(faults.loss, faults.corrupt);
        if self.server.rrl {
            // A delayed duplicate racing the next attempt into the same
            // limiter bucket would flip verdict order across runs, and the
            // tail-attribution gate compares `tails-` lines verbatim.
            fwd = FaultProfile { delay_min_us: 0, delay_max_us: 0, ..fwd };
            rev = FaultProfile { delay_min_us: 0, delay_max_us: 0, ..rev };
        }
        let plan = FaultPlan::new(self.seed, fwd, rev);
        if self.server.truncation.is_none() {
            return plan;
        }
        // TCP connection faults for the truncation gate: roughly one
        // fallback in five hits a fault on its first try. The client's
        // cached-then-fresh retry absorbs a single fault per fallback,
        // and later attempts re-enter the fallback, so completion still
        // converges.
        plan.with_tcp(TcpFaultProfile { refuse: 0.10, reset: 0.04, stall: 0.04, corrupt_len: 0.04 })
    }
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

/// Runs one scenario: starts the instruments its rig asks for, a server
/// answering its zone with its tuning, and its fault proxies; drives
/// the workload; then runs the shared epilogue around the workload's
/// own books and checks. The one place a gate starts a server, proxies
/// or instruments.
pub fn run(s: &Scenario) -> Result<GateReport, String> {
    let metrics = s.rig.metrics_addr.as_deref().map(start_metrics).transpose()?;
    let registry = metrics.as_ref().map(|(r, _)| Arc::clone(r));
    let collector = s
        .rig
        .trace
        .as_deref()
        .map(|p| start_collector(CollectorConfig::new(p).auths([SITE]), registry.as_deref()))
        .transpose()?;
    let mut cfg = ServeConfig::new("127.0.0.1:0", SITE, Arc::new(vec![s.zone()]))
        .threads(s.rig.threads)
        .io(s.rig.io);
    if let Some(size) = s.server.truncation {
        // The rrl leg churns connections (fresh connection per fallback,
        // and faulted ones linger until their relay notices the hangup):
        // against the default 64-connection cap an over-cap close loses a
        // frame the fault plan already tallied as forwarded, failing the
        // stream books. Give it headroom; the plain truncation gate keeps
        // the defaults.
        let max_conns = if s.server.rrl { 512 } else { TcpOptions::default().max_conns };
        cfg = cfg
            .tcp(TcpOptions { max_conns, ..TcpOptions::default() })
            .truncation(TruncationPolicy::symmetric(size));
    }
    if let Workload::Flood { .. } = s.workload {
        // Match the NXNS generator's EDNS advertisement so the fat
        // referral rides back whole instead of as a TC stub.
        cfg = cfg.truncation(TruncationPolicy::symmetric(NXNS_EDNS_PAYLOAD));
    }
    if s.server.rrl {
        cfg = cfg.rate_limit(s.rate_limit());
    }
    if let Some(c) = &collector {
        cfg = cfg.collector(Arc::clone(c), 0);
    }
    if let Some(r) = &registry {
        cfg = cfg.metrics(Arc::clone(r));
    }
    let server = serve(cfg).map_err(|e| format!("serve: {e}"))?;
    let endpoint = metrics.as_ref().map(|(_, m)| m.local_addr());
    let lab = Lab { addr: server.local_addr(), collector, registry, endpoint };
    let (plan, proxies) = match s.faults {
        Some(faults) => {
            let plan = Arc::new(s.fault_plan(faults));
            let proxies = lab.proxies(&plan, PROXIES)?;
            (Some(plan), proxies)
        }
        None => (None, Vec::new()),
    };
    let ways: Vec<SocketAddr> = proxies.iter().map(ChaosProxy::local_addr).collect();
    eprintln!(
        "smoke: {:?} of {} at udp://{}{} ({} shards, io={}, reuseport={}, seed {}) via {ways:?}",
        s.workload,
        s.queries,
        lab.addr,
        server.tcp_addr().map_or(String::new(), |a| format!(" + tcp://{a}")),
        server.threads(),
        server.backend().name(),
        server.reuseport(),
        s.seed,
    );
    // Only the workloads whose checks read the watchdog's verdict start
    // it; joining an idle one costs up to one evaluation interval.
    let watchdog = match &lab.registry {
        Some(registry) if matches!(s.workload, Workload::Resolve | Workload::Flood { .. }) => {
            Some(start_watchdog(registry)?)
        }
        _ => None,
    };

    let started = Instant::now();
    let books = lab.drive(s, plan, ways)?;
    // Shutting the proxies down sends every delayed copy they still
    // hold: the plan's tallies are final afterwards.
    proxies.into_iter().for_each(ChaosProxy::shutdown);
    // Let the server catch up with the datagrams and frames already
    // delivered to its sockets, then shut it down (workers flush their
    // final metric deltas first).
    let expected = books.delivered();
    let settle = Instant::now() + Duration::from_secs(5);
    while server.stats().packets_seen() < expected && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(5));
    }
    let io = server.io_errors();
    let stats = server.shutdown();
    let elapsed = started.elapsed();
    let trace = match (&lab.collector, &s.rig.trace) {
        (Some(collector), Some(path)) => Some(finish_trace(collector, path)?),
        _ => None,
    };

    let watchdog = watchdog.map(WatchdogHandle::shutdown);
    let mut report = GateReport { watchdog, ..GateReport::default() };
    report.pass = books.book(s, &stats, &io, trace.as_ref().map(|(_, t)| t), &mut report);
    if let Some((summary, trace)) = trace {
        let (events, overflow) = (summary.events, summary.overflow);
        report.say(format!("trace-summary: events={events} overflow={overflow}"));
        // Event and overflow counts are deterministic for a fixed seed;
        // the content digest also commits to which server each client
        // attempt picked, so only a loss-free run straight at the one
        // server may mark it deterministic.
        let text = format!("trace-digest: {:016x}", trace.digest());
        report.lines.push(Line { text, deterministic: matches!(books, Books::Blast(_)) });
        report.trace = Some(trace);
    }
    let per_server = match &books {
        Books::Resolve { per_server, .. } => format!(" per_server={per_server:?}"),
        _ => String::new(),
    };
    report.say(format!(
        "elapsed_ms={} recv_errors={} send_errors={} decode_errors={}{per_server}",
        elapsed.as_millis(),
        io.recv_errors,
        io.send_errors,
        io.decode_errors
    ));
    // On a lossless loopback nothing may fail to be received or decoded.
    let (recv, decode) = (io.recv_errors, io.decode_errors);
    fail_if!(
        report,
        s.faults.is_none() && (recv != 0 || decode != 0),
        "io errors on a lossless loopback: recv={recv} decode={decode}"
    );
    let (secs, budget) = (elapsed.as_secs_f64(), s.budget.as_secs());
    fail_if!(report, elapsed > s.budget, "over budget: {secs:.1}s > {budget}s");

    // The scrape-equality epilogue, when metered: after the workers have
    // flushed their final deltas, the scraped per-auth counters must
    // match the server's own books *exactly*, and so must whatever the
    // workload's owners counted.
    if let Some((_, endpoint)) = metrics {
        let before = report.failures.len();
        let text = scrape(endpoint.local_addr()).unwrap_or_else(|e| {
            report.fail(format!("final scrape failed: {e}"));
            String::new()
        });
        report.samples = parse_exposition(&text);
        report.expect_scraped("dnswild_server_events_total", &[("auth", SITE)], &stats.kinds());
        let proven = books.scraped(s.server.rrl, &mut report);
        if report.failures.len() == before {
            report.say(format!("metrics-gate: PASS — {proven}"));
        }
        endpoint.shutdown();
    }
    match books {
        Books::Blast(load) => report.load = Some(load),
        Books::Resolve { client, .. } => report.client = Some(client),
        Books::Cache { warm, .. } => report.client = Some(warm),
        Books::Flood { legit, flood, .. } => {
            (report.load, report.attack) = (Some(legit), Some(flood));
        }
    }
    report.server = stats;
    report.io = io;
    Ok(report)
}

/// What a running scenario's workload feeds: the server and the rig's
/// instruments.
struct Lab {
    addr: SocketAddr,
    collector: Option<Arc<Collector>>,
    registry: Option<Arc<Registry>>,
    /// The metrics endpoint, when metered.
    endpoint: Option<SocketAddr>,
}

impl Lab {
    /// `count` chaos proxies in front of the server, all deciding fates
    /// from `plan`. The plan owns the tallies, so it is registered once,
    /// whatever the count.
    fn proxies(&self, plan: &Arc<FaultPlan>, count: usize) -> Result<Vec<ChaosProxy>, String> {
        if let Some(registry) = &self.registry {
            plan.register(registry);
        }
        (0..count)
            .map(|_| {
                let collector = self.collector.as_ref().map(Arc::clone);
                ChaosProxy::spawn("127.0.0.1:0", self.addr, Arc::clone(plan), collector)
                    .map_err(|e| format!("chaos proxy: {e}"))
            })
            .collect()
    }

    /// A resolver-client configuration feeding the rig's instruments.
    fn resolve_config(&self, s: &Scenario, servers: Vec<SocketAddr>) -> ResolveConfig {
        let mut cfg = ResolveConfig::new(servers, origin()).transactions(s.queries);
        cfg.seed = s.seed;
        if let Some(c) = &self.collector {
            cfg = cfg.collector(Arc::clone(c));
        }
        if let Some(r) = &self.registry {
            cfg = cfg.metrics(Arc::clone(r));
        }
        cfg
    }

    /// A legitimate-mix load aimed at the server, feeding the rig's
    /// instruments.
    fn load_config(&self, s: &Scenario, concurrency: usize) -> LoadConfig {
        let mut cfg =
            LoadConfig::new(self.addr, origin()).concurrency(concurrency).queries(s.queries);
        cfg.seed = s.seed;
        if let Some(c) = &self.collector {
            cfg = cfg.collector(Arc::clone(c), 0);
        }
        if let Some(r) = &self.registry {
            cfg = cfg.metrics(Arc::clone(r));
        }
        cfg
    }

    /// Runs the scenario's workload to completion; `ways` are the
    /// proxies on `plan`.
    fn drive(
        &self,
        s: &Scenario,
        plan: Option<Arc<FaultPlan>>,
        ways: Vec<SocketAddr>,
    ) -> Result<Books, String> {
        match s.workload {
            Workload::Blast { concurrency } => {
                let load = blast(self.load_config(s, concurrency));
                load.map(Books::Blast).map_err(|e| format!("blast: {e}"))
            }
            Workload::Resolve => {
                let plan = plan.ok_or("resolver transactions need fault proxies")?;
                // Fixed, not host-dependent: the transaction→lane split is
                // part of the deterministic fault schedule. The rrl leg
                // runs wider: every TC detour and every rrl-dropped
                // attempt waits out its full attempt window first, and 32
                // lanes amortise those waits without touching per-flow
                // ordering (RRL buckets are keyed by flow, so each
                // bucket's charge order is one lane's send order either
                // way).
                let lanes = if s.server.rrl { 32 } else { 8 };
                let mut cfg = self.resolve_config(s, ways).concurrency(lanes);
                if let Some(size) = s.server.truncation {
                    // Fresh connection per fallback: a *reused*
                    // connection's fate (alive or shed/reset since last
                    // use) is a wall-clock race, and one extra retry frame
                    // shifts every later RRL verdict in that bucket. No
                    // reuse keeps the frame schedule seed-pure.
                    cfg = cfg.edns_size(size).tcp_reuse(false);
                }
                if s.server.rrl {
                    // The default BindSrtt policy picks servers by
                    // *measured* RTT — harmless without RRL (the shared
                    // fault plan is content-keyed, so a query meets the
                    // same fate through either proxy) but fatal with it:
                    // buckets are per flow, so which proxy carries an
                    // attempt decides which bucket it charges. Round-robin
                    // makes the charge schedule a pure function of the
                    // seed.
                    cfg = cfg.policy(PolicyKind::RoundRobin);
                }
                // Metered, a scraper polls the live endpoint for the whole
                // run — the gate requires at least one successful mid-run
                // scrape, proving the exposition works under load, not
                // just at rest.
                let done = &AtomicBool::new(false);
                let (run, live_scrapes) = std::thread::scope(|scope| {
                    let scraper = self.endpoint.map(|addr| {
                        scope.spawn(move || {
                            let mut ok = 0u64;
                            while !done.load(Ordering::Relaxed) {
                                if scrape(addr).map(|t| t.contains("dnswild_")).unwrap_or(false) {
                                    ok += 1;
                                }
                                std::thread::sleep(Duration::from_millis(50));
                            }
                            ok
                        })
                    });
                    let run = resolve(cfg);
                    done.store(true, Ordering::Relaxed);
                    (run, scraper.map_or(0, |h| h.join().expect("scraper panicked")))
                });
                let ResolveReport { stats: client, per_server, .. } =
                    run.map_err(|e| format!("resolve: {e}"))?;
                Ok(Books::Resolve { plan, client, per_server, live_scrapes })
            }
            Workload::Cache { capacity, serve_stale, prefetch } => {
                let cache = SharedCache::new(CacheConfig {
                    capacity,
                    prefetch_window_s: if prefetch { CACHE_GATE_PREFETCH_WINDOW } else { 0 },
                    max_stale_s: if serve_stale { CACHE_STALE_WINDOW } else { 0 },
                    ..CacheConfig::default()
                });
                if let Some(registry) = &self.registry {
                    cache.register(registry);
                }
                // One pass of the deterministic transaction set.
                // Concurrency is fixed (not host-dependent) because the
                // transaction→lane split decides each lane's qname
                // sequence, and the warm pass only hits if it re-asks
                // exactly the cold pass's questions. The 1 s timeout keeps
                // spurious loopback retries out of the deterministic
                // lines.
                let pass = |servers: Vec<SocketAddr>, stale_pass: bool| {
                    let mut cfg = self
                        .resolve_config(s, servers)
                        .concurrency(8)
                        .cache(Arc::clone(&cache))
                        .timeout(Duration::from_secs(1));
                    if stale_pass {
                        cfg = cfg.timeout(CACHE_STALE_PASS_TIMEOUT).max_tries(1);
                    }
                    resolve(cfg).map(|r| r.stats).map_err(|e| format!("resolve: {e}"))
                };
                let cold = pass(vec![self.addr], false)?;
                if prefetch {
                    // Sleep into the prefetch window: every cold entry now
                    // has ~3.5 s of TTL left, under the 4 s window, above
                    // expiry.
                    std::thread::sleep(CACHE_GATE_PREFETCH_SLEEP);
                }
                let warm = pass(vec![self.addr], false)?;
                // Prefetch re-inserts refreshed answers, re-arming their
                // TTL; the stale pass must wait for whichever insert
                // happened last.
                let last_insert = Instant::now();
                let mut stale = None;
                if serve_stale {
                    let age_out = Duration::from_secs(u64::from(s.probe_ttl() + 1));
                    std::thread::sleep(age_out.saturating_sub(last_insert.elapsed()));
                    // The blackhole: a chaos proxy dropping every datagram
                    // in both directions — upstream is alive but
                    // unreachable, the shape of the outage RFC 8767 exists
                    // for.
                    let blackhole = FaultProfile { drop: 1.0, ..FaultProfile::lossless() };
                    let plan = Arc::new(FaultPlan::new(s.seed, blackhole, blackhole));
                    let proxy = self.proxies(&plan, 1)?;
                    let books = pass(proxy.iter().map(ChaosProxy::local_addr).collect(), true)?;
                    proxy.into_iter().for_each(ChaosProxy::shutdown);
                    stale = Some(Box::new((books, plan.tally(Direction::Forward).delivered)));
                }
                Ok(Books::Cache { cache, capacity, prefetch, cold, warm, stale })
            }
            Workload::Flood { mode, concurrency } => {
                let legit_cfg = self.load_config(s, concurrency);
                // The flood shares the legitimate load's collector but not
                // its registry: the `dnswild_load_*` series stay the
                // legitimate client's.
                let spoofed_sources = DEFAULT_SPOOFED_SOURCES;
                let attack_cfg = LoadConfig {
                    workload: LoadWorkload::Attack { mode, spoofed_sources },
                    timeout: ATTACK_TIMEOUT,
                    metrics: None,
                    ..legit_cfg.clone()
                };
                let (legit, flood) = std::thread::scope(|scope| {
                    let lh = scope.spawn(move || blast(legit_cfg));
                    let ah = scope.spawn(move || blast(attack_cfg));
                    (lh.join().expect("legit blast panicked"), ah.join().expect("attack panicked"))
                });
                let legit = legit.map_err(|e| format!("blast: {e}"))?;
                let flood = flood.map_err(|e| format!("attack: {e}"))?;
                Ok(Books::Flood { mode, legit, flood })
            }
        }
    }
}

/// What a workload left for the epilogue to book.
enum Books {
    Blast(LoadReport),
    Resolve { plan: Arc<FaultPlan>, client: ClientStats, per_server: Vec<u64>, live_scrapes: u64 },
    /// `stale`: the stale pass's books and what its blackhole leaked
    /// (boxed: three passes' books would make every `Books` large).
    Cache {
        cache: Arc<SharedCache>,
        capacity: usize,
        prefetch: bool,
        cold: ClientStats,
        warm: ClientStats,
        stale: Option<Box<(ClientStats, u64)>>,
    },
    Flood { mode: AttackMode, legit: LoadReport, flood: LoadReport },
}

/// TCP frames that reached the server: delivered in full, plus those
/// whose connection was reset or whose *response* length prefix was
/// corrupted — in both cases the query itself went upstream.
fn tcp_forwarded(plan: &FaultPlan) -> u64 {
    let tcp = plan.tcp_tally();
    tcp.delivered + tcp.reset + tcp.corrupt_len
}

impl Books {
    /// Datagrams and frames delivered to the server's sockets.
    fn delivered(&self) -> u64 {
        match self {
            Books::Blast(load) => load.stats.sent,
            Books::Resolve { plan, .. } => {
                plan.tally(Direction::Forward).delivered + tcp_forwarded(plan)
            }
            // The stale pass contributed nothing: its proxy delivered
            // nothing.
            Books::Cache { cold, warm, .. } => cold.attempts + warm.attempts,
            Books::Flood { legit, flood, .. } => legit.stats.sent + flood.stats.sent,
        }
    }

    /// The workload's deterministic lines and its checks against the
    /// server's final books, the trace and the watchdog's verdict;
    /// returns the verdict sentence for a pass.
    fn book(
        &self,
        s: &Scenario,
        stats: &ServerStats,
        io: &IoErrorStats,
        trace: Option<&Trace>,
        report: &mut GateReport,
    ) -> String {
        let (queries, rrl, seen) = (s.queries, s.server.rrl, stats.packets_seen());
        match self {
            Books::Blast(load) => {
                let sent = load.stats.sent;
                fail_if!(report, !load.all_answered(), "lost or stale responses");
                if let Err(complaint) = load.check_server_stats(*stats) {
                    report.fail(complaint);
                }
                fail_if!(
                    report,
                    seen != sent,
                    "server classified {seen} packets, {sent} were sent"
                );
                format!("{sent} queries, 100% answered, counters consistent")
            }
            Books::Resolve { plan, client, .. } => {
                let (fwd, rev) = (plan.tally(Direction::Forward), plan.tally(Direction::Reverse));
                let tcp_forwarded = tcp_forwarded(plan);
                report.det(format!(
                    "chaos-summary: seed={} digest={:016x} events={}",
                    s.seed,
                    plan.schedule_digest(),
                    plan.events()
                ));
                report.det(format!("chaos-client: {}", client.line()));
                report.det(format!("chaos-fwd: {}", fwd.line()));
                report.det(format!("chaos-rev: {}", rev.line()));
                report.det(format!("chaos-tcp: {}", plan.tcp_tally().render()));
                report.det(format!(
                    "chaos-server: queries={} answers={} refused={} formerr={} notimp={} \
                     dropped={} truncated={} tcp_queries={} decode_errors={}",
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
                    let (dropped, slipped) = (stats.rrl_dropped, stats.rrl_slipped);
                    report.det(format!("chaos-rrl: dropped={dropped} slipped={slipped}"));
                }
                if let Err(complaint) = client.check() {
                    report.fail(complaint);
                }
                fail_if!(report, client.answered == 0, "no transaction was answered");
                fail_if!(
                    report,
                    seen != fwd.delivered + tcp_forwarded,
                    "forward leak: plan forwarded {} datagrams + {tcp_forwarded} tcp frames, \
                     server classified {seen}",
                    fwd.delivered
                );
                fail_if!(
                    report,
                    client.received() != rev.delivered,
                    "reverse leak: plan delivered {} datagrams, client classified {}",
                    rev.delivered,
                    client.received()
                );
                if s.server.truncation.is_some() {
                    // The truncation gate: padded answers over a small
                    // EDNS limit mean *every* UDP answer came back TC=1 —
                    // so any completed transaction proves the TCP
                    // fallback, and the stream books must balance like the
                    // datagram books.
                    fail_if!(
                        report,
                        client.tcp_answered == 0,
                        "truncation gate: no transaction completed over TCP"
                    );
                    fail_if!(
                        report,
                        stats.truncated == 0,
                        "truncation gate: the server never truncated a UDP answer"
                    );
                    fail_if!(
                        report,
                        client.answered != client.tcp_answered,
                        "truncation gate: {} answers but only {} over TCP — a padded answer fit \
                         under the EDNS limit",
                        client.answered,
                        client.tcp_answered
                    );
                    fail_if!(
                        report,
                        stats.tcp_queries != tcp_forwarded,
                        "tcp leak: plan forwarded {tcp_forwarded} frames, server classified {}",
                        stats.tcp_queries
                    );
                } else {
                    fail_if!(
                        report,
                        stats.tcp_queries != 0 || client.tcp_attempts != 0,
                        "tcp traffic on a udp-only run"
                    );
                }
                // A limiter that never acted makes the rrl leg vacuous —
                // the burst/rate tuning must exhaust the buckets.
                fail_if!(
                    report,
                    rrl && (stats.rrl_dropped == 0 || stats.rrl_slipped == 0),
                    "rrl gate: limiter never exercised both verdicts (dropped={} slipped={})",
                    stats.rrl_dropped,
                    stats.rrl_slipped
                );
                if let Some(wd) = report.watchdog {
                    if s.faults.is_some_and(|f| f.loss == 0.0 && f.corrupt == 0.0) {
                        // A clean loopback run must not trip any law: the
                        // share deviation gauge stays in-bounds (or the
                        // law is vacuous), coverage is full, nothing
                        // SERVFAILs.
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
                            "watchdog: share_dev={:.3} coverage={:.3} servfail_rate={:.3} \
                             healthy={}",
                            wd.share_dev,
                            wd.coverage,
                            wd.servfail_rate,
                            wd.healthy()
                        ));
                    }
                }
                let loss = s.faults.map_or(0.0, |f| f.loss) * 100.0;
                match s.server.truncation {
                    Some(size) => format!(
                        "{queries} transactions under {loss:.0}% loss with a {size}-byte EDNS \
                         limit: {} truncated on UDP, {} completed over TCP, {} servfail, every \
                         datagram and frame accounted",
                        stats.truncated, client.tcp_answered, client.servfails
                    ),
                    None => format!(
                        "{queries} transactions under {loss:.0}% loss: {} answered, {} \
                         servfail, every datagram accounted",
                        client.answered, client.servfails
                    ),
                }
            }
            Books::Cache { cache, capacity, prefetch, cold, warm, stale } => {
                report.det(format!(
                    "cache-summary: seed={} queries={queries} cap={capacity} ttl={} \
                     prefetch={prefetch} serve_stale={}",
                    s.seed,
                    s.probe_ttl(),
                    stale.is_some()
                ));
                report.det(format!("cache-cold: {}", cold.line()));
                report.det(format!("cache-warm: {}", warm.line()));
                if let Some((books, _)) = stale.as_deref() {
                    report.det(format!("cache-stale: {}", books.line()));
                }
                let (books, entries) = (cache.stats().line(), cache.len());
                report.det(format!("cache-stats: {books} entries={entries}"));
                let passes = [("cold", cold), ("warm", warm)].into_iter();
                for (name, books) in passes.chain(stale.as_deref().map(|(b, _)| ("stale", b))) {
                    if let Err(complaint) = books.check() {
                        report.fail(format!("{name} pass books: {complaint}"));
                    }
                    let answered = books.answered;
                    fail_if!(
                        report,
                        answered != queries,
                        "{name} pass answered {answered}/{queries} transactions"
                    );
                }
                fail_if!(
                    report,
                    cold.cache_hits != 0,
                    "{} cache hits on the cold pass — the qname schedule repeated itself",
                    cold.cache_hits
                );
                // The headline gate: the warm pass answers over half its
                // transactions from cache (all of them, when unbounded).
                fail_if!(
                    report,
                    warm.cache_hits * 2 <= queries,
                    "warm hit-rate {}/{queries} is not over 1/2",
                    warm.cache_hits
                );
                fail_if!(
                    report,
                    *capacity == 0 && !prefetch && warm.attempts != 0,
                    "warm pass sent {} datagrams — cache hits must not touch the socket",
                    warm.attempts
                );
                fail_if!(
                    report,
                    *prefetch && warm.prefetches != warm.cache_hits,
                    "only {} of {} warm hits fired a prefetch inside the window",
                    warm.prefetches,
                    warm.cache_hits
                );
                fail_if!(
                    report,
                    *prefetch && warm.prefetch_ok != warm.prefetches,
                    "{} of {} prefetches went unanswered on a lossless loopback",
                    warm.prefetches - warm.prefetch_ok,
                    warm.prefetches
                );
                if let Some((books, leaked)) = stale.as_deref() {
                    fail_if!(
                        report,
                        *leaked != 0,
                        "blackhole leaked {leaked} datagrams to the authoritative"
                    );
                    fail_if!(
                        report,
                        books.stale_served != queries || books.servfails != 0,
                        "serve-stale pass: {} stale answers, {} servfails — every transaction \
                         must complete from expired entries",
                        books.stale_served,
                        books.servfails
                    );
                }
                // Zero unaccounted datagrams: every attempt either side of
                // the wire classified — the server saw exactly what the
                // passes sent.
                let sent = self.delivered();
                fail_if!(
                    report,
                    seen != sent,
                    "server classified {seen} datagrams, the passes sent {sent}"
                );
                format!(
                    "{queries} transactions warm-answered {} from cache ({} prefetches, {} \
                     stale-served), zero unaccounted datagrams",
                    warm.cache_hits,
                    warm.prefetches,
                    stale.as_deref().map_or(0, |(b, _)| b.stale_served)
                )
            }
            Books::Flood { mode, legit: legit_load, flood: flood_load } => {
                let (legit, flood) = (&legit_load.stats, &flood_load.stats);
                report.det(format!(
                    "attack-summary: mode={} rrl={rrl} seed={} queries={queries}",
                    mode.name(),
                    s.seed
                ));
                report.det(format!("attack-client: {}", flood.line()));
                report.det(format!(
                    "attack-legit: sent={} received={} timeouts={} mismatched={}",
                    legit.sent, legit.received, legit.timeouts, legit.mismatched
                ));
                report.det(format!("attack-server: {}", stats.line()));
                // The trace cross-check: the amplification partition
                // derived from the recorded events, attacker vs
                // legitimate, byte-exact.
                if let Some(trace) = trace {
                    let amp = amplification(trace);
                    report.det(format!("attack-amp: {}", amp.render()));
                    fail_if!(
                        report,
                        amp.attack_queries != flood.sent,
                        "trace classified {} attack queries, attacker sent {}",
                        amp.attack_queries,
                        flood.sent
                    );
                    let (af, lf) = (amp.attack_factor(), amp.legit_factor());
                    if let (true, Some(af), Some(lf)) = (rrl, af, lf) {
                        // RRL's whole point, stated in bytes: the
                        // attacker's amplification factor must not exceed
                        // the legitimate baseline.
                        fail_if!(
                            report,
                            af > lf,
                            "rate limiting left the attacker amplifying {af:.2}x vs the \
                             legitimate {lf:.2}x"
                        );
                    } else if !rrl && *mode == AttackMode::NxnsReferral {
                        let af = af.unwrap_or(0.0);
                        fail_if!(
                            report,
                            af < NXNS_AMP_FLOOR,
                            "undefended NXNS amplification {af:.2}x is under the \
                             {NXNS_AMP_FLOOR}x floor — the referral is no longer fat"
                        );
                    }
                }
                // The books: every datagram accounted on both sides of the
                // wire.
                fail_if!(
                    report,
                    !legit_load.all_answered(),
                    "legit goodput broke under the flood: {}/{} answered",
                    legit.received,
                    legit.sent
                );
                fail_if!(
                    report,
                    !flood_load.all_accounted(),
                    "unaccounted attack datagrams: sent={} received={} timeouts={} mismatched={}",
                    flood.sent,
                    flood.received,
                    flood.timeouts,
                    flood.mismatched
                );
                fail_if!(
                    report,
                    stats.queries != legit.sent + flood.sent,
                    "server counted {} queries, clients sent {}",
                    stats.queries,
                    legit.sent + flood.sent
                );
                // The legitimate mix is never charged under the Abusive
                // scope, so the limiter's counters must mirror the
                // attacker's books exactly.
                fail_if!(
                    report,
                    stats.rrl_dropped != flood.timeouts,
                    "limiter dropped {} responses, attacker timed out {} times",
                    stats.rrl_dropped,
                    flood.timeouts
                );
                fail_if!(
                    report,
                    stats.rrl_slipped != flood.tc_slips,
                    "limiter slipped {} responses, attacker saw {} TC replies",
                    stats.rrl_slipped,
                    flood.tc_slips
                );
                fail_if!(
                    report,
                    stats.bucket_evictions != 0,
                    "{} buckets evicted with only a handful of client keys in play",
                    stats.bucket_evictions
                );
                if rrl {
                    fail_if!(
                        report,
                        flood.timeouts == 0,
                        "rrl on, but the limiter never dropped an attack response"
                    );
                    fail_if!(
                        report,
                        flood.tc_slips == 0,
                        "rrl on, but the limiter never slipped a TC=1 reply"
                    );
                } else {
                    fail_if!(
                        report,
                        stats.rrl_dropped + stats.rrl_slipped + flood.tc_slips != 0,
                        "limiter counters moved while rrl was off"
                    );
                    fail_if!(
                        report,
                        flood.received != flood.sent,
                        "no limiter, yet only {}/{} attack queries were answered",
                        flood.received,
                        flood.sent
                    );
                }
                if let Some(wd) = report.watchdog {
                    // Deterministic: the rate is a ratio of final
                    // counters.
                    let (rate, breach) = (wd.attack_rate, wd.attack_breach);
                    report.det(format!("attack-watchdog: rate={rate:.4} breach={breach}"));
                    let other = wd.share_breach
                        || wd.coverage_breach
                        || wd.servfail_breach
                        || wd.overflow_breach;
                    fail_if!(report, other, "a non-attack law breached during the gate: {wd:?}");
                    fail_if!(
                        report,
                        rrl && !breach,
                        "rrl shed a flood but the attack-pressure law stayed green (rate {rate:.4})"
                    );
                    fail_if!(
                        report,
                        !rrl && breach,
                        "attack-pressure breach with the limiter disabled"
                    );
                }
                format!(
                    "{} attack queries ({} mode, rrl {}) beside {} legit: {} answered, {} \
                     slipped, {} dropped, every datagram accounted",
                    flood.sent,
                    mode.name(),
                    if rrl { "on" } else { "off" },
                    legit.sent,
                    flood.received - flood.tc_slips,
                    flood.tc_slips,
                    flood.timeouts
                )
            }
        }
    }

    /// The workload's own checks over the final scrape; returns what a
    /// clean scrape proved.
    fn scraped(&self, rrl: bool, report: &mut GateReport) -> String {
        match self {
            // Every hot-path stage timed, and the endpoint answering while
            // the transactions were running.
            Books::Resolve { live_scrapes, .. } => {
                for stage in ["recv", "decode", "engine", "encode", "send"] {
                    let timed = report
                        .samples
                        .iter()
                        .find(|s| s.name == "dnswild_stage_ns_count" && s.label("stage") == Some(stage))
                        .map_or(0.0, |s| s.value);
                    fail_if!(report, timed <= 0.0, "stage '{stage}' has an empty span histogram");
                }
                fail_if!(
                    report,
                    *live_scrapes == 0,
                    "no successful scrape while the blast was running"
                );
                format!(
                    "scrape matches ServerStats exactly, all 5 stages timed, {live_scrapes} live \
                     scrapes"
                )
            }
            // Every scraped cache series must equal the cache's own books.
            Books::Cache { cache, .. } => {
                let kinds = cache.stats().kinds();
                report.expect_scraped("dnswild_cache_events_total", &[], &kinds);
                let entries = report.samples.iter().find(|s| s.name == "dnswild_cache_entries");
                let (entries, held) = (entries.map(|s| s.value), cache.len());
                fail_if!(
                    report,
                    entries != Some(held as f64),
                    "scrape mismatch: dnswild_cache_entries = {entries:?}, cache holds {held}"
                );
                format!("scrape matches the cache books across {} series", kinds.len() + 1)
            }
            _ => {
                if let (Books::Flood { flood, .. }, true) = (self, rrl) {
                    // Under the Abusive scope exactly the attack queries
                    // are charged, so the verdict spans must total the
                    // attack load.
                    let verdicts: f64 = report
                        .samples
                        .iter()
                        .filter(|s| s.name == "dnswild_rrl_verdict_ns_count")
                        .map(|s| s.value)
                        .sum();
                    let charged = flood.stats.sent;
                    fail_if!(
                        report,
                        verdicts != charged as f64,
                        "verdict spans timed {verdicts} decisions, {charged} queries were charged"
                    );
                }
                "scrape matches ServerStats exactly across 16 kinds".into()
            }
        }
    }
}

/// Seed of every named gate.
const GATE_SEED: u64 = 2017;

/// `s` recording its trace to a scratch file unique to this process and
/// `tag`, which is removed once `f` is done (a traced report carries the
/// trace it read back).
fn traced<T>(
    tag: &str,
    s: Scenario,
    f: impl FnOnce(&Scenario) -> Result<T, String>,
) -> Result<T, String> {
    let path = std::env::temp_dir().join(format!("dnswild-gate-{tag}-{}", std::process::id()));
    let out = f(&Scenario { rig: Rig { trace: Some(path.clone()), ..s.rig }, ..s });
    let _ = std::fs::remove_file(&path);
    out
}

/// Runs `s` twice and folds the second report into the first: the
/// deterministic lines must agree byte for byte, and the second run's
/// failures count too.
fn replayed(s: &Scenario, what: &str) -> Result<(GateReport, GateReport), String> {
    let mut first = run(s)?;
    let second = run(s)?;
    if first.deterministic() != second.deterministic() {
        first.fail(format!(
            "not reproducible: {what} differ between two runs of seed {}:\n  {}\nvs\n  {}",
            s.seed,
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

/// One named gate: its name, the law it re-checks, and its scenario
/// with the replay and cross-checks around it.
pub type Gate = (&'static str, &'static str, fn() -> Result<GateReport, String>);

/// The named gates `dnswild gate <name>` and `scripts/verify.sh` run, in
/// order, each with the law it re-checks.
pub const GATES: &[Gate] = &[
    ("plain", "1k legitimate queries: 100% answered, counters consistent", || {
        run(&Scenario::blast(1_000, 4))
    }),
    ("chaos", "2k transactions through 10% loss + 1% corruption, replayed byte-identically", || {
        Ok(replayed(&chaos_gate(), "fault schedule or counters")?.0)
    }),
    ("truncation", "every TC=1 answer completes over faulted TCP, zero SERVFAILs, replayed", || {
        let s = Scenario::chaos(48, GATE_SEED).truncated(512);
        let (mut a, _) = replayed(&s, "TCP fault schedule or counters")?;
        let books = a.client.unwrap_or_default();
        if books.servfails != 0 || books.tcp_answered == 0 {
            a.fail(format!(
                "expected zero SERVFAILs and >0 TCP completions, got servfail={} tcp_ok={}",
                books.servfails, books.tcp_answered
            ));
        }
        Ok(a)
    }),
    (
        "trace-closure",
        "a traced chaos run: per-auth trace counts equal the server's, zero overflow",
        || {
            let mut a = traced("closure", chaos_gate(), run)?;
            let trace = a.trace.take().expect("traced run");
            let counted = trace_auth_counts(&trace).get(SITE).copied();
            if trace.overflow != 0 || counted != Some(a.server.queries) {
                a.fail(format!(
                    "trace counted {SITE}={counted:?} with overflow={}, server counted {}",
                    trace.overflow, a.server.queries
                ));
            }
            Ok(a)
        },
    ),
    ("trace-digest", "two loss-free traced runs share one content digest", || {
        Ok(traced("digest", Scenario::blast(1_000, 4), |s| replayed(s, "trace digests"))?.0)
    }),
    ("metrics", "a metered chaos run: scrape equals ServerStats, all five stages timed", || {
        run(&Scenario { rig: Rig::default().metered(), ..chaos_gate() })
    }),
    ("watchdog", "a fault-free metered run breaches no law", || {
        let clean = Faults { loss: 0.0, corrupt: 0.0 };
        run(&Scenario { rig: Rig::default().metered(), faults: Some(clean), ..chaos_gate() })
    }),
    ("attack", "RRL sheds a seeded NXDOMAIN flood while legit goodput holds, replayed", || {
        let s = Scenario::attack(AttackMode::NxdomainFlood, true, 400, 4, GATE_SEED);
        let s = Scenario { rig: Rig::default().metered(), ..s };
        Ok(traced("attack", s, |s| replayed(s, "flood schedule or RRL verdicts"))?.0)
    }),
    ("cache", "warm hits, prefetch, serve-stale and cache-scrape equality, replayed", gate_cache),
    (
        "explain",
        "chaos+tcp+rrl journeys: tails and failed timelines byte-identical across runs",
        gate_explain,
    ),
    (
        "attack-sweep",
        "the six-cell mode x rrl amplification table of results/attack_amp.txt",
        attack_sweep,
    ),
];

/// The canonical chaos gate scenario the chaos-based gates vary.
fn chaos_gate() -> Scenario {
    Scenario::chaos(2_000, GATE_SEED)
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
    let bare = Scenario::cache(400, GATE_SEED, 0, false, false);
    let (mut report, _) = replayed(&bare, "cache counters")?;
    let warm = report.client.unwrap_or_default();
    if warm.cache_hits != bare.queries {
        report.fail(format!(
            "warm pass answered {}/{} repeats from cache",
            warm.cache_hits, bare.queries
        ));
    }
    let full = Scenario {
        rig: Rig::default().metered(),
        workload: Workload::Cache { capacity: 0, serve_stale: true, prefetch: true },
        ..bare
    };
    let mut full = traced("cache", full, run)?;
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
fn gate_explain() -> Result<GateReport, String> {
    let mut s = chaos_gate().truncated(512);
    s.server.rrl = true;
    let (mut report, mut second) = traced("explain", s, |s| replayed(s, "chaos+rrl schedule"))?;
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
            let cell = run(&Scenario::attack(mode, rrl, 400, 2, GATE_SEED))?;
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
        let report = run(&Scenario::chaos(24, 7).truncated(4096)).unwrap();
        for want in [
            "truncation gate: no transaction completed over TCP",
            "truncation gate: the server never truncated a UDP answer",
        ] {
            assert!(report.failures.iter().any(|f| f == want), "{want}: {:?}", report.failures);
        }
    }

    #[test]
    fn a_clean_run_passes_and_marks_only_seeded_lines_deterministic() {
        let clean = Faults { loss: 0.0, corrupt: 0.0 };
        let report = run(&Scenario { faults: Some(clean), ..Scenario::chaos(40, 7) }).unwrap();
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

    /// The cache workload's headline check can still fail: a one-entry
    /// cache cannot answer half a warm pass.
    #[test]
    fn a_one_entry_cache_fails_the_warm_hit_rate() {
        let report = run(&Scenario::cache(40, 7, 1, false, false)).unwrap();
        let want = "is not over 1/2";
        assert!(
            report.failures.iter().any(|f| f.starts_with("warm hit-rate ") && f.ends_with(want)),
            "{:?}",
            report.failures
        );
    }

    /// The flood workload's rrl check can still fail: ten attack queries
    /// stay under the default burst of 50, so the limiter never drops.
    #[test]
    fn a_flood_under_the_burst_fails_the_rrl_leg() {
        let report = run(&Scenario::attack(AttackMode::NxdomainFlood, true, 10, 2, 7)).unwrap();
        let want = "rrl on, but the limiter never dropped an attack response";
        assert!(report.failures.iter().any(|f| f == want), "{:?}", report.failures);
    }
}
