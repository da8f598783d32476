//! The closed-loop load generator.
//!
//! `concurrency` lanes each run a closed loop against the target
//! server: build a query, send it, wait for the matching response (or
//! a timeout), record the latency, repeat. Closed-loop means at most
//! one outstanding query per lane, so the offered load adapts to the
//! server rather than overrunning socket buffers — the right shape for
//! measuring serving capacity on loopback, and the same discipline the
//! paper's vantage points impose (one probe, then wait). The lanes run
//! on the event loop of `closed_loop`, packed onto one thread
//! per core like the resolver client's.
//!
//! What is asked is the [`Workload`]; friendly or hostile, it is one
//! loop, one report and one set of books:
//!
//! * [`Workload::Mix`] — the legitimate recursive-like [`QueryMix`] over
//!   the preset measurement zone: unique-label probe TXT lookups (the
//!   paper's cold-cache trick), apex NS, glue A, apex TXT (a NODATA),
//!   and CHAOS identification.
//! * [`Workload::Attack`] — adversarial traffic against the preset
//!   attack zone ([`dnswild_zone::presets::attack_test_domain_zone`]),
//!   recorded under [`FLAG_ATTACK`] so trace analysis can tell it from
//!   the legitimate mix running beside it:
//!   * [`AttackMode::NxdomainFlood`] — random-subdomain "water
//!     torture": unique labels under the `void` anchor, every one an
//!     honest NXDOMAIN, the classic cache-busting flood recursives relay
//!     at authoritatives.
//!   * [`AttackMode::NxnsReferral`] — NXNSAttack-style delegation
//!     amplification: tiny queries below the fattened `lab` cut, each
//!     pulling a referral carrying the full NS+glue set (the generator
//!     advertises EDNS 4096 so the fat referral is not truncated away).
//!   * [`AttackMode::SpoofedBurst`] — the same flood multiplexed over a
//!     pool of ephemeral-port sockets per lane, standing in for
//!     spoofed sources: with `key_ports` keying on the server, each port
//!     is a distinct rate-limit identity, which is exactly the evasion
//!     RRL's prefix aggregation is designed to blunt.
//!
//! Schedules are pure functions of ([`LoadConfig::seed`], lane,
//! sequence number) — per-lane `detrand` streams — so two runs with
//! one seed offer byte-identical query streams, which is what lets the
//! attack gate diff its output lines across runs like the chaos gate
//! does.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use detrand::{splitmix64, DetRng, Rng};
use dnswild_metrics::{counter_set, AtomicSet, LogHistogram, Registry};
use dnswild_mmsg::PollFd;
use dnswild_proto::{Class, Message, Name, RType};
use dnswild_server::ServerStats;
use dnswild_telemetry::{
    journey_from_payload, qname_hash32, Collector, Event, EventKind, Producer, FLAG_ATTACK,
    FLAG_RESPONSE, FLAG_TC_SEEN, FLAG_TIMEOUT, RCODE_NONE,
};
use dnswild_zone::presets::{DELEGATION_LABEL, NX_ANCHOR_LABEL};

use crate::closed_loop::{
    cores, encode_query, run_lanes, share_of, thread_stream, Lane, LaneSocket,
};

/// EDNS payload size the NXNS mode advertises, so the padded referral
/// rides back whole instead of as a TC stub.
pub const NXNS_EDNS_PAYLOAD: u16 = 4096;

/// Sockets per lane a [`AttackMode::SpoofedBurst`] flood rotates over
/// unless told otherwise.
pub const DEFAULT_SPOOFED_SOURCES: usize = 16;

/// Relative weights of the query kinds the legitimate mix draws from.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    /// Unique-label wildcard TXT probes (`p<lane>-q<n>.<origin>`).
    pub probe_txt: u32,
    /// `<origin> NS` — the apex NS RRset.
    pub apex_ns: u32,
    /// `ns1.<origin> A` — delegation glue.
    pub glue_a: u32,
    /// `<origin> TXT` — a NODATA (the wildcard does not cover the apex).
    pub apex_txt: u32,
    /// `hostname.bind CH TXT` — CHAOS site identification.
    pub chaos: u32,
}

impl Default for QueryMix {
    /// A recursive-like mix: mostly probe lookups with a sprinkling of
    /// infrastructure queries.
    fn default() -> Self {
        QueryMix { probe_txt: 84, apex_ns: 6, glue_a: 5, apex_txt: 3, chaos: 2 }
    }
}

impl QueryMix {
    /// Probe TXT queries only — every answer is a positive, branded TXT.
    pub fn probe_only() -> Self {
        QueryMix { probe_txt: 1, apex_ns: 0, glue_a: 0, apex_txt: 0, chaos: 0 }
    }

    fn total(&self) -> u32 {
        self.probe_txt + self.apex_ns + self.glue_a + self.apex_txt + self.chaos
    }
}

/// Which adversarial workload the generator offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackMode {
    /// Random-subdomain NXDOMAIN flood under the `void` anchor.
    NxdomainFlood,
    /// Delegation-amplification replay below the `lab` cut.
    NxnsReferral,
    /// [`AttackMode::NxdomainFlood`] multiplexed over a per-lane pool
    /// of ephemeral-port sockets (spoofed-source stand-in).
    SpoofedBurst,
}

impl AttackMode {
    /// The CLI / log spelling.
    pub fn name(self) -> &'static str {
        match self {
            AttackMode::NxdomainFlood => "nxdomain",
            AttackMode::NxnsReferral => "nxns",
            AttackMode::SpoofedBurst => "spoof",
        }
    }
}

impl std::str::FromStr for AttackMode {
    type Err = String;
    fn from_str(s: &str) -> Result<AttackMode, String> {
        match s {
            "nxdomain" => Ok(AttackMode::NxdomainFlood),
            "nxns" => Ok(AttackMode::NxnsReferral),
            "spoof" => Ok(AttackMode::SpoofedBurst),
            other => Err(format!("unknown attack mode '{other}' (nxdomain|nxns|spoof)")),
        }
    }
}

/// What the generator asks — and with it the three things a friendly
/// and a hostile client loop differ in: the query draw (and the socket
/// it leaves from), the socket-pool size, and the trace identity.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// The legitimate mix, one socket per lane.
    Mix(QueryMix),
    /// An adversarial flood.
    Attack {
        /// Which flood.
        mode: AttackMode,
        /// Socket-pool size per lane for [`AttackMode::SpoofedBurst`]
        /// (the other modes use one socket per lane).
        spoofed_sources: usize,
    },
}

impl Workload {
    /// Sockets each lane opens.
    fn sockets(&self) -> usize {
        match *self {
            Workload::Attack { mode: AttackMode::SpoofedBurst, spoofed_sources } => {
                spoofed_sources.max(1)
            }
            _ => 1,
        }
    }

    /// Client-token salt and event flags of this workload's trace events.
    fn trace_identity(&self) -> (u64, u16) {
        match self {
            Workload::Mix(_) => (0x636c_6e74, 0),
            Workload::Attack { .. } => (0x6174_746b, FLAG_ATTACK),
        }
    }

    /// Draws lane `thread`'s `n`-th query and the index of the socket it
    /// leaves from — a pure function of the seed stream, so schedules
    /// replay byte-identically.
    fn next(
        &self,
        rng: &mut DetRng,
        origin: &Name,
        thread: usize,
        n: u64,
        id: u16,
    ) -> (Message, usize) {
        let mode = match self {
            Workload::Mix(mix) => return (mix_query(rng, mix, origin, thread, n, id), 0),
            Workload::Attack { mode, .. } => *mode,
        };
        let nxns = mode == AttackMode::NxnsReferral;
        let (anchor, prefix) = if nxns { (DELEGATION_LABEL, "v") } else { (NX_ANCHOR_LABEL, "wt") };
        let label = format!("{prefix}{:08x}", rng.gen_range(0..u64::from(u32::MAX)) as u32);
        let qname = origin
            .prepend(anchor)
            .and_then(|n| n.prepend(&label))
            .expect("short attack label");
        let mut query = Message::iterative_query(id, qname, RType::A);
        if nxns {
            // Replace the default OPT advertisement (a second OPT would
            // be a FORMERR) with one wide enough for the fat referral.
            query.additionals.clear();
            query.add_edns(NXNS_EDNS_PAYLOAD);
        }
        // The socket draw is part of the attack schedule too: made for
        // every attack query (not just spoof mode) so a mode's name
        // stream does not shift when the pool size changes.
        (query, rng.gen_range(0..self.sockets() as u64) as usize)
    }
}

/// Draws the next query of the legitimate mix.
fn mix_query(
    rng: &mut DetRng,
    mix: &QueryMix,
    origin: &Name,
    thread: usize,
    n: u64,
    id: u16,
) -> Message {
    let mut draw = rng.gen_range(0..mix.total().max(1));
    let mut pick = |weight: u32| {
        if draw < weight {
            true
        } else {
            draw -= weight;
            false
        }
    };
    if pick(mix.probe_txt) {
        let label = format!("p{thread}-q{n}");
        let qname = origin.prepend(&label).expect("short probe label");
        Message::iterative_query(id, qname, RType::Txt)
    } else if pick(mix.apex_ns) {
        Message::iterative_query(id, origin.clone(), RType::Ns)
    } else if pick(mix.glue_a) {
        let qname = origin.prepend("ns1").expect("short label");
        Message::iterative_query(id, qname, RType::A)
    } else if pick(mix.apex_txt) {
        Message::iterative_query(id, origin.clone(), RType::Txt)
    } else {
        let mut q = Message::iterative_query(id, Name::parse("hostname.bind").unwrap(), RType::Txt);
        q.questions[0].qclass = Class::Ch;
        q
    }
}

/// Configuration for [`blast`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The server under test.
    pub target: SocketAddr,
    /// Lanes — queries in flight — each running an independent closed
    /// loop, on one event-loop thread per core.
    pub concurrency: usize,
    /// Total queries across all lanes.
    pub queries: u64,
    /// Per-query response timeout. A flood against a rate limiter wants
    /// it short: a dropped response *is* the expected server behaviour,
    /// and the loop must classify it quickly and move on.
    pub timeout: Duration,
    /// Base seed for the deterministic query (and socket) draws.
    pub seed: u64,
    /// Zone origin the workload queries against.
    pub origin: Name,
    /// What is asked.
    pub workload: Workload,
    /// Telemetry collector: when set, each lane records one
    /// `ClientQuery` event per transaction (answer or timeout), flagged
    /// [`FLAG_ATTACK`] under [`Workload::Attack`] — which is how the
    /// trace analysis separates attacker packets from legitimate ones.
    pub collector: Option<Arc<Collector>>,
    /// `auth_id` stamped on recorded events (index of the target server
    /// in the collector's auth table).
    pub trace_auth_id: u16,
    /// Metrics registry: when set, [`blast`] feeds its [`LoadStats`]
    /// into it and records round-trip latency into
    /// `dnswild_load_latency_ns`. When the run ends its series keep their
    /// final values and the registry stops reading its cells.
    pub metrics: Option<Arc<Registry>>,
}

impl LoadConfig {
    /// Defaults: 4 lanes, 10,000 queries, 1 s timeout, seed 2017,
    /// the default mixed workload.
    pub fn new(target: SocketAddr, origin: Name) -> Self {
        LoadConfig {
            target,
            concurrency: 4,
            queries: 10_000,
            timeout: Duration::from_secs(1),
            seed: 2017,
            origin,
            workload: Workload::Mix(QueryMix::default()),
            collector: None,
            trace_auth_id: 0,
            metrics: None,
        }
    }

    /// Overrides the lane count.
    pub fn concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = concurrency.max(1);
        self
    }

    /// Overrides the total query count.
    pub fn queries(mut self, queries: u64) -> Self {
        self.queries = queries;
        self
    }

    /// Overrides what is asked.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Attaches a telemetry collector (see [`LoadConfig::collector`]).
    pub fn collector(mut self, collector: Arc<Collector>, auth_id: u16) -> Self {
        self.collector = Some(collector);
        self.trace_auth_id = auth_id;
        self
    }

    /// Attaches a metrics registry (see [`LoadConfig::metrics`]).
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }
}

counter_set! {
    /// What one load run counted, from the client's side of the wire.
    /// The labels are the keys of the `attack-client:` line and the
    /// `kind`s of the scraped `dnswild_load_events_total`.
    pub struct LoadStats {
        /// Queries sent.
        sent => "sent",
        /// Responses received with the expected transaction ID (full
        /// answers, referrals and TC=1 slips alike).
        received => "received",
        /// Queries that saw no response within the timeout — under RRL
        /// these are the limiter's drops.
        timeouts => "timeouts",
        /// Responses discarded for carrying a stale/unexpected ID.
        mismatched => "mismatched",
        /// Received responses carrying TC=1 — the limiter's 1-in-N slips
        /// (or genuine size truncation, which the preset zones avoid).
        tc_slips => "tc_slips",
        /// Query bytes put on the wire.
        bytes_sent => "bytes_sent",
        /// Response bytes taken off the wire.
        bytes_received => "bytes_received",
    }
}

/// What one load run measured, from the client's side of the wire.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// The run's books.
    pub stats: LoadStats,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-query round-trip latencies, sorted ascending (nanoseconds).
    latencies_ns: Vec<u64>,
}

impl LoadReport {
    /// Achieved queries-per-second (received over wall-clock).
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.stats.received as f64 / secs
    }

    /// Latency at quantile `q` in `[0, 1]`, in nanoseconds — computed by
    /// the workspace's shared estimator (`dnswild_telemetry::stats`).
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        dnswild_telemetry::stats::percentile_sorted_u64(&self.latencies_ns, q * 100.0)
    }

    /// Whether every query was answered: nothing timed out, nothing
    /// arrived with a stale ID.
    pub fn all_answered(&self) -> bool {
        let s = &self.stats;
        s.received == s.sent && s.timeouts == 0 && s.mismatched == 0
    }

    /// Every datagram is accounted for: answered, slipped or timed out,
    /// with nothing mismatched.
    pub fn all_accounted(&self) -> bool {
        let s = &self.stats;
        s.received + s.timeouts == s.sent && s.mismatched == 0
    }

    /// Response bytes per query byte as seen by the client: the
    /// bandwidth amplification the server granted this workload. `None`
    /// until something was sent.
    pub fn amplification(&self) -> Option<f64> {
        let s = &self.stats;
        (s.bytes_sent > 0).then(|| s.bytes_received as f64 / s.bytes_sent as f64)
    }

    /// Checks the generator's books against the server's counters when
    /// the run had the server to *itself*: every sent packet was counted
    /// as a query and classified into exactly one question outcome,
    /// every timeout was one of the limiter's drops and every TC reply
    /// one of its slips. Returns a human-readable complaint when the
    /// books don't balance.
    pub fn check_server_stats(&self, stats: ServerStats) -> Result<(), String> {
        let s = &self.stats;
        for (what, server, client) in [
            ("queries", stats.queries, s.sent),
            ("question outcomes", stats.question_outcomes(), s.sent),
            ("rate-limit drops", stats.rrl_dropped, s.timeouts),
            ("rate-limit slips", stats.rrl_slipped, s.tc_slips),
        ] {
            if server != client {
                return Err(format!(
                    "server counted {server} {what}, generator saw {client} ({stats:?})"
                ));
            }
        }
        Ok(())
    }
}

/// One lane's books; line-aligned, so no two lanes write to one cache
/// line.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct LoadCell(pub(crate) AtomicSet<LoadStats, 7>);

fn total(cells: &[LoadCell]) -> LoadStats {
    cells.iter().map(|c| c.0.snapshot()).sum()
}

/// Runs the closed-loop load test; blocks until every lane finishes.
/// Every lane adds each query's counts to its own [`LoadStats`] cell,
/// whose sum the report and, with [`LoadConfig::metrics`] set, the
/// registry's `dnswild_load_events_total{kind}` read; every round trip
/// is also recorded into the `dnswild_load_latency_ns` histogram. The
/// lanes are packed onto one event-loop thread per core the host offers.
pub fn blast(config: LoadConfig) -> io::Result<LoadReport> {
    blast_on(config, cores())
}

/// [`blast`] with its lanes packed onto `loops` threads (see
/// [`run_lanes`]). Which lanes share a thread changes no lane's books.
pub(crate) fn blast_on(config: LoadConfig, loops: usize) -> io::Result<LoadReport> {
    let cells: Arc<[LoadCell]> =
        (0..config.concurrency.max(1)).map(|_| LoadCell::default()).collect();
    let metered = config.metrics.as_ref().map(|registry| {
        let books = Arc::clone(&cells);
        let hook = registry.mirror_counters(
            "dnswild_load_events_total",
            "load generator events, one series per LoadStats field",
            &[],
            move || total(&books),
        );
        let latency = registry
            .histogram("dnswild_load_latency_ns", "closed-loop round-trip latency, nanoseconds");
        (registry, hook, latency)
    });
    let latency = metered.as_ref().map(|(_, _, latency)| &**latency);
    let start = Instant::now();
    let run = run_lanes(cells.len(), loops, |i| LoadLane::new(&config, i, &cells[i], latency))
        .map(|lanes| lanes.into_iter().flat_map(|lane| lane.latencies_ns).collect::<Vec<_>>());
    let elapsed = start.elapsed();
    if let Some((registry, hook, _)) = metered {
        registry.settle([hook]);
    }
    let mut latencies_ns = run?;
    latencies_ns.sort_unstable();
    Ok(LoadReport { stats: total(&cells), elapsed, latencies_ns })
}

/// The query a load lane has on the wire: its ID, the pool socket it
/// left from (which the loop polls), when it left — by the wall clock
/// and, traced, by the trace clock — and the wrong-ID datagrams read
/// while waiting for it.
struct Flight {
    id: u16,
    socket: usize,
    sent_at: Instant,
    sent_ns: u64,
    mismatched: u64,
}

/// One load lane: a closed loop over its share of the queries, drawn
/// from its seed stream. Each waits until the reply carrying its ID
/// arrives or [`LoadConfig::timeout`] passes; a wrong-ID datagram is
/// counted and does not move the deadline. A query's counts go to the
/// lane's cell once it settles, with one `ClientQuery` event if traced.
pub(crate) struct LoadLane<'a> {
    config: &'a LoadConfig,
    cell: &'a LoadCell,
    latency: Option<&'a LogHistogram>,
    index: usize,
    sockets: Vec<LaneSocket>,
    rng: DetRng,
    producer: Option<Producer>,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    /// Queries sent so far, of the lane's `queries`.
    sent: u64,
    queries: u64,
    flight: Option<Flight>,
    latencies_ns: Vec<u64>,
}

impl<'a> LoadLane<'a> {
    pub(crate) fn new(
        config: &'a LoadConfig,
        index: usize,
        cell: &'a LoadCell,
        latency: Option<&'a LogHistogram>,
    ) -> io::Result<Self> {
        let sockets = (0..config.workload.sockets())
            .map(|_| {
                let socket = LaneSocket::bind(&config.target)?;
                socket.udp.connect(config.target)?;
                Ok(socket)
            })
            .collect::<io::Result<_>>()?;
        let (_, queries) = share_of(config.queries, config.concurrency.max(1), index);
        Ok(LoadLane {
            config,
            cell,
            latency,
            index,
            sockets,
            rng: DetRng::seed_from_u64(thread_stream(config.seed, index)),
            producer: config.collector.as_ref().map(|c| c.producer()),
            send_buf: Vec::with_capacity(512),
            recv_buf: vec![0u8; 4096],
            sent: 0,
            queries,
            flight: None,
            latencies_ns: Vec::with_capacity(queries as usize),
        })
    }

    /// The query in flight has settled: with a reply of `reply_len`
    /// bytes in the receive buffer, or with none inside its window.
    fn settle(&mut self, reply_len: Option<usize>) {
        let f = self.flight.take().expect("a settling lane has a query in flight");
        let len = reply_len.unwrap_or(0);
        // TC lives in bit 1 of byte 2.
        let truncated = len >= 3 && self.recv_buf[2] & 0x02 != 0;
        if reply_len.is_some() {
            let rtt_ns = f.sent_at.elapsed().as_nanos() as u64;
            self.latencies_ns.push(rtt_ns);
            if let Some(h) = self.latency {
                h.record(rtt_ns);
            }
        }
        let answered = u64::from(reply_len.is_some());
        self.cell.0.add(LoadStats {
            sent: 1,
            received: answered,
            timeouts: 1 - answered,
            mismatched: f.mismatched,
            tc_slips: u64::from(truncated),
            bytes_sent: self.send_buf.len() as u64,
            bytes_received: len as u64,
        });
        let Some(producer) = &self.producer else {
            return;
        };
        let query = &self.send_buf;
        let (token_salt, flags) = self.config.workload.trace_identity();
        let mut ev = Event::new(EventKind::ClientQuery);
        ev.ts_ns = f.sent_ns;
        // Deterministic across runs, unlike a socket address: the rank
        // analysis groups trace events by it.
        ev.client_hash = splitmix64(thread_stream(token_salt, self.index));
        // Question bytes past the header — allocation-free and
        // byte-identical to what the server hashes for this datagram on
        // its side.
        ev.qname_hash = qname_hash32(query.get(12..).unwrap_or(&[]));
        (ev.journey, ev.dns_id) = journey_from_payload(query);
        ev.latency_ns = u32::try_from(producer.now_ns().saturating_sub(f.sent_ns)).unwrap_or(u32::MAX);
        ev.auth_id = self.config.trace_auth_id;
        ev.bytes_in = u16::try_from(query.len()).unwrap_or(u16::MAX);
        ev.bytes_out = u16::try_from(len).unwrap_or(u16::MAX);
        ev.flags = flags
            | if reply_len.is_some() { FLAG_RESPONSE } else { FLAG_TIMEOUT }
            | (u16::from(truncated) * FLAG_TC_SEEN);
        // Wire rcode lives in the low nibble of byte 3.
        ev.rcode = if len >= 4 { self.recv_buf[3] & 0x0f } else { RCODE_NONE };
        producer.record(&ev);
    }
}

impl Lane for LoadLane<'_> {
    /// Sends the next query unless one is in flight or all are sent.
    fn advance(&mut self) -> io::Result<()> {
        if self.flight.is_some() || self.sent == self.queries {
            return Ok(());
        }
        let n = self.sent;
        let id = (n % u64::from(u16::MAX)) as u16;
        let (query, socket) =
            self.config.workload.next(&mut self.rng, &self.config.origin, self.index, n, id);
        encode_query(&query, &mut self.send_buf)?;
        let sent_at = Instant::now();
        let sent_ns = self.producer.as_ref().map_or(0, Producer::now_ns);
        self.sockets[socket].udp.send(&self.send_buf)?;
        self.sent += 1;
        self.flight = Some(Flight { id, socket, sent_at, sent_ns, mismatched: 0 });
        Ok(())
    }

    fn deadline(&self) -> Option<Instant> {
        self.flight.as_ref().map(|f| f.sent_at + self.config.timeout)
    }

    fn poll_fd(&self) -> PollFd {
        let f = self.flight.as_ref().expect("a waiting lane has a query in flight");
        PollFd::udp(&self.sockets[f.socket].udp)
    }

    fn read(&mut self) -> io::Result<bool> {
        let f = self.flight.as_mut().expect("a waiting lane has a query in flight");
        let Some(got) = self.sockets[f.socket].read(&mut self.recv_buf)? else {
            return Ok(false);
        };
        if got >= 2 && u16::from_be_bytes([self.recv_buf[0], self.recv_buf[1]]) == f.id {
            self.settle(Some(got));
        } else {
            f.mismatched += 1;
        }
        Ok(true)
    }

    /// The window closed without the reply.
    fn expire(&mut self) -> io::Result<()> {
        self.settle(None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use dnswild_server::{RateLimitPolicy, RrlScope, TruncationPolicy};
    use dnswild_zone::presets::{attack_test_domain_zone, test_domain_zone};
    use std::sync::Arc;

    fn origin() -> Name {
        Name::parse("ourtestdomain.nl").unwrap()
    }

    fn attack_zone(delegation_ns: usize) -> Arc<Vec<dnswild_zone::Zone>> {
        Arc::new(vec![attack_test_domain_zone(&origin(), 2, delegation_ns)])
    }

    /// A flood of `mode` aimed at `target`.
    fn flood(target: SocketAddr, mode: AttackMode) -> LoadConfig {
        LoadConfig::new(target, origin())
            .workload(Workload::Attack { mode, spoofed_sources: DEFAULT_SPOOFED_SOURCES })
    }

    /// The end-to-end loopback acceptance path: a netio server on an
    /// ephemeral port answers a mixed closed-loop load with zero losses,
    /// and the generator's books balance against the server's counters.
    #[test]
    fn loopback_blast_answers_everything() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(3)).unwrap();
        let report = blast(
            LoadConfig::new(handle.local_addr(), origin()).concurrency(3).queries(600),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert_eq!(report.stats.sent, 600);
        assert!(report.all_answered(), "{report:?}");
        report.check_server_stats(stats).unwrap();
        assert!(stats.answers > 0, "probe TXT answers present");
        assert!(report.qps() > 0.0);
        assert!(report.latency_percentile(0.5).unwrap() <= report.latency_percentile(0.99).unwrap());
    }

    /// Probe-only mix: every single response is a positive answer.
    #[test]
    fn probe_only_mix_yields_only_answers() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "SYD", zones).threads(2)).unwrap();
        let report = blast(
            LoadConfig::new(handle.local_addr(), origin())
                .concurrency(2)
                .queries(200)
                .workload(Workload::Mix(QueryMix::probe_only())),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert!(report.all_answered(), "{report:?}");
        assert_eq!(stats.answers, 200);
        assert_eq!(stats.queries, 200);
    }

    #[test]
    fn metered_blast_counts_into_the_registry() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let registry = Arc::new(Registry::new());
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let report = blast(
            LoadConfig::new(handle.local_addr(), origin())
                .concurrency(2)
                .queries(200)
                .metrics(Arc::clone(&registry)),
        )
        .unwrap();
        handle.shutdown();
        assert!(report.all_answered(), "{report:?}");
        let events = registry.counters("dnswild_load_events_total");
        let kind = |kind: &str| {
            events.iter().find(|(labels, _)| labels[0] == ("kind".into(), kind.into())).map(|s| s.1)
        };
        assert_eq!(kind("sent"), Some(200));
        assert_eq!(kind("received"), Some(200));
        assert_eq!(kind("timeouts"), Some(0));
        let (_, hist) = &registry.histograms("dnswild_load_latency_ns")[0];
        assert_eq!(hist.count(), 200);
        assert!(hist.value_at(50.0).unwrap() > 0);
    }

    /// Runs sharing one registry add up, and a finished run leaves no
    /// hook behind to read its cells again.
    #[test]
    fn consecutive_metered_blasts_add_up() {
        use dnswild_metrics::CounterSet;
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let registry = Arc::new(Registry::new());
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let run = || {
            let config = LoadConfig::new(handle.local_addr(), origin()).concurrency(2).queries(50);
            blast(config.metrics(Arc::clone(&registry))).unwrap().stats
        };
        let total = run() + run();
        handle.shutdown();
        let events = registry.counters("dnswild_load_events_total");
        for (kind, value) in total.kinds() {
            let series = events.iter().find(|(labels, _)| labels[0].1 == kind).map(|s| s.1);
            assert_eq!(series, Some(value), "{kind}");
        }
        assert_eq!(total.sent, 100);
    }

    /// The first `count` questions `workload` draws on one stream.
    fn questions(workload: Workload, seed: u64, count: u64) -> Vec<String> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..count)
            .map(|n| {
                let (q, _) = workload.next(&mut rng, &origin(), 0, n, n as u16);
                format!("{} {:?}", q.questions[0].qname, q.questions[0].qtype)
            })
            .collect()
    }

    #[test]
    fn mix_draw_is_deterministic_for_a_seed() {
        let mix = Workload::Mix(QueryMix::default());
        assert_eq!(questions(mix, 7, 32), questions(mix, 7, 32));
        assert_ne!(questions(mix, 7, 32), questions(mix, 8, 32));
    }

    #[test]
    fn attack_schedules_replay_byte_identically_per_seed() {
        let torture = Workload::Attack { mode: AttackMode::NxdomainFlood, spoofed_sources: 1 };
        assert_eq!(questions(torture, 2017, 32), questions(torture, 2017, 32));
        assert_ne!(questions(torture, 2017, 32), questions(torture, 2018, 32));
        // Every water-torture name sits under the NXDOMAIN anchor.
        assert!(questions(torture, 2017, 32).iter().all(|q| q.ends_with("void.ourtestdomain.nl. A")));
    }

    /// The schedules survived the merge of the two generators: the
    /// first 64 queries (and socket draws) of threads 0 and 1 at seed
    /// 2017, dumped at the commit before it, replay byte for byte — so
    /// neither seed stream shifted.
    #[test]
    fn pinned_schedules_replay() {
        let pinned = include_str!("../../../tests/data/load_schedule.txt");
        let attack = |mode| Workload::Attack { mode, spoofed_sources: 8 };
        let mut rows = pinned.lines().filter(|l| !l.starts_with('#')).peekable();
        for (label, workload) in [
            ("mix-default", Workload::Mix(QueryMix::default())),
            ("mix-probe-only", Workload::Mix(QueryMix::probe_only())),
            ("nxdomain", attack(AttackMode::NxdomainFlood)),
            ("nxns", attack(AttackMode::NxnsReferral)),
            ("spoof", attack(AttackMode::SpoofedBurst)),
        ] {
            for thread in 0..2 {
                let mut rng = DetRng::seed_from_u64(thread_stream(2017, thread));
                let mut wire = Vec::new();
                for n in 0..64u64 {
                    let (query, socket) = workload.next(&mut rng, &origin(), thread, n, n as u16);
                    encode_query(&query, &mut wire).unwrap();
                    let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
                    let row = format!("{label} {thread} {n} {socket} {hex}");
                    assert_eq!(rows.next(), Some(row.as_str()));
                }
            }
        }
        assert_eq!(rows.peek(), None, "every pinned row replayed");
    }

    #[test]
    fn report_percentiles_and_qps() {
        let report = LoadReport {
            stats: LoadStats { sent: 4, received: 4, ..Default::default() },
            elapsed: Duration::from_secs(2),
            latencies_ns: vec![10, 20, 30, 40],
        };
        assert_eq!(report.qps(), 2.0);
        assert_eq!(report.latency_percentile(0.0), Some(10));
        assert_eq!(report.latency_percentile(1.0), Some(40));
        assert!(report.all_answered());
        let bad = ServerStats { queries: 3, ..Default::default() };
        assert!(report.check_server_stats(bad).is_err());
    }

    #[test]
    fn nxdomain_flood_is_all_nxdomains_without_rrl() {
        let handle =
            serve(ServeConfig::new("127.0.0.1:0", "FRA", attack_zone(2)).threads(2)).unwrap();
        let report = blast(
            flood(handle.local_addr(), AttackMode::NxdomainFlood).concurrency(2).queries(200),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert_eq!(report.stats.sent, 200);
        assert!(report.all_accounted(), "{report:?}");
        assert_eq!(report.stats.received, 200, "no limiter, so every flood query is answered");
        assert_eq!(report.stats.tc_slips, 0);
        assert_eq!(stats.nxdomain, 200, "every water-torture name is an honest NXDOMAIN");
    }

    #[test]
    fn nxns_referrals_amplify_without_rrl() {
        let zones = attack_zone(20);
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(2)
                .truncation(TruncationPolicy::symmetric(4096)),
        )
        .unwrap();
        let report = blast(
            flood(handle.local_addr(), AttackMode::NxnsReferral).concurrency(2).queries(100),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert!(report.all_accounted(), "{report:?}");
        assert_eq!(report.stats.received, 100);
        assert_eq!(stats.referrals, 100);
        assert_eq!(report.stats.tc_slips, 0, "EDNS 4096 keeps the fat referral un-truncated");
        let amp = report.amplification().unwrap();
        assert!(amp > 4.0, "20-NS referral should amplify well past 4x, got {amp:.2}");
    }

    #[test]
    fn rrl_turns_flood_into_slips_and_timeouts_that_balance() {
        // One attacker thread and socket → one bucket; no refill, so
        // past the burst every response is limited and the attacker's
        // books must mirror the limiter's counters exactly.
        let policy = RateLimitPolicy {
            burst: 10,
            rate: 0,
            period: 1,
            slip: 2,
            scope: RrlScope::Abusive,
            ..RateLimitPolicy::default()
        };
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", attack_zone(2))
                .threads(1)
                .rate_limit(policy),
        )
        .unwrap();
        let mut cfg = flood(handle.local_addr(), AttackMode::NxdomainFlood).concurrency(1).queries(60);
        cfg.timeout = Duration::from_millis(40);
        let report = blast(cfg).unwrap();
        let stats = handle.shutdown();
        assert!(report.all_accounted(), "{report:?}");
        // 10 answered on the burst, then 50 limited: drop/slip
        // alternating from drop → 25 slips, 25 drops.
        assert_eq!(report.stats.tc_slips, 25);
        assert_eq!(report.stats.timeouts, 25);
        assert_eq!(report.stats.received, 35);
        report.check_server_stats(stats).unwrap();
        assert_eq!(stats.nxdomain, 60, "classification happens before enforcement");
    }

    #[test]
    fn spoofed_burst_multiplexes_ports_but_prefix_keying_still_aggregates() {
        // With prefix keying (key_ports=false, the default) the whole
        // spoofed pool shares one bucket: the port rotation buys the
        // attacker nothing, which is RRL's design point.
        let policy =
            RateLimitPolicy { burst: 8, rate: 0, period: 1, slip: 0, ..RateLimitPolicy::default() };
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", attack_zone(2))
                .threads(1)
                .rate_limit(policy),
        )
        .unwrap();
        let mut cfg = LoadConfig::new(handle.local_addr(), origin())
            .workload(Workload::Attack { mode: AttackMode::SpoofedBurst, spoofed_sources: 8 })
            .concurrency(1)
            .queries(24);
        cfg.timeout = Duration::from_millis(40);
        let report = blast(cfg).unwrap();
        let stats = handle.shutdown();
        assert!(report.all_accounted(), "{report:?}");
        assert_eq!(report.stats.received, 8, "one shared bucket across all 8 source ports");
        assert_eq!(report.stats.timeouts, 16, "slip=0 never slips: the rest are silent drops");
        assert_eq!(stats.rrl_dropped, 16);
        assert_eq!(stats.bucket_evictions, 0);
    }

    /// `blast()` packs eight lanes onto at most one thread per core.
    #[test]
    fn blast_starts_at_most_one_client_thread_per_core() {
        use crate::closed_loop::STARTED;
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
        let before = STARTED.with(|n| n.get());
        let report = blast(LoadConfig::new(handle.local_addr(), origin()).concurrency(8).queries(64));
        let started = STARTED.with(|n| n.get()) - before;
        handle.shutdown();
        assert!(report.unwrap().all_answered());
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(started <= cores, "{started} client threads on {cores} cores");
    }

    /// A lossless traced mixed run of eight lanes packed onto `loops`
    /// threads: its books and its trace's content digest.
    fn packed_mixed_run(loops: usize) -> (LoadStats, u64) {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let path = std::env::temp_dir()
            .join(format!("dnswild-load-packed-{loops}-{}.trace", std::process::id()));
        let collector = Arc::new(Collector::start(dnswild_telemetry::CollectorConfig::new(&path)).unwrap());
        let cfg = LoadConfig::new(handle.local_addr(), origin())
            .concurrency(8)
            .queries(400)
            .collector(Arc::clone(&collector), 0);
        let report = blast_on(cfg, loops).unwrap();
        handle.shutdown();
        collector.finish().unwrap();
        let trace = dnswild_telemetry::Trace::read_from(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(report.all_answered(), "{report:?}");
        assert_eq!(trace.events.len(), 400, "one ClientQuery event per query");
        (report.stats, trace.digest())
    }

    /// An NXDOMAIN flood of eight lanes packed onto `loops` threads, shed
    /// by a limiter with no refill: its books.
    fn packed_shed_run(loops: usize) -> LoadStats {
        let policy = RateLimitPolicy {
            burst: 10,
            rate: 0,
            period: 1,
            slip: 2,
            scope: RrlScope::Abusive,
            ..RateLimitPolicy::default()
        };
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", attack_zone(2)).threads(1).rate_limit(policy),
        )
        .unwrap();
        let mut cfg = flood(handle.local_addr(), AttackMode::NxdomainFlood).concurrency(8).queries(80);
        cfg.timeout = Duration::from_millis(40);
        let report = blast_on(cfg, loops).unwrap();
        report.check_server_stats(handle.shutdown()).unwrap();
        report.stats
    }

    /// The packing of lanes onto threads is invisible: one loop, two, or
    /// a loop per lane give the same books and the same trace digest on
    /// a lossless run, and the same books on a flood RRL sheds.
    #[test]
    fn packing_lanes_onto_loops_changes_no_lane() {
        let mixed = packed_mixed_run(1);
        let shed = packed_shed_run(1);
        assert_eq!((shed.received, shed.tc_slips, shed.timeouts), (45, 35, 35), "{shed:?}");
        for loops in [2, 8] {
            assert_eq!(packed_mixed_run(loops), mixed, "lossless, packed onto {loops} loops");
            assert_eq!(packed_shed_run(loops), shed, "shed, packed onto {loops} loops");
        }
    }

    #[test]
    fn load_stats_cover_every_field() {
        dnswild_metrics::counters::assert_counter_set_covers_every_field::<LoadStats, 7>();
    }

    #[test]
    fn attack_mode_names_round_trip() {
        for mode in [AttackMode::NxdomainFlood, AttackMode::NxnsReferral, AttackMode::SpoofedBurst] {
            assert_eq!(mode.name().parse::<AttackMode>().unwrap(), mode);
        }
        assert!("slowloris".parse::<AttackMode>().is_err());
    }
}
