//! The closed-loop load generator.
//!
//! `concurrency` client threads each run a closed loop against the
//! target server: build a query, send it, wait for the matching
//! response (or a timeout), record the latency, repeat. Closed-loop
//! means at most one outstanding query per thread, so the offered load
//! adapts to the server rather than overrunning socket buffers — the
//! right shape for measuring serving capacity on loopback, and the same
//! discipline the paper's vantage points impose (one probe, then wait).
//!
//! The query mix is drawn deterministically (per-thread `detrand`
//! streams seeded from [`LoadConfig::seed`]) over the preset measurement
//! zone: unique-label probe TXT lookups (the paper's cold-cache trick),
//! apex NS, glue A, apex TXT (a NODATA), and CHAOS identification.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use detrand::{splitmix64, DetRng, Rng};
use dnswild_metrics::{Counter, LogHistogram, Registry};
use dnswild_proto::{Class, Message, Name, RType};
use dnswild_server::ServerStats;
use dnswild_telemetry::{
    journey_from_payload, qname_hash32, Collector, Event, EventKind, FLAG_RESPONSE, FLAG_TIMEOUT,
    RCODE_NONE,
};

/// Relative weights of the query kinds the generator draws from.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    /// Unique-label wildcard TXT probes (`p<thread>-q<n>.<origin>`).
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

/// Configuration for [`blast`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The server under test.
    pub target: SocketAddr,
    /// Client threads, each running an independent closed loop.
    pub concurrency: usize,
    /// Total queries across all threads.
    pub queries: u64,
    /// Per-query response timeout.
    pub timeout: Duration,
    /// Base seed for the deterministic query mix.
    pub seed: u64,
    /// Zone origin the mix queries against.
    pub origin: Name,
    /// Relative query-kind weights.
    pub mix: QueryMix,
    /// Telemetry collector: when set, each client thread records one
    /// `ClientQuery` event per transaction (answer or timeout).
    pub collector: Option<Arc<Collector>>,
    /// `auth_id` stamped on recorded events (index of the target server
    /// in the collector's auth table).
    pub trace_auth_id: u16,
    /// Metrics registry: when set, the generator counts sent / answered
    /// / timed-out transactions and records round-trip latency into
    /// `dnswild_load_latency_ns`.
    pub metrics: Option<Arc<Registry>>,
}

impl LoadConfig {
    /// Defaults: 4 threads, 10,000 queries, 1 s timeout, seed 2017,
    /// the default mixed workload.
    pub fn new(target: SocketAddr, origin: Name) -> Self {
        LoadConfig {
            target,
            concurrency: 4,
            queries: 10_000,
            timeout: Duration::from_secs(1),
            seed: 2017,
            origin,
            mix: QueryMix::default(),
            collector: None,
            trace_auth_id: 0,
            metrics: None,
        }
    }

    /// Overrides the thread count.
    pub fn concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = concurrency.max(1);
        self
    }

    /// Overrides the total query count.
    pub fn queries(mut self, queries: u64) -> Self {
        self.queries = queries;
        self
    }

    /// Overrides the query mix.
    pub fn mix(mut self, mix: QueryMix) -> Self {
        self.mix = mix;
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

/// Registry handles the generator records through.
struct LoadMetrics {
    sent: Arc<Counter>,
    answered: Arc<Counter>,
    timeouts: Arc<Counter>,
    latency_ns: Arc<LogHistogram>,
}

impl LoadMetrics {
    fn register(registry: &Registry) -> LoadMetrics {
        LoadMetrics {
            sent: registry.counter("dnswild_load_sent_total", "load generator queries sent"),
            answered: registry
                .counter("dnswild_load_answered_total", "load generator responses received"),
            timeouts: registry
                .counter("dnswild_load_timeouts_total", "load generator per-query timeouts"),
            latency_ns: registry.histogram(
                "dnswild_load_latency_ns",
                "closed-loop round-trip latency, nanoseconds",
            ),
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries sent.
    pub sent: u64,
    /// Responses received with the expected transaction ID.
    pub received: u64,
    /// Queries that saw no response within the timeout.
    pub timeouts: u64,
    /// Responses discarded for carrying a stale/unexpected ID.
    pub mismatched: u64,
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
        self.received as f64 / secs
    }

    /// Latency at quantile `q` in `[0, 1]`, in nanoseconds — computed by
    /// the workspace's shared estimator (`dnswild_telemetry::stats`).
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        dnswild_telemetry::stats::percentile_sorted_u64(&self.latencies_ns, q * 100.0)
    }

    /// The sorted raw latency samples (for external summarisers).
    pub fn latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }

    /// Whether every query was answered: nothing timed out, nothing
    /// arrived with a stale ID.
    pub fn all_answered(&self) -> bool {
        self.received == self.sent && self.timeouts == 0 && self.mismatched == 0
    }

    /// Checks the generator's view against the server's aggregated
    /// counters: every sent packet was counted as a query, and every
    /// query was classified into exactly one question outcome. Returns a
    /// human-readable complaint when the books don't balance.
    pub fn check_server_stats(&self, stats: ServerStats) -> Result<(), String> {
        if stats.queries != self.sent {
            return Err(format!(
                "server counted {} queries, generator sent {}",
                stats.queries, self.sent
            ));
        }
        if stats.question_outcomes() != self.sent {
            return Err(format!(
                "question outcomes sum to {}, expected {} ({stats:?})",
                stats.question_outcomes(),
                self.sent
            ));
        }
        Ok(())
    }
}

/// One thread's tally, folded into the [`LoadReport`].
#[derive(Debug, Default)]
struct WorkerTally {
    sent: u64,
    received: u64,
    timeouts: u64,
    mismatched: u64,
    latencies_ns: Vec<u64>,
}

/// Runs the closed-loop load test; blocks until every thread finishes.
pub fn blast(config: LoadConfig) -> io::Result<LoadReport> {
    let threads = config.concurrency.max(1);
    let metrics = config.metrics.as_ref().map(|r| LoadMetrics::register(r));
    let start = Instant::now();
    let mut tallies: Vec<io::Result<WorkerTally>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            // Spread the total as evenly as possible; early threads take
            // the remainder.
            let share = config.queries / threads as u64
                + u64::from((t as u64) < config.queries % threads as u64);
            let cfg = &config;
            let metrics = metrics.as_ref();
            handles.push(scope.spawn(move || client_loop(cfg, t, share, metrics)));
        }
        for h in handles {
            tallies.push(h.join().expect("load worker panicked"));
        }
    });
    let elapsed = start.elapsed();

    let mut report = LoadReport {
        sent: 0,
        received: 0,
        timeouts: 0,
        mismatched: 0,
        elapsed,
        latencies_ns: Vec::new(),
    };
    for tally in tallies {
        let tally = tally?;
        report.sent += tally.sent;
        report.received += tally.received;
        report.timeouts += tally.timeouts;
        report.mismatched += tally.mismatched;
        report.latencies_ns.extend_from_slice(&tally.latencies_ns);
    }
    report.latencies_ns.sort_unstable();
    Ok(report)
}

/// Draws the next query from the mix.
fn next_query(rng: &mut DetRng, config: &LoadConfig, thread: usize, n: u64, id: u16) -> Message {
    let total = config.mix.total().max(1);
    let mut draw = rng.gen_range(0..total);
    let mix = &config.mix;
    let origin = &config.origin;
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

/// One closed-loop client thread.
fn client_loop(
    config: &LoadConfig,
    thread: usize,
    queries: u64,
    metrics: Option<&LoadMetrics>,
) -> io::Result<WorkerTally> {
    let bind_addr: SocketAddr = if config.target.is_ipv4() {
        "0.0.0.0:0".parse().unwrap()
    } else {
        "[::]:0".parse().unwrap()
    };
    let socket = UdpSocket::bind(bind_addr)?;
    socket.connect(config.target)?;
    socket.set_read_timeout(Some(config.timeout))?;

    let mut rng = DetRng::seed_from_u64(
        config.seed ^ (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let mut send_buf = Vec::with_capacity(512);
    let mut recv_buf = vec![0u8; 4096];
    let mut tally = WorkerTally { latencies_ns: Vec::with_capacity(queries as usize), ..Default::default() };
    let producer = config.collector.as_ref().map(|c| c.producer());
    // A stable per-thread client token: deterministic across runs (the
    // rank analysis groups trace events by it), unlike a socket address.
    let client_token = splitmix64(0x636c_6e74 ^ (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));

    for n in 0..queries {
        let id = (n % u64::from(u16::MAX)) as u16;
        let query = next_query(&mut rng, config, thread, n, id);
        query
            .encode_into(&mut send_buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e:?}")))?;
        let sent_at = Instant::now();
        let deadline = sent_at + config.timeout;
        let sent_ns = producer.as_ref().map(|p| p.now_ns());
        socket.send(&send_buf)?;
        tally.sent += 1;
        if let Some(m) = metrics {
            m.sent.inc();
        }
        // Wait for the response carrying our ID; stale responses from
        // queries that already timed out are counted and skipped.
        let mut resp_len = 0usize;
        let answered = loop {
            match socket.recv(&mut recv_buf) {
                Ok(got) => {
                    if got >= 2 && u16::from_be_bytes([recv_buf[0], recv_buf[1]]) == id {
                        tally.received += 1;
                        let rtt_ns = sent_at.elapsed().as_nanos() as u64;
                        tally.latencies_ns.push(rtt_ns);
                        if let Some(m) = metrics {
                            m.answered.inc();
                            m.latency_ns.record(rtt_ns);
                        }
                        resp_len = got;
                        break true;
                    }
                    tally.mismatched += 1;
                    if Instant::now() >= deadline {
                        tally.timeouts += 1;
                        if let Some(m) = metrics {
                            m.timeouts.inc();
                        }
                        break false;
                    }
                }
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                    tally.timeouts += 1;
                    if let Some(m) = metrics {
                        m.timeouts.inc();
                    }
                    break false;
                }
                // A signal landing mid-recv is not a timeout and not a
                // worker-fatal error — retry the wait (the deadline
                // check above still bounds it).
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if let (Some(producer), Some(sent_ns)) = (&producer, sent_ns) {
            let mut ev = Event::new(EventKind::ClientQuery);
            ev.ts_ns = sent_ns;
            ev.client_hash = client_token;
            // Question bytes past the header — allocation-free and
            // byte-identical to what the server hashes for this
            // datagram on its side.
            ev.qname_hash = qname_hash32(send_buf.get(12..).unwrap_or(&[]));
            (ev.journey, ev.dns_id) = journey_from_payload(&send_buf);
            ev.latency_ns =
                u32::try_from(producer.now_ns().saturating_sub(sent_ns)).unwrap_or(u32::MAX);
            ev.auth_id = config.trace_auth_id;
            ev.bytes_in = u16::try_from(send_buf.len()).unwrap_or(u16::MAX);
            ev.bytes_out = u16::try_from(resp_len).unwrap_or(u16::MAX);
            if answered {
                ev.flags = FLAG_RESPONSE;
                // Wire rcode lives in the low nibble of byte 3.
                ev.rcode = if resp_len >= 4 { recv_buf[3] & 0x0f } else { RCODE_NONE };
            } else {
                ev.flags = FLAG_TIMEOUT;
                ev.rcode = RCODE_NONE;
            }
            producer.record(&ev);
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use dnswild_zone::presets::test_domain_zone;
    use std::sync::Arc;

    fn origin() -> Name {
        Name::parse("ourtestdomain.nl").unwrap()
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
        assert_eq!(report.sent, 600);
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
                .mix(QueryMix::probe_only()),
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
        assert_eq!(registry.counters("dnswild_load_sent_total")[0].1, 200);
        assert_eq!(registry.counters("dnswild_load_answered_total")[0].1, 200);
        assert_eq!(registry.counters("dnswild_load_timeouts_total")[0].1, 0);
        let (_, hist) = &registry.histograms("dnswild_load_latency_ns")[0];
        assert_eq!(hist.count(), 200);
        assert!(hist.value_at(50.0).unwrap() > 0);
    }

    #[test]
    fn mix_draw_is_deterministic_for_a_seed() {
        let cfg = LoadConfig::new("127.0.0.1:1".parse().unwrap(), origin());
        let qnames = |seed: u64| {
            let mut rng = DetRng::seed_from_u64(seed);
            (0..32u64)
                .map(|n| {
                    let q = next_query(&mut rng, &cfg, 0, n, n as u16);
                    format!("{} {:?}", q.questions[0].qname, q.questions[0].qtype)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(qnames(7), qnames(7));
        assert_ne!(qnames(7), qnames(8));
    }

    #[test]
    fn report_percentiles_and_qps() {
        let report = LoadReport {
            sent: 4,
            received: 4,
            timeouts: 0,
            mismatched: 0,
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
}
