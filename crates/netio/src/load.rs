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
use dnswild_telemetry::Collector;

use crate::closed_loop::{
    encode_query, exchange, fan_out, thread_stream, unspecified_for, ExchangeTrace,
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
#[derive(Debug, Clone, Default)]
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

/// Runs the closed-loop load test; blocks until every thread finishes.
pub fn blast(config: LoadConfig) -> io::Result<LoadReport> {
    let metrics = config.metrics.as_ref().map(|r| LoadMetrics::register(r));
    let start = Instant::now();
    let tallies = fan_out(config.concurrency, config.queries, |t, _first, share| {
        client_loop(&config, t, share, metrics.as_ref())
    })?;
    let mut report = LoadReport { elapsed: start.elapsed(), ..Default::default() };
    for tally in tallies {
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

/// One closed-loop client thread; its tally is a [`LoadReport`] with no
/// `elapsed`.
fn client_loop(
    config: &LoadConfig,
    thread: usize,
    queries: u64,
    metrics: Option<&LoadMetrics>,
) -> io::Result<LoadReport> {
    let socket = UdpSocket::bind(unspecified_for(&config.target))?;
    socket.connect(config.target)?;
    socket.set_read_timeout(Some(config.timeout))?;

    let mut rng = DetRng::seed_from_u64(thread_stream(config.seed, thread));
    let mut send_buf = Vec::with_capacity(512);
    let mut recv_buf = vec![0u8; 4096];
    let mut tally =
        LoadReport { latencies_ns: Vec::with_capacity(queries as usize), ..Default::default() };
    let producer = config.collector.as_ref().map(|c| c.producer());
    let trace = producer.as_ref().map(|producer| ExchangeTrace {
        producer,
        client_token: splitmix64(thread_stream(0x636c_6e74, thread)),
        auth_id: config.trace_auth_id,
        flags: 0,
    });

    for n in 0..queries {
        let id = (n % u64::from(u16::MAX)) as u16;
        encode_query(&next_query(&mut rng, config, thread, n, id), &mut send_buf)?;
        let got = exchange(&socket, &send_buf, id, config.timeout, &mut recv_buf, trace.as_ref())?;
        tally.sent += 1;
        tally.mismatched += got.mismatched;
        if let Some(m) = metrics {
            m.sent.inc();
        }
        match got.reply_len {
            Some(_) => {
                let rtt_ns = got.rtt.as_nanos() as u64;
                tally.received += 1;
                tally.latencies_ns.push(rtt_ns);
                if let Some(m) = metrics {
                    m.answered.inc();
                    m.latency_ns.record(rtt_ns);
                }
            }
            None => {
                tally.timeouts += 1;
                if let Some(m) = metrics {
                    m.timeouts.inc();
                }
            }
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
