//! The adversarial workload generator.
//!
//! Mirrors the closed-loop discipline of [`crate::load`] — one
//! outstanding query per socket, per-thread `detrand` streams — but
//! draws *attack* traffic against the preset adversarial zone
//! ([`dnswild_zone::presets::attack_test_domain_zone`]):
//!
//! * [`AttackMode::NxdomainFlood`] — random-subdomain "water torture":
//!   unique labels under the `void` anchor, every one an honest
//!   NXDOMAIN, the classic cache-busting flood recursives relay at
//!   authoritatives.
//! * [`AttackMode::NxnsReferral`] — NXNSAttack-style delegation
//!   amplification: tiny queries below the fattened `lab` cut, each
//!   pulling a referral carrying the full NS+glue set (the generator
//!   advertises EDNS 4096 so the fat referral is not truncated away).
//! * [`AttackMode::SpoofedBurst`] — the same flood multiplexed over a
//!   pool of ephemeral-port sockets per thread, standing in for spoofed
//!   sources: with `key_ports` keying on the server, each port is a
//!   distinct rate-limit identity, which is exactly the evasion RRL's
//!   prefix aggregation is designed to blunt.
//!
//! Schedules are pure functions of ([`AttackConfig::seed`], thread,
//! sequence number) — two runs with one seed offer byte-identical
//! query streams, which is what lets the attack smoke gate diff its
//! output lines across runs like the chaos gate does.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use detrand::{splitmix64, DetRng, Rng};
use dnswild_proto::{Message, Name, RType};
use dnswild_server::ServerStats;
use dnswild_telemetry::{Collector, FLAG_ATTACK};
use dnswild_zone::presets::{DELEGATION_LABEL, NX_ANCHOR_LABEL};

use crate::closed_loop::{
    encode_query, exchange, fan_out, thread_stream, unspecified_for, ExchangeTrace,
};

/// EDNS payload size the NXNS mode advertises, so the padded referral
/// rides back whole instead of as a TC stub.
pub const NXNS_EDNS_PAYLOAD: u16 = 4096;

/// Which adversarial workload the generator offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackMode {
    /// Random-subdomain NXDOMAIN flood under the `void` anchor.
    NxdomainFlood,
    /// Delegation-amplification replay below the `lab` cut.
    NxnsReferral,
    /// [`AttackMode::NxdomainFlood`] multiplexed over a per-thread pool
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

/// Configuration for [`assault`].
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// The server under attack.
    pub target: SocketAddr,
    /// Zone origin the attack names hang off.
    pub origin: Name,
    /// Which workload to offer.
    pub mode: AttackMode,
    /// Attacker threads, each an independent closed loop.
    pub concurrency: usize,
    /// Total queries across all threads.
    pub queries: u64,
    /// Per-query response timeout. Deliberately short by default: a
    /// rate-limited drop *is* the expected server behaviour, and the
    /// attacker's loop must classify it quickly and move on.
    pub timeout: Duration,
    /// Base seed for the deterministic name/socket draws.
    pub seed: u64,
    /// Socket-pool size per thread for [`AttackMode::SpoofedBurst`]
    /// (ignored by the other modes, which use one socket per thread).
    pub spoofed_sources: usize,
    /// Telemetry collector: when set, each transaction records one
    /// `ClientQuery` event flagged [`FLAG_ATTACK`], which is how the
    /// trace analysis separates attacker packets from legitimate ones.
    pub collector: Option<Arc<Collector>>,
    /// `auth_id` stamped on recorded events.
    pub trace_auth_id: u16,
}

impl AttackConfig {
    /// Defaults: 4 threads, 1,000 queries, 250 ms timeout, seed 2017,
    /// 16 spoofed sources per thread.
    pub fn new(target: SocketAddr, origin: Name, mode: AttackMode) -> Self {
        AttackConfig {
            target,
            origin,
            mode,
            concurrency: 4,
            queries: 1_000,
            timeout: Duration::from_millis(250),
            seed: 2017,
            spoofed_sources: 16,
            collector: None,
            trace_auth_id: 0,
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

    /// Overrides the per-query timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the spoofed-source pool size (clamped to at least 1).
    pub fn spoofed_sources(mut self, sources: usize) -> Self {
        self.spoofed_sources = sources.max(1);
        self
    }

    /// Attaches a telemetry collector (see [`AttackConfig::collector`]).
    pub fn collector(mut self, collector: Arc<Collector>, auth_id: u16) -> Self {
        self.collector = Some(collector);
        self.trace_auth_id = auth_id;
        self
    }
}

/// What one attack run measured, from the attacker's side of the wire.
#[derive(Debug, Clone, Default)]
pub struct AttackReport {
    /// Queries sent.
    pub sent: u64,
    /// Responses received with the expected transaction ID (full
    /// answers, referrals and TC=1 slips alike).
    pub received: u64,
    /// Queries that saw nothing within the timeout — under RRL these
    /// are the limiter's drops.
    pub timeouts: u64,
    /// Responses discarded for carrying a stale/unexpected ID.
    pub mismatched: u64,
    /// Received responses carrying TC=1 — the limiter's 1-in-N slips
    /// (or genuine size truncation, which the attack zones avoid).
    pub tc_slips: u64,
    /// Query bytes put on the wire.
    pub bytes_sent: u64,
    /// Response bytes taken off the wire.
    pub bytes_received: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl AttackReport {
    /// Bytes-out-over-bytes-in as seen by the attacker: the bandwidth
    /// amplification the server granted this workload. `None` until
    /// something was sent.
    pub fn amplification(&self) -> Option<f64> {
        (self.bytes_sent > 0).then(|| self.bytes_received as f64 / self.bytes_sent as f64)
    }

    /// Every datagram is accounted for: answered, slipped or timed out,
    /// with nothing mismatched.
    pub fn all_accounted(&self) -> bool {
        self.received + self.timeouts == self.sent && self.mismatched == 0
    }

    /// Checks the attacker's books against the server's counters when
    /// the attack ran *alone*: every sent packet was counted as a
    /// query, every timeout was one of the limiter's drops.
    pub fn check_server_stats(&self, stats: ServerStats) -> Result<(), String> {
        if stats.queries != self.sent {
            return Err(format!(
                "server counted {} queries, attacker sent {}",
                stats.queries, self.sent
            ));
        }
        if stats.rrl_dropped != self.timeouts {
            return Err(format!(
                "server dropped {} responses, attacker timed out {} times",
                stats.rrl_dropped, self.timeouts
            ));
        }
        if stats.rrl_slipped != self.tc_slips {
            return Err(format!(
                "server slipped {} responses, attacker saw {} TC replies",
                stats.rrl_slipped, self.tc_slips
            ));
        }
        Ok(())
    }

    /// The deterministic one-line summary the smoke gate diffs across
    /// runs (everything wall-clock-dependent is excluded).
    pub fn render(&self, label: &str) -> String {
        format!(
            "{label}: sent={} received={} timeouts={} mismatched={} tc_slips={} \
             bytes_sent={} bytes_received={}",
            self.sent,
            self.received,
            self.timeouts,
            self.mismatched,
            self.tc_slips,
            self.bytes_sent,
            self.bytes_received,
        )
    }
}

/// Builds the `n`-th attack query for `thread` — a pure function of
/// (seed stream, mode), so schedules replay byte-identically.
fn attack_query(rng: &mut DetRng, config: &AttackConfig, id: u16) -> Message {
    match config.mode {
        AttackMode::NxdomainFlood | AttackMode::SpoofedBurst => {
            let label = format!("wt{:08x}", rng.gen_range(0..u64::from(u32::MAX)) as u32);
            let qname = config
                .origin
                .prepend(NX_ANCHOR_LABEL)
                .and_then(|n| n.prepend(&label))
                .expect("short water-torture label");
            Message::iterative_query(id, qname, RType::A)
        }
        AttackMode::NxnsReferral => {
            let label = format!("v{:08x}", rng.gen_range(0..u64::from(u32::MAX)) as u32);
            let qname = config
                .origin
                .prepend(DELEGATION_LABEL)
                .and_then(|n| n.prepend(&label))
                .expect("short delegation label");
            let mut q = Message::iterative_query(id, qname, RType::A);
            // Replace the default OPT advertisement (a second OPT would
            // be a FORMERR) with one wide enough for the fat referral.
            q.additionals.clear();
            q.add_edns(NXNS_EDNS_PAYLOAD);
            q
        }
    }
}

/// Runs the adversarial workload; blocks until every thread finishes.
pub fn assault(config: AttackConfig) -> io::Result<AttackReport> {
    let start = Instant::now();
    let tallies = fan_out(config.concurrency, config.queries, |t, _first, share| {
        attacker_loop(&config, t, share)
    })?;
    let mut report = AttackReport { elapsed: start.elapsed(), ..Default::default() };
    for tally in tallies {
        report.sent += tally.sent;
        report.received += tally.received;
        report.timeouts += tally.timeouts;
        report.mismatched += tally.mismatched;
        report.tc_slips += tally.tc_slips;
        report.bytes_sent += tally.bytes_sent;
        report.bytes_received += tally.bytes_received;
    }
    Ok(report)
}

/// One closed-loop attacker thread; its tally is an [`AttackReport`]
/// with no `elapsed`.
fn attacker_loop(config: &AttackConfig, thread: usize, queries: u64) -> io::Result<AttackReport> {
    let pool = if config.mode == AttackMode::SpoofedBurst { config.spoofed_sources.max(1) } else { 1 };
    let mut sockets = Vec::with_capacity(pool);
    for _ in 0..pool {
        let socket = UdpSocket::bind(unspecified_for(&config.target))?;
        socket.connect(config.target)?;
        socket.set_read_timeout(Some(config.timeout))?;
        sockets.push(socket);
    }

    let mut rng = DetRng::seed_from_u64(thread_stream(config.seed, thread));
    let mut send_buf = Vec::with_capacity(512);
    let mut recv_buf = vec![0u8; 4096];
    let mut tally = AttackReport::default();
    let producer = config.collector.as_ref().map(|c| c.producer());
    let trace = producer.as_ref().map(|producer| ExchangeTrace {
        producer,
        client_token: splitmix64(thread_stream(0x6174_746b, thread)),
        auth_id: config.trace_auth_id,
        flags: FLAG_ATTACK,
    });

    for n in 0..queries {
        let id = (n % u64::from(u16::MAX)) as u16;
        let query = attack_query(&mut rng, config, id);
        // The socket draw is part of the deterministic schedule too:
        // made for every query (not just spoof mode) so a mode's name
        // stream does not shift when the pool size changes.
        let socket = &sockets[rng.gen_range(0..pool as u64) as usize];
        encode_query(&query, &mut send_buf)?;
        let got = exchange(socket, &send_buf, id, config.timeout, &mut recv_buf, trace.as_ref())?;
        tally.sent += 1;
        tally.bytes_sent += send_buf.len() as u64;
        tally.mismatched += got.mismatched;
        match got.reply_len {
            Some(len) => {
                tally.received += 1;
                tally.bytes_received += len as u64;
                tally.tc_slips += u64::from(got.truncated);
            }
            None => tally.timeouts += 1,
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use dnswild_server::{RateLimitPolicy, RrlScope, TruncationPolicy};
    use dnswild_zone::presets::attack_test_domain_zone;

    fn origin() -> Name {
        Name::parse("ourtestdomain.nl").unwrap()
    }

    fn attack_zone(delegation_ns: usize) -> Arc<Vec<dnswild_zone::Zone>> {
        Arc::new(vec![attack_test_domain_zone(&origin(), 2, delegation_ns)])
    }

    #[test]
    fn attack_schedules_replay_byte_identically_per_seed() {
        let cfg = |seed| {
            AttackConfig::new("127.0.0.1:1".parse().unwrap(), origin(), AttackMode::NxdomainFlood)
                .seed(seed)
        };
        let qnames = |seed: u64| {
            let cfg = cfg(seed);
            let mut rng = DetRng::seed_from_u64(seed);
            (0..32u64)
                .map(|n| attack_query(&mut rng, &cfg, n as u16).questions[0].qname.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(qnames(2017), qnames(2017));
        assert_ne!(qnames(2017), qnames(2018));
        // Every water-torture name sits under the NXDOMAIN anchor.
        assert!(qnames(2017)
            .iter()
            .all(|q| q.trim_end_matches('.').ends_with("void.ourtestdomain.nl")));
    }

    #[test]
    fn nxdomain_flood_is_all_nxdomains_without_rrl() {
        let handle =
            serve(ServeConfig::new("127.0.0.1:0", "FRA", attack_zone(2)).threads(2)).unwrap();
        let report = assault(
            AttackConfig::new(handle.local_addr(), origin(), AttackMode::NxdomainFlood)
                .concurrency(2)
                .queries(200),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert_eq!(report.sent, 200);
        assert!(report.all_accounted(), "{report:?}");
        assert_eq!(report.received, 200, "no limiter, so every flood query is answered");
        assert_eq!(report.tc_slips, 0);
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
        let report = assault(
            AttackConfig::new(handle.local_addr(), origin(), AttackMode::NxnsReferral)
                .concurrency(2)
                .queries(100),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert!(report.all_accounted(), "{report:?}");
        assert_eq!(report.received, 100);
        assert_eq!(stats.referrals, 100);
        assert_eq!(report.tc_slips, 0, "EDNS 4096 keeps the fat referral un-truncated");
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
        let report = assault(
            AttackConfig::new(handle.local_addr(), origin(), AttackMode::NxdomainFlood)
                .concurrency(1)
                .queries(60)
                .timeout(Duration::from_millis(40)),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert!(report.all_accounted(), "{report:?}");
        // 10 answered on the burst, then 50 limited: drop/slip
        // alternating from drop → 25 slips, 25 drops.
        assert_eq!(report.tc_slips, 25);
        assert_eq!(report.timeouts, 25);
        assert_eq!(report.received, 35);
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
        let report = assault(
            AttackConfig::new(handle.local_addr(), origin(), AttackMode::SpoofedBurst)
                .concurrency(1)
                .queries(24)
                .spoofed_sources(8)
                .timeout(Duration::from_millis(40)),
        )
        .unwrap();
        let stats = handle.shutdown();
        assert!(report.all_accounted(), "{report:?}");
        assert_eq!(report.received, 8, "one shared bucket across all 8 source ports");
        assert_eq!(report.timeouts, 16, "slip=0 never slips: the rest are silent drops");
        assert_eq!(stats.rrl_dropped, 16);
        assert_eq!(stats.bucket_evictions, 0);
    }

    #[test]
    fn attack_mode_names_round_trip() {
        for mode in [AttackMode::NxdomainFlood, AttackMode::NxnsReferral, AttackMode::SpoofedBurst] {
            assert_eq!(mode.name().parse::<AttackMode>().unwrap(), mode);
        }
        assert!("slowloris".parse::<AttackMode>().is_err());
    }
}
