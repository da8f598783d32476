//! The recursive resolver actor.
//!
//! This is the R in the paper's Figure 1: it accepts stub queries from
//! clients, answers from its record cache when possible, and otherwise
//! queries one of the zone's authoritative servers — chosen by its
//! [`SelectionPolicy`] fed from its infrastructure cache. Timeouts are
//! retried against other servers with exponential SRTT penalties, like
//! real implementations.
//!
//! Delegations can be configured up front (`add_delegation`, the
//! measurement harness's mode — the paper's experiments begin after the
//! recursive knows the NS set) or discovered by following referrals from
//! a configured parent, with learned delegations cached for their NS
//! TTL. Oversized UDP answers arrive truncated and are retried over the
//! TCP-like transport. Two simplifications: glueless referrals are not
//! chased (out-of-bailiwick NS resolution), and answers relayed to stubs
//! are not re-truncated (simulated stubs accept any size).

use std::any::Any;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dnswild_netsim::{Actor, Context, Datagram, SimAddr, SimDuration, SimTime};
use dnswild_proto::{
    Class, Header, Message, MessageWriter, Name, Question, RData, RType, Rcode,
    Record, Section, DEFAULT_EDNS_PAYLOAD,
};

use dnswild_cache::{negative_ttl, CacheTime, RecordCache};

use crate::infra::InfraCache;
use crate::policy::{PolicyKind, SelectionPolicy};

/// Lowers a simulation instant onto the cache's plane-neutral timeline
/// (both are microseconds past their epoch, so this is a unit change,
/// not an approximation — sim outputs stay bit-identical).
fn cache_now(now: SimTime) -> CacheTime {
    CacheTime::from_micros(now.as_micros())
}

/// Tunables of a recursive resolver.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Which selection algorithm this resolver runs.
    pub policy: PolicyKind,
    /// Infrastructure-cache expiry; defaults to the policy's
    /// implementation-typical value.
    pub infra_expiry: Option<SimDuration>,
}

/// Retransmission timeout for servers with no RTT history.
const INITIAL_RTO: SimDuration = SimDuration::from_millis(376);
/// Lower clamp on per-server RTO.
const RTO_FLOOR: SimDuration = SimDuration::from_millis(50);
/// Upper clamp on per-server RTO.
const RTO_CEIL: SimDuration = SimDuration::from_secs(5);
/// Total attempts (first try plus retries) before SERVFAIL.
const MAX_TRIES: u32 = 4;
/// The identity string returned for CHAOS-class `hostname.bind` /
/// `id.server` queries.
const IDENTITY: &str = "recursive.invalid";

impl ResolverConfig {
    /// The implementation-typical configuration for a policy family.
    pub fn for_policy(policy: PolicyKind) -> Self {
        ResolverConfig { policy, infra_expiry: policy.default_infra_expiry() }
    }
}

/// Counters a resolver keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries received from stubs.
    pub stub_queries: u64,
    /// Answered straight from the record cache.
    pub cache_hits: u64,
    /// Queries sent upstream to authoritatives.
    pub upstream_queries: u64,
    /// Upstream retransmissions after timeouts.
    pub retries: u64,
    /// SERVFAIL responses returned to stubs.
    pub servfails: u64,
    /// Responses returned to stubs (any rcode).
    pub responses: u64,
    /// Upstream responses that matched no pending query (late arrivals).
    pub late_responses: u64,
    /// Upstream REFUSED/SERVFAIL responses (lame or broken servers).
    pub lame_responses: u64,
    /// Truncated UDP responses retried over TCP.
    pub tcp_fallbacks: u64,
}

/// One successful upstream exchange, as the resolver experienced it.
/// This is the data Table 2's "median RTT" column is built from.
#[derive(Debug, Clone)]
pub struct UpstreamSample {
    /// When the response arrived.
    pub time: SimTime,
    /// The authoritative address queried.
    pub server: SimAddr,
    /// Measured RTT of this exchange.
    pub rtt: SimDuration,
}

#[derive(Debug)]
struct Pending {
    stub_addr: SimAddr,
    stub_id: u16,
    qname: Name,
    qtype: RType,
    /// Server of the current (most recent) attempt.
    server: SimAddr,
    /// Every attempt so far: a late response from an earlier attempt is
    /// still a valid answer (real resolvers keep the socket open), so
    /// retrying must not orphan in-flight responses.
    attempts: Vec<(SimAddr, SimTime)>,
    tries: u32,
    attempt: u64,
    excluded: Vec<SimAddr>,
    /// Referrals followed so far (bounded to stop delegation loops).
    referrals: u32,
    /// Whether the current attempt runs over TCP (after a TC response).
    tcp: bool,
}

/// Hashes a query ID with one multiply: the resolver picks its own IDs,
/// so there is no adversary for SipHash to defend the table against.
#[derive(Default)]
struct QidHasher(u64);

impl Hasher for QidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u16(b.into());
        }
    }

    fn write_u16(&mut self, qid: u16) {
        // Fibonacci hashing spreads the ID into the high bits, which the
        // table's probe groups are keyed on.
        self.0 = (self.0 ^ u64::from(qid)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Where queries go: the configured zone cuts, plus those learned from
/// referrals.
#[derive(Debug, Default)]
struct Delegations {
    /// Configured up front (`add_delegation`); never expire.
    hints: Vec<(Name, Vec<SimAddr>)>,
    /// Learned from referrals, with their expiry (the NS TTL). Bounded:
    /// every referral prunes what has expired before adding its own, so
    /// this holds the live delegations plus at most those that expired
    /// since the last referral.
    learned: Vec<(Name, Vec<SimAddr>, SimTime)>,
}

impl Delegations {
    /// The servers of the deepest delegation covering `qname`: a hint,
    /// or a live learned delegation strictly deeper than every hint.
    fn delegation_for(&self, qname: &Name, now: SimTime) -> Option<&[SimAddr]> {
        let hint = self
            .hints
            .iter()
            .filter(|(origin, _)| qname.is_subdomain_of(origin))
            .max_by_key(|(origin, _)| origin.label_count());
        let learned = self
            .learned
            .iter()
            .filter(|(origin, _, expires)| *expires > now && qname.is_subdomain_of(origin))
            .max_by_key(|(origin, ..)| origin.label_count());
        match (hint, learned) {
            (Some((ho, _)), Some((lo, ls, _))) if lo.label_count() > ho.label_count() => Some(ls),
            (Some((_, hs)), _) => Some(hs),
            (None, Some((_, ls, _))) => Some(ls),
            (None, None) => None,
        }
    }

    /// Records a referral's delegation of `child`, replacing any earlier
    /// one for it and dropping every entry expired at `now`.
    fn learn(&mut self, child: Name, servers: Vec<SimAddr>, expires: SimTime, now: SimTime) {
        self.learned.retain(|(origin, _, until)| *until > now && *origin != child);
        self.learned.push((child, servers, expires));
    }
}

/// The recursive resolver actor.
pub struct RecursiveResolver {
    policy: Box<dyn SelectionPolicy>,
    infra: InfraCache,
    cache: RecordCache,
    delegations: Delegations,
    pending: HashMap<u16, Pending, BuildHasherDefault<QidHasher>>,
    next_qid: u16,
    stats: ResolverStats,
    samples: Vec<UpstreamSample>,
}

impl RecursiveResolver {
    /// Creates a resolver with the given configuration.
    pub fn new(config: ResolverConfig) -> Self {
        let policy = config.policy.build();
        let infra = InfraCache::new(config.infra_expiry, config.policy.smoothing());
        RecursiveResolver {
            policy,
            infra,
            cache: RecordCache::new(),
            delegations: Delegations::default(),
            pending: HashMap::default(),
            next_qid: 1,
            stats: ResolverStats::default(),
            samples: Vec::new(),
        }
    }

    /// Convenience: a resolver with the policy's default configuration.
    pub fn with_policy(policy: PolicyKind) -> Self {
        RecursiveResolver::new(ResolverConfig::for_policy(policy))
    }

    /// Teaches the resolver the NS addresses serving `origin`.
    pub fn add_delegation(&mut self, origin: Name, servers: Vec<SimAddr>) {
        assert!(!servers.is_empty(), "a delegation needs at least one server");
        self.delegations.hints.push((origin, servers));
    }

    /// Counters.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// All successful upstream exchanges, oldest first.
    pub fn samples(&self) -> &[UpstreamSample] {
        &self.samples
    }

    /// Moves the recorded exchanges out (oldest first), leaving none —
    /// for a harvest that would otherwise copy them.
    pub fn take_samples(&mut self) -> Vec<UpstreamSample> {
        std::mem::take(&mut self.samples)
    }

    /// The infrastructure cache (inspection/testing).
    pub fn infra(&self) -> &InfraCache {
        &self.infra
    }

    /// The delegations learned from referrals so far (origin, servers),
    /// live entries only.
    pub fn learned_delegations(&self, now: SimTime) -> Vec<(Name, Vec<SimAddr>)> {
        self.delegations
            .learned
            .iter()
            .filter(|(_, _, expires)| *expires > now)
            .map(|(origin, servers, _)| (origin.clone(), servers.clone()))
            .collect()
    }

    fn alloc_qid(&mut self) -> u16 {
        loop {
            let qid = self.next_qid;
            self.next_qid = self.next_qid.wrapping_add(1).max(1);
            if !self.pending.contains_key(&qid) {
                return qid;
            }
        }
    }

    fn rto_for(&self, server: SimAddr, now: SimTime) -> SimDuration {
        match self.infra.peek(server, now) {
            Some(e) if e.measured => e.rto(RTO_FLOOR, RTO_CEIL),
            _ => INITIAL_RTO,
        }
    }

    fn send_upstream(&mut self, ctx: &mut Context<'_>, qid: u16) {
        let p = &self.pending[&qid];
        let (server, attempt, tcp) = (p.server, p.attempt, p.tcp);
        let bytes = write_iterative_query(ctx.buffer(), qid, &p.qname, p.qtype);
        // TCP exchanges take roughly three one-way delays; stretch the
        // retransmission budget accordingly.
        let rto = if tcp {
            self.rto_for(server, ctx.now()).saturating_mul(2)
        } else {
            self.rto_for(server, ctx.now())
        };
        self.stats.upstream_queries += 1;
        let own = ctx.own_addr();
        if tcp {
            ctx.send_tcp(own, server, bytes);
        } else {
            ctx.send(own, server, bytes);
        }
        ctx.set_timer(rto, timer_token(qid, attempt));
    }

    #[allow(clippy::too_many_arguments)]
    fn answer_stub(
        &mut self,
        ctx: &mut Context<'_>,
        stub_addr: SimAddr,
        stub_id: u16,
        qname: &Name,
        qtype: RType,
        answers: &[Record],
        rcode: Rcode,
    ) {
        let bytes = write_stub_answer(ctx.buffer(), stub_id, qname, qtype, answers, rcode);
        self.stats.responses += 1;
        if rcode == Rcode::ServFail {
            self.stats.servfails += 1;
        }
        let own = ctx.own_addr();
        ctx.send(own, stub_addr, bytes);
    }

    fn handle_stub_query(&mut self, ctx: &mut Context<'_>, src: SimAddr, mut query: Message) {
        let Some(first) = query.question() else {
            return; // nothing to answer
        };
        self.stats.stub_queries += 1;
        let now = ctx.now();

        // CHAOS-class identification is answered by the recursive ITSELF,
        // never forwarded — the reason the paper's measurement uses
        // Internet-class TXT queries instead of the classic
        // `hostname.bind` trick (§3.1): a CHAOS probe identifies your
        // recursive, not the authoritative site behind it.
        if first.qclass == Class::Ch {
            let qname_str = first.qname.to_string().to_ascii_lowercase();
            let mut resp = Message::response_to(&query, Rcode::NoError);
            resp.header.recursion_available = true;
            if first.qtype == RType::Txt
                && (qname_str == "hostname.bind." || qname_str == "id.server.")
            {
                resp.answers.push(Record::with_class(
                    first.qname.clone(),
                    Class::Ch,
                    0,
                    RData::Txt(
                        dnswild_proto::rdata::Txt::from_string(IDENTITY)
                            .expect("identity fits in a TXT string"),
                    ),
                ));
            } else {
                resp.header.rcode = Rcode::Refused;
            }
            self.stats.responses += 1;
            let own = ctx.own_addr();
            let mut bytes = ctx.buffer();
            resp.encode_into(&mut bytes).expect("response encodes");
            ctx.send(own, src, bytes);
            return;
        }

        let stub_id = query.header.id;
        let Question { qname, qtype, .. } = query.questions.swap_remove(0);
        if let Some(cached) = self.cache.get(&qname, qtype, cache_now(now)) {
            self.stats.cache_hits += 1;
            self.answer_stub(ctx, src, stub_id, &qname, qtype, &cached.answers, cached.rcode);
            return;
        }

        let Some(servers) = self.delegations.delegation_for(&qname, now) else {
            self.answer_stub(ctx, src, stub_id, &qname, qtype, &[], Rcode::ServFail);
            return;
        };

        let server = self.policy.select(servers, &[], &mut self.infra, now, ctx.rng());
        let qid = self.alloc_qid();
        self.pending.insert(
            qid,
            Pending {
                stub_addr: src,
                stub_id,
                qname,
                qtype,
                server,
                attempts: vec![(server, now)],
                tries: 1,
                attempt: 0,
                excluded: Vec::new(),
                referrals: 0,
                tcp: false,
            },
        );
        self.send_upstream(ctx, qid);
    }

    fn handle_upstream_response(&mut self, ctx: &mut Context<'_>, src: SimAddr, resp: Message) {
        let qid = resp.header.id;
        let Some(p) = self.pending.get_mut(&qid) else {
            self.stats.late_responses += 1;
            return;
        };
        // Guard against spoofed/mismatched responses: the source must be
        // a server we actually queried for this qid (any attempt — a
        // slow first server may answer after we already retried another)
        // and the question must match.
        let attempt_sent_at =
            p.attempts.iter().rev().find(|&&(s, _)| s == src).map(|&(_, at)| at);
        let question_matches =
            resp.question().map(|q| (&q.qname, q.qtype)) == Some((&p.qname, p.qtype));
        let Some(attempt_sent_at) = attempt_sent_at.filter(|_| question_matches) else {
            self.stats.late_responses += 1;
            return;
        };
        // Lame or broken server: it answered, but uselessly (REFUSED —
        // e.g. not actually serving the zone — or SERVFAIL). Real
        // resolvers penalize such servers and retry another; only after
        // exhausting the NS set does the error reach the stub.
        let rcode = resp.rcode();
        if rcode == Rcode::Refused || rcode == Rcode::ServFail {
            self.stats.lame_responses += 1;
            self.retry_elsewhere(ctx, qid, src);
            return;
        }

        // Truncated: the answer did not fit in UDP — retry the SAME
        // server over TCP (RFC 1035 §4.2.2 behaviour).
        if resp.header.truncated && !p.tcp {
            self.stats.tcp_fallbacks += 1;
            let now = ctx.now();
            // The exchange still measured the server's distance.
            self.infra.observe_rtt(src, now.since(attempt_sent_at), now);
            p.tcp = true;
            p.server = src;
            p.attempts.push((src, now));
            p.attempt += 1;
            self.send_upstream(ctx, qid);
            return;
        }

        // A referral: NOERROR, no answers, NS records in the authority
        // section delegating a zone that covers our qname. Learn the
        // child delegation and re-dispatch the query to it.
        if rcode == Rcode::NoError && resp.answers.is_empty() {
            if let Some((child, servers, ttl)) = extract_referral(&resp, &p.qname) {
                let now = ctx.now();
                // The referring server did answer: record its RTT.
                let rtt = now.since(attempt_sent_at);
                self.infra.observe_rtt(src, rtt, now);
                if p.referrals >= 4 {
                    self.give_up(ctx, qid);
                    return;
                }
                p.referrals += 1;
                p.excluded.clear();
                let next =
                    self.policy.select(&servers, &[], &mut self.infra, now, ctx.rng());
                let expires = now + SimDuration::from_secs(ttl as u64);
                self.delegations.learn(child, servers, expires, now);
                p.server = next;
                p.attempts.push((next, now));
                p.attempt += 1;
                self.send_upstream(ctx, qid);
                return;
            }
        }

        let p = self.pending.remove(&qid).expect("checked above");
        let now = ctx.now();
        let rtt = now.since(attempt_sent_at);
        self.infra.observe_rtt(src, rtt, now);
        self.samples.push(UpstreamSample { time: now, server: src, rtt });

        // Answer first, then move the reply into the cache: the entry
        // `insert_reply` would make, without copying name or records.
        self.answer_stub(ctx, p.stub_addr, p.stub_id, &p.qname, p.qtype, &resp.answers, rcode);
        let negative_ttl = negative_ttl(&resp);
        self.cache.insert(p.qname, p.qtype, resp.answers, rcode, negative_ttl, cache_now(now));
    }

    fn handle_timeout(&mut self, ctx: &mut Context<'_>, qid: u16, attempt: u64) {
        let Some(p) = self.pending.get(&qid) else {
            return; // already answered
        };
        if p.attempt != attempt {
            return; // stale timer from an earlier attempt
        }
        let failed_server = p.server;
        self.retry_elsewhere(ctx, qid, failed_server);
    }

    /// Gives up on a pending query: SERVFAIL to its stub.
    fn give_up(&mut self, ctx: &mut Context<'_>, qid: u16) {
        let p = self.pending.remove(&qid).expect("pending query exists");
        self.answer_stub(ctx, p.stub_addr, p.stub_id, &p.qname, p.qtype, &[], Rcode::ServFail);
    }

    /// `failed_server` let a pending query down — it timed out, or
    /// answered uselessly. Penalize it, then either give up (the query
    /// has used its `MAX_TRIES`) or re-select among the zone's servers,
    /// avoiding every one that already failed this query, and resend.
    fn retry_elsewhere(&mut self, ctx: &mut Context<'_>, qid: u16, failed_server: SimAddr) {
        let now = ctx.now();
        self.infra.observe_timeout(failed_server, now);
        let p = self.pending.get_mut(&qid).expect("pending query exists");
        if p.tries >= MAX_TRIES {
            self.give_up(ctx, qid);
            return;
        }
        self.stats.retries += 1;
        let servers = self
            .delegations
            .delegation_for(&p.qname, now)
            .expect("delegation existed when the query started");
        p.excluded.push(failed_server);
        p.server = self.policy.select(servers, &p.excluded, &mut self.infra, now, ctx.rng());
        p.attempts.push((p.server, now));
        p.tries += 1;
        p.attempt += 1;
        self.send_upstream(ctx, qid);
    }
}

/// Recognizes a referral for `qname`: authority NS records whose owner
/// is an ancestor of (or equal to) `qname`, with in-message glue for at
/// least one NS target. Returns the child origin, glue addresses, and
/// the NS TTL.
fn extract_referral(resp: &Message, qname: &Name) -> Option<(Name, Vec<SimAddr>, u32)> {
    let mut child: Option<(&Name, u32)> = None;
    let mut targets: Vec<&Name> = Vec::new();
    for rec in &resp.authorities {
        if let RData::Ns(ns) = &rec.rdata {
            if qname.is_subdomain_of(&rec.name) {
                match child {
                    Some((existing, _)) if existing != &rec.name => continue,
                    _ => {}
                }
                child = Some((&rec.name, rec.ttl));
                targets.push(ns.name());
            }
        }
    }
    let (child, ttl) = child?;
    let mut servers = Vec::new();
    for rec in &resp.additionals {
        let matches_target = targets.contains(&&rec.name);
        if !matches_target {
            continue;
        }
        let addr = match &rec.rdata {
            RData::A(a) => SimAddr::from_ipv4(a.addr()),
            RData::Aaaa(a) => SimAddr::from_ipv6(a.addr()),
            _ => None,
        };
        if let Some(addr) = addr {
            if !servers.contains(&addr) {
                servers.push(addr);
            }
        }
    }
    if servers.is_empty() {
        // Glueless referral: resolving out-of-bailiwick NS names is out
        // of scope for this reproduction (documented in DESIGN.md).
        return None;
    }
    Some((child.clone(), servers, ttl))
}

/// Writes into `buf` the query a recursive sends upstream: the bytes of
/// `Message::iterative_query(qid, qname, qtype).encode()`, with no
/// `Message` built and the name borrowed.
fn write_iterative_query(buf: Vec<u8>, qid: u16, qname: &Name, qtype: RType) -> Vec<u8> {
    let mut w = MessageWriter::new(buf, &Header { id: qid, ..Header::default() });
    w.question_parts(qname, qtype, Class::In).expect("query encodes");
    w.edns(DEFAULT_EDNS_PAYLOAD).expect("query encodes");
    w.finish()
}

/// Writes into `buf` a recursive's answer to a stub: the bytes of the
/// `Message` with this header, question and answers and an EDNS OPT,
/// with the records borrowed rather than moved into one.
fn write_stub_answer(
    buf: Vec<u8>,
    stub_id: u16,
    qname: &Name,
    qtype: RType,
    answers: &[Record],
    rcode: Rcode,
) -> Vec<u8> {
    let header = Header {
        id: stub_id,
        response: true,
        recursion_desired: true,
        recursion_available: true,
        rcode,
        ..Header::default()
    };
    let mut w = MessageWriter::new(buf, &header);
    w.question_parts(qname, qtype, Class::In).expect("response encodes");
    for r in answers {
        w.record(Section::Answer, &r.name, r.class, r.ttl, &r.rdata).expect("response encodes");
    }
    w.edns(DEFAULT_EDNS_PAYLOAD).expect("response encodes");
    w.finish()
}

fn timer_token(qid: u16, attempt: u64) -> u64 {
    ((qid as u64) << 32) | (attempt & 0xffff_ffff)
}

fn token_parts(token: u64) -> (u16, u64) {
    ((token >> 32) as u16, token & 0xffff_ffff)
}

impl Actor for RecursiveResolver {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let decoded = Message::decode(&dgram.payload);
        ctx.recycle(dgram.payload);
        let Ok(msg) = decoded else {
            return; // garbage in, nothing out
        };
        if msg.is_response() {
            self.handle_upstream_response(ctx, dgram.src, msg);
        } else {
            self.handle_stub_query(ctx, dgram.src, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let (qid, attempt) = token_parts(token);
        self.handle_timeout(ctx, qid, attempt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_netsim::geo::datacenters;
    use dnswild_netsim::{HostConfig, LatencyConfig, Simulator};
    use dnswild_server::AuthoritativeServer;
    use dnswild_zone::presets::test_domain_zone;

    /// A stub client that fires a sequence of queries on a timer and
    /// records the answers.
    struct Stub {
        resolver: SimAddr,
        interval: SimDuration,
        total: u32,
        sent: u32,
        responses: Vec<Message>,
        origin: Name,
    }

    impl Stub {
        fn query_name(&self, i: u32) -> Name {
            self.origin.prepend(&format!("probe-{i}")).unwrap()
        }
    }

    impl Actor for Stub {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            if self.sent >= self.total {
                return;
            }
            let qname = self.query_name(self.sent);
            let q = Message::stub_query(self.sent as u16 + 1, qname, RType::Txt);
            let own = ctx.own_addr();
            ctx.send(own, self.resolver, q.encode().unwrap());
            self.sent += 1;
            if self.sent < self.total {
                ctx.set_timer(self.interval, 0);
            }
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, dgram: Datagram) {
            self.responses.push(Message::decode(&dgram.payload).unwrap());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct TestNet {
        sim: Simulator,
        stub_host: dnswild_netsim::HostId,
        resolver_host: dnswild_netsim::HostId,
        server_addrs: Vec<SimAddr>,
    }

    /// Builds: stub in Amsterdam-ish (uses DUB), resolver at DUB, and
    /// authoritatives at the given datacenters.
    fn build_net(
        seed: u64,
        policy: PolicyKind,
        sites: &[&dnswild_netsim::Place],
        queries: u32,
        interval: SimDuration,
        loss: f64,
    ) -> TestNet {
        let mut sim = Simulator::with_latency(
            seed,
            LatencyConfig { loss_rate: loss, jitter_mean_ms: 0.5, ..LatencyConfig::default() },
        );
        let origin = Name::parse("ourtestdomain.nl").unwrap();

        let mut server_addrs = Vec::new();
        for site in sites {
            let zone = test_domain_zone(&origin, sites.len());
            let h = sim.add_host(
                HostConfig::at_place(site, SimDuration::from_millis(1), 64500),
                Box::new(AuthoritativeServer::new(site.code, vec![zone])),
            );
            server_addrs.push(sim.bind_unicast(h));
        }

        let mut resolver = RecursiveResolver::with_policy(policy);
        resolver.add_delegation(origin.clone(), server_addrs.clone());
        let resolver_host = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 64501),
            Box::new(resolver),
        );
        let resolver_addr = sim.bind_unicast(resolver_host);

        let stub_host = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 64502),
            Box::new(Stub {
                resolver: resolver_addr,
                interval,
                total: queries,
                sent: 0,
                responses: vec![],
                origin,
            }),
        );
        sim.bind_unicast(stub_host);
        TestNet { sim, stub_host, resolver_host, server_addrs }
    }

    fn site_of(m: &Message) -> String {
        let RData::Txt(t) = &m.answers[0].rdata else { panic!("no TXT answer: {m:?}") };
        t.first_as_string()
    }

    #[test]
    fn end_to_end_stub_gets_branded_answer() {
        let mut net = build_net(
            1,
            PolicyKind::BindSrtt,
            &[&datacenters::FRA, &datacenters::SYD],
            1,
            SimDuration::from_mins(2),
            0.0,
        );
        net.sim.run_until_idle();
        let stub = net.sim.actor::<Stub>(net.stub_host).unwrap();
        assert_eq!(stub.responses.len(), 1);
        let resp = &stub.responses[0];
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.header.recursion_available);
        assert!(site_of(resp).starts_with("site="));
    }

    #[test]
    fn bind_resolver_converges_on_nearest_server() {
        let mut net = build_net(
            2,
            PolicyKind::BindSrtt,
            &[&datacenters::FRA, &datacenters::SYD],
            30,
            SimDuration::from_mins(2),
            0.0,
        );
        net.sim.run_until_idle();
        let stub = net.sim.actor::<Stub>(net.stub_host).unwrap();
        assert_eq!(stub.responses.len(), 30);
        let fra = stub.responses.iter().filter(|m| site_of(m) == "site=FRA").count();
        assert!(fra >= 25, "DUB resolver should strongly prefer FRA over SYD, got {fra}/30");
    }

    #[test]
    fn resolver_explores_both_servers() {
        let mut net = build_net(
            3,
            PolicyKind::BindSrtt,
            &[&datacenters::FRA, &datacenters::SYD],
            30,
            SimDuration::from_mins(2),
            0.0,
        );
        net.sim.run_until_idle();
        let resolver = net.sim.actor::<RecursiveResolver>(net.resolver_host).unwrap();
        let servers: std::collections::HashSet<_> =
            resolver.samples().iter().map(|s| s.server).collect();
        assert_eq!(servers.len(), 2, "cold-cache exploration touches every NS");
    }

    #[test]
    fn cache_hit_on_repeated_name() {
        // Two queries for the SAME name, 1s apart (TTL is 5s): the second
        // must be served from cache without an upstream query.
        struct RepeatStub {
            resolver: SimAddr,
            responses: Vec<Message>,
        }
        impl Actor for RepeatStub {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::ZERO, 0);
                ctx.set_timer(SimDuration::from_secs(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                let qname = Name::parse("same-label.ourtestdomain.nl").unwrap();
                let q = Message::stub_query(token as u16 + 1, qname, RType::Txt);
                let own = ctx.own_addr();
                ctx.send(own, self.resolver, q.encode().unwrap());
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, d: Datagram) {
                self.responses.push(Message::decode(&d.payload).unwrap());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Simulator::with_latency(
            4,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zone = test_domain_zone(&origin, 1);
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("FRA", vec![zone])),
        );
        let saddr = sim.bind_unicast(sh);
        let mut resolver = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
        resolver.add_delegation(origin, vec![saddr]);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 3),
            Box::new(RepeatStub { resolver: raddr, responses: vec![] }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();

        let stub = sim.actor::<RepeatStub>(ch).unwrap();
        assert_eq!(stub.responses.len(), 2);
        let resolver = sim.actor::<RecursiveResolver>(rh).unwrap();
        assert_eq!(resolver.stats().cache_hits, 1);
        assert_eq!(resolver.stats().upstream_queries, 1);
    }

    #[test]
    fn no_delegation_yields_servfail() {
        let mut sim = Simulator::with_latency(
            5,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let resolver = RecursiveResolver::with_policy(PolicyKind::UniformRandom);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);
        let origin = Name::parse("unknown-zone.example").unwrap();
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 3),
            Box::new(Stub {
                resolver: raddr,
                interval: SimDuration::from_secs(1),
                total: 1,
                sent: 0,
                responses: vec![],
                origin,
            }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        let stub = sim.actor::<Stub>(ch).unwrap();
        assert_eq!(stub.responses.len(), 1);
        assert_eq!(stub.responses[0].rcode(), Rcode::ServFail);
    }

    #[test]
    fn dead_servers_exhaust_retries_then_servfail() {
        /// Swallows every datagram: a server that is down.
        struct BlackHole;
        impl Actor for BlackHole {
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Simulator::with_latency(
            6,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let mut server_addrs = Vec::new();
        for site in [&datacenters::FRA, &datacenters::SYD] {
            let h = sim.add_host(
                HostConfig::at_place(site, SimDuration::from_millis(1), 1),
                Box::new(BlackHole),
            );
            server_addrs.push(sim.bind_unicast(h));
        }
        let mut resolver = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
        resolver.add_delegation(origin.clone(), server_addrs);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 3),
            Box::new(Stub {
                resolver: raddr,
                interval: SimDuration::from_mins(2),
                total: 1,
                sent: 0,
                responses: vec![],
                origin,
            }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();

        let resolver = sim.actor::<RecursiveResolver>(rh).unwrap();
        let stats = resolver.stats();
        assert_eq!(stats.upstream_queries, 4, "MAX_TRIES attempts made");
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.servfails, 1);
        let stub = sim.actor::<Stub>(ch).unwrap();
        assert_eq!(stub.responses.len(), 1);
        assert_eq!(stub.responses[0].rcode(), Rcode::ServFail);
    }

    #[test]
    fn partial_loss_recovers_via_retry() {
        // 10% loss hits every leg, including stub↔resolver (which has no
        // retry of its own). The invariant that matters: every stub query
        // the resolver actually received gets answered, thanks to
        // upstream retries.
        let mut net = build_net(
            7,
            PolicyKind::UniformRandom,
            &[&datacenters::FRA, &datacenters::DUB],
            20,
            SimDuration::from_secs(30),
            0.10,
        );
        net.sim.run_until_idle();
        let resolver = net.sim.actor::<RecursiveResolver>(net.resolver_host).unwrap();
        let stats = resolver.stats();
        assert_eq!(
            stats.responses, stats.stub_queries,
            "every received query answered despite loss"
        );
        assert_eq!(stats.servfails, 0, "retries absorbed the loss");
        let stub = net.sim.actor::<Stub>(net.stub_host).unwrap();
        assert!(stub.responses.len() >= 12, "got {}", stub.responses.len());
    }

    #[test]
    fn rtt_samples_recorded_per_server() {
        let mut net = build_net(
            8,
            PolicyKind::UniformRandom,
            &[&datacenters::FRA, &datacenters::SYD],
            20,
            SimDuration::from_secs(10),
            0.0,
        );
        net.sim.run_until_idle();
        let resolver = net.sim.actor::<RecursiveResolver>(net.resolver_host).unwrap();
        assert_eq!(resolver.samples().len(), 20);
        // FRA (near DUB) samples must be well below SYD samples.
        let fra_addr = net.server_addrs[0];
        let syd_addr = net.server_addrs[1];
        let mean = |addr: SimAddr| {
            let v: Vec<f64> = resolver
                .samples()
                .iter()
                .filter(|s| s.server == addr)
                .map(|s| s.rtt.as_millis_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(fra_addr) * 3.0 < mean(syd_addr), "fra {} syd {}", mean(fra_addr), mean(syd_addr));
    }

    #[test]
    fn truncated_udp_answer_retried_over_tcp() {
        use dnswild_proto::rdata::Txt;
        use dnswild_proto::Record;

        let mut sim = Simulator::with_latency(
            41,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let mut zone = test_domain_zone(&origin, 1);
        // An answer far larger than the 1232-byte EDNS payload.
        let big_strings: Vec<Vec<u8>> = (0..8).map(|i| vec![b'a' + i as u8; 250]).collect();
        zone.insert(Record::new(
            origin.prepend("big").unwrap(),
            60,
            RData::Txt(Txt::new(big_strings).unwrap()),
        ));

        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("FRA", vec![zone])),
        );
        let saddr = sim.bind_unicast(sh);
        let mut resolver = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
        resolver.add_delegation(origin.clone(), vec![saddr]);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);

        struct BigStub {
            resolver: SimAddr,
            origin: Name,
            response: Option<Message>,
        }
        impl Actor for BigStub {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let q = Message::stub_query(1, self.origin.prepend("big").unwrap(), RType::Txt);
                let own = ctx.own_addr();
                ctx.send(own, self.resolver, q.encode().unwrap());
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, d: Datagram) {
                self.response = Some(Message::decode(&d.payload).unwrap());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 3),
            Box::new(BigStub { resolver: raddr, origin, response: None }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();

        // The stub got the full answer.
        let stub = sim.actor::<BigStub>(ch).unwrap();
        let resp = stub.response.as_ref().expect("answered");
        assert_eq!(resp.rcode(), Rcode::NoError);
        let RData::Txt(t) = &resp.answers[0].rdata else { panic!("not TXT") };
        assert_eq!(t.strings().count(), 8);

        // Via the documented path: UDP truncation, then TCP retry.
        let server = sim.actor::<AuthoritativeServer>(sh).unwrap();
        assert_eq!(server.stats().truncated, 1);
        assert_eq!(server.stats().tcp_queries, 1);
        let resolver = sim.actor::<RecursiveResolver>(rh).unwrap();
        assert_eq!(resolver.stats().tcp_fallbacks, 1);
        assert_eq!(resolver.stats().servfails, 0);
        assert!(sim.stats().tcp_messages >= 2, "query and response over TCP");
    }

    #[test]
    fn small_answers_never_use_tcp() {
        let mut net = build_net(
            42,
            PolicyKind::BindSrtt,
            &[&datacenters::FRA],
            5,
            SimDuration::from_secs(10),
            0.0,
        );
        net.sim.run_until_idle();
        assert_eq!(net.sim.stats().tcp_messages, 0);
        let resolver = net.sim.actor::<RecursiveResolver>(net.resolver_host).unwrap();
        assert_eq!(resolver.stats().tcp_fallbacks, 0);
    }

    #[test]
    fn delegation_discovered_from_parent_referral() {
        use dnswild_proto::rdata::{Ns, Soa, A};
        use dnswild_proto::Record;
        use dnswild_zone::Zone;

        let mut sim = Simulator::with_latency(
            31,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let parent_origin = Name::parse("nl").unwrap();
        let child_origin = Name::parse("ourtestdomain.nl").unwrap();

        // Child authoritatives first, so their addresses exist for glue.
        let mut child_addrs = Vec::new();
        for (site, i) in [(&datacenters::FRA, 1u8), (&datacenters::SYD, 2u8)] {
            let h = sim.add_host(
                HostConfig::at_place(site, SimDuration::from_millis(1), i as u32),
                Box::new(AuthoritativeServer::new(
                    site.code,
                    vec![test_domain_zone(&child_origin, 2)],
                )),
            );
            child_addrs.push(sim.bind_unicast(h));
        }

        // Parent zone: nl with a glued delegation of ourtestdomain.nl.
        let mut parent_zone = Zone::new(parent_origin.clone());
        parent_zone.insert(Record::new(
            parent_origin.clone(),
            3600,
            RData::Soa(Soa::new(
                Name::parse("ns1.dns.nl").unwrap(),
                Name::parse("hostmaster.dns.nl").unwrap(),
                1,
                7200,
                3600,
                604800,
                300,
            )),
        ));
        parent_zone.insert(Record::new(
            parent_origin.clone(),
            3600,
            RData::Ns(Ns::new(Name::parse("ns1.dns.nl").unwrap())),
        ));
        for (i, addr) in child_addrs.iter().enumerate() {
            let ns_name = Name::parse(&format!("ns{}.ourtestdomain.nl", i + 1)).unwrap();
            parent_zone.insert(Record::new(
                child_origin.clone(),
                172_800,
                RData::Ns(Ns::new(ns_name.clone())),
            ));
            parent_zone.insert(Record::new(
                ns_name,
                172_800,
                RData::A(A::new(addr.to_ipv4().expect("v4 address"))),
            ));
        }
        let ph = sim.add_host(
            HostConfig::at_place(&datacenters::IAD, SimDuration::from_millis(1), 3),
            Box::new(AuthoritativeServer::new("PARENT", vec![parent_zone])),
        );
        let parent_addr = sim.bind_unicast(ph);

        // The resolver only knows the parent (its "root hint").
        let mut resolver = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
        resolver.add_delegation(parent_origin, vec![parent_addr]);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 4),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 5),
            Box::new(Stub {
                resolver: raddr,
                interval: SimDuration::from_secs(30),
                total: 10,
                sent: 0,
                responses: vec![],
                origin: child_origin.clone(),
            }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();

        // Every query answered with a site identity from the child zone.
        let stub = sim.actor::<Stub>(ch).unwrap();
        assert_eq!(stub.responses.len(), 10);
        assert!(stub.responses.iter().all(|r| r.rcode() == Rcode::NoError));
        assert!(site_of(&stub.responses[0]).starts_with("site="));

        // The delegation was learned from the referral...
        let resolver = sim.actor::<RecursiveResolver>(rh).unwrap();
        let learned = resolver.learned_delegations(sim.now());
        assert_eq!(learned.len(), 1);
        assert_eq!(learned[0].0, child_origin);
        assert_eq!(learned[0].1.len(), 2, "both glue addresses extracted");

        // ...and cached: the parent saw exactly one query (plus none of
        // the probe traffic).
        let parent = sim.actor::<AuthoritativeServer>(ph).unwrap();
        assert_eq!(parent.stats().queries, 1, "referral answered once, then cached");
        assert_eq!(parent.stats().referrals, 1);
    }

    #[test]
    fn lame_server_retried_and_avoided() {
        // One server REFUSES everything (lame: not configured for the
        // zone); the other answers. Every stub query must still succeed,
        // with the lame server penalized along the way.
        let mut sim = Simulator::with_latency(
            23,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        // Lame: serves a different zone entirely.
        let other = Name::parse("unrelated.example").unwrap();
        let lame_host = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("LAME", vec![test_domain_zone(&other, 1)])),
        );
        let lame_addr = sim.bind_unicast(lame_host);
        let good_host = sim.add_host(
            HostConfig::at_place(&datacenters::SYD, SimDuration::from_millis(1), 2),
            Box::new(AuthoritativeServer::new("SYD", vec![test_domain_zone(&origin, 2)])),
        );
        let good_addr = sim.bind_unicast(good_host);

        let mut resolver = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
        resolver.add_delegation(origin.clone(), vec![lame_addr, good_addr]);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 3),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 4),
            Box::new(Stub {
                resolver: raddr,
                interval: SimDuration::from_secs(30),
                total: 15,
                sent: 0,
                responses: vec![],
                origin,
            }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();

        let stub = sim.actor::<Stub>(ch).unwrap();
        assert_eq!(stub.responses.len(), 15);
        let bad: Vec<_> = stub.responses.iter().filter(|r| r.rcode() != Rcode::NoError).map(|r| r.rcode()).collect();
        let resolver_dbg = sim.actor::<RecursiveResolver>(rh).unwrap();
        assert!(
            bad.is_empty(),
            "lame server must not surface errors to stubs: {bad:?}, stats {:?}",
            resolver_dbg.stats()
        );
        let resolver = sim.actor::<RecursiveResolver>(rh).unwrap();
        let stats = resolver.stats();
        assert!(stats.lame_responses >= 1, "the lame server was tried at least once");
        assert_eq!(stats.servfails, 0);
        // The FRA lame server is much closer to DUB, so a naive RTT
        // chaser would pin to it; the lameness penalty must keep the
        // resolver on the working SYD server for the bulk of queries.
        let to_good =
            resolver.samples().iter().filter(|s| s.server == good_addr).count();
        assert_eq!(to_good, 15, "every query ultimately served by the good server");
    }

    /// The paper's §3.1 methodology point, as a test: a CHAOS
    /// `hostname.bind` query is answered by the RECURSIVE itself and
    /// never reaches any authoritative — so it cannot identify which
    /// site serves you, and the paper had to use IN-class TXT instead.
    #[test]
    fn chaos_identification_never_reaches_authoritatives() {
        struct ChaosStub {
            resolver: SimAddr,
            answer: Option<String>,
        }
        impl Actor for ChaosStub {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let mut q = Message::stub_query(
                    1,
                    Name::parse("hostname.bind").unwrap(),
                    RType::Txt,
                );
                q.questions[0].qclass = dnswild_proto::Class::Ch;
                let own = ctx.own_addr();
                ctx.send(own, self.resolver, q.encode().unwrap());
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, d: Datagram) {
                let m = Message::decode(&d.payload).unwrap();
                if let Some(RData::Txt(t)) = m.answers.first().map(|r| &r.rdata) {
                    self.answer = Some(t.first_as_string());
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Simulator::with_latency(
            21,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zone = test_domain_zone(&origin, 1);
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("FRA", vec![zone])),
        );
        let saddr = sim.bind_unicast(sh);
        let mut resolver = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
        resolver.add_delegation(origin, vec![saddr]);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 3),
            Box::new(ChaosStub { resolver: raddr, answer: None }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();

        // The stub got the RESOLVER's identity, not "FRA"...
        let stub = sim.actor::<ChaosStub>(ch).unwrap();
        assert_eq!(stub.answer.as_deref(), Some(IDENTITY));
        // ...and the authoritative never saw a packet.
        let server = sim.actor::<AuthoritativeServer>(sh).unwrap();
        assert_eq!(server.stats().queries, 0);
        assert_eq!(server.stats().chaos, 0);
        let resolver = sim.actor::<RecursiveResolver>(rh).unwrap();
        assert_eq!(resolver.stats().upstream_queries, 0);
    }

    #[test]
    fn chaos_unknown_name_refused_by_resolver() {
        // version.bind is deliberately refused (like hardened resolvers).
        struct VStub {
            resolver: SimAddr,
            rcode: Option<Rcode>,
        }
        impl Actor for VStub {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let mut q =
                    Message::stub_query(1, Name::parse("version.bind").unwrap(), RType::Txt);
                q.questions[0].qclass = dnswild_proto::Class::Ch;
                let own = ctx.own_addr();
                ctx.send(own, self.resolver, q.encode().unwrap());
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, d: Datagram) {
                self.rcode = Some(Message::decode(&d.payload).unwrap().rcode());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::with_latency(
            22,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(RecursiveResolver::with_policy(PolicyKind::BindSrtt)),
        );
        let raddr = sim.bind_unicast(rh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(8), 3),
            Box::new(VStub { resolver: raddr, rcode: None }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        assert_eq!(sim.actor::<VStub>(ch).unwrap().rcode, Some(Rcode::Refused));
    }

    #[test]
    fn mismatched_response_ignored() {
        // Craft a resolver, poke a bogus "response" datagram at it, and
        // check it lands in late_responses.
        struct Spoofer {
            target: SimAddr,
        }
        impl Actor for Spoofer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let mut m = Message::iterative_query(
                    0x7777,
                    Name::parse("x.ourtestdomain.nl").unwrap(),
                    RType::Txt,
                );
                m.header.response = true;
                let own = ctx.own_addr();
                ctx.send(own, self.target, m.encode().unwrap());
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::with_latency(
            9,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        );
        let resolver = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
        let rh = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(resolver),
        );
        let raddr = sim.bind_unicast(rh);
        let sp = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(2), 3),
            Box::new(Spoofer { target: raddr }),
        );
        sim.bind_unicast(sp);
        sim.run_until_idle();
        let resolver = sim.actor::<RecursiveResolver>(rh).unwrap();
        assert_eq!(resolver.stats().late_responses, 1);
        assert!(resolver.samples().is_empty());
    }

    fn sim_addr(i: u32) -> SimAddr {
        SimAddr::from_ipv4(std::net::Ipv4Addr::from(0x0a00_0000 | i)).unwrap()
    }

    /// The writers stand in for `Message` encodes: byte for byte the
    /// same, over random names, types, answer sets and rcodes, into a
    /// recycled buffer that still holds an earlier message.
    #[test]
    fn writers_match_the_message_encoder() {
        use dnswild_proto::rdata::{Aaaa, Cname, Ns, Txt, A};
        detrand::qc::property("resolver_writers_match_message_encode").cases(256).check(|g| {
            let name = |g: &mut detrand::qc::Gen| {
                let labels = g.vec(1..5, |g| g.string_of(b"abcxyz019-", 1..12));
                Name::from_labels(&labels).unwrap()
            };
            let qname = name(g);
            let qtype = *g.choose(&[RType::Txt, RType::A, RType::Aaaa, RType::Ns, RType::Cname]);
            let id = g.u16();
            let dirty = g.bytes(0..600);

            let query = write_iterative_query(dirty.clone(), id, &qname, qtype);
            let want = Message::iterative_query(id, qname.clone(), qtype).encode().unwrap();
            assert_eq!(query, want, "upstream query for {qname} {qtype}");

            let answers: Vec<Record> = g.vec(0..5, |g| {
                let owner = if g.bool() { qname.clone() } else { name(g) };
                let rdata = match g.u32_in(0..5) {
                    0 => RData::A(A::new(std::net::Ipv4Addr::from(g.u32()))),
                    1 => RData::Aaaa(Aaaa::new(std::net::Ipv6Addr::from(u128::from(g.u64())))),
                    2 => RData::Ns(Ns::new(name(g))),
                    3 => RData::Cname(Cname::new(name(g))),
                    _ => RData::Txt(Txt::new(g.vec(1..3, |g| g.bytes(0..40))).unwrap()),
                };
                Record::new(owner, g.u32(), rdata)
            });
            let rcode = *g.choose(&[Rcode::NoError, Rcode::NxDomain, Rcode::ServFail]);
            let answer = write_stub_answer(dirty, id, &qname, qtype, &answers, rcode);
            let mut want = Message {
                header: Header {
                    id,
                    response: true,
                    recursion_desired: true,
                    recursion_available: true,
                    rcode,
                    ..Header::default()
                },
                questions: vec![Question::new(qname.clone(), qtype)],
                answers,
                authorities: vec![],
                additionals: vec![],
            };
            want.add_edns(DEFAULT_EDNS_PAYLOAD);
            assert_eq!(answer, want.encode().unwrap(), "stub answer for {qname} {qtype}");
        });
    }

    /// ROADMAP's "every recursive-side table bounded", for learned
    /// delegations: 1,000 referrals to distinct children, each living
    /// 10 s and arriving 1 s apart, leave only the live ones — the
    /// table never holds more than the referral just learned plus those
    /// that have not expired.
    #[test]
    fn expired_learned_delegations_are_pruned() {
        const TTL_S: u64 = 10;
        let mut table = Delegations::default();
        let parent = Name::parse("ourtestdomain.nl").unwrap();
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        for i in 0..1_000u64 {
            let child = parent.prepend(&format!("child-{i}")).unwrap();
            table.learn(child, vec![sim_addr(i as u32)], at(i + TTL_S), at(i));
            assert!(table.learned.len() <= TTL_S as usize, "{} entries", table.learned.len());
        }
        let now = at(999);
        let live = table.learned.iter().filter(|(_, _, expires)| *expires > now).count();
        assert_eq!(table.learned.len(), live, "only live delegations remain");
        assert_eq!(live, TTL_S as usize);
        // A live child routes to its server; an expired one, like a name
        // under no child, to nothing (no hint covers the parent).
        let stray = parent.prepend("stray").unwrap();
        assert_eq!(table.delegation_for(&stray, now), None);
        let q = parent.prepend("child-999").unwrap().prepend("probe").unwrap();
        assert_eq!(table.delegation_for(&q, now), Some(&[sim_addr(999)][..]));
        let gone = parent.prepend("child-3").unwrap().prepend("probe").unwrap();
        assert_eq!(table.delegation_for(&gone, now), None);
        // Re-learning a live child replaces it rather than adding a twin.
        let child = parent.prepend("child-999").unwrap();
        table.learn(child, vec![sim_addr(7)], at(2_000), now);
        assert_eq!(table.learned.len(), TTL_S as usize);
        assert_eq!(table.delegation_for(&q, now), Some(&[sim_addr(7)][..]));
    }

    /// InfraCache's bound: one entry per server address it was told
    /// about, an expired entry replaced in place. 10,000 selections over
    /// a 13-address NS set (the Root's size), with timeouts, RTT samples
    /// and gaps longer than the expiry, never hold more than 13 entries,
    /// whichever policy selects.
    #[test]
    fn infra_cache_holds_one_entry_per_server() {
        let servers: Vec<SimAddr> = (0..13).map(sim_addr).collect();
        for kind in PolicyKind::ALL {
            let mut policy = kind.build();
            let mut infra = InfraCache::new(
                Some(SimDuration::from_mins(10)),
                kind.smoothing(),
            );
            let mut rng = detrand::DetRng::seed_from_u64(31);
            let mut now = SimTime::ZERO;
            let mut excluded = Vec::new();
            for i in 0..10_000u64 {
                // Mostly 1 s apart; every 500th step a 15-minute silence.
                let gap = if i % 500 == 499 { 15 * 60 } else { 1 };
                now += SimDuration::from_secs(gap);
                let chosen = policy.select(&servers, &excluded, &mut infra, now, &mut rng);
                if i % 7 == 0 {
                    infra.observe_timeout(chosen, now);
                    excluded.push(chosen);
                } else {
                    infra.observe_rtt(chosen, SimDuration::from_millis(20 + i % 90), now);
                    excluded.clear();
                }
                assert!(infra.len() <= servers.len(), "{kind:?}: {} entries", infra.len());
            }
        }
    }
}
