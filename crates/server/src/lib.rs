//! # dnswild-server
//!
//! The authoritative DNS server actor: the reproduction's stand-in for
//! the paper's NSD 4.1.7 instances on AWS EC2.
//!
//! A server hosts one or more [`Zone`]s and answers queries arriving as
//! simulator datagrams. Two behaviours matter for the reproduced
//! methodology:
//!
//! * **Per-site TXT identity** — zones carry the placeholder
//!   [`SITE_PLACEHOLDER`] in probe TXT records; each server substitutes
//!   its own site code, so clients learn in-band which authoritative
//!   (or anycast site) answered. This mirrors the paper configuring "a
//!   different response for the same DNS TXT resource" per NS (§3.1).
//! * **CHAOS identification** — `hostname.bind`/`id.server` TXT CH
//!   queries return the site code. The paper deliberately avoids CHAOS
//!   for measurement (a recursive answers it itself rather than
//!   forwarding); we implement it so that experiments can *demonstrate*
//!   that failure mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rrl;

use std::any::Any;
use std::sync::Arc;

use std::sync::Mutex;

use dnswild_netsim::{Actor, Context, Datagram, SimAddr, SimTime, Transport};
use dnswild_proto::{Header, Name, Question, RType, WireReader};
use dnswild_zone::Zone;

pub use engine::{
    AnswerEngine, HandledPacket, Introspection, PacketClass, ServerStats, TransportKind,
    TruncationPolicy,
};
pub use rrl::{
    RateLimitPolicy, RateLimiter, RrlDecision, RrlScope, RrlVerdict, SharedRateLimiter,
    VerdictSpans, VERDICTS,
};

/// One query observed at the authoritative — the passive-trace view the
/// paper uses to cross-check client-side data (§3.1) and to analyze
/// production Root/.nl traffic (§5).
#[derive(Debug, Clone)]
pub struct ServerLogEntry {
    /// Arrival time.
    pub time: SimTime,
    /// The recursive that sent the query.
    pub client: SimAddr,
    /// The address the query arrived on (distinguishes services when one
    /// host serves several).
    pub service: SimAddr,
    /// Query name.
    pub qname: Name,
    /// Query type.
    pub qtype: RType,
}

/// Shared handle to a server-side query log.
pub type ServerLog = Arc<Mutex<Vec<ServerLogEntry>>>;

/// An authoritative name server bound to a simulator host.
///
/// This is a thin transport adapter: the answering semantics live in the
/// transport-agnostic [`AnswerEngine`], which the real-socket serving
/// plane (`dnswild-netio`) drives as well. The actor adds only what is
/// simulation-specific — outage windows, the passive query log, and the
/// simulated-datagram plumbing.
pub struct AuthoritativeServer {
    engine: AnswerEngine,
    log: Option<ServerLog>,
    /// Windows during which the server process is down and silently
    /// drops everything (a crash or a saturating DDoS).
    outages: Vec<(SimTime, SimTime)>,
}

impl AuthoritativeServer {
    /// Creates a server identified as `site_code` (e.g. `"FRA"`),
    /// serving `zones`.
    pub fn new(site_code: impl Into<String>, zones: Vec<Zone>) -> Self {
        AuthoritativeServer {
            engine: AnswerEngine::new(site_code, zones),
            log: None,
            outages: Vec::new(),
        }
    }

    /// Schedules an outage: during `[from, until)` the server drops all
    /// traffic, modelling a crashed or DDoS-saturated instance. The
    /// reproduced paper's §7 notes anycast matters for DDoS mitigation;
    /// pairing this with `Simulator::schedule_withdrawal` lets
    /// experiments contrast a dead unicast NS (blackhole until clients
    /// fail over) with a dead anycast site (BGP reroutes around it).
    pub fn with_outage(mut self, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "outage must have positive duration");
        self.outages.push((from, until));
        self
    }

    fn is_down(&self, now: SimTime) -> bool {
        self.outages.iter().any(|&(from, until)| from <= now && now < until)
    }

    /// Attaches a shared query log; every received query is appended.
    pub fn with_log(mut self, log: ServerLog) -> Self {
        self.log = Some(log);
        self
    }

    /// The site identity this server answers with.
    pub fn site_code(&self) -> &str {
        self.engine.site_code()
    }

    /// Traffic counters.
    pub fn stats(&self) -> ServerStats {
        self.engine.stats()
    }

    /// The underlying transport-agnostic answer engine.
    pub fn engine(&self) -> &AnswerEngine {
        &self.engine
    }

}

impl Actor for AuthoritativeServer {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        if self.is_down(ctx.now()) {
            self.engine.record_drop();
            ctx.recycle(dgram.payload);
            return;
        }
        let transport = match dgram.transport {
            Transport::Udp => TransportKind::Udp,
            Transport::Tcp => TransportKind::Tcp,
        };
        // The response is written into a pooled payload buffer, which the
        // send hands on; the query's payload goes back to the pool.
        let mut buf = ctx.buffer();
        let handled = self.engine.handle_packet(&dgram.payload, transport, &mut buf);
        if let (Some(log), true) = (&self.log, handled.question) {
            // The engine hands no question back; with logging on, read
            // the first one from the payload it just accepted.
            let mut r = WireReader::new(&dgram.payload);
            r.seek(Header::WIRE_LEN).expect("a query that carried a question has a header");
            let q = Question::decode(&mut r).expect("the engine decoded this question");
            log.lock().expect("server log mutex poisoned").push(ServerLogEntry {
                time: ctx.now(),
                client: dgram.src,
                service: dgram.dst,
                qname: q.qname,
                qtype: q.qtype,
            });
        }
        if handled.response {
            // Reply from the address we were queried on — crucial for
            // anycast, where that address is shared across sites — and
            // over the transport the query used.
            match dgram.transport {
                Transport::Udp => ctx.send(dgram.dst, dgram.src, buf),
                Transport::Tcp => ctx.send_tcp(dgram.dst, dgram.src, buf),
            }
        } else {
            ctx.recycle(buf);
        }
        ctx.recycle(dgram.payload);
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
    use dnswild_netsim::{HostConfig, LatencyConfig, SimDuration, Simulator};
    use dnswild_proto::rdata::Txt;
    use dnswild_proto::{Class, Message, Opcode, Question, RData, Rcode};
    use dnswild_zone::presets::test_domain_zone;

    /// A stub client that sends canned queries and stores responses.
    struct Client {
        target: SimAddr,
        to_send: Vec<Vec<u8>>,
        responses: Vec<Message>,
    }

    impl Actor for Client {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let own = ctx.own_addr();
            for payload in self.to_send.drain(..) {
                ctx.send(own, self.target, payload);
            }
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, dgram: Datagram) {
            self.responses.push(Message::decode(&dgram.payload).expect("decodable response"));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn lossless() -> Simulator {
        Simulator::with_latency(
            11,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        )
    }

    fn origin() -> Name {
        Name::parse("ourtestdomain.nl").unwrap()
    }

    fn run_queries(queries: Vec<Message>) -> (Vec<Message>, ServerStats) {
        let mut sim = lossless();
        let zone = test_domain_zone(&origin(), 2);
        let server = AuthoritativeServer::new("FRA", vec![zone]);
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(server),
        );
        let saddr = sim.bind_unicast(sh);
        let payloads = queries.iter().map(|q| q.encode().unwrap()).collect();
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(Client { target: saddr, to_send: payloads, responses: vec![] }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        let responses = sim.actor::<Client>(ch).unwrap().responses.clone();
        let stats = sim.actor::<AuthoritativeServer>(sh).unwrap().stats();
        (responses, stats)
    }

    #[test]
    fn probe_txt_answered_with_site_identity() {
        let q = Message::iterative_query(
            1,
            Name::parse("p1-r1.ourtestdomain.nl").unwrap(),
            RType::Txt,
        );
        let (resps, stats) = run_queries(vec![q]);
        assert_eq!(resps.len(), 1);
        let r = &resps[0];
        assert!(r.header.authoritative);
        assert_eq!(r.rcode(), Rcode::NoError);
        let RData::Txt(t) = &r.answers[0].rdata else { panic!("not TXT") };
        assert_eq!(t.first_as_string(), "site=FRA");
        assert_eq!(stats.answers, 1);
    }

    #[test]
    fn off_zone_refused() {
        let q = Message::iterative_query(2, Name::parse("example.com").unwrap(), RType::A);
        let (resps, stats) = run_queries(vec![q]);
        assert_eq!(resps[0].rcode(), Rcode::Refused);
        assert_eq!(stats.refused, 1);
    }

    #[test]
    fn apex_ns_answered() {
        let q = Message::iterative_query(3, origin(), RType::Ns);
        let (resps, _) = run_queries(vec![q]);
        assert_eq!(resps[0].answers.len(), 2);
    }

    #[test]
    fn nodata_at_apex_for_txt() {
        // The wildcard does not cover the apex itself.
        let q = Message::iterative_query(4, origin(), RType::Txt);
        let (resps, stats) = run_queries(vec![q]);
        assert_eq!(resps[0].rcode(), Rcode::NoError);
        assert!(resps[0].answers.is_empty());
        assert_eq!(resps[0].authorities.len(), 1);
        assert_eq!(stats.nodata, 1);
    }

    #[test]
    fn chaos_hostname_bind_identifies_site() {
        let mut q =
            Message::iterative_query(5, Name::parse("hostname.bind").unwrap(), RType::Txt);
        q.questions[0].qclass = Class::Ch;
        let (resps, stats) = run_queries(vec![q]);
        let RData::Txt(t) = &resps[0].answers[0].rdata else { panic!("not TXT") };
        assert_eq!(t.first_as_string(), "FRA");
        assert_eq!(stats.chaos, 1);
    }

    #[test]
    fn chaos_other_name_refused() {
        let q = Message {
            header: dnswild_proto::Header { id: 6, ..Default::default() },
            questions: vec![Question::chaos(Name::parse("version.bind").unwrap(), RType::Txt)],
            answers: vec![],
            authorities: vec![],
            additionals: vec![],
        };
        let (resps, _) = run_queries(vec![q]);
        assert_eq!(resps[0].rcode(), Rcode::Refused);
    }

    #[test]
    fn notimp_for_update() {
        let mut q = Message::iterative_query(7, origin(), RType::A);
        q.header.opcode = Opcode::Update;
        let (resps, stats) = run_queries(vec![q]);
        assert_eq!(resps[0].rcode(), Rcode::NotImp);
        assert_eq!(stats.notimp, 1);
    }

    #[test]
    fn edns_echoed() {
        let q = Message::iterative_query(8, origin(), RType::Ns);
        assert!(q.edns().is_some());
        let (resps, _) = run_queries(vec![q]);
        assert!(resps[0].edns().is_some());
    }

    #[test]
    fn garbage_gets_formerr_when_header_readable() {
        let mut sim = lossless();
        let zone = test_domain_zone(&origin(), 2);
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("FRA", vec![zone])),
        );
        let saddr = sim.bind_unicast(sh);
        let mut garbage = vec![0u8; 12];
        garbage[0] = 0xab;
        garbage[1] = 0xcd;
        garbage.push(0xff); // trailing garbage → decode error
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(Client { target: saddr, to_send: vec![garbage], responses: vec![] }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        let resps = &sim.actor::<Client>(ch).unwrap().responses;
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].rcode(), Rcode::FormErr);
        assert_eq!(resps[0].header.id, 0xabcd);
    }

    #[test]
    fn server_log_records_queries() {
        let mut sim = lossless();
        let log: ServerLog = Arc::new(Mutex::new(Vec::new()));
        let zone = test_domain_zone(&origin(), 2);
        let server = AuthoritativeServer::new("FRA", vec![zone]).with_log(log.clone());
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(server),
        );
        let saddr = sim.bind_unicast(sh);
        let q =
            Message::iterative_query(9, Name::parse("x.ourtestdomain.nl").unwrap(), RType::Txt);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(Client { target: saddr, to_send: vec![q.encode().unwrap()], responses: vec![] }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        let entries = log.lock().expect("server log mutex poisoned");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].qtype, RType::Txt);
    }

    #[test]
    fn branding_leaves_ordinary_txt_untouched() {
        use dnswild_zone::Zone;
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let mut zone = test_domain_zone(&origin, 1);
        // An ordinary TXT record that must NOT be rewritten.
        zone.insert(dnswild_proto::Record::new(
            origin.prepend("spf").unwrap(),
            300,
            RData::Txt(Txt::from_string("v=spf1 -all").unwrap()),
        ));
        let _ = Zone::new(origin.clone()); // type in scope for clarity
        let q = Message::iterative_query(
            21,
            Name::parse("spf.ourtestdomain.nl").unwrap(),
            RType::Txt,
        );
        let mut sim = lossless();
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("FRA", vec![zone])),
        );
        let saddr = sim.bind_unicast(sh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(Client { target: saddr, to_send: vec![q.encode().unwrap()], responses: vec![] }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        let resp = &sim.actor::<Client>(ch).unwrap().responses[0];
        let RData::Txt(txt) = &resp.answers[0].rdata else { panic!("not TXT") };
        assert_eq!(txt.first_as_string(), "v=spf1 -all");
    }

    #[test]
    fn anycast_service_address_echoed_and_logged() {
        use std::sync::Arc;
        let mut sim = lossless();
        let log: ServerLog = Arc::new(Mutex::new(Vec::new()));
        let origin = origin();
        let mut hosts = Vec::new();
        for site in [&datacenters::FRA, &datacenters::SYD] {
            let zone = test_domain_zone(&origin, 1);
            let server = AuthoritativeServer::new(site.code, vec![zone]).with_log(log.clone());
            hosts.push(sim.add_host(
                HostConfig::at_place(site, SimDuration::from_millis(1), 1),
                Box::new(server),
            ));
        }
        let svc = sim.bind_anycast(&hosts);
        let q = Message::iterative_query(
            22,
            Name::parse("x.ourtestdomain.nl").unwrap(),
            RType::Txt,
        );
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(Client { target: svc, to_send: vec![q.encode().unwrap()], responses: vec![] }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        // The client heard back (reply sent FROM the anycast address).
        let client = sim.actor::<Client>(ch).unwrap();
        assert_eq!(client.responses.len(), 1);
        // And the server log recorded the anycast service address.
        let entries = log.lock().expect("server log mutex poisoned");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].service, svc);
    }

    #[test]
    fn multiple_zones_served_side_by_side() {
        let z1 = test_domain_zone(&Name::parse("alpha.test").unwrap(), 1);
        let z2 = test_domain_zone(&Name::parse("beta.test").unwrap(), 1);
        let q1 = Message::iterative_query(23, Name::parse("a.alpha.test").unwrap(), RType::Txt);
        let q2 = Message::iterative_query(24, Name::parse("b.beta.test").unwrap(), RType::Txt);
        let mut sim = lossless();
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("FRA", vec![z1, z2])),
        );
        let saddr = sim.bind_unicast(sh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(Client {
                target: saddr,
                to_send: vec![q1.encode().unwrap(), q2.encode().unwrap()],
                responses: vec![],
            }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        let client = sim.actor::<Client>(ch).unwrap();
        assert_eq!(client.responses.len(), 2);
        assert!(client.responses.iter().all(|r| r.rcode() == Rcode::NoError));
    }

    #[test]
    fn truncation_uses_512_without_edns() {
        use dnswild_proto::Record;
        let origin = origin();
        let mut zone = test_domain_zone(&origin, 1);
        // ~700 bytes of TXT: over 512 but under the EDNS 1232.
        let strings: Vec<Vec<u8>> = (0..3).map(|i| vec![b'x' + i as u8; 230]).collect();
        zone.insert(Record::new(
            origin.prepend("mid").unwrap(),
            60,
            RData::Txt(Txt::new(strings).unwrap()),
        ));
        let make_query = |id: u16, edns: bool| {
            let mut q = Message::iterative_query(
                id,
                Name::parse("mid.ourtestdomain.nl").unwrap(),
                RType::Txt,
            );
            if !edns {
                q.additionals.clear();
            }
            q
        };
        let mut sim = lossless();
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(AuthoritativeServer::new("FRA", vec![zone])),
        );
        let saddr = sim.bind_unicast(sh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(Client {
                target: saddr,
                to_send: vec![
                    make_query(31, false).encode().unwrap(),
                    make_query(32, true).encode().unwrap(),
                ],
                responses: vec![],
            }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();
        let client = sim.actor::<Client>(ch).unwrap();
        let by_id = |id: u16| client.responses.iter().find(|r| r.header.id == id).unwrap();
        assert!(by_id(31).header.truncated, "no EDNS → 512 limit → truncated");
        assert!(by_id(31).answers.is_empty());
        assert!(!by_id(32).header.truncated, "EDNS 1232 fits the ~700B answer");
        assert_eq!(by_id(32).answers.len(), 1);
    }

    #[test]
    fn outage_window_drops_queries_then_recovers() {
        use dnswild_netsim::SimDuration;
        // A client that sends one query per minute for 5 minutes; the
        // server is down during minutes 1–3.
        struct PeriodicClient {
            target: SimAddr,
            sent: u32,
            responses: Vec<Message>,
        }
        impl Actor for PeriodicClient {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
                if self.sent >= 5 {
                    return;
                }
                let q = Message::iterative_query(
                    self.sent as u16 + 1,
                    Name::parse(&format!("q{}.ourtestdomain.nl", self.sent)).unwrap(),
                    RType::Txt,
                );
                self.sent += 1;
                let own = ctx.own_addr();
                ctx.send(own, self.target, q.encode().unwrap());
                ctx.set_timer(SimDuration::from_mins(1), 0);
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

        let mut sim = lossless();
        let zone = test_domain_zone(&origin(), 1);
        let down_from = SimTime::ZERO + SimDuration::from_secs(50);
        let down_until = SimTime::ZERO + SimDuration::from_secs(170);
        let server =
            AuthoritativeServer::new("FRA", vec![zone]).with_outage(down_from, down_until);
        let sh = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(server),
        );
        let saddr = sim.bind_unicast(sh);
        let ch = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(2), 2),
            Box::new(PeriodicClient { target: saddr, sent: 0, responses: vec![] }),
        );
        sim.bind_unicast(ch);
        sim.run_until_idle();

        let client = sim.actor::<PeriodicClient>(ch).unwrap();
        // Queries at t=0, 60, 120, 180, 240: the 60s and 120s ones fall
        // into the outage window.
        assert_eq!(client.responses.len(), 3, "two queries swallowed by the outage");
        let server = sim.actor::<AuthoritativeServer>(sh).unwrap();
        assert_eq!(server.stats().dropped, 2);
        assert_eq!(server.stats().answers, 3);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn outage_with_inverted_window_rejected() {
        let zone = test_domain_zone(&origin(), 1);
        let _ = AuthoritativeServer::new("FRA", vec![zone])
            .with_outage(SimTime::from_micros(10), SimTime::from_micros(5));
    }

    #[test]
    fn longest_origin_zone_wins() {
        let parent = test_domain_zone(&Name::parse("nl").unwrap(), 1);
        let child = test_domain_zone(&origin(), 2);
        let server = AuthoritativeServer::new("X", vec![parent, child]);
        let zone = server.engine().zone_for(&Name::parse("a.ourtestdomain.nl").unwrap()).unwrap();
        assert_eq!(zone.origin(), &origin());
        let zone = server.engine().zone_for(&Name::parse("other.nl").unwrap()).unwrap();
        assert_eq!(zone.origin(), &Name::parse("nl").unwrap());
    }
}
