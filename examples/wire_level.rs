//! Wire-level tour: the low-level crates without the experiment
//! machinery — build a zone, run an authoritative server and a BIND-like
//! recursive on the simulator, and watch one query end to end.
//!
//! Run with: `cargo run --release --example wire_level`

use std::any::Any;

use dnswild::netsim::geo::datacenters::{DUB, FRA};
use dnswild::netsim::{
    Actor, Context, Datagram, HostConfig, LatencyConfig, SimAddr, SimDuration, Simulator,
};
use dnswild::proto::{Message, Name, RData, RType};
use dnswild::resolver::{PolicyKind, RecursiveResolver};
use dnswild::server::AuthoritativeServer;
use dnswild::zone::{parse_zone, Lookup};

/// A one-shot stub that prints what it receives.
struct Stub {
    resolver: SimAddr,
    qname: Name,
}

impl Actor for Stub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let query = Message::stub_query(7, self.qname.clone(), RType::Txt);
        println!("stub  > {} ({} bytes on the wire)", self.qname, query.encode().unwrap().len());
        let own = ctx.own_addr();
        ctx.send(own, self.resolver, query.encode().unwrap());
    }
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let resp = Message::decode(&dgram.payload).expect("valid response");
        let RData::Txt(txt) = &resp.answers[0].rdata else { panic!("expected TXT") };
        println!(
            "stub  < {:?} after {} (rcode {})",
            txt.first_as_string(),
            ctx.now(),
            resp.rcode()
        );
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn main() {
    // 1. A zone, from actual master-file text.
    let origin = Name::parse("ourtestdomain.nl").unwrap();
    let zone_text = r#"
$ORIGIN ourtestdomain.nl.
$TTL 3600
@    IN SOA ns1 hostmaster ( 2017041201 7200 3600 604800 300 )
@    IN NS  ns1
@    IN NS  ns2
ns1  IN A   203.0.113.1
ns2  IN A   203.0.113.2
*    5 IN TXT "@SITE@"
"#;
    let zone = parse_zone(zone_text, &origin).expect("zone parses");
    println!("zone {} loaded: {} RRsets", zone.origin(), zone.rrset_count());

    // 2. Ask the zone directly (the server's lookup path). The answer
    //    borrows the zone's wildcard record and names the owner it is
    //    served under — the query name; nothing is copied.
    let q = Name::parse("anything-at-all.ourtestdomain.nl").unwrap();
    match zone.lookup(&q, RType::Txt) {
        Lookup::Answer(answer) => {
            let (owner, record) = answer.records().next().expect("one TXT record");
            println!(
                "direct lookup: wildcard {} served as {owner} (ttl {})",
                record.name, record.ttl
            )
        }
        other => panic!("unexpected: {other:?}"),
    }

    // 3. Put it on the network: server in Frankfurt, recursive + stub in
    //    Dublin.
    let mut sim = Simulator::with_latency(
        2017,
        LatencyConfig { loss_rate: 0.0, ..LatencyConfig::default() },
    );
    let server_host = sim.add_host(
        HostConfig::at_place(&FRA, SimDuration::from_millis(1), 64500),
        Box::new(AuthoritativeServer::new("FRA", vec![zone])),
    );
    let server_addr = sim.bind_unicast(server_host);

    let mut recursive = RecursiveResolver::with_policy(PolicyKind::BindSrtt);
    recursive.add_delegation(origin.clone(), vec![server_addr]);
    let resolver_host = sim.add_host(
        HostConfig::at_place(&DUB, SimDuration::from_millis(2), 64501),
        Box::new(recursive),
    );
    let resolver_addr = sim.bind_unicast(resolver_host);

    let stub_host = sim.add_host(
        HostConfig::at_place(&DUB, SimDuration::from_millis(8), 64502),
        Box::new(Stub { resolver: resolver_addr, qname: q }),
    );
    sim.bind_unicast(stub_host);

    sim.run_until_idle();

    // 4. Inspect what everyone saw.
    let server = sim.actor::<AuthoritativeServer>(server_host).unwrap();
    println!(
        "server: {} queries, {} answers",
        server.stats().queries,
        server.stats().answers
    );
    let resolver = sim.actor::<RecursiveResolver>(resolver_host).unwrap();
    for s in resolver.samples() {
        println!("resolver measured RTT to {}: {}", s.server, s.rtt);
    }
    println!("network: {:?}", sim.stats());
}
