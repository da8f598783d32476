//! The simulator core: hosts, actors, routing (unicast and anycast),
//! datagram delivery, and the event loop.
//!
//! The design is poll-free and callback-based: each host is an [`Actor`]
//! that reacts to datagrams and timers through a [`Context`], which is the
//! only way to touch the network. Everything is deterministic given the
//! seed.

use std::any::Any;
use std::collections::{HashMap, HashSet};

use detrand::DetRng;

use crate::addr::{AddrFamily, SimAddr};
use crate::event::{Event, EventQueue};
use crate::geo::{Continent, GeoPoint, Place};
use crate::latency::{LatencyConfig, LatencyModel};
use crate::time::{SimDuration, SimTime};

/// Identifies a host within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(u32);

impl HostId {
    /// Builds a host id from its dense index. Exposed so substrates can
    /// use host ids as array indices; do not fabricate ids for hosts that
    /// were never added.
    pub fn from_index(index: u32) -> Self {
        HostId(index)
    }

    /// The dense index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// How a message travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Unreliable datagram: subject to loss, one flight time.
    Udp,
    /// Reliable stream exchange: never lost, but pays an extra
    /// round-trip-equivalent for connection setup. A deliberately
    /// first-order TCP model — enough for DNS truncation fallback.
    Tcp,
}

/// A message on the wire: UDP datagram or one TCP-carried DNS message.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Source address (a unicast address of the sending host, or the
    /// anycast service address when a site answers an anycast query).
    pub src: SimAddr,
    /// Destination address.
    pub dst: SimAddr,
    /// Opaque payload (DNS wire format in this workspace).
    pub payload: Vec<u8>,
    /// How the payload travels (responses should echo the query's
    /// transport, as real servers do).
    pub transport: Transport,
}

/// Static placement and identity of a host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Where the host sits.
    pub point: GeoPoint,
    /// Continent, for per-continent aggregation.
    pub continent: Continent,
    /// Autonomous system number (labelling only).
    pub asn: u32,
    /// Last-mile delay contributed by this host (RTT contribution is
    /// half from each endpoint).
    pub access_latency: SimDuration,
    /// Human-readable label for reports.
    pub label: String,
}

impl HostConfig {
    /// Places a host at a named place with the given access latency.
    pub fn at_place(place: &Place, access_latency: SimDuration, asn: u32) -> Self {
        HostConfig {
            point: place.point,
            continent: place.continent,
            asn,
            access_latency,
            label: place.code.to_string(),
        }
    }
}

/// Runtime information about a host, queryable after the run.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Placement and identity.
    pub config: HostConfig,
    /// Addresses bound to this host (unicast only; anycast addresses are
    /// shared and tracked in the route table).
    pub addresses: Vec<SimAddr>,
}

/// How an address routes.
#[derive(Debug, Clone)]
enum Route {
    Unicast(HostId),
    Anycast(Vec<HostId>),
}

/// Counters the engine keeps about network activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network.
    pub sent: u64,
    /// Datagrams dropped by the loss process.
    pub dropped: u64,
    /// Datagrams delivered to an actor.
    pub delivered: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Messages carried over the reliable (TCP-like) transport.
    pub tcp_messages: u64,
}

/// A host's behaviour. Implementations react to datagrams and timers; the
/// [`Context`] is their only handle on the world.
pub trait Actor {
    /// Called once when the simulation starts (before any other event).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// A datagram addressed to this host arrived.
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram);

    /// A timer set by this actor fired.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Downcast support (for extracting results after a run).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Everything in the simulation except the actors themselves. Split out
/// so the engine can lend an actor a mutable view of the world while the
/// actor is borrowed from the actor table.
struct World {
    now: SimTime,
    queue: EventQueue,
    hosts: Vec<HostInfo>,
    routes: Vec<Route>,
    families: Vec<AddrFamily>,
    latency: LatencyModel,
    rng: DetRng,
    stats: NetStats,
    /// Memoized anycast catchments: (sender host, anycast addr) → site.
    catchments: HashMap<(HostId, u32), HostId>,
    /// Anycast sites currently NOT announcing their service prefix
    /// (withdrawn by a scheduled event, e.g. to model an outage).
    withdrawn: HashSet<(u32, HostId)>,
    /// Payload buffers given back by actors (and by the loss process),
    /// handed out again by [`Context::buffer`]; at most [`SPARE_BUFFERS`].
    spares: Vec<Vec<u8>>,
}

/// How many recycled payload buffers the world keeps. A datagram's
/// buffer comes back to the pool the moment its receiver has decoded
/// it, so a handful covers every message in flight through one callback.
const SPARE_BUFFERS: usize = 8;

/// Capacity of a fresh payload buffer: every message of a probe
/// (query, referral-free answer) fits without growing.
const FRESH_BUFFER_CAPACITY: usize = 512;

impl World {
    fn base_one_way(&self, src: HostId, dst: HostId) -> SimDuration {
        let s = &self.hosts[src.index() as usize].config;
        let d = &self.hosts[dst.index() as usize].config;
        self.latency.base_one_way(src, &s.point, s.access_latency, dst, &d.point, d.access_latency)
    }

    /// Resolves the destination host for an address as seen from `sender`.
    fn route(&mut self, sender: HostId, dst: SimAddr) -> Option<HostId> {
        match self.routes.get(dst.index() as usize)? {
            Route::Unicast(h) => Some(*h),
            Route::Anycast(sites) => {
                if let Some(&cached) = self.catchments.get(&(sender, dst.index())) {
                    return Some(cached);
                }
                let sites: Vec<HostId> = sites
                    .iter()
                    .copied()
                    .filter(|&site| !self.withdrawn.contains(&(dst.index(), site)))
                    .collect();
                let best = sites
                    .iter()
                    .copied()
                    .min_by_key(|&site| (self.base_one_way(sender, site), site.index()))?;
                self.catchments.insert((sender, dst.index()), best);
                Some(best)
            }
        }
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spares.len() < SPARE_BUFFERS && buf.capacity() > 0 {
            buf.clear();
            self.spares.push(buf);
        }
    }

    fn send(&mut self, from: HostId, dgram: Datagram) {
        self.stats.sent += 1;
        let Some(dst_host) = self.route(from, dgram.dst) else {
            // Unroutable: silently dropped, like a packet into a black hole.
            self.stats.dropped += 1;
            self.recycle(dgram.payload);
            return;
        };
        let delay = match dgram.transport {
            Transport::Udp => {
                if self.latency.sample_loss(&mut self.rng) {
                    self.stats.dropped += 1;
                    self.recycle(dgram.payload);
                    return;
                }
                self.base_one_way(from, dst_host) + self.latency.sample_jitter(&mut self.rng)
            }
            Transport::Tcp => {
                // Handshake (1 RTT) + transfer (1 one-way); retransmission
                // hides loss at the cost of jitter.
                self.stats.tcp_messages += 1;
                let one_way = self.base_one_way(from, dst_host);
                one_way.saturating_mul(3) + self.latency.sample_jitter(&mut self.rng)
            }
        };
        self.queue.push(self.now + delay, dst_host, Event::Deliver(dgram));
    }
}

/// A mutable view of the world handed to an actor during a callback.
pub struct Context<'a> {
    world: &'a mut World,
    host: HostId,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The host this actor runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The shared deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.world.rng
    }

    /// Sends a datagram. `src` must be an address that routes to this
    /// host (its own unicast address, or an anycast address whose
    /// catchment is irrelevant for replies — we trust actors to echo the
    /// address they were queried on, as real servers do).
    pub fn send(&mut self, src: SimAddr, dst: SimAddr, payload: Vec<u8>) {
        let dgram = Datagram { src, dst, payload, transport: Transport::Udp };
        self.world.send(self.host, dgram);
    }

    /// Sends a message over the reliable TCP-like transport: never lost,
    /// but pays a connection-setup round trip (used for DNS truncation
    /// fallback).
    pub fn send_tcp(&mut self, src: SimAddr, dst: SimAddr, payload: Vec<u8>) {
        let dgram = Datagram { src, dst, payload, transport: Transport::Tcp };
        self.world.send(self.host, dgram);
    }

    /// An empty buffer to write a payload into: a recycled one when the
    /// world has a spare, else a fresh one. Sending it hands it on.
    pub fn buffer(&mut self) -> Vec<u8> {
        self.world.spares.pop().unwrap_or_else(|| Vec::with_capacity(FRESH_BUFFER_CAPACITY))
    }

    /// Gives a payload this actor is done with back for a later
    /// [`Context::buffer`]. Optional: a buffer that is simply dropped
    /// costs a fresh allocation later, nothing else.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.world.recycle(buf);
    }

    /// Schedules `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.world.now + delay;
        self.world.queue.push(at, self.host, Event::Timer(token));
    }

    /// This host's first unicast address (most hosts have exactly one).
    pub fn own_addr(&self) -> SimAddr {
        self.world.hosts[self.host.index() as usize]
            .addresses
            .first()
            .copied()
            .expect("host has no bound address")
    }
}

/// The simulator: owns the world and the actors, and drives the loop.
pub struct Simulator {
    world: World,
    actors: Vec<Option<Box<dyn Actor>>>,
    started: bool,
}

impl Simulator {
    /// Creates a simulator with the default latency model.
    pub fn new(seed: u64) -> Self {
        Simulator::with_latency(seed, LatencyConfig::default())
    }

    /// Creates a simulator with an explicit latency configuration.
    pub fn with_latency(seed: u64, config: LatencyConfig) -> Self {
        Simulator {
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                hosts: Vec::new(),
                routes: Vec::new(),
                families: Vec::new(),
                latency: LatencyModel::new(config, seed ^ 0xd1f4_5e0c_9a2b_7310),
                rng: DetRng::seed_from_u64(seed),
                stats: NetStats::default(),
                catchments: HashMap::new(),
                withdrawn: HashSet::new(),
                spares: Vec::new(),
            },
            actors: Vec::new(),
            started: false,
        }
    }

    /// Adds a host running `actor`. Returns its id.
    pub fn add_host(&mut self, config: HostConfig, actor: Box<dyn Actor>) -> HostId {
        assert!(!self.started, "cannot add hosts after the simulation started");
        let id = HostId(self.world.hosts.len() as u32);
        self.world.hosts.push(HostInfo { config, addresses: Vec::new() });
        self.actors.push(Some(actor));
        id
    }

    /// Allocates a fresh unicast IPv4-like address for `host`.
    pub fn bind_unicast(&mut self, host: HostId) -> SimAddr {
        self.bind_unicast_with_family(host, AddrFamily::V4)
    }

    /// Allocates a fresh unicast address in the given family.
    pub fn bind_unicast_with_family(&mut self, host: HostId, family: AddrFamily) -> SimAddr {
        let addr = SimAddr::new(self.world.routes.len() as u32, family);
        self.world.routes.push(Route::Unicast(host));
        self.world.families.push(family);
        self.world.hosts[host.index() as usize].addresses.push(addr);
        addr
    }

    /// Allocates an anycast service address shared by `sites`. Each
    /// sender is routed to its catchment site (lowest base latency).
    pub fn bind_anycast(&mut self, sites: &[HostId]) -> SimAddr {
        self.bind_anycast_with_family(sites, AddrFamily::V4)
    }

    /// Anycast bind with an explicit address family.
    pub fn bind_anycast_with_family(&mut self, sites: &[HostId], family: AddrFamily) -> SimAddr {
        assert!(!sites.is_empty(), "anycast service needs at least one site");
        let addr = SimAddr::new(self.world.routes.len() as u32, family);
        self.world.routes.push(Route::Anycast(sites.to_vec()));
        self.world.families.push(family);
        addr
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Network counters.
    pub fn stats(&self) -> NetStats {
        self.world.stats
    }

    /// Host metadata.
    pub fn host_info(&self, host: HostId) -> &HostInfo {
        &self.world.hosts[host.index() as usize]
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.world.hosts.len()
    }

    /// Ground-truth RTT (no jitter) between two hosts — what an infinite
    /// number of pings would converge to.
    pub fn base_rtt(&self, a: HostId, b: HostId) -> SimDuration {
        self.world.base_one_way(a, b) + self.world.base_one_way(b, a)
    }

    /// The anycast catchment of `addr` as seen from `sender`; for unicast
    /// addresses, simply the bound host.
    pub fn catchment(&mut self, sender: HostId, addr: SimAddr) -> Option<HostId> {
        self.world.route(sender, addr)
    }

    /// Borrows an actor, downcast to its concrete type.
    pub fn actor<T: Actor + 'static>(&self, host: HostId) -> Option<&T> {
        self.actors[host.index() as usize]
            .as_deref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutably borrows an actor, downcast to its concrete type.
    pub fn actor_mut<T: Actor + 'static>(&mut self, host: HostId) -> Option<&mut T> {
        self.actors[host.index() as usize]
            .as_deref_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let host = HostId(i as u32);
            self.with_actor(host, |actor, ctx| actor.on_start(ctx));
        }
    }

    fn with_actor(&mut self, host: HostId, f: impl FnOnce(&mut dyn Actor, &mut Context<'_>)) {
        let mut actor = self.actors[host.index() as usize]
            .take()
            .expect("actor re-entrancy: host dispatched while already borrowed");
        {
            let mut ctx = Context { world: &mut self.world, host };
            f(actor.as_mut(), &mut ctx);
        }
        self.actors[host.index() as usize] = Some(actor);
    }

    /// Schedules an anycast site to stop (`announced = false`) or resume
    /// (`true`) announcing the service prefix at virtual time `at`. Use
    /// this to model a site failure or DDoS-forced withdrawal: from `at`
    /// on, senders in the site's catchment are routed to the nearest
    /// remaining site, like BGP reconvergence. If every site of a service
    /// is withdrawn, datagrams to it are dropped.
    pub fn schedule_announcement(
        &mut self,
        addr: SimAddr,
        site: HostId,
        at: SimTime,
        announced: bool,
    ) {
        match self.world.routes.get(addr.index() as usize) {
            Some(Route::Anycast(sites)) if sites.contains(&site) => {}
            _ => panic!("schedule_announcement: {addr} is not an anycast service of host {site:?}"),
        }
        self.world.queue.push(at, site, Event::SetAnnounced {
            addr_index: addr.index(),
            announced,
        });
    }

    /// Convenience: withdraw a site during `[from, until)`.
    pub fn schedule_withdrawal(
        &mut self,
        addr: SimAddr,
        site: HostId,
        from: SimTime,
        until: SimTime,
    ) {
        self.schedule_announcement(addr, site, from, false);
        self.schedule_announcement(addr, site, until, true);
    }

    /// Dispatches one scheduled event, advancing the clock to it.
    fn dispatch(&mut self, scheduled: crate::event::Scheduled) {
        self.world.now = scheduled.time;
        match scheduled.event {
            Event::Deliver(dgram) => {
                self.world.stats.delivered += 1;
                self.with_actor(scheduled.host, |actor, ctx| actor.on_datagram(ctx, dgram));
            }
            Event::Timer(token) => {
                self.world.stats.timers_fired += 1;
                self.with_actor(scheduled.host, |actor, ctx| actor.on_timer(ctx, token));
            }
            Event::SetAnnounced { addr_index, announced } => {
                if announced {
                    self.world.withdrawn.remove(&(addr_index, scheduled.host));
                } else {
                    self.world.withdrawn.insert((addr_index, scheduled.host));
                }
                // Catchments for this service must be recomputed: BGP
                // converges to the nearest remaining site.
                self.world.catchments.retain(|&(_, addr), _| addr != addr_index);
            }
        }
    }

    /// Runs until the queue is empty or virtual time would pass `deadline`.
    /// Events at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_if_needed();
        while let Some(t) = self.world.queue.peek_time() {
            if t > deadline {
                break;
            }
            let scheduled = self.world.queue.pop().expect("peeked event vanished");
            self.dispatch(scheduled);
        }
        if self.world.now < deadline {
            self.world.now = deadline;
        }
    }

    /// Runs until no events remain. The clock stops at the last
    /// processed event (it does not leap forward).
    pub fn run_until_idle(&mut self) {
        self.start_if_needed();
        while self.world.queue.peek_time().is_some() {
            let scheduled = self.world.queue.pop().expect("peeked event vanished");
            self.dispatch(scheduled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::datacenters;

    /// Echoes every datagram back to its sender with the same payload.
    struct Echo;

    impl Actor for Echo {
        fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
            ctx.send(dgram.dst, dgram.src, dgram.payload);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one ping at start and records when the echo returns.
    struct Pinger {
        target: SimAddr,
        sent_at: Option<SimTime>,
        rtt: Option<SimDuration>,
    }

    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.sent_at = Some(ctx.now());
            let own = ctx.own_addr();
            ctx.send(own, self.target, vec![1, 2, 3]);
        }
        fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
            assert_eq!(dgram.payload, vec![1, 2, 3]);
            self.rtt = Some(ctx.now().since(self.sent_at.unwrap()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn cfg(place: &Place) -> HostConfig {
        HostConfig::at_place(place, SimDuration::from_millis(2), 64500)
    }

    fn lossless(seed: u64) -> Simulator {
        Simulator::with_latency(
            seed,
            LatencyConfig { loss_rate: 0.0, jitter_mean_ms: 0.0, ..LatencyConfig::default() },
        )
    }

    #[test]
    fn ping_pong_rtt_matches_geography() {
        let mut sim = lossless(1);
        let server = sim.add_host(cfg(&datacenters::FRA), Box::new(Echo));
        let server_addr = sim.bind_unicast(server);
        let client = sim.add_host(
            cfg(&datacenters::SYD),
            Box::new(Pinger { target: server_addr, sent_at: None, rtt: None }),
        );
        sim.bind_unicast(client);
        sim.run_until_idle();

        let pinger = sim.actor::<Pinger>(client).unwrap();
        let rtt = pinger.rtt.expect("echo never arrived");
        let expected = sim.base_rtt(client, server);
        assert_eq!(rtt, expected);
        assert!((200.0..520.0).contains(&rtt.as_millis_f64()), "FRA-SYD rtt {rtt}");
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn anycast_routes_to_nearest_site() {
        let mut sim = lossless(2);
        let fra = sim.add_host(cfg(&datacenters::FRA), Box::new(Echo));
        let syd = sim.add_host(cfg(&datacenters::SYD), Box::new(Echo));
        let anycast = sim.bind_anycast(&[fra, syd]);

        let eu_client = sim.add_host(
            cfg(&datacenters::DUB),
            Box::new(Pinger { target: anycast, sent_at: None, rtt: None }),
        );
        sim.bind_unicast(eu_client);
        let oc_client = sim.add_host(
            cfg(&datacenters::SYD),
            Box::new(Pinger { target: anycast, sent_at: None, rtt: None }),
        );
        sim.bind_unicast(oc_client);

        assert_eq!(sim.catchment(eu_client, anycast), Some(fra));
        assert_eq!(sim.catchment(oc_client, anycast), Some(syd));

        sim.run_until_idle();
        let eu_rtt = sim.actor::<Pinger>(eu_client).unwrap().rtt.unwrap();
        let oc_rtt = sim.actor::<Pinger>(oc_client).unwrap().rtt.unwrap();
        // Both clients are near one site, so both see low RTT: the whole
        // point of anycast (and of the paper's recommendation).
        assert!(eu_rtt.as_millis_f64() < 40.0, "eu {eu_rtt}");
        assert!(oc_rtt.as_millis_f64() < 40.0, "oc {oc_rtt}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let server = sim.add_host(cfg(&datacenters::IAD), Box::new(Echo));
            let addr = sim.bind_unicast(server);
            let client = sim.add_host(
                cfg(&datacenters::GRU),
                Box::new(Pinger { target: addr, sent_at: None, rtt: None }),
            );
            sim.bind_unicast(client);
            sim.run_until_idle();
            sim.actor::<Pinger>(client).unwrap().rtt
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // different seed, different jitter
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor for TimerActor {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(30), 3);
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = lossless(3);
        let h = sim.add_host(cfg(&datacenters::FRA), Box::new(TimerActor { fired: vec![] }));
        sim.bind_unicast(h);
        sim.run_until_idle();
        assert_eq!(sim.actor::<TimerActor>(h).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(sim.stats().timers_fired, 3);
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Periodic;
        impl Actor for Periodic {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = lossless(4);
        let h = sim.add_host(cfg(&datacenters::FRA), Box::new(Periodic));
        sim.bind_unicast(h);
        let deadline = SimTime::ZERO + SimDuration::from_secs(10);
        sim.run_until(deadline);
        assert_eq!(sim.now(), deadline);
        assert_eq!(sim.stats().timers_fired, 10);
    }

    #[test]
    fn lossy_link_drops_packets() {
        let mut sim = Simulator::with_latency(
            5,
            LatencyConfig { loss_rate: 1.0, ..LatencyConfig::default() },
        );
        let server = sim.add_host(cfg(&datacenters::FRA), Box::new(Echo));
        let addr = sim.bind_unicast(server);
        let client = sim.add_host(
            cfg(&datacenters::DUB),
            Box::new(Pinger { target: addr, sent_at: None, rtt: None }),
        );
        sim.bind_unicast(client);
        sim.run_until_idle();
        assert!(sim.actor::<Pinger>(client).unwrap().rtt.is_none());
        assert_eq!(sim.stats().dropped, 1);
        assert_eq!(sim.stats().delivered, 0);
    }

    #[test]
    fn unroutable_destination_is_dropped_not_fatal() {
        struct SendsToNowhere;
        impl Actor for SendsToNowhere {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let own = ctx.own_addr();
                let bogus = SimAddr::new(9999, AddrFamily::V4);
                ctx.send(own, bogus, vec![]);
            }
            fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = lossless(6);
        let h = sim.add_host(cfg(&datacenters::FRA), Box::new(SendsToNowhere));
        sim.bind_unicast(h);
        sim.run_until_idle();
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn catchment_is_stable_across_calls() {
        let mut sim = lossless(9);
        let fra = sim.add_host(cfg(&datacenters::FRA), Box::new(Echo));
        let iad = sim.add_host(cfg(&datacenters::IAD), Box::new(Echo));
        let svc = sim.bind_anycast(&[fra, iad]);
        let c = sim.add_host(cfg(&datacenters::DUB), Box::new(Echo));
        sim.bind_unicast(c);
        let first = sim.catchment(c, svc);
        for _ in 0..5 {
            assert_eq!(sim.catchment(c, svc), first);
        }
    }

    /// A pinger that fires one ping per second and counts echoes.
    struct RepeatPinger {
        target: SimAddr,
        to_send: u32,
        received: u32,
    }
    impl Actor for RepeatPinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
            if self.to_send == 0 {
                return;
            }
            self.to_send -= 1;
            let own = ctx.own_addr();
            ctx.send(own, self.target, vec![7]);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {
            self.received += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn withdrawal_moves_catchment_to_next_site() {
        let mut sim = lossless(10);
        let fra = sim.add_host(cfg(&datacenters::FRA), Box::new(Echo));
        let iad = sim.add_host(cfg(&datacenters::IAD), Box::new(Echo));
        let svc = sim.bind_anycast(&[fra, iad]);
        let client = sim.add_host(
            cfg(&datacenters::DUB),
            Box::new(RepeatPinger { target: svc, to_send: 10, received: 0 }),
        );
        sim.bind_unicast(client);

        // FRA is withdrawn from t=3s to t=7s.
        sim.schedule_withdrawal(
            svc,
            fra,
            SimTime::ZERO + SimDuration::from_secs(3),
            SimTime::ZERO + SimDuration::from_secs(7),
        );

        assert_eq!(sim.catchment(client, svc), Some(fra), "initially FRA");
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.catchment(client, svc), Some(iad), "rerouted to IAD during outage");
        sim.run_until_idle();
        assert_eq!(sim.catchment(client, svc), Some(fra), "restored after outage");

        // No pings were lost: anycast absorbed the site failure.
        let pinger = sim.actor::<RepeatPinger>(client).unwrap();
        assert_eq!(pinger.received, 10);
        let fra_echo = sim.actor::<Echo>(fra).unwrap();
        let _ = fra_echo;
        assert!(sim.stats().dropped == 0);
    }

    #[test]
    fn withdrawing_all_sites_blackholes() {
        let mut sim = lossless(11);
        let fra = sim.add_host(cfg(&datacenters::FRA), Box::new(Echo));
        let svc = sim.bind_anycast(&[fra]);
        let client = sim.add_host(
            cfg(&datacenters::DUB),
            Box::new(RepeatPinger { target: svc, to_send: 3, received: 0 }),
        );
        sim.bind_unicast(client);
        sim.schedule_announcement(svc, fra, SimTime::ZERO, false);
        sim.run_until_idle();
        let pinger = sim.actor::<RepeatPinger>(client).unwrap();
        assert_eq!(pinger.received, 0);
        assert_eq!(sim.stats().dropped, 3);
    }

    /// Takes buffers from the pool after seeding it, and records what
    /// came back: (len, capacity) per `Context::buffer` call.
    struct PoolUser {
        recycle: usize,
        take: usize,
        send_first: bool,
        got: Vec<(usize, usize)>,
    }
    impl Actor for PoolUser {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let stale = || {
                let mut b = Vec::with_capacity(4096);
                b.extend_from_slice(b"stale");
                b
            };
            if self.send_first {
                let own = ctx.own_addr();
                ctx.send(own, own, stale());
            }
            for _ in 0..self.recycle {
                ctx.recycle(stale());
            }
            for _ in 0..self.take {
                let b = ctx.buffer();
                self.got.push((b.len(), b.capacity()));
            }
        }
        fn on_datagram(&mut self, _ctx: &mut Context<'_>, _d: Datagram) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pool_run(sim: &mut Simulator, actor: PoolUser) -> Vec<(usize, usize)> {
        let h = sim.add_host(cfg(&datacenters::FRA), Box::new(actor));
        sim.bind_unicast(h);
        sim.run_until_idle();
        sim.actor::<PoolUser>(h).unwrap().got.clone()
    }

    #[test]
    fn recycled_buffers_come_back_cleared_and_the_pool_is_bounded() {
        let actor = PoolUser {
            recycle: SPARE_BUFFERS + 4,
            take: SPARE_BUFFERS + 1,
            send_first: false,
            got: vec![],
        };
        let got = pool_run(&mut lossless(13), actor);
        assert_eq!(got[..SPARE_BUFFERS], vec![(0, 4096); SPARE_BUFFERS][..], "spares, cleared");
        assert_eq!(got[SPARE_BUFFERS], (0, FRESH_BUFFER_CAPACITY), "the pool kept no more");
    }

    #[test]
    fn a_dropped_datagram_returns_its_payload_to_the_pool() {
        let lossy = LatencyConfig { loss_rate: 1.0, ..LatencyConfig::default() };
        let mut sim = Simulator::with_latency(14, lossy);
        let actor = PoolUser { recycle: 0, take: 2, send_first: true, got: vec![] };
        assert_eq!(pool_run(&mut sim, actor), vec![(0, 4096), (0, FRESH_BUFFER_CAPACITY)]);
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    #[should_panic(expected = "not an anycast service")]
    fn withdrawal_of_unicast_rejected() {
        let mut sim = lossless(12);
        let fra = sim.add_host(cfg(&datacenters::FRA), Box::new(Echo));
        let addr = sim.bind_unicast(fra);
        sim.schedule_announcement(addr, fra, SimTime::ZERO, false);
    }
}
