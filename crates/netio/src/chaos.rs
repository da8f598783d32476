//! Deterministic fault injection for the real-socket plane.
//!
//! The paper's central phenomenon — recursives re-ranking a zone's
//! authoritatives by observed RTT and failure (§4.2–§4.4) — only
//! emerges when the network between resolver and authoritative is
//! imperfect. The simulator injects loss and jitter under a virtual
//! clock; this module does the same to *real* UDP datagrams, as a
//! proxy that sits between a client and an upstream server and drops,
//! duplicates, delays, reorders, truncates and bit-corrupts traffic
//! per direction.
//!
//! ## Why the schedule is reproducible on real sockets
//!
//! Thread interleaving, kernel scheduling and SRTT-driven server
//! selection make *arrival order* nondeterministic, so faults keyed on
//! order (or on wall time) would never replay. Instead, every decision
//! is a pure function of
//!
//! ```text
//! (plan seed, direction, datagram content, occurrence index)
//! ```
//!
//! where the occurrence index counts how many times these exact bytes
//! have been seen in this direction. A datagram's fate is therefore
//! independent of when it arrives, which proxy instance of the plan it
//! traverses, and which thread carries it — two runs with the same seed
//! and the same traffic *content* take identical faults, byte for byte.
//! The plan folds every decision (including the mutated payload bytes)
//! into an order-insensitive [`FaultPlan::schedule_digest`], which is
//! what the chaos gate compares across runs.
//!
//! ## One thread per proxy
//!
//! A [`ChaosProxy`] is one thread waiting in one `poll(2)` (the
//! `dnswild-mmsg` shim) on every socket it owns: the listen socket, each
//! client session's connected upstream socket, the TCP listener and the
//! stream each TCP relay waits on. Each turn sends the delayed copies
//! that are due — both directions share one due-ordered queue — then
//! waits until a socket is readable, the next copy is due or
//! `STOP_POLL_INTERVAL` passes, then reads every readable socket until
//! it would block. A TCP relay is a state per connection, not a thread:
//! every stream is non-blocking, a write that would block closes the
//! relay, and only the upstream `connect` ever waits.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use detrand::{splitmix64, DetRng, Rng};
use dnswild_metrics::{counter_set, kv_line, AtomicSet, CounterSet, Registry};
use dnswild_mmsg::{poll, PollFd};

use crate::closed_loop::unspecified_for;
use crate::server::{bind_twin, is_idle_recv};
use crate::tcp::{write_frame, FrameReader};
use dnswild_telemetry::{
    hash_bytes, hash_socket_addr, journey_from_payload, Collector, Event,
    EventKind, Producer, FLAG_CHAOS_CORRUPT, FLAG_CHAOS_DELAY, FLAG_CHAOS_DROP, FLAG_CHAOS_DUP,
    FLAG_CHAOS_REORDER, FLAG_CHAOS_TRUNCATE, RCODE_NONE,
};

/// The longest a proxy's `poll` waits with no copy due, and so how late
/// it sees the stop flag.
const STOP_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Which way a datagram is travelling through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → upstream (queries).
    Forward,
    /// Upstream → client (responses).
    Reverse,
}

impl Direction {
    fn tag(self) -> u64 {
        match self {
            Direction::Forward => 0x464f_5257,
            Direction::Reverse => 0x5245_5652,
        }
    }
}

/// The fault mix applied to one direction of one authoritative's
/// traffic. Probabilities are per datagram; delays are drawn uniformly
/// from `[delay_min, delay_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability the datagram is silently dropped.
    pub drop: f64,
    /// Probability a second copy is delivered (each copy draws its own
    /// delay and mutations).
    pub dup: f64,
    /// Probability one byte is XORed with a random non-zero mask.
    pub corrupt: f64,
    /// Probability the datagram is cut at a random offset `>= 1`, with
    /// TC=1 set in the surviving header (as a real truncating hop
    /// would mark it).
    pub truncate: f64,
    /// Probability the datagram is held an extra `delay_max` beyond its
    /// drawn delay, letting later traffic overtake it.
    pub reorder: f64,
    /// Lower bound of the per-copy delay, microseconds.
    pub delay_min_us: u64,
    /// Upper bound of the per-copy delay, microseconds.
    pub delay_max_us: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::lossless()
    }
}

impl FaultProfile {
    /// No faults at all: the proxy becomes a transparent forwarder.
    pub const fn lossless() -> Self {
        FaultProfile {
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            reorder: 0.0,
            delay_min_us: 0,
            delay_max_us: 0,
        }
    }

    /// Sets the delay range in milliseconds.
    pub fn delay_ms(mut self, min: u64, max: u64) -> Self {
        self.delay_min_us = min * 1_000;
        self.delay_max_us = max.max(min) * 1_000;
        self
    }

    /// The worst-case hold time one copy can experience (drawn delay
    /// plus a reorder hold). Clients must keep their retransmit timeout
    /// comfortably above the sum of both directions' bounds, or injected
    /// delay would race the timer and break run-to-run determinism.
    pub fn max_hold(&self) -> Duration {
        Duration::from_micros(self.delay_max_us.saturating_mul(2))
    }
}

/// The fault mix applied to TCP fallback traffic crossing the proxy.
/// Each probability is drawn once per *query frame* (content-keyed like
/// the UDP faults), in the order the fields are declared; the first
/// draw that fires decides the whole exchange's fate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TcpFaultProfile {
    /// Connection is closed on receipt of the frame, before anything is
    /// forwarded — the client sees an immediate EOF, as from a refusing
    /// or overloaded server.
    pub refuse: f64,
    /// The query is forwarded upstream but the connection is torn down
    /// before the response is relayed — a mid-stream reset.
    pub reset: f64,
    /// The frame is swallowed and the connection left open with nothing
    /// coming back — a slow-loris stall the client can only escape by
    /// timing out.
    pub stall: f64,
    /// The response is relayed under a length prefix overstating the
    /// payload, so the client's framing starves waiting for bytes that
    /// never come.
    pub corrupt_len: f64,
}

impl TcpFaultProfile {
    /// No TCP faults: frames are relayed transparently.
    pub const fn lossless() -> Self {
        TcpFaultProfile { refuse: 0.0, reset: 0.0, stall: 0.0, corrupt_len: 0.0 }
    }
}

/// The fate [`FaultPlan::decide_tcp`] chose for one TCP query frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpFate {
    /// Relay the query and its response unmodified.
    Deliver,
    /// Close the connection without forwarding.
    Refuse,
    /// Forward the query, then close before relaying the response.
    Reset,
    /// Swallow the frame; leave the connection open and silent.
    Stall,
    /// Relay the response under an overstated length prefix.
    CorruptLen,
}

impl TcpFate {
    /// Distinct digest action code (UDP deliveries use 0–2).
    fn action(self) -> u64 {
        match self {
            TcpFate::Deliver => 3,
            TcpFate::Refuse => 4,
            TcpFate::Reset => 5,
            TcpFate::Stall => 6,
            TcpFate::CorruptLen => 7,
        }
    }
}

counter_set! {
    /// A point-in-time copy of the TCP-side fault tallies. The labels
    /// are the `kind`s of the scraped `dnswild_chaos_tcp_events_total`.
    pub struct TcpFaultTally {
        /// TCP connections accepted by the proxy.
        conns => "conns",
        /// Query frames read from clients.
        frames => "frames",
        /// Frames relayed with their responses, unmodified.
        delivered => "ok",
        /// Connections closed on receipt of a frame.
        refused => "refuse",
        /// Connections reset after the query went upstream.
        reset => "reset",
        /// Frames swallowed with the connection left hanging.
        stalled => "stall",
        /// Responses relayed under a corrupted length prefix.
        corrupt_len => "badlen",
    }
}

impl TcpFaultTally {
    /// Canonical `k=v` rendering for reproducibility comparisons.
    /// `conns` (the first field) is excluded: how many connections the
    /// client opens depends on real socket timing, while the per-frame
    /// fate counts are content-determined.
    pub fn render(&self) -> String {
        kv_line(&self.kinds()[1..])
    }
}

/// One scheduled delivery decided for an inbound datagram: the (possibly
/// mutated) bytes and how long to hold them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The bytes to forward (mutations already applied).
    pub payload: Vec<u8>,
    /// How long to hold the copy before sending.
    pub delay: Duration,
}

counter_set! {
    /// A point-in-time copy of one direction's fault tallies, counted
    /// per datagram (`in`, `drop`) and per scheduled copy (the rest).
    /// The labels are the keys of the `chaos-fwd:` / `chaos-rev:` lines
    /// and the `kind`s of the scraped `dnswild_chaos_events_total`.
    pub struct DirTally {
        /// Datagrams that entered the proxy in this direction.
        inspected => "in",
        /// Copies scheduled for delivery (after drops, including dups).
        delivered => "out",
        /// Datagrams dropped outright.
        dropped => "drop",
        /// Extra copies created.
        duplicated => "dup",
        /// Copies with one byte XOR-corrupted.
        corrupted => "corrupt",
        /// Copies cut short.
        truncated => "trunc",
        /// Copies held an extra reorder interval.
        reordered => "reorder",
        /// Copies with a non-zero delay.
        delayed => "delayed",
    }
}

/// The seeded fault schedule. One plan may back any number of
/// [`ChaosProxy`] instances (its occurrence map and counters are
/// shared), which is what makes multi-authoritative runs with one
/// shared profile reproducible regardless of which authoritative a
/// resolver happens to pick.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    forward: FaultProfile,
    reverse: FaultProfile,
    tcp: TcpFaultProfile,
    /// content-key → how many times these bytes were seen.
    occurrences: Mutex<HashMap<u64, u64>>,
    /// Order-insensitive fold (wrapping sum) of per-event hashes.
    digest: AtomicU64,
    events: AtomicU64,
    fwd: AtomicSet<DirTally, 8>,
    rev: AtomicSet<DirTally, 8>,
    tcp_counters: AtomicSet<TcpFaultTally, 7>,
}

impl FaultPlan {
    /// A plan applying `forward` to client→upstream traffic and
    /// `reverse` to upstream→client traffic, all decisions derived from
    /// `seed`.
    pub fn new(seed: u64, forward: FaultProfile, reverse: FaultProfile) -> Self {
        FaultPlan {
            seed,
            forward,
            reverse,
            tcp: TcpFaultProfile::lossless(),
            occurrences: Mutex::new(HashMap::new()),
            digest: AtomicU64::new(0),
            events: AtomicU64::new(0),
            fwd: AtomicSet::default(),
            rev: AtomicSet::default(),
            tcp_counters: AtomicSet::default(),
        }
    }

    /// Applies `profile` to TCP fallback traffic (lossless by default).
    pub fn with_tcp(mut self, profile: TcpFaultProfile) -> Self {
        self.tcp = profile;
        self
    }

    /// The TCP fault profile.
    pub fn tcp_profile(&self) -> &TcpFaultProfile {
        &self.tcp
    }

    /// TCP-side fault tallies.
    pub fn tcp_tally(&self) -> TcpFaultTally {
        self.tcp_counters.snapshot()
    }

    /// Feeds `dnswild_chaos_events_total{dir,kind}` — one series per
    /// [`DirTally`] field and direction — and
    /// `dnswild_chaos_tcp_events_total{kind}` from this plan's tallies
    /// on every read of `registry`. The plan, not a proxy, owns them,
    /// so whoever creates the plan calls this once, however many
    /// proxies share it.
    pub fn register(self: &Arc<Self>, registry: &Registry) {
        for (dir, label) in [(Direction::Forward, "forward"), (Direction::Reverse, "reverse")] {
            let plan = Arc::clone(self);
            registry.mirror_counters(
                "dnswild_chaos_events_total",
                "chaos fault-plan decisions per direction, one series per DirTally field",
                &[("dir", label)],
                move || plan.tally(dir),
            );
        }
        let plan = Arc::clone(self);
        registry.mirror_counters(
            "dnswild_chaos_tcp_events_total",
            "chaos fault-plan TCP frame fates, one series per TcpFaultTally field",
            &[],
            move || plan.tcp_tally(),
        );
    }

    /// Decides the fate of one TCP query frame, keyed — like
    /// [`FaultPlan::decide`] — on `(seed, frame bytes, occurrence)` with
    /// a TCP-specific stream tag, so retried frames draw fresh but
    /// reproducible fates and the aggregate counts are content-
    /// determined regardless of connection interleaving.
    pub fn decide_tcp(&self, frame: &[u8]) -> TcpFate {
        let mut tally = TcpFaultTally { frames: 1, ..Default::default() };
        let key = hash_bytes(splitmix64(self.seed ^ 0x5443_5051), frame);
        let occurrence = {
            let mut map = self.occurrences.lock().expect("occurrence map poisoned");
            let slot = map.entry(key).or_insert(0);
            let seen = *slot;
            *slot += 1;
            seen
        };
        let mut rng =
            DetRng::seed_from_u64(splitmix64(key ^ splitmix64(occurrence ^ 0x7463_7066)));
        let p = self.tcp;
        let fate = if rng.gen_bool(p.refuse) {
            tally.refused = 1;
            TcpFate::Refuse
        } else if rng.gen_bool(p.reset) {
            tally.reset = 1;
            TcpFate::Reset
        } else if rng.gen_bool(p.stall) {
            tally.stalled = 1;
            TcpFate::Stall
        } else if rng.gen_bool(p.corrupt_len) {
            tally.corrupt_len = 1;
            TcpFate::CorruptLen
        } else {
            tally.delivered = 1;
            TcpFate::Deliver
        };
        self.tcp_counters.add(tally);
        self.record_event(key, occurrence, fate.action(), 0, frame);
        fate
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The profile applied in `dir`.
    pub fn profile(&self, dir: Direction) -> &FaultProfile {
        match dir {
            Direction::Forward => &self.forward,
            Direction::Reverse => &self.reverse,
        }
    }

    /// Order-insensitive digest of every decision taken so far,
    /// including the delivered bytes themselves. Two runs with the same
    /// seed and traffic content produce the same digest no matter how
    /// their threads interleaved.
    pub fn schedule_digest(&self) -> u64 {
        self.digest.load(Ordering::Relaxed)
    }

    /// Decisions taken so far (dropped datagrams and delivered copies).
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Fault tallies for one direction.
    pub fn tally(&self, dir: Direction) -> DirTally {
        self.counters(dir).snapshot()
    }

    fn counters(&self, dir: Direction) -> &AtomicSet<DirTally, 8> {
        match dir {
            Direction::Forward => &self.fwd,
            Direction::Reverse => &self.rev,
        }
    }

    /// Decides the fate of one datagram: zero (dropped), one, or two
    /// (duplicated) deliveries, each with its own delay and mutations.
    pub fn decide(&self, dir: Direction, payload: &[u8]) -> Vec<Delivery> {
        let profile = *self.profile(dir);
        let mut tally = DirTally { inspected: 1, ..Default::default() };

        let key = hash_bytes(splitmix64(self.seed ^ dir.tag()), payload);
        let occurrence = {
            let mut map = self.occurrences.lock().expect("occurrence map poisoned");
            let slot = map.entry(key).or_insert(0);
            let seen = *slot;
            *slot += 1;
            seen
        };
        let mut rng =
            DetRng::seed_from_u64(splitmix64(key ^ splitmix64(occurrence ^ 0x5bf0_3635)));

        if rng.gen_bool(profile.drop) {
            tally.dropped = 1;
            self.counters(dir).add(tally);
            self.record_event(key, occurrence, 0, 0, &[]);
            return Vec::new();
        }
        let copies = if rng.gen_bool(profile.dup) {
            tally.duplicated += 1;
            2
        } else {
            1
        };

        let mut deliveries = Vec::with_capacity(copies);
        for copy in 0..copies {
            let mut bytes = payload.to_vec();
            if rng.gen_bool(profile.truncate) && bytes.len() >= 2 {
                let keep = rng.gen_range(1..bytes.len());
                bytes.truncate(keep);
                // Real-world truncation (a shim or middlebox cutting a
                // datagram at a size limit) marks the damage: RFC 1035
                // requires TC=1 on anything cut short. Set it whenever
                // the flag byte survived the cut, so a truncated reply
                // whose prefix still decodes classifies as TC downstream
                // instead of masquerading as a short-but-complete one.
                if keep >= 3 {
                    bytes[2] |= 0x02;
                }
                tally.truncated += 1;
            }
            if rng.gen_bool(profile.corrupt) && !bytes.is_empty() {
                // Offset drawn against the original length so the draw
                // sequence does not depend on whether truncation fired.
                let idx = rng.gen_range(0..payload.len().max(1)) % bytes.len();
                let mask = rng.gen_range(1u64..256) as u8;
                bytes[idx] ^= mask;
                tally.corrupted += 1;
            }
            let mut delay_us = if profile.delay_max_us > profile.delay_min_us {
                rng.gen_range(profile.delay_min_us..profile.delay_max_us + 1)
            } else {
                profile.delay_min_us
            };
            if rng.gen_bool(profile.reorder) {
                delay_us += profile.delay_max_us;
                tally.reordered += 1;
            }
            if delay_us > 0 {
                tally.delayed += 1;
            }
            tally.delivered += 1;
            self.record_event(key, occurrence, 1 + copy as u64, delay_us, &bytes);
            deliveries.push(Delivery { payload: bytes, delay: Duration::from_micros(delay_us) });
        }
        self.counters(dir).add(tally);
        deliveries
    }

    /// Folds one decision into the digest. `action` 0 = dropped, 1/2 =
    /// delivered copy number. The fold is a wrapping sum, which is
    /// commutative; (key, occurrence, action) triples are unique per
    /// run, so no two events can cancel.
    fn record_event(&self, key: u64, occurrence: u64, action: u64, delay_us: u64, bytes: &[u8]) {
        let mut ev = splitmix64(key ^ splitmix64(occurrence.wrapping_mul(4).wrapping_add(action)));
        ev = splitmix64(ev ^ delay_us);
        ev = hash_bytes(ev, bytes);
        self.digest.fetch_add(ev, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running chaos proxy between clients and one upstream: a UDP
/// session per client and a relay per TCP fallback connection (under
/// the plan's [`TcpFaultProfile`]), all on one thread (see the module
/// docs).
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen_addr` (port 0 picks an ephemeral port) and starts
    /// proxying to `upstream` under `plan`. With a `collector` it also
    /// records one telemetry event per datagram crossing the proxy
    /// (`ChaosForward` / `ChaosReverse`, `FLAG_CHAOS_*` flags describing
    /// the fate the fault plan chose for it). The plan's tallies reach a
    /// registry through [`FaultPlan::register`].
    pub fn spawn(
        listen_addr: impl ToSocketAddrs,
        upstream: SocketAddr,
        plan: Arc<FaultPlan>,
        collector: Option<Arc<Collector>>,
    ) -> io::Result<ChaosProxy> {
        let addr = listen_addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable listen address"))?;
        // The TCP fallback relay listens on the port the UDP listener got.
        let bind_listen = || -> io::Result<(UdpSocket, SocketAddr)> {
            let socket = UdpSocket::bind(addr)?;
            let local = socket.local_addr()?;
            Ok((socket, local))
        };
        let (listen, local_addr, tcp) = bind_twin(addr, bind_listen, TcpListener::bind)?;
        listen.set_nonblocking(true)?;
        tcp.set_nonblocking(true)?;
        let proxy = ProxyLoop {
            plan,
            producer: collector.map(|c| c.producer()),
            upstream,
            listen,
            tcp,
            sessions: Vec::new(),
            by_client: HashMap::new(),
            relays: Vec::new(),
            held: VecDeque::new(),
            buf: vec![0u8; 65_535],
        };
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("chaos-proxy".into())
            .spawn(counted(move || proxy.run(&flag)))?;
        Ok(ChaosProxy { local_addr, stop, thread: Some(thread) })
    }

    /// The address clients should send to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the proxy's thread. Every copy it still holds is sent
    /// before this returns, however far off it was due.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Reconstructs what the fault plan did to one datagram by comparing
/// the scheduled deliveries against the original payload — committing
/// to what actually happened, not to which RNG draws fired. Returns
/// `FLAG_CHAOS_*` bits plus the longest hold time.
fn delivery_flags(profile: &FaultProfile, payload: &[u8], deliveries: &[Delivery]) -> (u16, Duration) {
    let reorder_floor = Duration::from_micros(profile.delay_max_us);
    let mut flags = 0u16;
    if deliveries.is_empty() {
        flags |= FLAG_CHAOS_DROP;
    }
    if deliveries.len() >= 2 {
        flags |= FLAG_CHAOS_DUP;
    }
    let mut max_delay = Duration::ZERO;
    for d in deliveries {
        if d.payload.len() < payload.len() {
            flags |= FLAG_CHAOS_TRUNCATE;
        } else if d.payload != payload {
            flags |= FLAG_CHAOS_CORRUPT;
        }
        if !d.delay.is_zero() {
            flags |= FLAG_CHAOS_DELAY;
        }
        if d.delay > reorder_floor {
            flags |= FLAG_CHAOS_REORDER;
        }
        max_delay = max_delay.max(d.delay);
    }
    (flags, max_delay)
}

/// Records one telemetry event describing the fate `decide` chose for
/// one datagram (see [`delivery_flags`]).
fn trace_decision(
    producer: &Producer,
    kind: EventKind,
    profile: &FaultProfile,
    client: SocketAddr,
    payload: &[u8],
    deliveries: &[Delivery],
) {
    let mut ev = Event::new(kind);
    ev.ts_ns = producer.now_ns();
    ev.client_hash = hash_socket_addr(&client);
    ev.qname_hash = hash_bytes(0x6368_616f, payload) as u32;
    ev.bytes_in = payload.len().min(u16::MAX as usize) as u16;
    let out: usize = deliveries.iter().map(|d| d.payload.len()).sum();
    ev.bytes_out = out.min(u16::MAX as usize) as u16;
    ev.rcode = RCODE_NONE;
    let (flags, max_delay) = delivery_flags(profile, payload, deliveries);
    ev.flags = flags;
    ev.latency_ns = max_delay.as_nanos().min(u64::from(u32::MAX) as u128) as u32;
    // The proxy only holds opaque bytes, but a DNS question is parseable
    // enough to recover the journey id — that is what lets `explain`
    // place the fault decision *between* the client attempt and the
    // server hop. Corrupted-beyond-parsing payloads stay journey 0.
    let (journey, dns_id) = journey_from_payload(payload);
    ev.journey = journey;
    ev.dns_id = dns_id;
    producer.record(&ev);
}

/// A delayed copy the loop holds until it is due. Its destination is
/// its session's: the upstream for a query (`Forward`), the client via
/// the listen socket for a reply (`Reverse`).
struct Held {
    due: Instant,
    dir: Direction,
    session: usize,
    payload: Vec<u8>,
}

/// Everything one proxy's thread owns; [`ProxyLoop::run`] is the loop
/// the module docs describe.
struct ProxyLoop {
    plan: Arc<FaultPlan>,
    producer: Option<Producer>,
    upstream: SocketAddr,
    listen: UdpSocket,
    tcp: TcpListener,
    /// Each session's client and its connected upstream-facing socket,
    /// in the order they opened; `by_client` indexes them.
    sessions: Vec<(SocketAddr, UdpSocket)>,
    by_client: HashMap<SocketAddr, usize>,
    relays: Vec<TcpRelay>,
    /// Both directions' delayed copies in due order (copies due
    /// together, in the order they were decided).
    held: VecDeque<Held>,
    buf: Vec<u8>,
}

impl ProxyLoop {
    /// Turns until `stop` is raised, then sends every copy still held.
    fn run(mut self, stop: &AtomicBool) {
        let mut fds = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let wait = self.send_due();
            // The poll set: listen socket, TCP listener, sessions, relays.
            let sessions = self.sessions.len();
            fds.clear();
            fds.extend([PollFd::udp(&self.listen), PollFd::tcp_listener(&self.tcp)]);
            fds.extend(self.sessions.iter().map(|(_, s)| PollFd::udp(s)));
            fds.extend(self.relays.iter().map(TcpRelay::poll_fd));
            let _ = poll(&mut fds, wait);
            for session in (0..sessions).filter(|&i| fds[2 + i].readable()) {
                while let Ok(n) = self.sessions[session].1.recv(&mut self.buf) {
                    self.pass(Direction::Reverse, session, n);
                }
            }
            if fds[0].readable() {
                while let Ok((n, client)) = self.listen.recv_from(&mut self.buf) {
                    if let Ok(session) = self.session(client) {
                        self.pass(Direction::Forward, session, n);
                    }
                }
            }
            let (plan, upstream, mut fd) = (&self.plan, self.upstream, 2 + sessions);
            self.relays.retain_mut(|relay| {
                fd += 1;
                !fds[fd - 1].readable() || relay.relay(plan, upstream).is_ok()
            });
            if fds[1].readable() {
                while let Ok((client, _)) = self.tcp.accept() {
                    self.plan.tcp_counters.add(TcpFaultTally { conns: 1, ..Default::default() });
                    self.relays.extend(TcpRelay::new(client).ok());
                }
            }
        }
        for h in std::mem::take(&mut self.held) {
            self.send(&h);
        }
    }

    /// Sends every held copy that is due; returns how long the loop may
    /// wait before the next one is, at most [`STOP_POLL_INTERVAL`].
    fn send_due(&mut self) -> Duration {
        let now = Instant::now();
        while let Some(h) = self.held.pop_front_if(|h| h.due <= now) {
            self.send(&h);
        }
        self.held.front().map_or(STOP_POLL_INTERVAL, |h| (h.due - now).min(STOP_POLL_INTERVAL))
    }

    fn send(&self, h: &Held) {
        let (client, upstream) = &self.sessions[h.session];
        let _ = match h.dir {
            Direction::Forward => upstream.send(&h.payload),
            Direction::Reverse => self.listen.send_to(&h.payload, client),
        };
    }

    /// `client`'s session, opened on its first datagram.
    fn session(&mut self, client: SocketAddr) -> io::Result<usize> {
        if let Some(&i) = self.by_client.get(&client) {
            return Ok(i);
        }
        let socket = UdpSocket::bind(unspecified_for(&self.upstream))?;
        socket.connect(self.upstream)?;
        socket.set_nonblocking(true)?;
        self.sessions.push((client, socket));
        self.by_client.insert(client, self.sessions.len() - 1);
        Ok(self.sessions.len() - 1)
    }

    /// Passes the `n` bytes in `buf`, read in `dir` for `session`,
    /// through the fault plan: each copy is sent now or held until due.
    fn pass(&mut self, dir: Direction, session: usize, n: usize) {
        let payload = &self.buf[..n];
        let deliveries = self.plan.decide(dir, payload);
        if let Some(p) = &self.producer {
            let kind = match dir {
                Direction::Forward => EventKind::ChaosForward,
                Direction::Reverse => EventKind::ChaosReverse,
            };
            let client = self.sessions[session].0;
            trace_decision(p, kind, self.plan.profile(dir), client, payload, &deliveries);
        }
        for d in deliveries {
            let due = Instant::now() + d.delay;
            let copy = Held { due, dir, session, payload: d.payload };
            if d.delay.is_zero() {
                self.send(&copy);
            } else {
                self.held.insert(self.held.partition_point(|h| h.due <= due), copy);
            }
        }
    }
}

/// One TCP fallback connection: the client's stream, the upstream
/// stream opened for its first forwarded frame and reused for the rest,
/// and the fate of the frame whose reply it waits for. It waits on one
/// stream at a time — the upstream while a reply is due, else the
/// client — so a frame pipelined behind one awaiting its reply waits
/// its turn.
struct TcpRelay {
    client: TcpStream,
    reader: FrameReader,
    upstream: Option<(TcpStream, FrameReader)>,
    awaiting: Option<TcpFate>,
    scratch: Vec<u8>,
}

impl TcpRelay {
    fn new(client: TcpStream) -> io::Result<TcpRelay> {
        client.set_nodelay(true)?;
        client.set_nonblocking(true)?;
        let (reader, scratch) = (FrameReader::new(), Vec::new());
        Ok(TcpRelay { client, reader, upstream: None, awaiting: None, scratch })
    }

    /// The stream the relay waits on.
    fn poll_fd(&self) -> PollFd {
        match (&self.upstream, self.awaiting) {
            (Some((upstream, _)), Some(_)) => PollFd::tcp(upstream),
            _ => PollFd::tcp(&self.client),
        }
    }

    /// Relays frames, applying the fate [`FaultPlan::decide_tcp`]
    /// chooses for each query, until the stream it waits on would block
    /// (`Ok`) or the connection is over (`Err`): closed or broken by a
    /// peer, refused or reset by its fate, or a write that would block
    /// — a half-written frame cannot be resumed.
    fn relay(&mut self, plan: &FaultPlan, upstream: SocketAddr) -> io::Result<()> {
        loop {
            if let Some(fate) = self.awaiting {
                let (stream, reader) = self.upstream.as_mut().expect("an awaited reply has a stream");
                let Some(reply) = next_frame(reader, stream)? else { return Ok(()) };
                // CorruptLen overstates the length prefix: the client's
                // framing starves waiting for bytes that never come.
                let lie = if fate == TcpFate::CorruptLen { 7 } else { 0 };
                let len = (reply.len() as u16).saturating_add(lie);
                self.scratch.clear();
                self.scratch.extend_from_slice(&len.to_be_bytes());
                self.scratch.extend_from_slice(reply);
                self.client.write_all(&self.scratch)?;
                self.awaiting = None;
            }
            let Some(query) = next_frame(&mut self.reader, &mut self.client)? else { return Ok(()) };
            let fate = match plan.decide_tcp(query) {
                TcpFate::Refuse => return Err(io::ErrorKind::ConnectionRefused.into()),
                TcpFate::Stall => continue,
                fate => fate,
            };
            if self.upstream.is_none() {
                let stream = TcpStream::connect_timeout(&upstream, Duration::from_secs(2))?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                self.upstream = Some((stream, FrameReader::new()));
            }
            let (stream, _) = self.upstream.as_mut().expect("just connected");
            write_frame(stream, query, &mut self.scratch)?;
            if fate == TcpFate::Reset {
                return Err(io::ErrorKind::ConnectionReset.into());
            }
            self.awaiting = Some(fate);
        }
    }
}

/// The next whole frame `reader` holds or reads from `stream`: `None`
/// when the stream would block first, an error when it closed.
fn next_frame<'a>(reader: &'a mut FrameReader, stream: &mut TcpStream) -> io::Result<Option<&'a [u8]>> {
    match reader.read_frame(stream) {
        Ok(None) => Err(io::ErrorKind::UnexpectedEof.into()),
        Err(e) if is_idle_recv(&e) => Ok(None),
        frame => frame,
    }
}

/// A proxy thread's body, as it is (test builds count its start).
#[cfg(not(test))]
fn counted<F: FnOnce() + Send + 'static>(body: F) -> F {
    body
}
#[cfg(test)]
use tests::counted;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    thread_local! {
        /// Threads proxies started on behalf of this thread, however
        /// deep: a counted thread shares its starter's counter.
        static STARTED: std::cell::RefCell<Arc<AtomicU64>> = std::cell::RefCell::default();
    }

    /// Counts one start of `body` on this thread's [`STARTED`], and
    /// runs `body` with that counter as its own.
    pub(super) fn counted(body: impl FnOnce() + Send + 'static) -> impl FnOnce() + Send + 'static {
        let started = STARTED.with_borrow(Arc::clone);
        started.fetch_add(1, Ordering::Relaxed);
        move || {
            STARTED.set(started);
            body()
        }
    }

    fn heavy_profile() -> FaultProfile {
        FaultProfile {
            drop: 0.2,
            dup: 0.1,
            corrupt: 0.3,
            truncate: 0.2,
            reorder: 0.1,
            delay_min_us: 0,
            delay_max_us: 5_000,
        }
    }

    /// Feeding the same datagram sequence to two plans with the same
    /// seed yields byte-identical deliveries, identical tallies and an
    /// identical digest; a different seed diverges.
    #[test]
    fn decisions_are_a_pure_function_of_seed_and_content() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed, heavy_profile(), heavy_profile());
            let mut out = Vec::new();
            for i in 0..200u32 {
                let payload = format!("datagram-{}", i % 50).into_bytes();
                let dir = if i % 3 == 0 { Direction::Reverse } else { Direction::Forward };
                out.push(plan.decide(dir, &payload));
            }
            (out, plan.tally(Direction::Forward), plan.tally(Direction::Reverse), plan.schedule_digest())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).3, run(43).3, "different seeds must diverge");
    }

    /// Identical bytes seen repeatedly advance an occurrence counter, so
    /// retransmissions of the same datagram draw fresh, but still
    /// deterministic, fates.
    #[test]
    fn occurrence_index_decorrelates_repeats() {
        let plan = FaultPlan::new(7, FaultProfile { drop: 0.5, ..FaultProfile::lossless() }, FaultProfile::lossless());
        let fates: Vec<bool> =
            (0..64).map(|_| !plan.decide(Direction::Forward, b"same bytes").is_empty()).collect();
        let dropped = fates.iter().filter(|f| !**f).count();
        assert!(dropped > 10 && dropped < 54, "half-ish dropped, got {dropped}/64");
        let plan2 = FaultPlan::new(7, FaultProfile { drop: 0.5, ..FaultProfile::lossless() }, FaultProfile::lossless());
        let fates2: Vec<bool> =
            (0..64).map(|_| !plan2.decide(Direction::Forward, b"same bytes").is_empty()).collect();
        assert_eq!(fates, fates2);
    }

    /// The digest commits to event *content*, not arrival order: two
    /// plans fed the same multiset of datagrams in different orders
    /// agree.
    #[test]
    fn digest_is_order_insensitive() {
        let a = FaultPlan::new(9, heavy_profile(), heavy_profile());
        let b = FaultPlan::new(9, heavy_profile(), heavy_profile());
        let payloads: Vec<Vec<u8>> = (0..40u32).map(|i| format!("p{i}").into_bytes()).collect();
        for p in &payloads {
            a.decide(Direction::Forward, p);
        }
        for p in payloads.iter().rev() {
            b.decide(Direction::Forward, p);
        }
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn drop_one_drops_everything_and_counts_it() {
        let plan = FaultPlan::new(
            1,
            FaultProfile { drop: 1.0, ..FaultProfile::lossless() },
            FaultProfile::lossless(),
        );
        for i in 0..32u32 {
            assert!(plan.decide(Direction::Forward, &i.to_be_bytes()).is_empty());
        }
        let t = plan.tally(Direction::Forward);
        assert_eq!((t.inspected, t.dropped, t.delivered), (32, 32, 0));
    }

    /// A lossless proxy is transparent: queries and replies cross it
    /// unmodified, and both directions balance.
    #[test]
    fn lossless_proxy_is_transparent_end_to_end() {
        let upstream = UdpSocket::bind("127.0.0.1:0").unwrap();
        upstream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let plan = Arc::new(FaultPlan::new(0, FaultProfile::lossless(), FaultProfile::lossless()));
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy =
            ChaosProxy::spawn("127.0.0.1:0", upstream_addr, Arc::clone(&plan), None).unwrap();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        client.connect(proxy.local_addr()).unwrap();
        let mut buf = [0u8; 1500];
        for i in 0..8u32 {
            let msg = format!("ping-{i}").into_bytes();
            client.send(&msg).unwrap();
            let (n, peer) = upstream.recv_from(&mut buf).unwrap();
            assert_eq!(&buf[..n], &msg[..], "query crossed unmodified");
            upstream.send_to(format!("pong-{i}").as_bytes(), peer).unwrap();
            let n = client.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], format!("pong-{i}").as_bytes(), "reply crossed unmodified");
        }
        let fwd = plan.tally(Direction::Forward);
        let rev = plan.tally(Direction::Reverse);
        assert_eq!((fwd.inspected, fwd.delivered, fwd.dropped), (8, 8, 0));
        assert_eq!((rev.inspected, rev.delivered, rev.dropped), (8, 8, 0));
        proxy.shutdown();
    }

    /// A registered plan mirrors its datagram and drop counts into the
    /// registry, in exact agreement with its own tallies.
    #[test]
    fn metered_proxy_mirrors_plan_tallies_into_the_registry() {
        let upstream = UdpSocket::bind("127.0.0.1:0").unwrap();
        upstream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let plan = Arc::new(FaultPlan::new(
            5,
            FaultProfile { drop: 0.5, ..FaultProfile::lossless() },
            FaultProfile::lossless(),
        ));
        let registry = Arc::new(Registry::new());
        plan.register(&registry);
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy =
            ChaosProxy::spawn("127.0.0.1:0", upstream_addr, Arc::clone(&plan), None).unwrap();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.connect(proxy.local_addr()).unwrap();
        let mut buf = [0u8; 1500];
        for i in 0..32u32 {
            client.send(format!("probe-{i}").as_bytes()).unwrap();
            // Surviving copies are read so the upstream buffer can't fill.
            upstream.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
            let _ = upstream.recv_from(&mut buf);
        }
        // The proxy thread has recorded every datagram once it has
        // decided its fate; wait for the tally to settle.
        let deadline = Instant::now() + Duration::from_secs(5);
        while plan.tally(Direction::Forward).inspected < 32 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let tally = plan.tally(Direction::Forward);
        assert_eq!(tally.inspected, 32);
        proxy.shutdown();

        let lookup = |name: &str, want: &[(&str, &str)]| -> u64 {
            registry
                .counters(name)
                .into_iter()
                .find(|(labels, _)| {
                    want.iter().all(|(k, v)| {
                        labels.iter().any(|(lk, lv)| lk == k && lv == v)
                    })
                })
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(
            lookup("dnswild_chaos_events_total", &[("dir", "forward"), ("kind", "in")]),
            tally.inspected
        );
        assert_eq!(
            lookup("dnswild_chaos_events_total", &[("dir", "forward"), ("kind", "drop")]),
            tally.dropped
        );
        assert!(tally.dropped > 0, "a 50% drop plan over 32 datagrams drops some");
    }

    #[test]
    fn fault_tallies_cover_every_field() {
        use dnswild_metrics::counters::assert_counter_set_covers_every_field;
        assert_counter_set_covers_every_field::<DirTally, 8>();
        assert_counter_set_covers_every_field::<TcpFaultTally, 7>();
    }

    /// Truncated copies carry TC=1 whenever the header flag byte
    /// survived the cut — so downstream DNS-aware classification sees
    /// the damage marked the way a real truncating hop would mark it.
    #[test]
    fn truncated_copies_set_the_tc_bit() {
        let plan = FaultPlan::new(
            21,
            FaultProfile { truncate: 1.0, ..FaultProfile::lossless() },
            FaultProfile::lossless(),
        );
        let payload = vec![0u8; 64];
        let mut long_enough = 0;
        for _ in 0..32 {
            for d in plan.decide(Direction::Forward, &payload) {
                assert!(d.payload.len() < payload.len(), "always truncated");
                if d.payload.len() >= 3 {
                    assert_eq!(d.payload[2] & 0x02, 0x02, "TC bit set in surviving header");
                    long_enough += 1;
                }
            }
        }
        assert!(long_enough > 0, "some cuts keep the flag byte");
        assert_eq!(plan.tally(Direction::Forward).truncated, 32);
    }

    /// TCP frame fates are a pure function of (seed, frame bytes,
    /// occurrence): two identically seeded plans agree fate-for-fate,
    /// and every fault kind fires under a heavy profile.
    #[test]
    fn tcp_fates_are_content_deterministic() {
        let run = || {
            let plan = FaultPlan::new(11, FaultProfile::lossless(), FaultProfile::lossless())
                .with_tcp(TcpFaultProfile {
                    refuse: 0.25,
                    reset: 0.25,
                    stall: 0.2,
                    corrupt_len: 0.2,
                });
            let fates: Vec<TcpFate> = (0..100u32)
                .map(|i| plan.decide_tcp(format!("frame-{}", i % 25).as_bytes()))
                .collect();
            (fates, plan.tcp_tally(), plan.schedule_digest())
        };
        assert_eq!(run(), run());
        let (_, tally, digest) = run();
        assert_eq!(tally.frames, 100);
        assert_eq!(
            tally.delivered + tally.refused + tally.reset + tally.stalled + tally.corrupt_len,
            100,
            "every frame gets exactly one fate"
        );
        for (name, v) in [
            ("delivered", tally.delivered),
            ("refused", tally.refused),
            ("reset", tally.reset),
            ("stalled", tally.stalled),
            ("corrupt_len", tally.corrupt_len),
        ] {
            assert!(v > 0, "{name} never fired: {}", tally.render());
        }
        // TCP decisions fold into the same digest as UDP ones.
        let lossless = FaultPlan::new(11, FaultProfile::lossless(), FaultProfile::lossless());
        assert_ne!(digest, lossless.schedule_digest());
    }

    /// End to end through a faulty TCP relay: server-side truncation
    /// pushes every transaction to the TCP fallback, the proxy injects
    /// refusals/resets/stalls/length corruption, and the client still
    /// completes everything with balanced books.
    #[test]
    fn truncated_transactions_complete_over_faulty_tcp() {
        use crate::client::{resolve, ResolveConfig};
        use crate::server::{serve, ServeConfig};
        use crate::tcp::TcpOptions;
        use dnswild_proto::Name;
        use dnswild_server::TruncationPolicy;
        use dnswild_zone::presets::padded_test_domain_zone;

        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![padded_test_domain_zone(&origin, 2, 900)]);
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(2)
                .tcp(TcpOptions::default())
                .truncation(TruncationPolicy::symmetric(512)),
        )
        .unwrap();
        let plan = Arc::new(
            FaultPlan::new(2017, FaultProfile::lossless(), FaultProfile::lossless()).with_tcp(
                TcpFaultProfile { refuse: 0.15, reset: 0.05, stall: 0.05, corrupt_len: 0.05 },
            ),
        );
        let proxy = ChaosProxy::spawn("127.0.0.1:0", handle.local_addr(), Arc::clone(&plan), None)
            .unwrap();
        let mut cfg = ResolveConfig::new(vec![proxy.local_addr()], origin)
            .transactions(10)
            .concurrency(2)
            .edns_size(512);
        cfg.timeout = Duration::from_millis(50);
        let report = resolve(cfg).unwrap();
        proxy.shutdown();
        let stats = handle.shutdown();
        report.stats.check().unwrap();
        assert_eq!(report.stats.answered, 10, "{}", report.stats.line());
        assert_eq!(report.stats.tcp_answered, 10, "all answers arrived over TCP");
        let tally = plan.tcp_tally();
        assert!(tally.frames >= 10, "{}", tally.render());
        assert!(tally.delivered >= 10, "{}", tally.render());
        assert!(stats.tcp_queries >= 10, "server saw the relayed frames");
    }

    /// Shutdown sends what the pumps still hold: a copy due in 2 s has
    /// reached the upstream when `shutdown` returns, long before it was
    /// due.
    #[test]
    fn shutdown_sends_every_held_copy() {
        let upstream = UdpSocket::bind("127.0.0.1:0").unwrap();
        let profile = FaultProfile::lossless().delay_ms(2_000, 2_000);
        let plan = Arc::new(FaultPlan::new(3, profile, FaultProfile::lossless()));
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy =
            ChaosProxy::spawn("127.0.0.1:0", upstream_addr, Arc::clone(&plan), None).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(b"held", proxy.local_addr()).unwrap();
        let started = Instant::now();
        while plan.tally(Direction::Forward).delayed == 0 {
            assert!(started.elapsed() < Duration::from_secs(1), "the proxy never took the datagram");
            std::thread::sleep(Duration::from_millis(1));
        }
        proxy.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1), "shutdown waited for the copy to fall due");
        upstream.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 16];
        let (n, _) = upstream.recv_from(&mut buf).expect("the held copy reached the upstream");
        assert_eq!(&buf[..n], b"held");
    }

    /// Delayed copies arrive late but arrive; each pump delivers
    /// everything it holds.
    #[test]
    fn delayed_deliveries_arrive() {
        let upstream = UdpSocket::bind("127.0.0.1:0").unwrap();
        upstream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let profile = FaultProfile::lossless().delay_ms(5, 15);
        let plan = Arc::new(FaultPlan::new(3, profile, FaultProfile::lossless()));
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy =
            ChaosProxy::spawn("127.0.0.1:0", upstream_addr, Arc::clone(&plan), None).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.connect(proxy.local_addr()).unwrap();
        let started = Instant::now();
        for i in 0..4u32 {
            client.send(&i.to_be_bytes()).unwrap();
        }
        let mut buf = [0u8; 64];
        for _ in 0..4 {
            upstream.recv_from(&mut buf).unwrap();
        }
        assert!(started.elapsed() >= Duration::from_millis(5), "copies were held");
        assert_eq!(plan.tally(Direction::Forward).delayed, 4);
        proxy.shutdown();
    }

    /// An upstream on one port that echoes every datagram, and every
    /// TCP frame on a thread per connection, until dropped.
    struct Echo {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        threads: Vec<JoinHandle<()>>,
    }

    impl Echo {
        fn start() -> Echo {
            let bind_udp = || -> io::Result<(UdpSocket, SocketAddr)> {
                let socket = UdpSocket::bind("127.0.0.1:0")?;
                let local = socket.local_addr()?;
                Ok((socket, local))
            };
            let (udp, addr, tcp) =
                bind_twin("127.0.0.1:0".parse().unwrap(), bind_udp, TcpListener::bind).unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let udp_stop = Arc::clone(&stop);
            let udp_thread = std::thread::spawn(move || {
                udp.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
                let mut buf = vec![0u8; 65_535];
                while !udp_stop.load(Ordering::Relaxed) {
                    if let Ok((n, peer)) = udp.recv_from(&mut buf) {
                        let _ = udp.send_to(&buf[..n], peer);
                    }
                }
            });
            let tcp_stop = Arc::clone(&stop);
            let tcp_thread = std::thread::spawn(move || {
                tcp.set_nonblocking(true).unwrap();
                while !tcp_stop.load(Ordering::Relaxed) {
                    let Ok((mut stream, _)) = tcp.accept() else {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    };
                    std::thread::spawn(move || {
                        stream.set_nonblocking(false).unwrap();
                        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                        let (mut reader, mut scratch) = (FrameReader::new(), Vec::new());
                        while let Ok(Some(frame)) = reader.read_frame(&mut stream) {
                            let frame = frame.to_vec();
                            if write_frame(&mut stream, &frame, &mut scratch).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
            Echo { addr, stop, threads: vec![udp_thread, tcp_thread] }
        }
    }

    impl Drop for Echo {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            for t in self.threads.drain(..) {
                t.join().unwrap();
            }
        }
    }

    /// One UDP round trip through `proxy` from `client`; how long it took.
    fn round_trip(client: &UdpSocket, msg: &[u8]) -> Duration {
        let started = Instant::now();
        client.send(msg).unwrap();
        let mut buf = [0u8; 64];
        let n = client.recv(&mut buf).expect("the echo came back through the proxy");
        assert_eq!(&buf[..n], msg);
        started.elapsed()
    }

    /// Shutdown sends a held reply too: a copy held 2 s on its way back
    /// to the client has reached it when `shutdown` returns, long
    /// before it was due.
    #[test]
    fn shutdown_sends_every_held_reply() {
        let echo = Echo::start();
        let reverse = FaultProfile::lossless().delay_ms(2_000, 2_000);
        let plan = Arc::new(FaultPlan::new(3, FaultProfile::lossless(), reverse));
        let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, Arc::clone(&plan), None).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(b"held", proxy.local_addr()).unwrap();
        let started = Instant::now();
        while plan.tally(Direction::Reverse).delayed == 0 {
            assert!(started.elapsed() < Duration::from_secs(1), "the reply never reached the proxy");
            std::thread::sleep(Duration::from_millis(1));
        }
        proxy.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1), "shutdown waited for the copy to fall due");
        client.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 16];
        let (n, _) = client.recv_from(&mut buf).expect("the held reply reached the client");
        assert_eq!(&buf[..n], b"held");
    }

    /// Two TCP clients try to stall the proxy's one thread: one sends
    /// half a frame and goes quiet, the other never reads its replies,
    /// so a write to it would block. Neither delays UDP forwarding —
    /// the proxy counterpart of
    /// `client::tests::a_held_tcp_detour_delays_no_other_lane`.
    #[test]
    fn stalled_tcp_clients_delay_no_datagram() {
        let echo = Echo::start();
        let plan = Arc::new(FaultPlan::new(4, FaultProfile::lossless(), FaultProfile::lossless()));
        let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, Arc::clone(&plan), None).unwrap();
        let mut half = TcpStream::connect(proxy.local_addr()).unwrap();
        half.write_all(&[0, 16, 1, 2]).unwrap();
        let mut deaf = TcpStream::connect(proxy.local_addr()).unwrap();
        deaf.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        let flood = std::thread::spawn(move || {
            let (query, mut scratch) = (vec![7u8; 60_000], Vec::new());
            let cut = (0..1_000).find_map(|_| write_frame(&mut deaf, &query, &mut scratch).err());
            (deaf, cut) // held open: the proxy, not the client, gives up on it
        });
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        client.connect(proxy.local_addr()).unwrap();
        let (started, mut after) = (Instant::now(), 0);
        while after < 5 {
            assert!(started.elapsed() < Duration::from_secs(10), "the flood never ended");
            after += usize::from(flood.is_finished());
            let took = round_trip(&client, b"ping");
            assert!(took < Duration::from_millis(100), "a round trip took {took:?}");
        }
        let (_deaf, cut) = flood.join().unwrap();
        let cut = cut.expect("the proxy closed the deaf client's connection");
        assert!(!is_idle_recv(&cut), "the proxy cut the connection, no write timed out: {cut:?}");
        let tally = plan.tcp_tally();
        assert_eq!(tally.conns, 2, "{}", tally.render());
        assert!(tally.delivered > 0, "the deaf client's queries were relayed: {}", tally.render());
        proxy.shutdown();
        drop(half);
    }

    /// For each TCP fate, a frame whose first decision under `plan`
    /// takes it — found on a twin plan of the same seed and profile.
    fn frame_per_fate(seed: u64, tcp: TcpFaultProfile) -> Vec<(TcpFate, Vec<u8>)> {
        let twin = FaultPlan::new(seed, FaultProfile::lossless(), FaultProfile::lossless()).with_tcp(tcp);
        let mut found: Vec<(TcpFate, Vec<u8>)> = Vec::new();
        for i in 0.. {
            let frame = format!("frame-{i}").into_bytes();
            let fate = twin.decide_tcp(&frame);
            if found.iter().all(|(f, _)| *f != fate) {
                found.push((fate, frame));
            }
            if found.len() == 5 {
                return found;
            }
        }
        unreachable!()
    }

    /// From `spawn` to `shutdown` a proxy starts one thread, however
    /// many UDP sessions and TCP connections it carries — here 32 of
    /// one and one connection per TCP fate, each fate keeping its
    /// behaviour.
    #[test]
    fn a_proxy_is_one_thread() {
        let started = || STARTED.with_borrow(|n| n.load(Ordering::Relaxed));
        let echo = Echo::start();
        let tcp = TcpFaultProfile { refuse: 0.2, reset: 0.2, stall: 0.2, corrupt_len: 0.2 };
        let plan = Arc::new(
            FaultPlan::new(5, FaultProfile::lossless(), FaultProfile::lossless()).with_tcp(tcp),
        );
        let before = started();
        let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, Arc::clone(&plan), None).unwrap();
        let clients: Vec<UdpSocket> = (0..32)
            .map(|i| {
                let client = UdpSocket::bind("127.0.0.1:0").unwrap();
                client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                client.connect(proxy.local_addr()).unwrap();
                round_trip(&client, format!("session-{i}").as_bytes());
                client
            })
            .collect();
        let mut streams = Vec::new();
        for (fate, frame) in frame_per_fate(5, tcp) {
            let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            write_frame(&mut stream, &frame, &mut Vec::new()).unwrap();
            let mut got = vec![0u8; 64];
            let read = stream.read(&mut got);
            match fate {
                TcpFate::Deliver | TcpFate::CorruptLen => {
                    let n = read.unwrap();
                    let len = frame.len() as u16 + if fate == TcpFate::CorruptLen { 7 } else { 0 };
                    assert_eq!(&got[..2], len.to_be_bytes(), "{fate:?}");
                    assert_eq!(&got[2..n], &frame[..], "{fate:?}");
                }
                TcpFate::Refuse | TcpFate::Reset => {
                    let closed = match &read {
                        Ok(n) => *n == 0,
                        Err(e) => !is_idle_recv(e),
                    };
                    assert!(closed, "{fate:?} closes the connection: {read:?}");
                }
                TcpFate::Stall => assert!(read.is_err_and(|e| is_idle_recv(&e)), "a stall is silent"),
            }
            streams.push(stream);
        }
        let tally = plan.tcp_tally();
        assert_eq!(tally.render(), "frames=5 ok=1 refuse=1 reset=1 stall=1 badlen=1");
        proxy.shutdown();
        assert_eq!(started() - before, 1, "threads the proxy started");
        drop((clients, streams));
    }
}
