//! The sharded, batch-capable UDP front-end.
//!
//! The serving plane is N independent *shards*: each worker thread owns
//! its socket, its forked [`AnswerEngine`] (own counters, shared
//! zones), its reusable receive and response-encode buffers, and its
//! own `ShardCell` — nothing on the hot path is written by more than
//! one thread. Two things are selected at runtime:
//!
//! * **Sockets.** Where the `dnswild-mmsg` shim is usable (the
//!   kernel accepts `recvmmsg`) every worker binds its own
//!   `SO_REUSEPORT` socket on the serve port, so the kernel flow-hashes
//!   clients across private per-shard receive queues instead of N
//!   threads contending on one shared queue. Elsewhere the workers
//!   share one bound socket via `try_clone` (the pre-sharding shape).
//! * **Datagram I/O.** There is one worker loop; what differs is the
//!   `DatagramIo` arm under it. [`IoBackend::Mmsg`] drains and answers
//!   datagrams in batches through `recvmmsg`/`sendmmsg` — one syscall
//!   per batch on each side. [`IoBackend::Std`] is a batch of one behind
//!   the same recv/datagram/send shape: one `recv_from`, one `send_to`.
//!   [`IoBackend::Auto`] (the default) picks mmsg when the shim is
//!   usable.
//!
//! Accounting has one path: the engine's per-batch [`ServerStats`] delta
//! and the loop's socket-error delta are added to the shard cell, and
//! that is the only write. `ServeHandle::stats()` sums the cells; the
//! registry's `dnswild_server_events_total`, `…_io_errors_total` and
//! `dnswild_tcp_events_total` series are fed from the same cells before
//! every registry read ([`Registry::mirror_counters`]), so a quiescent
//! scrape equals the summed [`ServerStats`] by construction.
//!
//! Shutdown raises a stop flag that workers observe within one socket
//! read timeout.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dnswild_metrics::{counter_set, AtomicSet, Registry, Stage, StageClock, StageSpans};
use dnswild_proto::MAX_MESSAGE_SIZE;
use dnswild_server::{
    AnswerEngine, HandledPacket, PacketClass, RateLimitPolicy, ServerStats,
    TransportKind, TruncationPolicy, VerdictSpans,
};
use dnswild_telemetry::{
    hash_socket_addr, journey_from_payload, qname_hash32, Collector, Event, EventKind, Producer,
    FLAG_DECODE_ERROR, FLAG_RESPONSE, FLAG_RRL, FLAG_SEND_FAILED, FLAG_TCP, RCODE_NONE,
};
use dnswild_zone::Zone;

use crate::tcp::{self, TcpConnStats, TcpCounters, TcpOptions};

/// How long a worker blocks in `recv_from`/`recvmmsg` before
/// re-checking the stop flag — the upper bound on shutdown latency.
pub(crate) const STOP_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Batch ceiling of the mmsg arm: the most datagrams one
/// `recvmmsg`/`sendmmsg` round handles. A constant, not a knob — no
/// gate or bench ever ran another value, and a closed-loop window of 16
/// leaves one or two datagrams per `recvmmsg` whatever the ceiling.
pub const DEFAULT_BATCH: usize = 32;

/// Which datagram I/O arm the worker loop runs over (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// Use [`IoBackend::Mmsg`] when the syscall shim is usable on this
    /// host, otherwise [`IoBackend::Std`]. The default.
    Auto,
    /// Portable std arm: one `recv_from`, one `send_to` per datagram.
    Std,
    /// Linux batched arm: `recvmmsg`/`sendmmsg`, one syscall per
    /// batch. [`serve`] fails with [`io::ErrorKind::Unsupported`] when
    /// forced on a host whose kernel refuses the syscall.
    Mmsg,
}

impl IoBackend {
    /// The CLI / log spelling.
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Auto => "auto",
            IoBackend::Std => "std",
            IoBackend::Mmsg => "mmsg",
        }
    }
}

impl std::str::FromStr for IoBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<IoBackend, String> {
        match s {
            "auto" => Ok(IoBackend::Auto),
            "std" => Ok(IoBackend::Std),
            "mmsg" => Ok(IoBackend::Mmsg),
            other => Err(format!("unknown io backend '{other}' (auto|std|mmsg)")),
        }
    }
}

/// Whether the batched backend can actually run here: the running
/// kernel accepts `recvmmsg` (probed once per process). When true, [`serve`] also gives every worker a private
/// `SO_REUSEPORT` socket whatever the I/O backend.
pub fn batch_io_available() -> bool {
    dnswild_mmsg::available()
}

/// Classifies a receive error as the idle stop-poll path. Both kinds
/// occur in the wild for an expired `SO_RCVTIMEO` — glibc surfaces
/// `EAGAIN` (`WouldBlock`), other layers report `TimedOut` — so
/// matching a single kind would misfile the other into `recv_errors`
/// and break the counter-equality gates on that host.
pub(crate) fn is_idle_recv(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// How many fresh ephemeral ports [`bind_twin`] tries before giving up.
const EPHEMERAL_BIND_TRIES: usize = 16;

/// Binds a UDP side with `bind_udp`, which reports the address it got,
/// and then its TCP twin with `bind_tcp` on that same address — both
/// before anything is spawned, so a failed bind leaves nothing running.
/// The TCP port can be taken while the UDP one was free (a connection
/// of an earlier run lingering in `TIME_WAIT`): when `addr` asked for
/// port 0, the pair is then dropped and bound again on a fresh port. A
/// caller that named its port gets the `AddrInUse`.
pub(crate) fn bind_twin<U, T>(
    addr: SocketAddr,
    mut bind_udp: impl FnMut() -> io::Result<(U, SocketAddr)>,
    mut bind_tcp: impl FnMut(SocketAddr) -> io::Result<T>,
) -> io::Result<(U, SocketAddr, T)> {
    let mut spare = if addr.port() == 0 { EPHEMERAL_BIND_TRIES } else { 0 };
    loop {
        let bound = bind_udp().and_then(|(udp, local)| Ok((udp, local, bind_tcp(local)?)));
        match bound {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && spare > 0 => spare -= 1,
            done => return done,
        }
    }
}

counter_set! {
    /// The serving plane's socket-level error counters. Outside
    /// [`ServerStats`]: the simulator has no socket errors, and widening
    /// `ServerStats` would perturb the byte-exact `exp_*` outputs. A
    /// failed receive, an undecodable datagram or a failed send must
    /// never be a *silent* drop — under a chaos storm the smoke gate
    /// balances delivered datagrams against these. The labels are the
    /// `kind` values of `dnswild_server_io_errors_total`.
    pub struct IoErrorStats {
        /// Receive calls that failed for a reason other than the read
        /// timeout or a signal (e.g. ICMP-driven transient errors). An
        /// `EINTR` is retried, never counted — a signal-heavy host must not
        /// inflate the error counters the verify gates compare.
        recv_errors => "recv",
        /// Datagrams that failed `Message::decode` (the engine still
        /// classifies them as FORMERR-or-drop; this counts them at the
        /// socket layer).
        decode_errors => "decode",
        /// Responses the engine produced that the socket failed to put on
        /// the wire (e.g. ENOBUFS under load, ICMP-driven errors).
        send_errors => "send",
    }
}

/// One shard's books: the lock-free mirrors of its [`ServerStats`] and
/// [`IoErrorStats`]. The owning worker (or, for a TCP shard, its
/// connection threads) is the only writer — one whole delta per batch,
/// taken from the engine with [`AnswerEngine::take_stats`], so the
/// serving plane and the simulator stay on one stats code path — and
/// every reader (`ServeHandle::stats`, the scrape feed) snapshots it.
#[derive(Default)]
pub(crate) struct ShardCell {
    pub(crate) stats: AtomicSet<ServerStats, 16>,
    pub(crate) io: AtomicSet<IoErrorStats, 3>,
}

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `"127.0.0.1:5300"`; port 0 picks an
    /// ephemeral port (see [`ServeHandle::local_addr`]) whose TCP twin
    /// is free too.
    pub bind_addr: String,
    /// Worker (shard) count. The [`ServeConfig::new`] default is
    /// available parallelism capped at 8 — a conservative floor for
    /// unconfigured runs; an explicit [`ServeConfig::threads`] call (or
    /// `--threads` on the CLI) is never capped, because with per-shard
    /// reuseport sockets the old shared-socket bottleneck that
    /// motivated the cap is gone.
    pub threads: usize,
    /// Site identity answered in branded TXT and CHAOS responses.
    pub site_code: String,
    /// The zone set, shared (not copied) across workers.
    pub zones: Arc<Vec<Zone>>,
    /// Which I/O arm to run (default [`IoBackend::Auto`]).
    pub io: IoBackend,
    /// Telemetry collector: when set, every worker gets an SPSC ring
    /// and records one event per handled datagram.
    pub collector: Option<Arc<Collector>>,
    /// Index of this server in the collector's auth table (event
    /// `auth_id`); ignored without a collector.
    pub trace_auth_id: u16,
    /// Metrics registry: when set, the per-auth series (labelled with
    /// `site_code`) for every [`ServerStats`] field, socket-level error
    /// and TCP connection event are fed from the shard cells on every
    /// registry read, and workers time the five hot-path stages into
    /// the registry's stage histograms (batched stages lap once per
    /// batch, amortised per packet).
    pub metrics: Option<Arc<Registry>>,
    /// TCP transport plane (RFC 7766): when set, a `TcpListener` is
    /// bound on the same port as the UDP shards and one accept worker
    /// per shard serves length-prefixed, pipelined queries under these
    /// deadlines and connection caps. `None` (the default) serves UDP
    /// only.
    pub tcp: Option<TcpOptions>,
    /// Per-site EDNS truncation policy: the payload size this server
    /// advertises in its OPT records and the ceiling it imposes on
    /// client advertisements when sizing UDP answers.
    pub truncation: TruncationPolicy,
    /// Response-rate-limiting policy: when set, every UDP worker keys
    /// incoming datagrams on the source prefix and shares one site-wide
    /// limiter (see [`RateLimitPolicy`]); limited responses are dropped
    /// or slipped as minimal TC=1 replies. `None` (the default) answers
    /// everything. TCP is never limited — completing the handshake is
    /// exactly what the slip invites, and a spoofed source cannot.
    pub rate_limit: Option<RateLimitPolicy>,
}

impl ServeConfig {
    /// A config with default thread count and auto backend.
    pub fn new(bind_addr: impl Into<String>, site_code: impl Into<String>, zones: Arc<Vec<Zone>>) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8);
        ServeConfig {
            bind_addr: bind_addr.into(),
            threads,
            site_code: site_code.into(),
            zones,
            io: IoBackend::Auto,
            collector: None,
            trace_auth_id: 0,
            metrics: None,
            tcp: None,
            truncation: TruncationPolicy::default(),
            rate_limit: None,
        }
    }

    /// Overrides the worker count. Explicit counts are not capped.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects the I/O arm (see [`IoBackend`]).
    pub fn io(mut self, io: IoBackend) -> Self {
        self.io = io;
        self
    }

    /// Attaches a telemetry collector (see [`ServeConfig::collector`]).
    pub fn collector(mut self, collector: Arc<Collector>, auth_id: u16) -> Self {
        self.collector = Some(collector);
        self.trace_auth_id = auth_id;
        self
    }

    /// Attaches a metrics registry (see [`ServeConfig::metrics`]).
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Enables the TCP transport plane (see [`ServeConfig::tcp`]).
    pub fn tcp(mut self, opts: TcpOptions) -> Self {
        self.tcp = Some(opts);
        self
    }

    /// Sets the per-site truncation policy (see
    /// [`ServeConfig::truncation`]).
    pub fn truncation(mut self, policy: TruncationPolicy) -> Self {
        self.truncation = policy;
        self
    }

    /// Enables response rate limiting (see [`ServeConfig::rate_limit`]).
    pub fn rate_limit(mut self, policy: RateLimitPolicy) -> Self {
        self.rate_limit = Some(policy);
        self
    }
}

/// A running UDP serving plane. Dropping the handle without calling
/// [`ServeHandle::shutdown`] detaches the workers (they keep serving).
pub struct ServeHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shards: Vec<Arc<ShardCell>>,
    workers: Vec<JoinHandle<()>>,
    backend: IoBackend,
    reuseport: bool,
    tcp_addr: Option<SocketAddr>,
    tcp_counters: Option<Arc<TcpCounters>>,
    /// How many accept workers are (or were) blocked in `accept` — the
    /// number of wake-up connections shutdown must make.
    tcp_workers: usize,
}

impl ServeHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The TCP listener address when the TCP plane is enabled (same
    /// port as [`ServeHandle::local_addr`]).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A live snapshot of the TCP connection-plane counters (all zero
    /// when the TCP plane is off).
    pub fn tcp_stats(&self) -> TcpConnStats {
        self.tcp_counters.as_ref().map(|c| c.snapshot()).unwrap_or_default()
    }

    /// A live snapshot of the traffic counters summed across shards.
    pub fn stats(&self) -> ServerStats {
        self.shards.iter().map(|s| s.stats.snapshot()).sum()
    }

    /// A live snapshot of the socket-level error counters summed
    /// across shards.
    pub fn io_errors(&self) -> IoErrorStats {
        self.shards.iter().map(|s| s.io.snapshot()).sum()
    }

    /// Number of UDP shards serving (the TCP plane's accept workers, one
    /// per shard, are not shards of their own).
    pub fn threads(&self) -> usize {
        self.workers.len() - self.tcp_workers
    }

    /// The I/O arm actually running (never [`IoBackend::Auto`]).
    pub fn backend(&self) -> IoBackend {
        self.backend
    }

    /// Whether every shard owns a private `SO_REUSEPORT` socket (false
    /// means the fallback shared-socket layout).
    pub fn reuseport(&self) -> bool {
        self.reuseport
    }

    /// Raises the stop flag, joins every worker and returns the final
    /// summed counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop.store(true, Ordering::Relaxed);
        // Accept workers block in `accept` with no timeout; a throwaway
        // connection per worker wakes each one to observe the flag.
        if let Some(addr) = self.tcp_addr {
            for _ in 0..self.tcp_workers {
                let _ = TcpStream::connect_timeout(&addr, STOP_POLL_INTERVAL);
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

/// Binds the shard sockets and spawns the worker threads.
pub fn serve(config: ServeConfig) -> io::Result<ServeHandle> {
    let addr = config
        .bind_addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bind address resolves to nothing"))?;

    let backend = match config.io {
        IoBackend::Mmsg if !batch_io_available() => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmsg backend requested but the kernel refused the recvmmsg probe",
            ));
        }
        IoBackend::Auto if batch_io_available() => IoBackend::Mmsg,
        IoBackend::Auto => IoBackend::Std,
        forced => forced,
    };

    let threads = config.threads.max(1);
    // Socket layout: private reuseport sockets whenever the shim works
    // (even for the std arm — sharded kernel queues benefit both
    // backends and keep std-vs-mmsg comparisons about batching alone);
    // otherwise the legacy single shared socket.
    let reuseport = batch_io_available();
    let bind_shards = || -> io::Result<(Vec<UdpSocket>, SocketAddr)> {
        let mut sockets = Vec::with_capacity(threads);
        let local_addr;
        if reuseport {
            let first = dnswild_mmsg::bind_reuseport(addr)?;
            local_addr = first.local_addr()?;
            sockets.push(first);
            for _ in 1..threads {
                sockets.push(dnswild_mmsg::bind_reuseport(local_addr)?);
            }
        } else {
            let socket = UdpSocket::bind(addr)?;
            local_addr = socket.local_addr()?;
            for _ in 1..threads {
                sockets.push(socket.try_clone()?);
            }
            sockets.push(socket);
        }
        Ok((sockets, local_addr))
    };
    // The TCP plane listens on the port the UDP shards got.
    let bind_listener =
        |local: SocketAddr| config.tcp.map(|_| TcpListener::bind(local)).transpose();
    let (sockets, local_addr, listener) = bind_twin(addr, bind_shards, bind_listener)?;
    for socket in &sockets {
        socket.set_read_timeout(Some(STOP_POLL_INTERVAL))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let spans = config.metrics.as_ref().map(StageSpans::register);
    let mut template = AnswerEngine::with_shared_zones(config.site_code.clone(), Arc::clone(&config.zones))
        .with_truncation_policy(config.truncation);
    if let Some(policy) = config.rate_limit {
        // One limiter for the whole site: forks clone the shared handle,
        // so every shard (and any TCP engine, though TCP is never
        // charged) draws verdicts from the same buckets.
        template = template.with_rate_limit(policy);
        if let Some(registry) = &config.metrics {
            template = template.with_verdict_spans(VerdictSpans::register(registry));
        }
    }

    let mut shards = Vec::with_capacity(threads);
    let mut workers = Vec::with_capacity(threads);
    for (i, socket) in sockets.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let shard = Arc::new(ShardCell::default());
        shards.push(Arc::clone(&shard));
        let spans = spans.clone();
        let mut engine = template.fork();
        let trace = config
            .collector
            .as_ref()
            .map(|c| (c.producer(), config.trace_auth_id));
        let key_policy = config.rate_limit;
        workers.push(
            std::thread::Builder::new()
                .name(format!("netio-shard-{i}"))
                .spawn(move || {
                    // Built on the worker: the mmsg arm holds raw
                    // pointers into its own buffers and is `!Send`.
                    let io = DatagramIo::new(backend);
                    worker_loop(socket, io, &mut engine, &stop, &shard, trace, spans, key_policy)
                })?,
        );
    }

    // The TCP plane: one listener on the UDP port, one blocking accept
    // worker per shard off `try_clone`d handles, connections admitted
    // under a global cap. Engine outcomes land in additional shard
    // cells, so `stats()` and the scrape feed span both transports.
    let mut tcp_addr = None;
    let mut tcp_counters = None;
    let mut tcp_workers = 0;
    if let (Some(opts), Some(listener)) = (config.tcp, listener) {
        tcp_addr = Some(listener.local_addr()?);
        let counters = Arc::new(TcpCounters::default());
        tcp_counters = Some(Arc::clone(&counters));
        let active = Arc::new(AtomicUsize::new(0));
        let tcp_spans = config
            .metrics
            .as_ref()
            .map(|r| StageSpans::register_labelled(r, &[("transport", "tcp")]));
        tcp_workers = threads;
        for i in 0..threads {
            let shard = Arc::new(ShardCell::default());
            shards.push(Arc::clone(&shard));
            let trace = config
                .collector
                .as_ref()
                .map(|c| (Mutex::new(c.producer()), config.trace_auth_id));
            let worker = tcp::AcceptWorker {
                listener: listener.try_clone()?,
                template: template.fork(),
                active: Arc::clone(&active),
                conn: Arc::new(tcp::ConnShared {
                    stop: Arc::clone(&stop),
                    shard,
                    counters: Arc::clone(&counters),
                    opts,
                    trace,
                    spans: tcp_spans.clone(),
                }),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("netio-tcp-accept-{i}"))
                    .spawn(move || tcp::accept_loop(worker))?,
            );
        }
    }

    // The accounting path's read side: the three per-auth series are
    // fed from the cells the workers already write, on every registry
    // read. Wired last, so a `serve` that failed above leaves no feed
    // behind.
    if let Some(registry) = &config.metrics {
        let auth = [("auth", config.site_code.as_str())];
        let cells = shards.clone();
        registry.mirror_counters(
            "dnswild_server_events_total",
            "per-auth server outcome counters, one series per ServerStats field",
            &auth,
            move || cells.iter().map(|s| s.stats.snapshot()).sum::<ServerStats>(),
        );
        let cells = shards.clone();
        registry.mirror_counters(
            "dnswild_server_io_errors_total",
            "socket-level errors on the serving path",
            &auth,
            move || cells.iter().map(|s| s.io.snapshot()).sum::<IoErrorStats>(),
        );
        if let Some(counters) = tcp_counters.clone() {
            registry.mirror_counters(
                "dnswild_tcp_events_total",
                "TCP transport connection-plane events",
                &auth,
                move || counters.snapshot(),
            );
        }
    }

    Ok(ServeHandle {
        local_addr,
        stop,
        shards,
        workers,
        backend,
        reuseport,
        tcp_addr,
        tcp_counters,
        tcp_workers,
    })
}

/// The telemetry event for one handled packet, built while its payload
/// is in hand so nothing of the payload is kept past the handling:
/// everything but the send fate, which [`finish_server_event`] adds.
/// `resp_len` is the answer the engine wrote (ignored without one).
/// Stream-served packets carry [`FLAG_TCP`].
pub(crate) fn server_event(
    handled: &HandledPacket,
    payload: &[u8],
    peer: &SocketAddr,
    resp_len: usize,
    start_ns: u64,
    transport: TransportKind,
) -> Event {
    let mut ev = Event::new(match handled.class {
        PacketClass::Query => EventKind::ServerQuery,
        _ => EventKind::ServerBad,
    });
    ev.ts_ns = start_ns;
    ev.client_hash = hash_socket_addr(peer);
    // Hash the raw question bytes (everything past the header) rather
    // than re-encoding the canonical qname: allocation-free, and it
    // matches what the load generator hashes on its side of the same
    // datagram.
    ev.qname_hash = if handled.question {
        qname_hash32(payload.get(12..).unwrap_or(&[]))
    } else {
        0
    };
    ev.bytes_in = u16::try_from(payload.len()).unwrap_or(u16::MAX);
    ev.bytes_out = if handled.response { u16::try_from(resp_len).unwrap_or(u16::MAX) } else { 0 };
    ev.flags = (u16::from(handled.response) * FLAG_RESPONSE)
        | (u16::from(handled.decode_error) * FLAG_DECODE_ERROR)
        | (u16::from(transport == TransportKind::Tcp) * FLAG_TCP)
        | (u16::from(handled.rrl.is_some()) * FLAG_RRL);
    ev.rcode = handled.rcode.map(|r| r.to_u8()).unwrap_or(RCODE_NONE);
    // The journey id ties this server-side hop to the client attempt
    // and any chaos decisions the same query passed through; derived
    // from the payload so it needs no shared state with the client.
    let (journey, dns_id) = journey_from_payload(payload);
    ev.journey = if handled.question { journey } else { 0 };
    ev.dns_id = dns_id;
    ev
}

/// Records an event from [`server_event`] once its send fate is known,
/// with the service time up to now: a response that failed to send
/// reports `bytes_out = 0` plus [`FLAG_SEND_FAILED`], so trace byte
/// accounting matches what actually reached the wire.
pub(crate) fn finish_server_event(producer: &Producer, auth_id: u16, mut ev: Event, send_ok: bool) {
    let failed = ev.flags & FLAG_RESPONSE != 0 && !send_ok;
    ev.latency_ns = u32::try_from(producer.now_ns().saturating_sub(ev.ts_ns)).unwrap_or(u32::MAX);
    ev.auth_id = auth_id;
    if failed {
        ev.bytes_out = 0;
        ev.flags |= FLAG_SEND_FAILED;
    }
    producer.record(&ev);
}

/// Drives a batched sender over `n` queued responses until every one is
/// resolved, surviving partial returns.
///
/// `send(off)` attempts the tail starting at `off` and returns how many
/// *leading* messages the kernel accepted — `sendmmsg` semantics, where
/// `k` short of the tail length is a legal partial send resumed at
/// `off + k`, and `Err` means the head message itself failed (and
/// consumed nothing else). `Interrupted` is retried without consuming.
/// Guarantee (property-tested, for both [`DatagramIo`] arms):
/// `on_result(j, ok)` fires exactly once for every `j in 0..n`, whatever
/// sequence of partial returns, errors and interrupts the sender
/// produces.
fn send_all(
    mut send: impl FnMut(usize) -> io::Result<usize>,
    n: usize,
    mut on_result: impl FnMut(usize, bool),
) {
    let mut off = 0;
    while off < n {
        match send(off) {
            // A zero return without error would loop forever; no kernel
            // does this, but the guarantee must not hinge on that.
            Ok(0) => {
                on_result(off, false);
                off += 1;
            }
            Ok(k) => {
                let k = k.min(n - off);
                for j in off..off + k {
                    on_result(j, true);
                }
                off += k;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                on_result(off, false);
                off += 1;
            }
        }
    }
}

/// The std arm's send shape: a `send_to` result (bytes written) as the
/// count of leading messages accepted — one, the head — so [`send_all`]
/// drives it exactly like a `sendmmsg` return.
fn one_datagram(sent: io::Result<usize>) -> io::Result<usize> {
    sent.map(|_bytes| 1)
}

/// The datagram I/O under the worker loop: two arms, one shape. Both
/// receive a batch, hand out its datagrams by index, and send the head
/// of a queue of responses returning how many leading ones were
/// accepted; the std arm's batch is always exactly one datagram.
enum DatagramIo {
    /// `recvmmsg`/`sendmmsg`: one syscall per batch on each side.
    Mmsg { batch: dnswild_mmsg::RecvBatch, scratch: dnswild_mmsg::SendScratch },
    /// `recv_from`/`send_to`: `got` is the last datagram's length and
    /// sender.
    Std { buf: Vec<u8>, got: Option<(usize, SocketAddr)> },
}

impl DatagramIo {
    /// The arm for a resolved backend (`Auto` never reaches a worker).
    fn new(backend: IoBackend) -> DatagramIo {
        match backend {
            IoBackend::Mmsg => DatagramIo::Mmsg {
                batch: dnswild_mmsg::RecvBatch::new(DEFAULT_BATCH, MAX_MESSAGE_SIZE),
                scratch: dnswild_mmsg::SendScratch::default(),
            },
            _ => DatagramIo::Std { buf: vec![0u8; MAX_MESSAGE_SIZE], got: None },
        }
    }

    /// The most datagrams one [`DatagramIo::recv`] returns.
    fn capacity(&self) -> usize {
        match self {
            DatagramIo::Mmsg { batch, .. } => batch.capacity(),
            DatagramIo::Std { .. } => 1,
        }
    }

    /// Blocks (up to the socket's read timeout) for the next batch and
    /// returns its datagram count.
    fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        match self {
            DatagramIo::Mmsg { batch, .. } => dnswild_mmsg::recv_batch(socket, batch),
            DatagramIo::Std { buf, got } => {
                *got = Some(socket.recv_from(buf)?);
                Ok(1)
            }
        }
    }

    /// The `i`-th datagram of the last batch and its sender.
    fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
        match self {
            DatagramIo::Mmsg { batch, .. } => batch.datagram(i),
            DatagramIo::Std { buf, got } => {
                let (len, peer) = got.expect("datagram() follows a successful recv()");
                (&buf[..len], peer)
            }
        }
    }

    /// Sends the head of `queue` — `(slot in bufs, peer)` pairs — and
    /// returns how many leading entries were accepted (see [`send_all`]).
    fn send(
        &mut self,
        socket: &UdpSocket,
        bufs: &[Vec<u8>],
        queue: &[(usize, SocketAddr)],
    ) -> io::Result<usize> {
        match self {
            DatagramIo::Mmsg { scratch, .. } => {
                let msgs: Vec<(&[u8], SocketAddr)> =
                    queue.iter().map(|&(slot, peer)| (bufs[slot].as_slice(), peer)).collect();
                dnswild_mmsg::send_batch(socket, &msgs, scratch)
            }
            DatagramIo::Std { .. } => {
                let (slot, peer) = queue[0];
                one_datagram(socket.send_to(&bufs[slot], peer))
            }
        }
    }
}

/// The UDP worker: receive a batch, answer every datagram through the
/// engine (encode buffers reused slot-for-slot across batches), push
/// the responses out via [`send_all`], record one telemetry event per
/// datagram when tracing, then add one stats delta and one socket-error
/// delta for the whole batch to the shard cell — the loop's only
/// accounting write. Stage spans lap once per batch on the recv/send
/// boundaries, recording the amortised per-packet time;
/// decode/engine/encode stay per-packet inside the engine.
#[allow(clippy::too_many_arguments)] // one flat per-shard loop, spawned once
fn worker_loop(
    socket: UdpSocket,
    mut io: DatagramIo,
    engine: &mut AnswerEngine,
    stop: &AtomicBool,
    shard: &ShardCell,
    trace: Option<(Producer, u16)>,
    spans: Option<Arc<StageSpans>>,
    key_policy: Option<RateLimitPolicy>,
) {
    let cap = io.capacity();
    let mut resp_bufs: Vec<Vec<u8>> = (0..cap).map(|_| Vec::with_capacity(1024)).collect();
    let mut events: Vec<Event> = Vec::with_capacity(if trace.is_some() { cap } else { 0 });
    let mut send_ok = vec![false; cap];
    let mut queue: Vec<(usize, SocketAddr)> = Vec::with_capacity(cap);
    let spans = spans.as_deref();
    let mut clock = StageClock::start(spans.is_some());
    while !stop.load(Ordering::Relaxed) {
        // Restart the lap at syscall entry, so a stretch of empty read
        // timeouts never accumulates into the next packet's recv span.
        clock.reset();
        let got = match io.recv(&socket) {
            Ok(got) => got,
            // A signal landing mid-recv is not an error at all — retry,
            // or a signal-heavy host inflates `recv_errors` and breaks
            // the counter-equality gates.
            Err(e) if is_idle_recv(&e) || e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient ICMP-driven errors (ECONNREFUSED surfacing on
            // unconnected sockets on some platforms) must not kill the
            // worker — but they must be visible: the chaos smoke gate
            // balances datagram counts.
            Err(_) => {
                shard.io.add(IoErrorStats { recv_errors: 1, ..Default::default() });
                continue;
            }
        };
        clock.lap_amortised(spans, Stage::Recv, got as u64);
        let mut errors = IoErrorStats::default();
        events.clear();
        queue.clear();
        for i in 0..got {
            let start_ns = trace.as_ref().map(|(producer, _)| producer.now_ns());
            let (payload, peer) = io.datagram(i);
            // The client key is hashed only when RRL is on — the unkeyed
            // path stays byte-for-byte the pre-RRL hot path.
            let client_key = key_policy.as_ref().map(|p| p.client_key(&peer));
            let handled = engine.handle_packet_from(
                payload,
                TransportKind::Udp,
                client_key,
                &mut resp_bufs[i],
                spans,
            );
            errors.decode_errors += u64::from(handled.decode_error);
            send_ok[i] = false;
            if handled.response {
                queue.push((i, peer));
            }
            if let Some(start_ns) = start_ns {
                events.push(server_event(
                    &handled,
                    payload,
                    &peer,
                    resp_bufs[i].len(),
                    start_ns,
                    TransportKind::Udp,
                ));
            }
        }
        if !queue.is_empty() {
            clock.reset();
            send_all(
                |off| io.send(&socket, &resp_bufs, &queue[off..]),
                queue.len(),
                |j, ok| {
                    send_ok[queue[j].0] = ok;
                    errors.send_errors += u64::from(!ok);
                },
            );
            clock.lap_amortised(spans, Stage::Send, queue.len() as u64);
        }
        if let Some((producer, auth_id)) = &trace {
            for (i, ev) in events.drain(..).enumerate() {
                finish_server_event(producer, *auth_id, ev, send_ok[i]);
            }
        }
        shard.stats.add(engine.take_stats());
        shard.io.add(errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_metrics::CounterSet;
    use dnswild_proto::{Message, Name, RData, RType, Rcode};
    use dnswild_zone::presets::test_domain_zone;

    fn start(threads: usize) -> ServeHandle {
        start_io(threads, IoBackend::Auto)
    }

    fn start_io(threads: usize, io: IoBackend) -> ServeHandle {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(threads).io(io)).unwrap()
    }

    fn ask(addr: SocketAddr, msg: &Message) -> Message {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.send_to(&msg.encode().unwrap(), addr).unwrap();
        let mut buf = [0u8; 4096];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        Message::decode(&buf[..n]).unwrap()
    }

    #[test]
    fn answers_branded_probe_txt_over_real_udp() {
        let handle = start(2);
        let q = Message::iterative_query(
            77,
            Name::parse("p1-r1.ourtestdomain.nl").unwrap(),
            RType::Txt,
        );
        let resp = ask(handle.local_addr(), &q);
        assert_eq!(resp.header.id, 77);
        assert!(resp.header.authoritative);
        assert_eq!(resp.rcode(), Rcode::NoError);
        let RData::Txt(t) = &resp.answers[0].rdata else { panic!("not TXT") };
        assert_eq!(t.first_as_string(), "site=FRA");
        let stats = handle.shutdown();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.answers, 1);
    }

    #[test]
    fn off_zone_refused_and_stats_aggregate_across_workers() {
        let handle = start(4);
        for i in 0..8u16 {
            let q = Message::iterative_query(i, Name::parse("example.com").unwrap(), RType::A);
            let resp = ask(handle.local_addr(), &q);
            assert_eq!(resp.rcode(), Rcode::Refused);
        }
        let stats = handle.shutdown();
        assert_eq!(stats.queries, 8);
        assert_eq!(stats.refused, 8);
    }

    #[test]
    fn both_backends_serve_when_available() {
        let mut backends = vec![IoBackend::Std];
        if batch_io_available() {
            backends.push(IoBackend::Mmsg);
        }
        for io in backends {
            let handle = start_io(2, io);
            assert_eq!(handle.backend(), io);
            let q = Message::iterative_query(
                5,
                Name::parse("p9-r1.ourtestdomain.nl").unwrap(),
                RType::Txt,
            );
            let resp = ask(handle.local_addr(), &q);
            assert_eq!(resp.rcode(), Rcode::NoError, "backend {}", io.name());
            let stats = handle.shutdown();
            assert_eq!(stats.queries, 1, "backend {}", io.name());
        }
    }

    #[test]
    fn forcing_mmsg_without_support_is_a_clean_error() {
        if batch_io_available() {
            return; // can only exercise the refusal where the shim is absent
        }
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        match serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).io(IoBackend::Mmsg)) {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::Unsupported),
            Ok(_) => panic!("forced mmsg must fail cleanly"),
        }
    }

    #[test]
    fn io_backend_parses_and_names_round_trip() {
        for io in [IoBackend::Auto, IoBackend::Std, IoBackend::Mmsg] {
            assert_eq!(io.name().parse::<IoBackend>().unwrap(), io);
        }
        assert!("epoll".parse::<IoBackend>().is_err());
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent_counters() {
        let handle = start(2);
        let before = std::time::Instant::now();
        let stats = handle.shutdown();
        assert!(before.elapsed() < Duration::from_secs(2), "stop flag honoured quickly");
        assert_eq!(stats, ServerStats::default());
    }

    #[test]
    fn tcp_plane_answers_pipelined_queries_on_one_connection() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(2)
                .tcp(crate::tcp::TcpOptions::default()),
        )
        .unwrap();
        let addr = handle.tcp_addr().expect("tcp plane bound");
        assert_eq!(addr.port(), handle.local_addr().port(), "same port as UDP");

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Three queries in one segment — RFC 7766 pipelining.
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for id in 0..3u16 {
            let q = Message::iterative_query(
                id,
                Name::parse("p1-r1.ourtestdomain.nl").unwrap(),
                RType::Txt,
            );
            crate::tcp::write_frame(&mut wire, &q.encode().unwrap(), &mut scratch).unwrap();
        }
        use std::io::Write as _;
        stream.write_all(&wire).unwrap();
        let mut reader = crate::tcp::FrameReader::new();
        for id in 0..3u16 {
            let resp = loop {
                match reader.read_frame(&mut stream) {
                    Ok(Some(p)) => break Message::decode(p).unwrap(),
                    Ok(None) => panic!("server closed early"),
                    Err(e) if is_idle_recv(&e) => continue,
                    Err(e) => panic!("read: {e}"),
                }
            };
            assert_eq!(resp.header.id, id, "answers come back in arrival order");
            assert_eq!(resp.rcode(), Rcode::NoError);
            assert!(!resp.header.truncated, "no truncation over TCP");
        }
        drop(stream);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.stats().tcp_queries < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let tcp = handle.tcp_stats();
        let stats = handle.shutdown();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.tcp_queries, 3);
        assert_eq!(stats.answers, 3);
        assert_eq!(tcp.accepted, 1, "one connection served all three");
        assert_eq!(tcp.over_cap, 0);
        assert_eq!(tcp.frame_errors, 0);
    }

    /// A TCP twin held elsewhere costs a port-0 bind one more try on a
    /// fresh port; a caller that named its port gets the `AddrInUse`.
    /// Other tests in the process hold TCP ports too, so a fresh port
    /// may be refused as well: each refusal costs exactly one try.
    #[test]
    fn a_taken_tcp_twin_moves_an_ephemeral_bind_but_fails_a_named_one() {
        let holder = TcpListener::bind("127.0.0.1:0").unwrap();
        let taken = holder.local_addr().unwrap();
        let mut tries = 0;
        let mut refused = Vec::new();
        let (udp, local, tcp) = bind_twin(
            "127.0.0.1:0".parse().unwrap(),
            || {
                // The first try lands on the port whose TCP twin is held.
                tries += 1;
                let udp = UdpSocket::bind(if tries == 1 { taken } else { "127.0.0.1:0".parse().unwrap() })?;
                let local = udp.local_addr()?;
                Ok((udp, local))
            },
            |local| TcpListener::bind(local).inspect_err(|_| refused.push(local)),
        )
        .unwrap();
        assert_eq!(refused.first(), Some(&taken), "the held twin is the first refusal");
        assert_eq!(tries, refused.len() + 1, "one try per refusal, then success");
        assert!(!refused.contains(&local));
        assert_eq!(tcp.local_addr().unwrap(), local);
        drop((udp, tcp));
        let named = bind_twin(taken, || Ok((UdpSocket::bind(taken)?, taken)), TcpListener::bind);
        assert_eq!(named.err().map(|e| e.kind()), Some(io::ErrorKind::AddrInUse));
    }

    #[test]
    fn threads_counts_udp_shards_with_or_without_tcp() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        let cfg = ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2);
        let udp_only = serve(cfg.clone()).unwrap();
        let with_tcp = serve(cfg.tcp(crate::tcp::TcpOptions::default())).unwrap();
        assert_eq!(udp_only.threads(), 2);
        assert_eq!(with_tcp.threads(), 2, "accept workers are not shards");
        udp_only.shutdown();
        with_tcp.shutdown();
    }

    #[test]
    fn tcp_connection_cap_sheds_excess_connections() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        let opts = crate::tcp::TcpOptions { max_conns: 1, ..Default::default() };
        let handle =
            serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2).tcp(opts)).unwrap();
        let addr = handle.tcp_addr().unwrap();

        // First connection: admitted, proven live by a served query.
        let mut first = std::net::TcpStream::connect(addr).unwrap();
        first.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let q = Message::iterative_query(7, Name::parse("p1-r1.ourtestdomain.nl").unwrap(), RType::Txt);
        let mut scratch = Vec::new();
        crate::tcp::write_frame(&mut first, &q.encode().unwrap(), &mut scratch).unwrap();
        let mut reader = crate::tcp::FrameReader::new();
        loop {
            match reader.read_frame(&mut first) {
                Ok(Some(_)) => break,
                Err(e) if is_idle_recv(&e) => continue,
                other => panic!("first connection must be served: {other:?}"),
            }
        }

        // Second connection: over the cap — closed without an answer.
        let mut second = std::net::TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader2 = crate::tcp::FrameReader::new();
        loop {
            match reader2.read_frame(&mut second) {
                Ok(None) => break, // shed: EOF with no frame
                Ok(Some(_)) => panic!("over-cap connection must not be served"),
                Err(e) if is_idle_recv(&e) => continue,
                Err(_) => break, // a reset counts as shed too
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.tcp_stats().over_cap < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let tcp = handle.tcp_stats();
        let stats = handle.shutdown();
        assert_eq!(tcp.accepted, 1);
        assert_eq!(tcp.over_cap, 1);
        assert_eq!(stats.tcp_queries, 1);
    }

    /// The read deadline sheds both kinds of stalled connection: one
    /// that never sends, and a slow-loris one that sends one byte of a
    /// length prefix and stops. Both are closed by the server once
    /// `READ_TIMEOUT` has passed since they were accepted; only the
    /// half frame is a framing fault.
    #[test]
    fn tcp_read_deadline_closes_idle_and_half_frame_connections() {
        use std::io::{Read as _, Write as _};
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        let handle =
            serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2).tcp(TcpOptions::default()))
                .unwrap();
        let addr = handle.tcp_addr().unwrap();
        let before = handle.tcp_stats();
        let started = std::time::Instant::now();
        let idle = TcpStream::connect(addr).unwrap();
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(&[0x00]).unwrap();
        for (what, mut stream) in [("idle", idle), ("half-frame", loris)] {
            stream.set_read_timeout(Some(tcp::READ_TIMEOUT * 3)).unwrap();
            let got = stream.read(&mut [0u8; 1]);
            assert!(
                matches!(&got, Ok(0)) || got.as_ref().is_err_and(|e| !is_idle_recv(e)),
                "the {what} connection was not closed: {got:?}"
            );
            let waited = started.elapsed();
            assert!(waited >= tcp::READ_TIMEOUT, "{what} closed after {waited:?}");
        }
        let tcp = handle.tcp_stats();
        handle.shutdown();
        assert_eq!(tcp.accepted - before.accepted, 2);
        assert_eq!(tcp.frame_errors - before.frame_errors, 1, "only the half frame is a fault");
        assert_eq!(tcp.over_cap, 0);
    }

    #[test]
    fn atomic_stats_round_trip_every_field() {
        use dnswild_metrics::counters::assert_counter_set_covers_every_field;
        assert_counter_set_covers_every_field::<ServerStats, 16>();
        assert_counter_set_covers_every_field::<IoErrorStats, 3>();
    }

    #[test]
    fn send_errors_are_counted_not_silent() {
        let cell = ShardCell::default();
        assert_eq!(cell.io.snapshot(), IoErrorStats::default());
        cell.io.add(IoErrorStats { send_errors: 2, recv_errors: 1, ..Default::default() });
        let io = cell.io.snapshot();
        assert_eq!(io.send_errors, 2);
        assert_eq!(io.recv_errors, 1);
        assert_eq!(io.decode_errors, 0);
    }

    #[test]
    fn send_all_full_partial_and_error_paths() {
        // Full send in one call.
        let mut got = Vec::new();
        send_all(|_| Ok(3), 3, |j, ok| got.push((j, ok)));
        assert_eq!(got, vec![(0, true), (1, true), (2, true)]);

        // Partial sends: 2, then interrupt, then error on the head,
        // then the rest.
        let script = std::cell::RefCell::new(vec![
            Ok(2),
            Err(io::Error::from(io::ErrorKind::Interrupted)),
            Err(io::Error::from(io::ErrorKind::WouldBlock)),
            Ok(2),
        ]);
        let mut got = Vec::new();
        send_all(
            |_off| script.borrow_mut().remove(0),
            5,
            |j, ok| got.push((j, ok)),
        );
        assert_eq!(got, vec![(0, true), (1, true), (2, false), (3, true), (4, true)]);
        assert!(script.borrow().is_empty(), "every scripted return consumed");

        // A buggy zero return still terminates, as failures.
        let mut got = Vec::new();
        send_all(|_| Ok(0), 2, |j, ok| got.push((j, ok)));
        assert_eq!(got, vec![(0, false), (1, false)]);
    }

    /// The partial-return property behind the send path: whatever
    /// sequence of returns, head errors and interrupts the sender
    /// produces, every queued response is resolved exactly once.
    /// `shape` is the arm under test: it maps a scripted raw syscall
    /// return to the leading-accepted count [`send_all`] consumes.
    /// Failures replay via the seed printed by the harness.
    fn send_all_resolves_every_response_exactly_once(
        name: &str,
        shape: fn(io::Result<usize>) -> io::Result<usize>,
    ) {
        detrand::qc::property(name).cases(2048).check(|g| {
            let n = g.usize_in(1..48);
            let script: Vec<io::Result<usize>> = (0..64)
                .map(|_| match g.index(4) {
                    0 => Err(io::Error::from(io::ErrorKind::Interrupted)),
                    1 => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                    // Anything from 0 to past-the-end: the contract
                    // clamps over-long counts and forces progress on 0.
                    _ => Ok(g.usize_in(0..n + 2)),
                })
                .collect();
            let script = std::cell::RefCell::new(script);
            let resolved = std::cell::RefCell::new(vec![None::<bool>; n]);
            let accepted = std::cell::Cell::new(0usize);
            send_all(
                |off| {
                    assert!(off < n, "sender resumed past the end of the batch");
                    let mut s = script.borrow_mut();
                    // Script exhausted: accept the whole tail, so every
                    // case terminates.
                    let ret = shape(if s.is_empty() { Ok(n) } else { s.remove(0) });
                    if let Ok(k) = ret {
                        accepted.set(accepted.get() + k.min(n - off));
                    }
                    ret
                },
                n,
                |j, ok| {
                    let mut r = resolved.borrow_mut();
                    assert!(r[j].is_none(), "message {j} resolved twice");
                    r[j] = Some(ok);
                },
            );
            let r = resolved.borrow();
            assert!(r.iter().all(Option::is_some), "a message was never resolved: {r:?}");
            let ok = r.iter().filter(|v| **v == Some(true)).count();
            assert_eq!(ok, accepted.get(), "reported ok != what the sender accepted");
        });
    }

    #[test]
    fn send_all_never_loses_or_double_counts_a_response() {
        // The mmsg arm: raw `sendmmsg` counts.
        send_all_resolves_every_response_exactly_once("netio/send-all-exactly-once", |raw| raw);
    }

    #[test]
    fn std_arm_sends_resolve_exactly_once_too() {
        // The std arm: the same adversarial scripts read as `send_to`
        // returns (bytes written, or an error), through the arm's own
        // shape — so "behaves identically on the std fallback" is the
        // same checked property, not a promise.
        send_all_resolves_every_response_exactly_once("netio/send-all-std-arm", one_datagram);
    }

    #[test]
    fn std_arm_is_a_batch_of_one_over_real_sockets() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut io = DatagramIo::new(IoBackend::Std);
        assert_eq!(io.capacity(), 1);
        client.send_to(b"ping", server.local_addr().unwrap()).unwrap();
        assert_eq!(io.recv(&server).unwrap(), 1);
        let (payload, peer) = io.datagram(0);
        assert_eq!((payload, peer), (&b"ping"[..], client.local_addr().unwrap()));
        // Two queued responses: each send takes exactly the head.
        let bufs = vec![b"pong-a".to_vec(), b"pong-b".to_vec()];
        let queue = [(1, peer), (0, peer)];
        let mut results = Vec::new();
        send_all(|off| io.send(&server, &bufs, &queue[off..]), 2, |j, ok| results.push((j, ok)));
        assert_eq!(results, vec![(0, true), (1, true)]);
        let mut buf = [0u8; 16];
        let n = client.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong-b", "queue order, not slot order");
        let n = client.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong-a");
    }

    /// Every ServerStats field has a registry series, labelled with the
    /// auth, equal to the summed shard stats.
    fn assert_scrape_equals_stats(registry: &Registry, stats: &ServerStats) {
        let counters = registry.counters("dnswild_server_events_total");
        assert_eq!(counters.len(), 16);
        for (kind, want) in stats.kinds() {
            let got = counters
                .iter()
                .find(|(labels, _)| labels.contains(&("kind".into(), kind.into())))
                .map(|(labels, v)| {
                    assert!(labels.contains(&("auth".into(), "FRA".into())));
                    *v
                });
            assert_eq!(got, Some(want), "kind {kind}");
        }
    }

    #[test]
    fn metered_serve_mirrors_stats_into_the_registry() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        let registry = Arc::new(Registry::new());
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(2)
                .metrics(Arc::clone(&registry)),
        )
        .unwrap();
        for i in 0..5u16 {
            let q = Message::iterative_query(i, Name::parse("p1-r1.ourtestdomain.nl").unwrap(), RType::Txt);
            ask(handle.local_addr(), &q);
        }
        let stats = handle.shutdown();
        assert_eq!(stats.queries, 5);
        assert_scrape_equals_stats(&registry, &stats);
        // All five hot-path stages saw these packets.
        for (labels, h) in registry.histograms("dnswild_stage_ns") {
            assert!(h.count() >= 5, "stage {labels:?} recorded {}", h.count());
        }
        assert_eq!(
            registry.counters("dnswild_server_io_errors_total").iter().map(|(_, v)| v).sum::<u64>(),
            0
        );
    }

    #[test]
    fn quiescent_scrape_equals_stats_with_rate_limiting_enabled() {
        // Satellite gate: the scrape-equality invariant must span the
        // new RRL counters. One shard (strict processing order), a
        // no-refill policy of burst 3 and slip 2, seven queries from
        // one socket: three answered, then the 1-in-2 cadence over the
        // limited tail (drop, slip, drop, slip). The final slip doubles
        // as the synchronisation point — once its TC reply is back,
        // every earlier drop has been processed too.
        use dnswild_server::RrlScope;
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        let registry = Arc::new(Registry::new());
        let policy = RateLimitPolicy {
            burst: 3,
            rate: 0, // no refill: the verdict sequence is purely positional
            period: 1,
            slip: 2,
            scope: RrlScope::All,
            ..RateLimitPolicy::default()
        };
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(1)
                .metrics(Arc::clone(&registry))
                .rate_limit(policy),
        )
        .unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for i in 0..7u16 {
            let q = Message::iterative_query(i, Name::parse("p1-r1.ourtestdomain.nl").unwrap(), RType::Txt);
            sock.send_to(&q.encode().unwrap(), handle.local_addr()).unwrap();
        }
        // Five datagrams come back: ids 0..2 full answers, ids 4 and 6
        // minimal TC=1 slips; ids 3 and 5 are silently dropped.
        let mut buf = [0u8; 4096];
        let mut got = Vec::new();
        for _ in 0..5 {
            let (n, _) = sock.recv_from(&mut buf).unwrap();
            got.push(Message::decode(&buf[..n]).unwrap());
        }
        assert_eq!(got.iter().map(|m| m.header.id).collect::<Vec<_>>(), vec![0, 1, 2, 4, 6]);
        for m in &got[..3] {
            assert!(!m.header.truncated);
            assert_eq!(m.answers.len(), 1);
        }
        for slip in &got[3..] {
            assert!(slip.header.truncated, "slips are TC=1");
            assert!(slip.answers.is_empty(), "slips are header-only");
            assert_eq!(slip.rcode(), Rcode::NoError);
        }
        let stats = handle.shutdown();
        assert_eq!(stats.queries, 7);
        assert_eq!(stats.answers, 7, "outcome classification precedes enforcement");
        assert_eq!(stats.rrl_slipped, 2);
        assert_eq!(stats.rrl_dropped, 2);
        assert_eq!(stats.bucket_evictions, 0);
        assert_eq!(stats.truncated, 0, "slips are not size-driven truncation");
        // RRL counters included.
        assert_scrape_equals_stats(&registry, &stats);
        // The verdict histograms saw one sample per charged query.
        let verdicts = registry.histograms("dnswild_rrl_verdict_ns");
        assert_eq!(verdicts.len(), 3);
        for (labels, h) in verdicts {
            let want = match labels.iter().find(|(k, _)| k == "verdict").map(|(_, v)| v.as_str()) {
                Some("answer") => 3,
                Some("slip") => 2,
                Some("drop") => 2,
                other => panic!("unexpected verdict label {other:?}"),
            };
            assert_eq!(h.count(), want, "verdict {labels:?}");
        }
    }

    #[test]
    fn undecodable_datagrams_bump_decode_errors_and_balance() {
        let handle = start(2);
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // 12+ bytes of garbage: salvageable header, FORMERR comes back.
        sock.send_to(&[0x12, 0x34, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xff, 0xff], handle.local_addr())
            .unwrap();
        let mut buf = [0u8; 512];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        assert_eq!(Message::decode(&buf[..n]).unwrap().rcode(), Rcode::FormErr);
        // Short garbage: silently dropped but still counted.
        sock.send_to(&[0xde, 0xad], handle.local_addr()).unwrap();
        // One good query so we can synchronise on all packets having
        // been processed (datagrams from one source socket land on one
        // shard in order, but scheduling is not instant — poll).
        let q = Message::iterative_query(9, Name::parse("p1-r1.ourtestdomain.nl").unwrap(), RType::Txt);
        sock.send_to(&q.encode().unwrap(), handle.local_addr()).unwrap();
        let (_, _) = sock.recv_from(&mut buf).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.io_errors().decode_errors < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let io = handle.io_errors();
        let stats = handle.shutdown();
        assert_eq!(io.decode_errors, 2, "both garbage datagrams counted");
        assert_eq!(io.recv_errors, 0);
        // Totals balance: 3 datagrams in = queries + notimp + formerr + dropped.
        assert_eq!(stats.packets_seen(), 3);
        assert_eq!(stats.formerr, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.queries, 1);
    }
}
