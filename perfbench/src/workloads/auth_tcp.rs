//! `auth_tcp`: the traffic that leaves the UDP fast path. A padded zone
//! behind a 512-byte ceiling truncates every probe answer over UDP;
//! the RFC 7766 listener on the same port is what completes them.
//!
//! `reused` keeps one connection open with 8 frames pipelined
//! (throughput and on-CPU cost per frame); `detour` is what a recursive
//! without a cached connection pays for one truncated answer: UDP query
//! → TC=1 → connect → same question over TCP → close (latency).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use dnswild_netio::{serve, ServeConfig, ServeHandle, TcpOptions};
use dnswild_server::TruncationPolicy;
use dnswild_zone::presets::padded_test_domain_zone;

use super::{origin, server_books, set_up_repeatedly, Args};
use crate::check::{Profile, NS_COUNT, SITE};
use crate::gen::{InFlight, Mix, Pool, Tally};
use crate::layers;
use crate::report::Report;
use crate::span::{SpanId, Tracer, NO_PARENT};
use crate::stats::{median, percentile_sorted};
use crate::sys::{now_ns, peak_rss_mb, process_cpu_s, this_thread_cpu, Threads};

/// Frames kept in flight on the persistent connection.
pub const PIPELINE: usize = 8;
/// Most fresh connections one phase opens. Each leaves a client-side
/// TIME_WAIT socket for a minute; a thousand per run stays far from the
/// ~28k ephemeral ports even when runs follow each other closely.
pub const FRESH_MAX: usize = 1_000;
const SLICES: usize = 5;
const WARMUP_DETOURS: u64 = 1;
const IO_TIMEOUT: Duration = Duration::from_secs(2);

struct Rig {
    handle: ServeHandle,
    pool: Pool,
}

fn set_up(seed: u64) -> Rig {
    let zones = Arc::new(vec![padded_test_domain_zone(&origin(), NS_COUNT, 900)]);
    // `serve()` takes an ephemeral UDP port and then listens on the
    // same TCP port, which a client socket of an earlier run may still
    // hold in TIME_WAIT; another ephemeral port is the remedy.
    let handle = (0..16)
        .find_map(|attempt| {
            let config = ServeConfig::new("127.0.0.1:0", SITE, Arc::clone(&zones))
                .threads(1)
                .tcp(TcpOptions::default())
                .truncation(TruncationPolicy::symmetric(512));
            match serve(config) {
                Ok(handle) => Some(handle),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && attempt < 15 => None,
                Err(e) => panic!("bind loopback server: {e}"),
            }
        })
        .expect("an attempt either succeeds or panics");
    let pool = Pool::generate(seed, Mix::probe_only());
    // Warm-up: a fixed number of detours pages in both transports and
    // the accept path.
    let mut tally = Tally::default();
    let udp = udp_socket(handle.local_addr());
    for seq in 0..WARMUP_DETOURS {
        detour(&udp, tcp_addr(&handle), &pool, seq, None, &mut tally);
    }
    assert_eq!(tally.failed(), 0, "warm-up detours failed: {tally:?}");
    Rig { handle, pool }
}

fn tcp_addr(handle: &ServeHandle) -> SocketAddr {
    handle.tcp_addr().expect("tcp listener is on")
}

fn udp_socket(target: SocketAddr) -> UdpSocket {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    sock.connect(target).expect("connect client socket");
    sock.set_nonblocking(true)
        .expect("non-blocking client socket");
    sock
}

/// Busy-polls `attempt` until it stops returning `WouldBlock`, or
/// [`IO_TIMEOUT`] passes. Like the UDP generator, the TCP side never
/// sleeps: a sleeping client adds its own wake-up latency to every
/// answer and lets client and server fall into taking turns.
fn spin<T>(mut attempt: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let deadline = now_ns() + IO_TIMEOUT.as_nanos() as u64;
    loop {
        match attempt() {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                if now_ns() > deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
                std::hint::spin_loop();
            }
            other => return other,
        }
    }
}

/// One client connection with the benchmark's own RFC 7766 framing
/// (two-byte length prefix), so the ruler does not depend on
/// `netio::tcp`'s codec.
struct Conn {
    stream: TcpStream,
    /// Bytes read and not yet handed out: `inbuf[at..have]`.
    inbuf: Vec<u8>,
    at: usize,
    have: usize,
    out: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: vec![0; 32 * 1024],
            at: 0,
            have: 0,
            out: Vec::with_capacity(256),
        })
    }

    fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.out.clear();
        self.out
            .extend_from_slice(&(payload.len() as u16).to_be_bytes());
        self.out.extend_from_slice(payload);
        let mut written = 0;
        while written < self.out.len() {
            written += spin(|| self.stream.write(&self.out[written..]))?;
        }
        Ok(())
    }

    /// The next whole frame, busy-polling the socket for it.
    fn recv(&mut self) -> std::io::Result<&[u8]> {
        loop {
            let pending = &self.inbuf[self.at..self.have];
            if let [hi, lo, rest @ ..] = pending {
                let len = usize::from(u16::from_be_bytes([*hi, *lo]));
                if rest.len() >= len {
                    let start = self.at + 2;
                    self.at = start + len;
                    return Ok(&self.inbuf[start..start + len]);
                }
            }
            // Make room (a frame is at most 64 KiB + 2; answers here are ~1 kB).
            if self.at > 0 {
                self.inbuf.copy_within(self.at..self.have, 0);
                self.have -= self.at;
                self.at = 0;
            }
            if self.have == self.inbuf.len() {
                self.inbuf.resize(self.inbuf.len() * 2, 0);
            }
            let (stream, free) = (&mut self.stream, &mut self.inbuf[self.have..]);
            match spin(|| stream.read(free))? {
                0 => return Err(ErrorKind::UnexpectedEof.into()),
                n => self.have += n,
            }
        }
    }
}

/// The persistent, pipelined connection and its books.
struct Reused<'a> {
    conn: Conn,
    pool: &'a Pool,
    inflight: InFlight,
    tally: Tally,
}

impl Reused<'_> {
    /// Reads one frame and matches it to its query; returns that
    /// query's `(seq, sent_ns)`. A stalled or closed stream loses
    /// everything in flight.
    fn read_one(&mut self) -> Option<(u64, u64)> {
        let reply = match self.conn.recv() {
            Ok(r) if r.len() >= 2 => r,
            _ => {
                self.tally.lost += self.inflight.expire(u64::MAX, 0);
                return None;
            }
        };
        let id = u16::from_be_bytes([reply[0], reply[1]]);
        let Some(m) = self.inflight.reply(id) else {
            self.tally.stale += 1;
            return None;
        };
        self.tally
            .book(Profile::PaddedTcp, self.pool, id, m.seq, reply);
        Some((m.seq, m.sent_ns))
    }

    /// Sends until [`PIPELINE`] frames are in flight, then reads one.
    fn step(&mut self) -> Option<(u64, u64)> {
        while self.inflight.outstanding() < PIPELINE {
            let id = self
                .inflight
                .next_id()
                .expect("8 in flight never wraps the id space");
            self.conn.send(self.pool.payload(id)).expect("frame write");
            let now = now_ns();
            self.inflight.sent(now, now);
            self.tally.sent += 1;
        }
        self.read_one()
    }

    /// Runs for `dur_ns`; returns `(frames answered, wall ns)`.
    fn slice(&mut self, dur_ns: u64, mut spans: Option<(&mut Tracer, SpanId)>) -> (u64, u64) {
        let start = now_ns();
        let before = self.tally.answered;
        while now_ns() - start < dur_ns {
            let matched = self.step();
            if let (Some((tracer, parent)), Some((seq, sent_ns))) = (&mut spans, matched) {
                tracer.push("tcp.frame", sent_ns, now_ns(), *parent, seq);
            }
        }
        (self.tally.answered - before, now_ns() - start)
    }

    /// Reads the answers still in flight.
    fn settle(&mut self) {
        while self.inflight.outstanding() > 0 {
            self.read_one();
        }
    }
}

/// One truncation detour for query `seq`: UDP → TC=1 → the same
/// question over TCP (a fresh connection, or `reuse`). Returns the
/// nanoseconds from the UDP send to the whole TCP answer, `None` on
/// any failure (booked in `tally`).
fn detour(
    udp: &UdpSocket,
    tcp: SocketAddr,
    pool: &Pool,
    seq: u64,
    reuse: Option<&mut Conn>,
    tally: &mut Tally,
) -> Option<u64> {
    let id = seq as u16;
    let query = pool.payload(id);
    let mut buf = [0u8; 2048];
    tally.sent += 1;
    let t0 = now_ns();
    let truncated = udp.send(query).and_then(|_| spin(|| udp.recv(&mut buf)));
    let ok =
        matches!(truncated, Ok(n) if Profile::PaddedUdp.header_ok(pool.kind(id), query, &buf[..n]));
    if !ok {
        tally.lost += 1;
        return None;
    }
    let mut fresh;
    let conn = match reuse {
        Some(conn) => conn,
        None => match Conn::open(tcp) {
            Ok(c) => {
                fresh = c;
                &mut fresh
            }
            Err(_) => {
                tally.lost += 1;
                return None;
            }
        },
    };
    let answered = conn
        .send(query)
        .and_then(|()| conn.recv().map(<[u8]>::to_vec));
    let elapsed = now_ns() - t0;
    match answered {
        Ok(reply) => {
            tally.book(Profile::PaddedTcp, pool, id, seq, &reply);
            Some(elapsed)
        }
        Err(_) => {
            tally.lost += 1;
            None
        }
    }
}

/// Up to `max` detours in `slices` slices of `dur_ns`; returns each
/// slice's median latency in µs.
fn detour_phase(
    rig: &Rig,
    slices: usize,
    dur_ns: u64,
    max: usize,
    mut reuse: Option<&mut Conn>,
    tally: &mut Tally,
) -> Vec<f64> {
    let udp = udp_socket(rig.handle.local_addr());
    let mut p50 = Vec::with_capacity(slices);
    let mut seq = 1u64;
    for _ in 0..slices {
        let start = now_ns();
        let mut lat = Vec::with_capacity((max / slices).min(1 << 16));
        while now_ns() - start < dur_ns && lat.len() < max / slices {
            if let Some(ns) = detour(
                &udp,
                tcp_addr(&rig.handle),
                &rig.pool,
                seq,
                reuse.as_deref_mut(),
                tally,
            ) {
                lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
            }
            seq += 1;
        }
        lat.sort_unstable();
        p50.push(percentile_sorted(&lat, 0.5) / 1e3);
    }
    p50
}

/// Runs the workload in the mode `report` was made for.
pub fn run(args: Args, report: &mut Report) {
    let rig = set_up_repeatedly(
        report,
        || set_up(args.seed),
        |r| {
            r.handle.shutdown();
        },
    );
    let mut reused = Reused {
        conn: Conn::open(tcp_addr(&rig.handle)).expect("persistent connection"),
        pool: &rig.pool,
        inflight: InFlight::default(),
        tally: Tally::default(),
    };
    reused.step();
    // The connection's server thread exists once it has answered.
    let threads = Threads::named("netio-tcp");
    report.require(threads.len() >= 2, || {
        format!(
            "expected accept + connection threads, found {}",
            threads.len()
        )
    });
    let mut detours = Tally::default();
    let mut connections = 1u64; // the persistent one

    if report.traced() {
        let mut tracer = Tracer::with_capacity(1 << 20);
        let root = tracer.open("trace", NO_PARENT);
        layers::replay_all(args.seed, &mut tracer, root, report);

        let phase = tracer.open("workload.reused", root);
        let (mut plain, mut spanned) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (frames, wall) = reused.slice(args.ns(0.08), None);
            plain.push(frames as f64 * 1e9 / wall as f64);
            let (frames, wall) = reused.slice(args.ns(0.08), Some((&mut tracer, phase)));
            spanned.push(frames as f64 * 1e9 / wall as f64);
        }
        reused.settle();
        tracer.close(phase);
        let bare = median(&plain);
        report.set(
            "trace.overhead_pct",
            (bare - median(&spanned)) / bare.max(1.0) * 100.0,
        );

        // Fresh connections, sequential: connect → one query → close.
        let gen0 = this_thread_cpu();
        let cpu0 = process_cpu_s();
        let start = now_ns();
        let before = detours.answered;
        let p50 = detour_phase(&rig, 3, args.ns(0.1), FRESH_MAX, None, &mut detours);
        let opened = detours.answered - before;
        connections += opened;
        let wall_s = (now_ns() - start) as f64 / 1e9;
        // Everything the process burned that was not the generator.
        let program_cpu_s =
            (process_cpu_s() - cpu0) - this_thread_cpu().since(gen0).run_ns as f64 / 1e9;
        report.set("netio.tcp.fresh_qps", opened as f64 / wall_s);
        report.set(
            "netio.tcp.fresh_conn_cpu_us",
            program_cpu_s.max(0.0) * 1e6 / opened.max(1) as f64,
        );
        report.set_median("netio.tcp.detour_fresh_p50_us", p50);

        // The same detour over the already open connection.
        let p50 = detour_phase(
            &rig,
            3,
            args.ns(0.05),
            usize::MAX,
            Some(&mut reused.conn),
            &mut detours,
        );
        report.slices.push(("detour_reused_p50_us".into(), p50));
        tracer.close(root);
        layers::finish_trace(&tracer, "auth_tcp", report);
    } else {
        let dur = args.ns(0.7 / SLICES as f64);
        let (mut qps, mut cpu_us) = (Vec::new(), Vec::new());
        for _ in 0..SLICES {
            let before = threads.cpu();
            let (frames, wall) = reused.slice(dur, None);
            let cpu = threads.cpu().since(before);
            qps.push(frames as f64 * 1e9 / wall as f64);
            cpu_us.push(cpu.run_ns as f64 / frames.max(1) as f64 / 1e3);
        }
        reused.settle();
        report.set_median("ops_per_s", qps);
        report.set_median("cpu_us_per_op", cpu_us);
        let p50 = detour_phase(
            &rig,
            SLICES,
            args.ns(0.3 / SLICES as f64),
            usize::MAX,
            Some(&mut reused.conn),
            &mut detours,
        );
        report.set_median("latency_us", p50);
    }

    // The server's books against ours: every UDP query truncated, every
    // TCP frame counted, every connection accepted and none shed.
    drop(reused.conn);
    let warmup = WARMUP_DETOURS; // each: one UDP query, one connection, one frame
    let (udp_sent, frames) = (
        detours.sent + warmup,
        reused.tally.sent + detours.answered + warmup,
    );
    let stats = server_books(&rig.handle, |s| s.queries == udp_sent + frames);
    let conns = rig.handle.tcp_stats();
    report.require(stats.truncated == udp_sent, || {
        format!(
            "server truncated {} of {udp_sent} UDP queries",
            stats.truncated
        )
    });
    report.require(stats.tcp_queries == frames, || {
        format!(
            "server counted {} TCP frames, benchmark sent {frames}",
            stats.tcp_queries
        )
    });
    report.require(stats.queries == udp_sent + frames, || {
        format!(
            "server counted {} queries, benchmark sent {}",
            stats.queries,
            udp_sent + frames
        )
    });
    report.require(
        conns.accepted == connections + warmup && conns.over_cap == 0 && conns.frame_errors == 0,
        || {
            format!(
                "connection books off: {conns:?}, benchmark opened {}",
                connections + warmup
            )
        },
    );
    let mut all = reused.tally;
    all += detours;
    report.require(all.bad_header + all.bad_content == 0, || {
        format!("wrong answers: {all:?}")
    });
    report.require(all.deep_checked > 0, || {
        "no reply got the deep check".into()
    });
    report.attempted += all.sent;
    report.failed += all.failed();
    report.set("netio.tcp.accepted", conns.accepted as f64);
    report.set("netio.tcp.over_cap", conns.over_cap as f64);
    report.set("netio.tcp.frame_errors", conns.frame_errors as f64);
    rig.handle.shutdown();
    report.set("peak_rss_mb", peak_rss_mb());
}
