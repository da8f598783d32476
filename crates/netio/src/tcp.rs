//! The TCP transport plane: truncation fallback that actually
//! completes (RFC 7766).
//!
//! The paper's measurement traffic is UDP, but §6's engineering
//! guidance only works end-to-end if a TC=1 answer has somewhere to
//! go: a recursive that sees the truncation bit retries the same
//! question over TCP, and an authoritative that shirks TCP silently
//! loses exactly the fat-answer tail the EDNS payload negotiation was
//! supposed to protect. This module is the server half of that
//! contract (the client half lives in [`crate::client`]):
//!
//! * **Framing** — RFC 1035 §4.2.2 / RFC 7766 two-byte big-endian
//!   length prefixes. [`write_frame`] emits a frame in one `write_all`
//!   (one segment with Nagle off); [`FrameReader`] is a *resumable*
//!   decoder that survives arbitrary segmentation and read timeouts
//!   mid-frame, so the connection loop can poll the stop flag on a
//!   short socket timeout without ever misparsing a half-arrived
//!   frame.
//! * **Accept loops** — [`serve`](crate::serve) spawns one blocking
//!   accept worker per shard beside the UDP workers, all sharing the
//!   listener via `try_clone` (the kernel wakes one per connection).
//!   Shutdown wakes blocked accepts with throwaway connections.
//! * **Connections** — each accepted stream gets its own thread and its
//!   own forked engine, under a global cap ([`TcpOptions::max_conns`]);
//!   at the cap the stream is closed immediately and counted
//!   ([`TcpConnStats::over_cap`]), never silently queued. Queries are
//!   pipelined per RFC 7766: the loop keeps reading frames and answers
//!   each in arrival order on the same stream.
//! * **Deadlines** — reads poll on the stop interval and enforce
//!   [`TcpOptions::read_timeout`] since the last completed frame, so
//!   both idle connections and slow-loris partial frames are shed;
//!   writes carry [`TcpOptions::write_timeout`], and a blown write
//!   deadline closes the connection (a half-written frame is
//!   unrecoverable).
//!
//! Counters: engine outcomes (including `tcp_queries`) are added to
//! per-shard cells of the same kind UDP workers write, so
//! `ServeHandle::stats()` and the scrape feed span both transports;
//! connection-plane events (accepted, over-cap, frame errors) land in
//! [`TcpConnStats`], which feeds `dnswild_tcp_events_total` the same
//! way. Stage spans for TCP record into
//! `dnswild_stage_ns{transport="tcp"}`, keeping the unlabelled UDP
//! series comparable with pre-TCP baselines.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dnswild_metrics::{counter_set, AtomicSet, Stage, StageClock, StageSpans};
use dnswild_server::{AnswerEngine, TransportKind};
use dnswild_telemetry::Producer;

use crate::server::{
    is_idle_recv, record_server_event, IoErrorStats, ShardCell, STOP_POLL_INTERVAL,
};

/// Knobs for the TCP listener plane (see [`crate::ServeConfig::tcp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Global cap on concurrently served connections across all accept
    /// workers. Beyond it new connections are closed on accept and
    /// counted in [`TcpConnStats::over_cap`] — shedding beats an
    /// unbounded thread pile-up under a SYN-happy recursive.
    pub max_conns: usize,
    /// How long a connection may sit without completing a frame —
    /// measured from the last completed frame, so it bounds both idle
    /// keep-alive and slow-loris partial frames.
    pub read_timeout: Duration,
    /// Socket write deadline per response frame. A blown deadline
    /// closes the connection (the frame boundary is lost).
    pub write_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            max_conns: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

counter_set! {
    /// Connection-plane counters, outside
    /// [`ServerStats`](dnswild_server::ServerStats) (which counts *frames*
    /// through the engine; these count *connections* and framing faults).
    /// The labels are the `kind` values of `dnswild_tcp_events_total`.
    pub struct TcpConnStats {
        /// Connections accepted and served.
        accepted => "accepted",
        /// Connections closed immediately because [`TcpOptions::max_conns`]
        /// live connections already existed.
        over_cap => "over_cap",
        /// Connections that died inside a frame: EOF or a read deadline
        /// mid-frame, or any socket error while reading — the length-prefix
        /// stream is unrecoverable past that point.
        frame_errors => "frame_error",
    }
}

/// Lock-free [`TcpConnStats`] mirror shared by the accept workers and
/// their connection threads.
pub(crate) type TcpCounters = AtomicSet<TcpConnStats, 3>;

/// Writes one RFC 7766 frame — two-byte big-endian length then the
/// payload — as a single `write_all` (via `scratch`, reused across
/// frames), so a Nagle-off stream sends it in one segment.
pub fn write_frame(w: &mut impl Write, payload: &[u8], scratch: &mut Vec<u8>) -> io::Result<()> {
    let len = u16::try_from(payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "DNS/TCP frame larger than 65535 bytes")
    })?;
    scratch.clear();
    scratch.extend_from_slice(&len.to_be_bytes());
    scratch.extend_from_slice(payload);
    w.write_all(scratch)
}

/// A resumable RFC 7766 frame decoder.
///
/// `read_frame` may return `WouldBlock`/`TimedOut` (from a socket read
/// timeout) at *any* byte boundary; the partial state is kept and the
/// next call resumes exactly where the stream paused — the
/// property-tested guarantee that arbitrary segmentation and timeout
/// interleavings never shift the frame boundaries. The payload buffer
/// is reused across frames (no per-frame allocation once warm).
#[derive(Debug, Default)]
pub struct FrameReader {
    head: [u8; 2],
    have_head: usize,
    payload: Vec<u8>,
    have: usize,
    complete: bool,
}

impl FrameReader {
    /// An empty decoder.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether the stream paused inside a frame — distinguishes an idle
    /// keep-alive connection from a slow-loris half-frame when a read
    /// deadline expires.
    pub fn mid_frame(&self) -> bool {
        !self.complete && (self.have_head > 0 || self.have > 0)
    }

    /// Reads until one whole frame is buffered and returns its payload.
    ///
    /// `Ok(None)` is a clean peer close (EOF exactly on a frame
    /// boundary). EOF anywhere *inside* a frame is
    /// [`io::ErrorKind::UnexpectedEof`]. Timeout-ish errors pass
    /// through with the partial state retained for the next call.
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        if self.complete {
            self.complete = false;
            self.have_head = 0;
            self.have = 0;
        }
        while self.have_head < 2 {
            match r.read(&mut self.head[self.have_head..2]) {
                Ok(0) if self.have_head == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a frame length prefix",
                    ))
                }
                Ok(n) => self.have_head += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let len = u16::from_be_bytes(self.head) as usize;
        if self.payload.len() < len {
            self.payload.resize(len, 0);
        }
        while self.have < len {
            match r.read(&mut self.payload[self.have..len]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a frame payload",
                    ))
                }
                Ok(n) => self.have += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.complete = true;
        Ok(Some(&self.payload[..len]))
    }
}

/// Everything one accept worker needs, bundled so [`crate::serve`] can
/// move it into the worker thread in one piece.
pub(crate) struct AcceptWorker {
    pub(crate) listener: TcpListener,
    pub(crate) template: AnswerEngine,
    pub(crate) active: Arc<AtomicUsize>,
    pub(crate) conn: Arc<ConnShared>,
}

/// What an accept worker and all its connection threads share.
pub(crate) struct ConnShared {
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) shard: Arc<ShardCell>,
    pub(crate) counters: Arc<TcpCounters>,
    pub(crate) opts: TcpOptions,
    /// The telemetry producer is mutex-shared across this worker's
    /// connection threads rather than one per connection. A dropped
    /// producer's ring *is* retired by the collector, so that would not
    /// leak — but a ring is 8192 × 48 B ≈ 390 KB, allocated per dialled
    /// connection on the fallback path. TCP is that fallback path: the
    /// brief lock around each event record is cheap relative to a stream
    /// round-trip, and the mutex restores the single-producer guarantee
    /// the ring needs.
    pub(crate) trace: Option<(Mutex<Producer>, u16)>,
    /// TCP-labelled stage spans, when metered.
    pub(crate) spans: Option<Arc<StageSpans>>,
}

/// Drops decrement the live-connection gauge however the connection
/// thread exits (including panic unwinds).
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One accept worker: blocking-accept connections off the shared
/// listener, admit them under the global cap, and hand each to its own
/// connection thread. [`crate::ServeHandle::shutdown`] wakes blocked
/// accepts with throwaway connections after raising the stop flag.
pub(crate) fn accept_loop(w: AcceptWorker) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !w.conn.stop.load(Ordering::Relaxed) {
        let (stream, peer) = match w.listener.accept() {
            Ok(ok) => ok,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient accept failures (EMFILE, aborted handshakes):
            // back off one poll interval rather than spinning.
            Err(_) => {
                std::thread::sleep(STOP_POLL_INTERVAL);
                continue;
            }
        };
        if w.conn.stop.load(Ordering::Relaxed) {
            break; // the shutdown wake-up connection
        }
        conns.retain(|h| !h.is_finished());
        // Admission is a CAS loop so two accept workers racing at
        // `max_conns - 1` cannot both get in.
        let admitted = w
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < w.conn.opts.max_conns).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            w.conn.counters.add(TcpConnStats { over_cap: 1, ..Default::default() });
            continue; // dropping the stream closes it
        }
        let guard = ActiveGuard(Arc::clone(&w.active));
        w.conn.counters.add(TcpConnStats { accepted: 1, ..Default::default() });
        let mut engine = w.template.fork();
        let conn = Arc::clone(&w.conn);
        // On spawn failure the closure is dropped, and the guard moved
        // into it releases the slot.
        if let Ok(h) = std::thread::Builder::new().name("netio-tcp-conn".into()).spawn(move || {
            let _guard = guard;
            connection_loop(stream, peer, &mut engine, &conn);
        }) {
            conns.push(h);
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Serves one connection until the peer closes, a deadline fires, the
/// stream errors, or the plane stops. Frames are answered in arrival
/// order on the same stream (RFC 7766 pipelining).
fn connection_loop(mut stream: TcpStream, peer: SocketAddr, engine: &mut AnswerEngine, c: &ConnShared) {
    // One-segment frames (write_frame is a single buffered write).
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(STOP_POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(c.opts.write_timeout));
    let frame_error = || c.counters.add(TcpConnStats { frame_errors: 1, ..Default::default() });
    let mut reader = FrameReader::new();
    let mut resp_buf = Vec::with_capacity(1024);
    let mut scratch = Vec::with_capacity(1024);
    let spans = c.spans.as_deref();
    let mut clock = StageClock::start(spans.is_some());
    let mut last_frame = Instant::now();
    while !c.stop.load(Ordering::Relaxed) {
        clock.reset();
        let payload = match reader.read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean close on a frame boundary
            Err(e) if is_idle_recv(&e) => {
                if last_frame.elapsed() >= c.opts.read_timeout {
                    // Deadline: an idle keep-alive is shed silently, a
                    // half-frame (slow-loris or stalled sender) is a
                    // framing fault.
                    if reader.mid_frame() {
                        frame_error();
                    }
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Mid-frame EOF, a reset, or any other stream error.
                frame_error();
                break;
            }
        };
        last_frame = Instant::now();
        clock.lap(spans, Stage::Recv);
        let start_ns = c.trace.as_ref().map(|(p, _)| p.lock().unwrap().now_ns());
        let handled =
            engine.handle_packet_from(payload, TransportKind::Tcp, None, &mut resp_buf, spans);
        let mut errors =
            IoErrorStats { decode_errors: u64::from(handled.decode_error), ..Default::default() };
        let mut send_ok = false;
        if handled.response {
            clock.reset();
            send_ok = write_frame(&mut stream, &resp_buf, &mut scratch).is_ok();
            errors.send_errors += u64::from(!send_ok);
            clock.lap(spans, Stage::Send);
        }
        if let (Some((producer, auth_id)), Some(start_ns)) = (&c.trace, start_ns) {
            let p = producer.lock().unwrap();
            record_server_event(
                &p,
                *auth_id,
                &handled,
                payload,
                &peer,
                resp_buf.len(),
                send_ok,
                start_ns,
                TransportKind::Tcp,
            );
        }
        // The same single accounting write as the UDP loop: one delta
        // per frame into the shard cell.
        c.shard.stats.add(engine.take_stats());
        c.shard.io.add(errors);
        if handled.response && !send_ok {
            break; // a half-written frame poisons the stream
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip_including_empty() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut wire, b"hello dns", &mut scratch).unwrap();
        write_frame(&mut wire, b"", &mut scratch).unwrap();
        write_frame(&mut wire, &[0xab; 300], &mut scratch).unwrap();
        let mut r = FrameReader::new();
        let mut c = Cursor::new(wire);
        assert_eq!(r.read_frame(&mut c).unwrap().unwrap(), b"hello dns");
        assert_eq!(r.read_frame(&mut c).unwrap().unwrap(), b"");
        assert_eq!(r.read_frame(&mut c).unwrap().unwrap(), &[0xab; 300][..]);
        assert!(r.read_frame(&mut c).unwrap().is_none(), "clean EOF on the boundary");
        assert!(!r.mid_frame());
    }

    #[test]
    fn oversized_frame_is_refused_on_write() {
        let mut sink = Vec::new();
        let mut scratch = Vec::new();
        let err = write_frame(&mut sink, &vec![0u8; 65536], &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing hits the wire");
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        // Inside the length prefix.
        let mut r = FrameReader::new();
        let err = r.read_frame(&mut Cursor::new(vec![0x00])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Inside the payload.
        let mut r = FrameReader::new();
        let mut c = Cursor::new(vec![0x00, 0x05, b'x']);
        let err = r.read_frame(&mut c).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.mid_frame());
    }

    /// A reader that hands out a scripted byte stream in scripted chunk
    /// sizes with scripted timeouts in between — the adversarial
    /// segmentation the resumable decoder must survive.
    struct Chopped {
        data: Vec<u8>,
        at: usize,
        script: Vec<usize>, // 0 = WouldBlock, n = serve up to n bytes
    }

    impl Read for Chopped {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let step = if self.script.is_empty() { usize::MAX } else { self.script.remove(0) };
            if step == 0 {
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            let n = step.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn qc_reader_survives_any_segmentation_and_timeout_interleaving() {
        detrand::qc::property("netio/tcp-frame-reader-resumable").cases(512).check(|g| {
            // A handful of frames with varied sizes (incl. empty).
            let frames: Vec<Vec<u8>> = (0..g.usize_in(1..6))
                .map(|_| (0..g.usize_in(0..600)).map(|_| g.u8()).collect())
                .collect();
            let mut data = Vec::new();
            let mut scratch = Vec::new();
            for f in &frames {
                write_frame(&mut data, f, &mut scratch).unwrap();
            }
            let script: Vec<usize> = (0..g.usize_in(0..64)).map(|_| g.usize_in(0..9)).collect();
            let mut src = Chopped { data, at: 0, script };
            let mut reader = FrameReader::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            loop {
                match reader.read_frame(&mut src) {
                    Ok(Some(p)) => got.push(p.to_vec()),
                    Ok(None) => break,
                    Err(e) if is_idle_recv(&e) => continue, // state retained, resume
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert_eq!(got, frames, "frame boundaries shifted under segmentation");
        });
    }

    #[test]
    fn tcp_conn_stats_cover_every_field() {
        dnswild_metrics::counters::assert_counter_set_covers_every_field::<TcpConnStats, 3>();
    }
}
