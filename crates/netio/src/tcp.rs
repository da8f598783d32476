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
//!   length prefixes. [`FrameReader`] is a *resumable* decoder that
//!   survives arbitrary segmentation and read timeouts mid-frame, so the
//!   connection loop can poll the stop flag on a short socket timeout
//!   without ever misparsing a half-arrived frame. It makes one `read`
//!   per arrival — up to `READ_CHUNK` bytes of whatever the stream
//!   holds — and hands out every whole frame that read delivered with
//!   no further call; [`write_frame`] emits one frame in one `write_all`
//!   (the client side's shape: one question per round trip).
//! * **Accept loops** — [`serve`](crate::serve) spawns one blocking
//!   accept worker per shard beside the UDP workers, all sharing the
//!   listener via `try_clone` (the kernel wakes one per connection).
//!   Shutdown wakes blocked accepts with throwaway connections.
//! * **Connections** — each accepted stream gets its own thread and its
//!   own forked engine, under a global cap ([`TcpOptions::max_conns`]);
//!   at the cap the stream is closed immediately and counted
//!   ([`TcpConnStats::over_cap`]), never silently queued. Queries are
//!   pipelined per RFC 7766 and answered in arrival order on the same
//!   stream, in the UDP worker's shape: one read per arrival, one write
//!   per batch. The answers to every whole frame a read delivered are
//!   gathered into one reply buffer and flushed with one `write_all`
//!   before any read that could block — never on a timer, so no answer
//!   waits for a frame that has not arrived. Syscalls per frame: 3
//!   when each frame paid its own prefix read, payload read and write;
//!   now 2 per batch, so 2/n per frame when one read delivers n.
//! * **Bounds** — per connection, the reader holds at most one maximal
//!   frame (64 KiB + 2 bytes) plus one `READ_CHUNK`; the reply buffer
//!   is flushed before an answer would push it past `REPLY_BOUND`
//!   (one maximal frame), so no flush writes more; and a batch is at
//!   most `BATCH_FRAMES` frames, which bounds its pending trace rows.
//! * **Deadlines** — reads poll on the stop interval and enforce
//!   `READ_TIMEOUT` (5 s) since the last completed frame, so
//!   both idle connections and slow-loris partial frames are shed;
//!   each flush carries [`TcpOptions::write_timeout`], and a blown
//!   write deadline closes the connection (a half-written batch is
//!   unrecoverable).
//!
//! Counters: engine outcomes (including `tcp_queries`) are added to
//! per-shard cells of the same kind UDP workers write — one delta per
//! flush — so `ServeHandle::stats()` and the scrape feed span both
//! transports; connection-plane events (accepted, over-cap, frame
//! errors) land in [`TcpConnStats`], which feeds
//! `dnswild_tcp_events_total` the same way. Stage spans for TCP record
//! into `dnswild_stage_ns{transport="tcp"}` (recv and send amortised
//! over the frames of an arrival or a flush, so per frame), keeping the
//! unlabelled UDP series comparable with pre-TCP baselines.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dnswild_metrics::{counter_set, AtomicSet, Stage, StageClock, StageSpans};
use dnswild_server::{AnswerEngine, ServerStats, TransportKind};
use dnswild_telemetry::{Event, Producer};

use crate::server::{
    finish_server_event, is_idle_recv, server_event, IoErrorStats, ShardCell, STOP_POLL_INTERVAL,
};

/// Most bytes one [`FrameReader`] `read` asks the stream for.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// The longest RFC 7766 frame: a two-byte length prefix and a
/// 65,535-byte message.
const MAX_FRAME: usize = 2 + u16::MAX as usize;

/// The connection loop's reply-buffer bound in bytes: an answer that
/// would push the buffer past it flushes the buffer first, so no
/// single write is larger. One maximal frame, so any answer fits.
pub(crate) const REPLY_BOUND: usize = MAX_FRAME;

/// The most frames the connection loop answers between two flushes: a
/// flood of tiny frames (dropped, so adding nothing to the reply
/// buffer) still flushes, which bounds the trace rows a batch keeps.
pub(crate) const BATCH_FRAMES: usize = 256;

/// How long a connection may sit without completing a frame — measured
/// from the last completed frame, so it bounds both idle keep-alive and
/// slow-loris partial frames.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Knobs for the TCP listener plane (see [`crate::ServeConfig::tcp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Global cap on concurrently served connections across all accept
    /// workers. Beyond it new connections are closed on accept and
    /// counted in [`TcpConnStats::over_cap`] — shedding beats an
    /// unbounded thread pile-up under a SYN-happy recursive.
    pub max_conns: usize,
    /// Socket write deadline per flush — one `write_all` of every answer
    /// gathered since the last read. A blown deadline closes the
    /// connection (the frame boundary is lost).
    pub write_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            max_conns: 64,
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

/// A resumable, buffering RFC 7766 frame decoder.
///
/// One `read` takes whatever the stream holds, up to `READ_CHUNK`
/// (16 KiB); frames already buffered are handed out with no further read
/// ([`FrameReader::frame_buffered`] says when). `read_frame` may
/// return `WouldBlock`/`TimedOut` (from a socket read timeout) at *any*
/// byte boundary; the partial state is kept and the next call resumes
/// exactly where the stream paused — the property-tested guarantee
/// that arbitrary segmentation and timeout interleavings never shift
/// the frame boundaries. The buffer holds at most one maximal frame
/// (64 KiB + 2 bytes) plus one chunk, and is reused across frames (no
/// per-frame allocation once warm).
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes read and not yet handed out: `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty decoder.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether the stream paused inside a frame (bytes of a frame not
    /// yet handed out are buffered) — distinguishes an idle keep-alive
    /// connection from a slow-loris half-frame when a read deadline
    /// expires.
    pub fn mid_frame(&self) -> bool {
        self.start < self.end
    }

    /// Whether a whole frame is buffered, i.e. the next
    /// [`FrameReader::read_frame`] makes no `read` call.
    pub fn frame_buffered(&self) -> bool {
        self.frame_at(self.start).is_some()
    }

    /// How many whole frames are buffered.
    fn frames_buffered(&self) -> usize {
        let (mut at, mut n) = (self.start, 0);
        while let Some(len) = self.frame_at(at) {
            at += 2 + len;
            n += 1;
        }
        n
    }

    /// The payload length of the frame starting at `at`, if all of it
    /// is buffered.
    fn frame_at(&self, at: usize) -> Option<usize> {
        match &self.buf[at..self.end] {
            [hi, lo, rest @ ..] => {
                let len = usize::from(u16::from_be_bytes([*hi, *lo]));
                (rest.len() >= len).then_some(len)
            }
            _ => None,
        }
    }

    /// Returns the next whole frame's payload, reading only when none
    /// is buffered.
    ///
    /// `Ok(None)` is a clean peer close (EOF exactly on a frame
    /// boundary). EOF anywhere *inside* a frame is
    /// [`io::ErrorKind::UnexpectedEof`]. Timeout-ish errors pass
    /// through with the partial state retained for the next call.
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        Ok(if self.fill(r)? { self.next_buffered() } else { None })
    }

    /// Reads until a whole frame is buffered (no read if one already
    /// is); `false` is a clean close on a frame boundary. Errors as for
    /// [`FrameReader::read_frame`].
    fn fill(&mut self, r: &mut impl Read) -> io::Result<bool> {
        while !self.frame_buffered() {
            // Keep the partial frame (< MAX_FRAME bytes) at the front
            // and read one chunk behind it.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() < self.end + READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
            match r.read(&mut self.buf[self.end..self.end + READ_CHUNK]) {
                Ok(0) if self.end == 0 => return Ok(false),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.end < 2 {
                            "connection closed inside a frame length prefix"
                        } else {
                            "connection closed inside a frame payload"
                        },
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Hands out the buffered whole frame at the front, if there is one.
    fn next_buffered(&mut self) -> Option<&[u8]> {
        let len = self.frame_at(self.start)?;
        let at = self.start + 2;
        self.start = at + len;
        Some(&self.buf[at..at + len])
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
    /// connection on the fallback path. TCP is that fallback path: one
    /// brief lock per flush, around that batch's event records, is cheap
    /// relative to a stream round-trip, and the mutex restores the
    /// single-producer guarantee the ring needs.
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
            serve_socket(stream, peer, &mut engine, &conn);
        }) {
            conns.push(h);
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Sets an accepted socket's options and serves it: Nagle off (a flush
/// is one write), the stop-poll read timeout, the write deadline.
fn serve_socket(
    mut stream: TcpStream,
    peer: SocketAddr,
    engine: &mut AnswerEngine,
    c: &ConnShared,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(STOP_POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(c.opts.write_timeout));
    connection_loop(&mut stream, peer, engine, c);
}

/// Serves one RFC 7766 connection over any byte stream — the loop
/// [`serve`](crate::serve) runs on every accepted TCP socket — until the
/// peer closes or the stream fails, and returns that connection's
/// books: the summed engine deltas, the socket-level errors and the
/// framing faults. With `trace`, one event per frame goes to the
/// producer under that auth id. The stream's own timeouts are the
/// caller's: a `WouldBlock` read is an idle poll, as on a socket.
pub fn serve_stream<S: Read + Write>(
    stream: &mut S,
    peer: SocketAddr,
    engine: &mut AnswerEngine,
    trace: Option<(Producer, u16)>,
) -> (ServerStats, IoErrorStats, TcpConnStats) {
    let c = ConnShared {
        stop: Arc::new(AtomicBool::new(false)),
        shard: Arc::new(ShardCell::default()),
        counters: Arc::new(TcpCounters::default()),
        opts: TcpOptions::default(),
        trace: trace.map(|(p, auth_id)| (Mutex::new(p), auth_id)),
        spans: None,
    };
    connection_loop(stream, peer, engine, &c);
    (c.shard.stats.snapshot(), c.shard.io.snapshot(), c.counters.snapshot())
}

/// The answers gathered since the last flush, and their books.
#[derive(Default)]
struct Batch {
    /// Length-prefixed answers, at most [`REPLY_BOUND`] bytes.
    reply: Vec<u8>,
    /// Answers in `reply`.
    answers: u64,
    /// Frames handled since the last flush, at most [`BATCH_FRAMES`].
    frames: usize,
    /// When tracing: one event per frame, and whether its answer rides
    /// in `reply` (it then shares the flush's fate).
    rows: Vec<(Event, bool)>,
    errors: IoErrorStats,
}

impl Batch {
    /// Writes every gathered answer in one `write_all`, then records
    /// the batch's trace rows under one lock of the producer — so each
    /// row's send fate is the flush's real outcome — and adds one stats
    /// delta and one socket-error delta to the shard cell. A failed
    /// write books a send error for every answer it carried. Returns
    /// whether the answers reached the wire; an empty batch is a no-op.
    fn flush(
        &mut self,
        stream: &mut impl Write,
        engine: &mut AnswerEngine,
        c: &ConnShared,
        clock: &mut StageClock,
    ) -> bool {
        if self.frames == 0 {
            return true;
        }
        let mut ok = true;
        if !self.reply.is_empty() {
            clock.reset();
            ok = stream.write_all(&self.reply).is_ok();
            clock.lap_amortised(c.spans.as_deref(), Stage::Send, self.answers);
            self.errors.send_errors += if ok { 0 } else { self.answers };
        }
        if let Some((producer, auth_id)) = &c.trace {
            let p = producer.lock().expect("no connection thread panics holding the producer");
            for (ev, carried) in self.rows.drain(..) {
                finish_server_event(&p, *auth_id, ev, carried && ok);
            }
        }
        c.shard.stats.add(engine.take_stats());
        c.shard.io.add(std::mem::take(&mut self.errors));
        self.reply.clear();
        self.answers = 0;
        self.frames = 0;
        ok
    }
}

/// Serves one connection until the peer closes, a deadline fires, the
/// stream errors, or the plane stops. Frames are answered in arrival
/// order on the same stream (RFC 7766 pipelining), in the UDP worker's
/// shape: one read per arrival, every whole frame it delivered answered
/// into one reply buffer, one `write_all` per batch — flushed before any
/// read that could block, or before the buffer would pass
/// [`REPLY_BOUND`] or the batch [`BATCH_FRAMES`].
fn connection_loop<S: Read + Write>(
    stream: &mut S,
    peer: SocketAddr,
    engine: &mut AnswerEngine,
    c: &ConnShared,
) {
    let frame_error = || c.counters.add(TcpConnStats { frame_errors: 1, ..Default::default() });
    let mut reader = FrameReader::new();
    let mut resp_buf = Vec::with_capacity(1024);
    let mut batch = Batch::default();
    let spans = c.spans.as_deref();
    let mut clock = StageClock::start(spans.is_some());
    // Frames are stamped without the producer's lock.
    let trace_clock = c
        .trace
        .as_ref()
        .map(|(p, _)| p.lock().expect("no connection thread panics holding the producer").clock());
    let mut last_frame = Instant::now();
    while !c.stop.load(Ordering::Relaxed) {
        if !reader.frame_buffered() {
            // The only read that can block: nothing may wait behind it.
            if !batch.flush(stream, engine, c, &mut clock) {
                break;
            }
            // Restart the lap at syscall entry, so a stretch of empty
            // read timeouts never lands in the next frame's recv span.
            clock.reset();
            match reader.fill(stream) {
                Ok(true) => {}
                Ok(false) => break, // clean close on a frame boundary
                Err(e) if is_idle_recv(&e) => {
                    if last_frame.elapsed() >= READ_TIMEOUT {
                        // Deadline: an idle keep-alive is shed silently,
                        // a half-frame (slow-loris or stalled sender) is
                        // a framing fault.
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
            }
            last_frame = Instant::now();
            let frames = if spans.is_some() { reader.frames_buffered() } else { 1 };
            clock.lap_amortised(spans, Stage::Recv, frames as u64);
        }
        let payload = reader.next_buffered().expect("a whole frame is buffered");
        let start_ns = trace_clock.map(|t| t.now_ns());
        let handled =
            engine.handle_packet_from(payload, TransportKind::Tcp, None, &mut resp_buf, spans);
        let row = start_ns.map(|start_ns| {
            server_event(&handled, payload, &peer, resp_buf.len(), start_ns, TransportKind::Tcp)
        });
        batch.errors.decode_errors += u64::from(handled.decode_error);
        let full = batch.frames == BATCH_FRAMES
            || (handled.response && batch.reply.len() + 2 + resp_buf.len() > REPLY_BOUND);
        let mut dead = full && !batch.flush(stream, engine, c, &mut clock);
        let len = handled.response.then(|| u16::try_from(resp_buf.len()).ok());
        let carried = match len {
            Some(Some(len)) if !dead => {
                batch.reply.extend_from_slice(&len.to_be_bytes());
                batch.reply.extend_from_slice(&resp_buf);
                batch.answers += 1;
                true
            }
            _ => false,
        };
        // An answer over 65,535 bytes has no frame: a send failure and,
        // as a refused write always was, the end of the connection.
        dead |= len == Some(None);
        batch.errors.send_errors += u64::from(handled.response && !carried);
        batch.frames += 1;
        if let Some(ev) = row {
            batch.rows.push((ev, carried));
        }
        if dead {
            break;
        }
    }
    // Whatever the exit, the last batch's answers go out and its rows
    // and deltas are booked.
    batch.flush(stream, engine, c, &mut clock);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_proto::{Class, Message, Name, RType};
    use dnswild_server::TruncationPolicy;
    use dnswild_telemetry::{Collector, CollectorConfig, Trace};
    use dnswild_zone::presets::padded_test_domain_zone;
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
    /// segmentation the resumable decoder must survive — and counts the
    /// `read` calls made on it.
    struct Chopped {
        data: Vec<u8>,
        at: usize,
        script: Vec<usize>, // 0 = WouldBlock, n = serve up to n bytes
        reads: usize,
    }

    impl Chopped {
        fn new(data: Vec<u8>, script: Vec<usize>) -> Chopped {
            Chopped { data, at: 0, script, reads: 0 }
        }
    }

    impl Read for Chopped {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
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
            let mut src = Chopped::new(data, script);
            let mut reader = FrameReader::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            loop {
                let buffered = reader.frame_buffered();
                let reads = src.reads;
                let step = reader.read_frame(&mut src);
                assert_eq!(buffered, src.reads == reads, "frame_buffered() ⇔ no read");
                match step {
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
    fn one_read_hands_out_every_frame_it_delivered() {
        let mut data = Vec::new();
        let mut scratch = Vec::new();
        for f in [&b"one"[..], b"", b"three"] {
            write_frame(&mut data, f, &mut scratch).unwrap();
        }
        let mut src = Chopped::new(data, Vec::new());
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut src).unwrap().unwrap(), b"one");
        assert!(reader.frame_buffered());
        assert_eq!(reader.frames_buffered(), 2);
        assert_eq!(reader.read_frame(&mut src).unwrap().unwrap(), b"");
        assert_eq!(reader.read_frame(&mut src).unwrap().unwrap(), b"three");
        assert_eq!(src.reads, 1, "three frames, one read");
        assert!(!reader.frame_buffered() && !reader.mid_frame());
        assert!(reader.read_frame(&mut src).unwrap().is_none());
    }

    #[test]
    fn the_reader_holds_at_most_one_maximal_frame_plus_one_chunk() {
        let mut data = Vec::new();
        let mut scratch = Vec::new();
        let big = vec![0x5a; u16::MAX as usize];
        for f in [&big[..10], &big[..], &big[..7], &big[..]] {
            write_frame(&mut data, f, &mut scratch).unwrap();
        }
        let mut src = Chopped::new(data, vec![5, 3, 40_000]);
        let mut reader = FrameReader::new();
        let mut lens = Vec::new();
        while let Some(p) = reader.read_frame(&mut src).unwrap() {
            lens.push(p.len());
            assert!(reader.buf.len() <= MAX_FRAME + READ_CHUNK, "{}", reader.buf.len());
        }
        assert_eq!(lens, [10, 65_535, 7, 65_535]);
    }

    fn origin() -> Name {
        Name::parse("ourtestdomain.nl").unwrap()
    }

    /// The padded zone behind a 512-byte UDP ceiling: every probe's
    /// answer is ~930 bytes, which TCP never truncates.
    fn padded_engine() -> AnswerEngine {
        AnswerEngine::new("FRA", vec![padded_test_domain_zone(&origin(), 4, 900)])
            .with_truncation_policy(TruncationPolicy::symmetric(512))
    }

    fn probe(id: u16, n: u32) -> Vec<u8> {
        let qname = origin().prepend(&format!("p{n}-r{id}")).unwrap();
        Message::iterative_query(id, qname, RType::Txt).encode().unwrap()
    }

    /// An in-memory peer for the connection loop: scripted input, and
    /// an output that keeps every byte and the size of every `write`
    /// call — or refuses every write.
    struct Peer {
        input: Chopped,
        out: Vec<u8>,
        writes: Vec<usize>,
        refuse: bool,
        /// `(input end, output length)` per frame: once a frame's last
        /// byte was handed over, a read may only come after the output
        /// holds everything up to its answer.
        promised: Vec<(usize, usize)>,
    }

    impl Peer {
        fn new(frames: &[Vec<u8>], script: Vec<usize>) -> Peer {
            let mut data = Vec::new();
            let mut scratch = Vec::new();
            for f in frames {
                write_frame(&mut data, f, &mut scratch).unwrap();
            }
            Peer {
                input: Chopped::new(data, script),
                out: Vec::new(),
                writes: Vec::new(),
                refuse: false,
                promised: Vec::new(),
            }
        }
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            for &(input_end, out_len) in &self.promised {
                assert!(
                    input_end > self.input.at || self.out.len() >= out_len,
                    "a read while an answer to an arrived frame was held back"
                );
            }
            self.input.read(buf)
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.refuse {
                return Err(io::Error::from(io::ErrorKind::BrokenPipe));
            }
            self.writes.push(buf.len());
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn peer_addr() -> SocketAddr {
        "192.0.2.7:5300".parse().unwrap()
    }

    /// What a frame-at-a-time server does with `frames`: writes each
    /// answer from `handle_packet` in its own frame, in order. Returns
    /// those bytes, the engine's books, the decode errors, and per frame
    /// where it ends in the input and its answer in the output.
    fn frame_by_frame(
        engine: &AnswerEngine,
        frames: &[Vec<u8>],
    ) -> (Vec<u8>, ServerStats, u64, Vec<(usize, usize)>) {
        let mut engine = engine.fork();
        let (mut wire, mut buf, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let (mut decode_errors, mut input_end, mut ends) = (0, 0, Vec::new());
        for f in frames {
            let handled = engine.handle_packet(f, TransportKind::Tcp, &mut buf);
            decode_errors += u64::from(handled.decode_error);
            if handled.response {
                write_frame(&mut wire, &buf, &mut scratch).unwrap();
            }
            input_end += 2 + f.len();
            ends.push((input_end, wire.len()));
        }
        (wire, engine.take_stats(), decode_errors, ends)
    }

    #[test]
    fn qc_batched_loop_writes_what_a_frame_at_a_time_server_would() {
        let template = padded_engine();
        detrand::qc::property("netio/tcp-batched-loop-model").cases(96).check(|g| {
            let frames: Vec<Vec<u8>> = (0..g.usize_in(1..40))
                .map(|_| match g.usize_in(0..5) {
                    0 => probe(g.u16(), g.u32_in(0..50)),
                    1 => {
                        let mut q = Message::iterative_query(
                            g.u16(),
                            Name::parse("hostname.bind").unwrap(),
                            RType::Txt,
                        );
                        q.questions[0].qclass = Class::Ch;
                        q.encode().unwrap()
                    }
                    // A header promising a question that is not there:
                    // FORMERR.
                    2 => {
                        let id = g.u16().to_be_bytes();
                        vec![id[0], id[1], 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
                    }
                    // Too short for a header: dropped unanswered.
                    3 => g.bytes(0..12),
                    // QR=1: a response is never answered.
                    _ => {
                        let mut q = Message::iterative_query(
                            g.u16(),
                            origin().prepend("p1-r1").unwrap(),
                            RType::Txt,
                        );
                        q.header.response = true;
                        q.encode().unwrap()
                    }
                })
                .collect();
            let script = (0..g.usize_in(0..48))
                .map(|_| match g.usize_in(0..3) {
                    0 => 0,
                    1 => g.usize_in(1..9),
                    _ => g.usize_in(9..3000),
                })
                .collect();
            let (want, want_stats, want_decode_errors, ends) = frame_by_frame(&template, &frames);
            let mut peer = Peer::new(&frames, script);
            peer.promised = ends;
            let mut engine = template.fork();
            let (stats, io, conn) = serve_stream(&mut peer, peer_addr(), &mut engine, None);
            assert!(peer.out == want, "bytes differ from the frame-at-a-time server");
            assert_eq!(stats, want_stats, "summed deltas are the per-frame books");
            assert_eq!(io.decode_errors, want_decode_errors);
            assert_eq!((io.send_errors, io.recv_errors), (0, 0));
            assert_eq!(conn, TcpConnStats::default());
        });
    }

    #[test]
    fn a_never_reading_peer_never_sees_a_write_past_the_reply_bound() {
        let frames: Vec<Vec<u8>> = (0..2_000).map(|i| probe(i as u16, 1)).collect();
        let mut peer = Peer::new(&frames, Vec::new());
        let (stats, io, _) = serve_stream(&mut peer, peer_addr(), &mut padded_engine(), None);
        assert_eq!((stats.tcp_queries, stats.answers, io.send_errors), (2_000, 2_000, 0));
        let largest = peer.writes.iter().copied().max().unwrap();
        assert!(largest <= REPLY_BOUND, "a {largest}-byte write");
        assert!(largest > REPLY_BOUND - 1_000, "the bound, not the arrivals, cut the batches");
        assert_eq!(peer.out.len(), peer.writes.iter().sum::<usize>());
    }

    /// Runs `frames` through a traced in-memory connection and returns
    /// the trace's events and the connection's socket-error books.
    fn traced(frames: &[Vec<u8>], refuse: bool, name: &str) -> (Vec<Event>, IoErrorStats) {
        let file = format!("dnswild-tcp-{name}-{}.trace", std::process::id());
        let path = std::env::temp_dir().join(file);
        let collector = Collector::start(CollectorConfig::new(&path)).unwrap();
        let mut peer = Peer::new(frames, vec![0, 7, 0, 3_000]);
        peer.refuse = refuse;
        let trace = Some((collector.producer(), 3));
        let (_, io, _) = serve_stream(&mut peer, peer_addr(), &mut padded_engine(), trace);
        collector.finish().unwrap();
        let events = Trace::read_from(&path).unwrap().events;
        let _ = std::fs::remove_file(&path);
        (events, io)
    }

    #[test]
    fn trace_rows_are_one_per_frame_and_carry_the_flush_outcome() {
        use dnswild_telemetry::{
            journey_from_payload, qname_hash32, FLAG_RESPONSE, FLAG_SEND_FAILED, FLAG_TCP,
        };
        let mut frames: Vec<Vec<u8>> = (0..12).map(|i| probe(i, 2)).collect();
        frames.insert(5, vec![1, 2, 3]); // dropped unanswered
        let (want, ..) = frame_by_frame(&padded_engine(), &frames);
        let mut answers = FrameReader::new();
        let mut want = &want[..];
        for (refuse, name) in [(false, "ok"), (true, "refused")] {
            let (events, io) = traced(&frames, refuse, name);
            assert_eq!(events.len(), frames.len(), "one row per frame");
            assert_eq!(io.send_errors, if refuse { 12 } else { 0 });
            for (ev, frame) in events.iter().zip(&frames) {
                let answered = frame.len() > 3;
                assert_eq!(ev.auth_id, 3);
                assert_eq!(ev.bytes_in as usize, frame.len());
                assert_eq!(ev.flags & FLAG_TCP, FLAG_TCP);
                assert_eq!(ev.flags & FLAG_RESPONSE != 0, answered);
                assert_eq!(ev.flags & FLAG_SEND_FAILED != 0, answered && refuse);
                assert_eq!(ev.dns_id, journey_from_payload(frame).1);
                if answered {
                    assert_eq!(ev.journey, journey_from_payload(frame).0);
                    assert_eq!(ev.qname_hash, qname_hash32(&frame[12..]));
                    let sent = if refuse {
                        0
                    } else {
                        answers.read_frame(&mut want).unwrap().unwrap().len()
                    };
                    assert_eq!(ev.bytes_out as usize, sent);
                } else {
                    assert_eq!(ev.bytes_out, 0);
                }
            }
        }
    }

    #[test]
    fn a_never_reading_peer_is_cut_at_the_write_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = TcpOptions { write_timeout: Duration::from_millis(200), ..Default::default() };
        let active = Arc::new(AtomicUsize::new(0));
        let conn = Arc::new(ConnShared {
            stop: Arc::new(AtomicBool::new(false)),
            shard: Arc::new(ShardCell::default()),
            counters: Arc::new(TcpCounters::default()),
            opts,
            trace: None,
            spans: None,
        });
        let worker = AcceptWorker {
            listener,
            template: padded_engine(),
            active: Arc::clone(&active),
            conn: Arc::clone(&conn),
        };
        let accept = std::thread::spawn(move || accept_loop(worker));

        // Pipeline far more answers than two socket buffers hold, and
        // never read one.
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for i in 0..500 {
            write_frame(&mut wire, &probe(i, 3), &mut scratch).unwrap();
        }
        for _ in 0..200 {
            if client.write_all(&wire).is_err() {
                break; // the server stopped reading, or cut the connection
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while (conn.shard.io.snapshot().send_errors == 0 || active.load(Ordering::Relaxed) != 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let io = conn.shard.io.snapshot();
        let live = active.load(Ordering::Relaxed);
        conn.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(addr); // wakes the blocked accept
        accept.join().unwrap();
        assert!(io.send_errors > 0, "the blown flush is booked: {io:?}");
        assert_eq!(live, 0, "the connection was cut");
        assert_eq!(conn.counters.snapshot().accepted, 1);
        assert!(conn.shard.stats.snapshot().answers > 0);
        drop(client);
    }

    #[test]
    fn tcp_conn_stats_cover_every_field() {
        dnswild_metrics::counters::assert_counter_set_covers_every_field::<TcpConnStats, 3>();
    }
}
