//! The one closed loop every client in this crate waits in. The paper's
//! vantage points send one probe, then wait for its answer; here each
//! such probe is a [`Lane`] — a resumable state machine with at most one
//! query on the wire — and `min(lanes, cores)` [`EventLoop`] threads
//! each wait on all of their lanes at once with one `poll(2)` (the
//! `dnswild-mmsg` shim), so a thread keeps many lookups in flight
//! instead of parking on one. The resolver client's lanes
//! ([`crate::client`]) and the load generator's ([`crate::load`]) are
//! two kinds of lane on the same loop, and `poll` is the one way any of
//! them waits.
//!
//! Also here: what both clients share besides the loop — the per-lane
//! seed streams, the family-matched local bind and the even work split.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::num::NonZeroUsize;
use std::time::Instant;

use dnswild_mmsg::{poll, PollFd};
use dnswild_proto::Message;

use crate::server::is_idle_recv;

/// Lane `lane`'s stream of `seed`: distinct per lane, identical across
/// runs — what makes per-lane schedules replay byte-for-byte.
pub(crate) fn thread_stream(seed: u64, lane: usize) -> u64 {
    seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The unspecified address (ephemeral port) of `peer`'s family — the
/// local bind for a socket that will talk to `peer`.
pub(crate) fn unspecified_for(peer: &SocketAddr) -> SocketAddr {
    if peer.is_ipv4() {
        (Ipv4Addr::UNSPECIFIED, 0).into()
    } else {
        (Ipv6Addr::UNSPECIFIED, 0).into()
    }
}

/// Encodes `query` into the reusable `buf`.
pub(crate) fn encode_query(query: &Message, buf: &mut Vec<u8>) -> io::Result<()> {
    query
        .encode_into(buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e:?}")))
}

/// Part `part` of `total` units split as evenly as possible over
/// `parts` (early parts take the remainder): the index of its first
/// unit and its unit count. The split is part of the determinism
/// contract: the same unit→part assignment must be used across runs.
pub(crate) fn share_of(total: u64, parts: usize, part: usize) -> (u64, u64) {
    let (parts, part) = (parts.max(1) as u64, part as u64);
    let (base, extra) = (total / parts, total % parts);
    (part * base + part.min(extra), base + u64::from(part < extra))
}

/// The cores the host offers: how many loops a client packs its lanes on.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// One client's resumable closed loop: it never blocks on the wire
/// itself. It runs on until it waits ([`Lane::advance`]), says until
/// when ([`Lane::deadline`]) and on which socket ([`Lane::poll_fd`]),
/// and its [`EventLoop`] hands it what arrived ([`Lane::read`]) or tells
/// it the wait is over ([`Lane::expire`]).
pub(crate) trait Lane {
    /// Runs the lane on until it waits (or is done).
    fn advance(&mut self) -> io::Result<()>;
    /// When the lane's wait ends, unless the wire ends it sooner; `None`
    /// when it waits for nothing — done, once advanced.
    fn deadline(&self) -> Option<Instant>;
    /// The socket the lane waits on, for its loop's `poll`.
    fn poll_fd(&self) -> PollFd;
    /// Reads once from what its loop found readable and handles it;
    /// `false` when nothing arrived.
    fn read(&mut self) -> io::Result<bool>;
    /// The lane's wait is over with nothing (more) read.
    fn expire(&mut self) -> io::Result<()>;
}

/// A lane's non-blocking UDP socket: its loop's `poll` does the waiting.
pub(crate) struct LaneSocket {
    pub(crate) udp: UdpSocket,
}

impl LaneSocket {
    /// A socket on an ephemeral port of `peer`'s family.
    pub(crate) fn bind(peer: &SocketAddr) -> io::Result<LaneSocket> {
        let udp = UdpSocket::bind(unspecified_for(peer))?;
        udp.set_nonblocking(true)?;
        Ok(LaneSocket { udp })
    }

    /// Reads one datagram into `buf` without waiting: its length, or
    /// `None` when nothing arrived.
    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        match self.udp.recv(buf) {
            Ok(n) => Ok(Some(n)),
            // A spurious wake or a signal: nothing arrived.
            Err(e) if is_idle_recv(&e) || e.kind() == io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Loop threads [`run_lanes`] started from this thread: how a test
    /// counts the client threads of one run while other tests run
    /// beside it.
    pub(crate) static STARTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `lanes` lanes, lane `i` made by `make(i)`, packed onto `loops`
/// event-loop threads (never more than one per lane; contiguous lanes
/// share a thread). Returns the finished lanes in lane order, or
/// the first error in that order once every thread has finished.
pub(crate) fn run_lanes<L: Lane + Send>(
    lanes: usize,
    loops: usize,
    make: impl Fn(usize) -> io::Result<L> + Sync,
) -> io::Result<Vec<L>> {
    let lanes = lanes.max(1);
    let loops = loops.clamp(1, lanes);
    #[cfg(test)]
    STARTED.with(|n| n.set(n.get() + loops));
    let loops: Vec<Vec<L>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..loops)
            .map(|t| {
                let (first, count) = share_of(lanes as u64, loops, t);
                let make = &make;
                scope.spawn(move || {
                    let lanes = (first..first + count).map(|i| make(i as usize));
                    EventLoop::new(lanes.collect::<io::Result<_>>()?).run()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client loop panicked")).collect::<io::Result<_>>()
    })?;
    Ok(loops.into_iter().flatten().collect())
}

/// One thread's lanes and the loop that drives them. Each turn runs
/// every lane on to its next wait, waits once — in one `poll(2)` over
/// all their sockets — until a socket is readable or the earliest
/// deadline passes, reads what is readable, and only then closes the waits
/// that are past due. A lane read this turn is not expired in it: the
/// next turn's poll (which does not wait, its deadline having passed)
/// reads on until the socket is empty. So a reply that was readable
/// before its deadline is an answer however late the loop reaches it,
/// and a stale reply late in a window neither extends it nor shortens
/// the next.
///
/// Each lane has at most one deadline, so the earliest is a scan of
/// the lanes' — a handful — with nothing to keep in order.
pub(crate) struct EventLoop<L> {
    pub(crate) lanes: Vec<L>,
    /// The poll set of the current turn, and the lane of each entry.
    fds: Vec<PollFd>,
    waiting: Vec<usize>,
    /// Which lanes read something this turn.
    read: Vec<bool>,
}

impl<L: Lane> EventLoop<L> {
    /// The loop over `lanes`.
    pub(crate) fn new(lanes: Vec<L>) -> Self {
        let n = lanes.len();
        EventLoop {
            lanes,
            fds: Vec::with_capacity(n),
            waiting: Vec::with_capacity(n),
            read: vec![false; n],
        }
    }

    /// Turns until every lane is done; hands the lanes back.
    pub(crate) fn run(mut self) -> io::Result<Vec<L>> {
        while self.turn()? {}
        Ok(self.lanes)
    }

    /// One turn (see [`EventLoop`]); `false` once every lane is done.
    pub(crate) fn turn(&mut self) -> io::Result<bool> {
        for lane in &mut self.lanes {
            lane.advance()?;
        }
        let Some(earliest) = self.lanes.iter().filter_map(L::deadline).min() else {
            return Ok(false);
        };
        let wait = earliest.saturating_duration_since(Instant::now());
        self.read.fill(false);
        self.fds.clear();
        self.waiting.clear();
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.deadline().is_some() {
                self.fds.push(lane.poll_fd());
                self.waiting.push(i);
            }
        }
        match poll(&mut self.fds, wait) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        for (fd, &i) in self.fds.iter().zip(&self.waiting) {
            if fd.readable() {
                self.read[i] = self.lanes[i].read()?;
            }
        }
        let now = Instant::now();
        for (lane, &read) in self.lanes.iter_mut().zip(&self.read) {
            if !read && lane.deadline().is_some_and(|d| d <= now) {
                lane.expire()?;
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;
    use crate::load::{LoadCell, LoadConfig, LoadLane};
    use dnswild_proto::Name;

    /// Drives `lp`'s one lane, whose first query `server` answers with a
    /// wrong ID late in its `window`, through that window and the next
    /// (which `server` leaves silent); `books` reads the lane's (stale
    /// replies, timeouts).
    pub(crate) fn stale_reply_windows<L: Lane>(
        lp: &mut EventLoop<L>,
        server: UdpSocket,
        window: Duration,
        books: impl Fn(&L) -> (u64, u64),
    ) {
        let stale = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (n, peer) = server.recv_from(&mut buf).unwrap();
            std::thread::sleep(window.mul_f64(0.6));
            buf[1] ^= 0xff; // wrong ID, then silence
            server.send_to(&buf[..n], peer).unwrap();
            server // kept open: the second query goes unanswered, not refused
        });
        let mut timed = |timeouts: u64| {
            let started = Instant::now();
            while books(&lp.lanes[0]).1 < timeouts {
                assert!(lp.turn().unwrap(), "the lane finished before its window closed");
            }
            started.elapsed()
        };
        let waited = timed(1);
        let _server = stale.join().unwrap();
        assert!(waited >= window, "gave up after {waited:?} of a {window:?} window");
        assert!(waited < window + Duration::from_millis(50), "waited {waited:?} for a {window:?} window");

        let waited = timed(2);
        assert!(waited >= window, "the second query gave up after {waited:?}");
        assert!(waited < window + Duration::from_millis(50), "waited {waited:?} for a {window:?} window");
        assert_eq!(books(&lp.lanes[0]), (1, 2));
    }

    /// One stale reply late in the window must not restart it: the wait
    /// after a wrong-ID datagram is for what is left of the window, and
    /// the next window is as long as the first — here on a load lane,
    /// the closed loop `blast` runs (the resolver lane's twin is
    /// `client::tests::a_stale_reply_neither_extends_the_window_nor_shortens_the_next`).
    #[test]
    fn a_stale_reply_does_not_extend_the_window() {
        let window = Duration::from_millis(200);
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let mut cfg = LoadConfig::new(server.local_addr().unwrap(), origin).concurrency(1).queries(2);
        cfg.timeout = window;
        let cells = [LoadCell::default()];
        let mut lp = EventLoop::new(vec![LoadLane::new(&cfg, 0, &cells[0], None).unwrap()]);
        let books = |_: &LoadLane<'_>| {
            let s = cells[0].0.snapshot();
            (s.mismatched, s.timeouts)
        };
        stale_reply_windows(&mut lp, server, window, books);
    }
}
