//! What every client-side loop in this crate shares: the per-thread
//! seed streams, the family-matched local bind, the even work split
//! over scoped threads, and the closed-loop exchange itself — one
//! outstanding query per socket, the discipline the paper's vantage
//! points impose (one probe, then wait).

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use dnswild_proto::Message;
use dnswild_telemetry::{
    journey_from_payload, qname_hash32, Event, EventKind, Producer, FLAG_RESPONSE, FLAG_TC_SEEN,
    FLAG_TIMEOUT, RCODE_NONE,
};

use crate::server::is_idle_recv;

/// Thread `thread`'s stream of `seed`: distinct per thread, identical
/// across runs — what makes per-thread schedules replay byte-for-byte.
pub(crate) fn thread_stream(seed: u64, thread: usize) -> u64 {
    seed ^ (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
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

/// Splits `total` units of work as evenly as possible over `threads`
/// scoped threads (early threads take the remainder), runs
/// `work(thread, first, share)` on each — `first` is the index of the
/// thread's first unit — and returns the results in thread order, or
/// the first error in that order once every thread has finished. The
/// split is part of the determinism contract: the same unit→thread
/// assignment must be used across runs.
pub(crate) fn fan_out<T: Send>(
    threads: usize,
    total: u64,
    work: impl Fn(usize, u64, u64) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        let mut first = 0;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let share = total / threads as u64 + u64::from((t as u64) < total % threads as u64);
                let work = &work;
                let handle = scope.spawn(move || work(t, first, share));
                first += share;
                handle
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client worker panicked")).collect()
    })
}

/// How an [`exchange`] is traced: one `ClientQuery` event per exchange
/// under a stable client token, with `flags` OR-ed into every event.
pub(crate) struct ExchangeTrace<'a> {
    pub(crate) producer: &'a Producer,
    /// Deterministic across runs (the rank analysis groups trace events
    /// by it), unlike a socket address.
    pub(crate) client_token: u64,
    pub(crate) auth_id: u16,
    pub(crate) flags: u16,
}

/// What one [`exchange`] came to.
pub(crate) struct Exchanged {
    /// Length of the matching reply (left in the receive buffer), or
    /// `None` when the window closed without one.
    pub(crate) reply_len: Option<usize>,
    /// Send-to-match round trip; the full wait on a timeout.
    pub(crate) rtt: Duration,
    /// Whether the matching reply carried TC=1.
    pub(crate) truncated: bool,
    /// Datagrams discarded for carrying a stale/unexpected ID.
    pub(crate) mismatched: u64,
}

/// One closed-loop exchange on a connected socket whose read timeout is
/// armed to `timeout`: send `query`, wait for the reply carrying `id`
/// inside `timeout`, count stale replies from queries that already
/// timed out, and record the one `ClientQuery` event when traced.
pub(crate) fn exchange(
    socket: &UdpSocket,
    query: &[u8],
    id: u16,
    timeout: Duration,
    recv_buf: &mut [u8],
    trace: Option<&ExchangeTrace<'_>>,
) -> io::Result<Exchanged> {
    let sent_at = Instant::now();
    let deadline = sent_at + timeout;
    let sent_ns = trace.map(|t| t.producer.now_ns());
    socket.send(query)?;
    let mut out = Exchanged { reply_len: None, rtt: timeout, truncated: false, mismatched: 0 };
    let mut rearmed = false;
    loop {
        match socket.recv(recv_buf) {
            Ok(got) if got >= 2 && u16::from_be_bytes([recv_buf[0], recv_buf[1]]) == id => {
                out.rtt = sent_at.elapsed();
                out.reply_len = Some(got);
                // TC lives in bit 1 of byte 2.
                out.truncated = got >= 3 && recv_buf[2] & 0x02 != 0;
                break;
            }
            Ok(_) => out.mismatched += 1,
            // The timer may wake a little before the deadline, and a
            // signal landing mid-recv is not a timeout and not a
            // worker-fatal error: either way, wait out the window.
            Err(e) if is_idle_recv(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        // The socket waits a full `timeout` per read, so the next read
        // may only wait out what is left of this window.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        socket.set_read_timeout(Some(left))?;
        rearmed = true;
    }
    if rearmed {
        socket.set_read_timeout(Some(timeout))?;
    }
    if let (Some(t), Some(sent_ns)) = (trace, sent_ns) {
        let mut ev = Event::new(EventKind::ClientQuery);
        ev.ts_ns = sent_ns;
        ev.client_hash = t.client_token;
        // Question bytes past the header — allocation-free and
        // byte-identical to what the server hashes for this datagram on
        // its side.
        ev.qname_hash = qname_hash32(query.get(12..).unwrap_or(&[]));
        (ev.journey, ev.dns_id) = journey_from_payload(query);
        ev.latency_ns = u32::try_from(t.producer.now_ns().saturating_sub(sent_ns)).unwrap_or(u32::MAX);
        ev.auth_id = t.auth_id;
        ev.bytes_in = u16::try_from(query.len()).unwrap_or(u16::MAX);
        ev.bytes_out = u16::try_from(out.reply_len.unwrap_or(0)).unwrap_or(u16::MAX);
        ev.flags = t.flags
            | if out.reply_len.is_some() { FLAG_RESPONSE } else { FLAG_TIMEOUT }
            | (u16::from(out.truncated) * FLAG_TC_SEEN);
        // Wire rcode lives in the low nibble of byte 3.
        ev.rcode = match out.reply_len {
            Some(len) if len >= 4 => recv_buf[3] & 0x0f,
            _ => RCODE_NONE,
        };
        t.producer.record(&ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One stale reply late in the window must not restart it: the read
    /// after a wrong-ID datagram waits only for what is left of
    /// `timeout`, and the socket's own timeout is restored afterwards.
    #[test]
    fn a_stale_reply_does_not_extend_the_window() {
        let timeout = Duration::from_millis(200);
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.connect(server.local_addr().unwrap()).unwrap();
        client.set_read_timeout(Some(timeout)).unwrap();
        let stale = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (n, peer) = server.recv_from(&mut buf).unwrap();
            std::thread::sleep(timeout.mul_f64(0.6));
            buf[1] ^= 0xff; // wrong ID, then silence
            server.send_to(&buf[..n], peer).unwrap();
        });
        let query = Message::iterative_query(7, dnswild_proto::Name::root(), dnswild_proto::RType::Ns);
        let started = Instant::now();
        let got = exchange(&client, &query.encode().unwrap(), 7, timeout, &mut [0u8; 512], None).unwrap();
        let waited = started.elapsed();
        stale.join().unwrap();
        assert_eq!((got.reply_len, got.mismatched), (None, 1));
        assert!(waited >= timeout, "gave up after {waited:?} of a {timeout:?} window");
        assert!(waited < timeout + Duration::from_millis(50), "waited {waited:?} for a {timeout:?} window");
        assert_eq!(client.read_timeout().unwrap(), Some(timeout));
    }
}
