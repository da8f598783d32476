//! # dnswild-mmsg
//!
//! The thin syscall shim under the serving plane's batched hot path:
//! `SO_REUSEPORT` socket binds (so every worker owns a private kernel
//! receive queue on the same port), `recvmmsg`/`sendmmsg` batched
//! datagram I/O (so a worker pays one syscall per *batch* instead of
//! one per packet), and `poll(2)` over many sockets (so the resolver
//! client waits on all of a thread's lanes at once instead of parking
//! one thread per lane, and a chaos proxy waits on its listen sockets,
//! every session's upstream socket and every TCP relay's stream in one
//! thread).
//!
//! Everything `dnswild-netio` needs from the kernel beyond what
//! `std::net::UdpSocket` exposes lives here, behind three design rules:
//!
//! * **Hermetic.** No `libc` crate: the symbols the shim calls
//!   (`socket`/`bind`/`setsockopt`/`close` for the reuseport bind,
//!   `recvmmsg`/`sendmmsg` for batching, `poll` for the multi-socket
//!   wait) are declared directly — std already links the C library, so
//!   this adds no dependency and keeps the workspace's path-only build
//!   policy intact.
//! * **Linux only.** The FFI declares Linux syscalls and the kernel's
//!   struct layouts, so the crate builds for Linux alone — elsewhere a
//!   `compile_error!` says so.
//! * **Runtime-selected.** [`available`] probes the running kernel once
//!   (a real `recvmmsg` on a throwaway socket), so the server still
//!   degrades gracefully to its std loop on kernels or sandboxes that
//!   refuse the syscall (`ENOSYS`).
//!
//! The shim is deliberately *thin*: no retry policy, no accounting, no
//! partial-send handling — `dnswild-netio::server` owns those, because
//! they must behave identically on the std fallback path. Likewise
//! [`poll`] only reports readiness; what a ready socket means is the
//! caller's (`dnswild-netio`'s client lanes and its chaos proxy).

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("dnswild-mmsg declares Linux syscalls: the socket plane builds on Linux only");

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::time::Duration;

/// Largest batch a [`RecvBatch`] will carry — one `mmsghdr` page's
/// worth; beyond this the syscall amortisation has long flattened out.
pub const BATCH_MAX: usize = 64;

#[cfg(target_os = "linux")]
mod sys {
    //! The Linux implementation: hand-declared ABI structs and the
    //! libc wrappers. Layouts match the x86_64/aarch64 kernel ABI
    //! (`struct msghdr` with `size_t` iov/control lengths, 128-byte
    //! 8-aligned `sockaddr_storage`); `#[repr(C)]` reproduces the same
    //! padding the C compiler inserts.

    use super::*;
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::sync::OnceLock;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;
    /// `recvmmsg` flag: block (per the socket's timeout) for the first
    /// datagram only, then drain whatever else is queued non-blocking.
    const MSG_WAITFORONE: i32 = 0x10000;
    const ENOSYS: i32 = 38;

    const SS_SIZE: usize = 128;
    const SOCKADDR_IN_LEN: u32 = 16;
    const SOCKADDR_IN6_LEN: u32 = 28;

    /// `struct sockaddr_storage`: an opaque 128-byte, 8-aligned blob;
    /// the leading `u16` is the address family in native byte order.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct SockAddrStorage {
        data: [u8; SS_SIZE],
    }

    impl SockAddrStorage {
        fn zeroed() -> SockAddrStorage {
            SockAddrStorage { data: [0; SS_SIZE] }
        }
    }

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct msghdr` (the control fields stay null/zero: the shim
    /// never touches ancillary data).
    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut SockAddrStorage,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut u8,
        msg_controllen: usize,
        msg_flags: i32,
    }

    /// `struct mmsghdr`: one `msghdr` plus the kernel-filled datagram
    /// length.
    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: u32,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(sockfd: i32, addr: *const SockAddrStorage, addrlen: u32) -> i32;
        fn setsockopt(
            sockfd: i32,
            level: i32,
            optname: i32,
            optval: *const i32,
            optlen: u32,
        ) -> i32;
        fn close(fd: i32) -> i32;
        fn recvmmsg(
            sockfd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8,
        ) -> i32;
        fn sendmmsg(sockfd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        #[link_name = "poll"]
        fn sys_poll(fds: *mut PollFd, nfds: usize, timeout_ms: i32) -> i32;
    }

    /// `poll` events: data to read; an error or a hang-up, which the
    /// next read reports.
    const POLLIN: i16 = 0x001;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// One socket of a [`poll`] set: `struct pollfd`, asking for
    /// readability. The set borrows nothing — the caller keeps the
    /// socket open while the entry is in use.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        fn raw(fd: i32) -> PollFd {
            PollFd { fd, events: POLLIN, revents: 0 }
        }

        /// A UDP socket, waited on for a datagram.
        pub fn udp(sock: &UdpSocket) -> PollFd {
            PollFd::raw(sock.as_raw_fd())
        }

        /// A TCP stream, waited on for bytes (or the peer's close).
        pub fn tcp(stream: &TcpStream) -> PollFd {
            PollFd::raw(stream.as_raw_fd())
        }

        /// A TCP listener, waited on for a connection to accept.
        pub fn tcp_listener(listener: &TcpListener) -> PollFd {
            PollFd::raw(listener.as_raw_fd())
        }

        /// Whether the last [`poll`] found a read worth making: data
        /// queued, or an error or hang-up the read will report.
        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLERR | POLLHUP) != 0
        }
    }

    /// Waits until at least one socket of `fds` is readable or
    /// `timeout` has passed, and returns how many are. The timeout is
    /// rounded *up* to the whole millisecond `poll(2)` takes, so the
    /// call never returns before it has elapsed unless a socket is
    /// ready (or a signal lands: `Interrupted`). A zero timeout only
    /// looks.
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `struct pollfd` of the length passed; the kernel writes only
        // their `revents`.
        let ready = unsafe { sys_poll(fds.as_mut_ptr(), fds.len(), ms) };
        if ready < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(ready as usize)
    }

    /// Serialises a [`SocketAddr`] into kernel `sockaddr_in{,6}` form,
    /// returning the populated length.
    fn write_sockaddr(addr: &SocketAddr, out: &mut SockAddrStorage) -> u32 {
        out.data = [0; SS_SIZE];
        match addr {
            SocketAddr::V4(v4) => {
                out.data[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                out.data[2..4].copy_from_slice(&v4.port().to_be_bytes());
                out.data[4..8].copy_from_slice(&v4.ip().octets());
                SOCKADDR_IN_LEN
            }
            SocketAddr::V6(v6) => {
                out.data[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                out.data[2..4].copy_from_slice(&v6.port().to_be_bytes());
                // sin6_flowinfo (bytes 4..8) stays zero.
                out.data[8..24].copy_from_slice(&v6.ip().octets());
                out.data[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                SOCKADDR_IN6_LEN
            }
        }
    }

    /// Parses a kernel-filled `sockaddr_storage` back into a
    /// [`SocketAddr`]. An unrecognised family yields the unspecified
    /// v4 address, so a (never-expected) parse failure surfaces as a
    /// counted send error rather than a lost packet.
    fn read_sockaddr(stor: &SockAddrStorage) -> SocketAddr {
        let family = u16::from_ne_bytes([stor.data[0], stor.data[1]]);
        let port = u16::from_be_bytes([stor.data[2], stor.data[3]]);
        if family == AF_INET {
            let ip: [u8; 4] = stor.data[4..8].try_into().expect("4 bytes");
            SocketAddr::from((ip, port))
        } else if family == AF_INET6 {
            let ip: [u8; 16] = stor.data[8..24].try_into().expect("16 bytes");
            SocketAddr::from((ip, port))
        } else {
            SocketAddr::from(([0, 0, 0, 0], 0))
        }
    }

    /// Binds a UDP socket with `SO_REUSEPORT` set *before* the bind, so
    /// any number of workers can own sibling sockets on one port and
    /// the kernel flow-hashes inbound datagrams across them.
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: plain fd-returning syscall; the fd is either handed
        // to `UdpSocket::from_raw_fd` (which owns closing it) or closed
        // on the error paths below.
        let fd = unsafe { socket(i32::from(family), SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let close_err = |fd: i32| {
            let e = io::Error::last_os_error();
            // SAFETY: fd came from `socket` above and was not yet
            // transferred to an owning type.
            unsafe { close(fd) };
            Err(e)
        };
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            let one: i32 = 1;
            // SAFETY: optval points at a live i32 of the advertised
            // 4-byte length.
            if unsafe { setsockopt(fd, SOL_SOCKET, opt, &one, 4) } < 0 {
                return close_err(fd);
            }
        }
        let mut stor = SockAddrStorage::zeroed();
        let len = write_sockaddr(&addr, &mut stor);
        // SAFETY: stor is a live, correctly-sized sockaddr_storage.
        if unsafe { bind(fd, &stor, len) } < 0 {
            return close_err(fd);
        }
        // SAFETY: fd is a freshly created, successfully bound UDP
        // socket owned by nobody else.
        Ok(unsafe { UdpSocket::from_raw_fd(fd) })
    }

    /// Reusable receive-side state for one worker: datagram buffers,
    /// peer-address slots and the `mmsghdr` array `recvmmsg` fills.
    ///
    /// Holds raw pointers internally: every slot's header is armed once
    /// in [`RecvBatch::new`], and [`recv_batch`] re-arms only the slots
    /// the previous call filled (the kernel writes to no others), so the
    /// path from a reply back into the blocking `recvmmsg` costs nothing
    /// per idle slot. The pointers target the heap buffers of vectors
    /// that never grow, so moving the `RecvBatch` leaves them valid; it
    /// is intentionally `!Send` — each worker constructs its own.
    pub struct RecvBatch {
        bufs: Vec<Vec<u8>>,
        names: Vec<SockAddrStorage>,
        hdrs: Vec<MMsgHdr>,
        iovs: Vec<IoVec>,
        lens: Vec<usize>,
        filled: usize,
    }

    impl RecvBatch {
        /// State for up to `capacity` datagrams of `buf_len` bytes each
        /// (capacity is clamped to `1..=BATCH_MAX`).
        pub fn new(capacity: usize, buf_len: usize) -> RecvBatch {
            let capacity = capacity.clamp(1, BATCH_MAX);
            let unarmed = || MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: std::ptr::null_mut(),
                    msg_namelen: 0,
                    msg_iov: std::ptr::null_mut(),
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            };
            let mut batch = RecvBatch {
                bufs: (0..capacity).map(|_| vec![0u8; buf_len.max(64)]).collect(),
                names: vec![SockAddrStorage::zeroed(); capacity],
                hdrs: (0..capacity).map(|_| unarmed()).collect(),
                iovs: (0..capacity).map(|_| IoVec { base: std::ptr::null_mut(), len: 0 }).collect(),
                lens: vec![0; capacity],
                filled: 0,
            };
            for i in 0..capacity {
                batch.arm(i);
            }
            batch
        }

        /// Puts slot `i` in the state `recvmmsg` expects on entry: a
        /// zeroed peer slot of full size, the whole buffer, no flags.
        fn arm(&mut self, i: usize) {
            self.names[i] = SockAddrStorage::zeroed();
            self.iovs[i] = IoVec { base: self.bufs[i].as_mut_ptr(), len: self.bufs[i].len() };
            let hdr = &mut self.hdrs[i];
            hdr.msg_hdr.msg_name = &mut self.names[i];
            hdr.msg_hdr.msg_namelen = SS_SIZE as u32;
            hdr.msg_hdr.msg_iov = &mut self.iovs[i];
            hdr.msg_hdr.msg_flags = 0;
            hdr.msg_len = 0;
        }

        /// The batch ceiling this state was built for.
        pub fn capacity(&self) -> usize {
            self.bufs.len()
        }

        /// Datagrams filled by the last successful [`recv_batch`].
        pub fn filled(&self) -> usize {
            self.filled
        }

        /// The `i`-th received datagram and its sender (valid for
        /// `i < filled()`).
        pub fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
            assert!(i < self.filled, "datagram index past the filled count");
            (&self.bufs[i][..self.lens[i]], read_sockaddr(&self.names[i]))
        }
    }

    /// Receives up to `batch.capacity()` datagrams in one `recvmmsg`
    /// call. Blocks for the *first* datagram only (honouring the
    /// socket's read timeout — `MSG_WAITFORONE`); the rest of the batch
    /// is whatever was already queued. Returns the datagram count;
    /// timeout surfaces as `WouldBlock`/`TimedOut` exactly like
    /// `recv_from`.
    pub fn recv_batch(sock: &UdpSocket, batch: &mut RecvBatch) -> io::Result<usize> {
        // The kernel wrote only to the slots it filled last time.
        for i in 0..batch.filled {
            batch.arm(i);
        }
        batch.filled = 0;
        let n = batch.bufs.len();
        // SAFETY: every pointer in hdrs was set by `arm` and targets
        // heap buffers owned by `batch` that are never resized, so they
        // are live for the call wherever `batch` itself has moved.
        let got = unsafe {
            recvmmsg(
                sock.as_raw_fd(),
                batch.hdrs.as_mut_ptr(),
                n as u32,
                MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        let got = got as usize;
        for i in 0..got {
            batch.lens[i] = (batch.hdrs[i].msg_len as usize).min(batch.bufs[i].len());
        }
        batch.filled = got;
        Ok(got)
    }

    /// Reusable send-side scratch (address/iovec/header arrays).
    #[derive(Default)]
    pub struct SendScratch {
        names: Vec<(SockAddrStorage, u32)>,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    /// Sends `msgs` in one `sendmmsg` call. Returns how many of the
    /// *leading* messages the kernel accepted — `k < msgs.len()` is a
    /// legal partial send the caller must resume from `msgs[k..]`; an
    /// `Err` means the first message failed and nothing was sent.
    pub fn send_batch(
        sock: &UdpSocket,
        msgs: &[(&[u8], SocketAddr)],
        scratch: &mut SendScratch,
    ) -> io::Result<usize> {
        if msgs.is_empty() {
            return Ok(0);
        }
        scratch.names.clear();
        scratch.iovs.clear();
        scratch.hdrs.clear();
        for (payload, peer) in msgs {
            let mut stor = SockAddrStorage::zeroed();
            let len = write_sockaddr(peer, &mut stor);
            scratch.names.push((stor, len));
            scratch.iovs.push(IoVec { base: payload.as_ptr().cast_mut(), len: payload.len() });
        }
        // Headers are built only after names/iovs stopped growing, so
        // the pointers below cannot be invalidated by a reallocation.
        for i in 0..msgs.len() {
            let (stor, len) = &mut scratch.names[i];
            scratch.hdrs.push(MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: stor,
                    msg_namelen: *len,
                    msg_iov: &mut scratch.iovs[i],
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
        }
        // SAFETY: hdrs points into scratch (alive for the call) and the
        // payload slices borrowed by iovs outlive `msgs`.
        let sent = unsafe {
            sendmmsg(sock.as_raw_fd(), scratch.hdrs.as_mut_ptr(), msgs.len() as u32, 0)
        };
        if sent < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((sent as usize).min(msgs.len()))
    }

    /// One-time runtime probe: bind a throwaway reuseport socket and
    /// issue a non-blocking `recvmmsg`. `EAGAIN` proves the syscall
    /// exists; `ENOSYS` (or any setup failure) means the kernel or
    /// sandbox refuses it and the serving plane must fall back to std.
    pub fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            let Ok(sock) = bind_reuseport("127.0.0.1:0".parse().expect("static addr")) else {
                return false;
            };
            if sock.set_nonblocking(true).is_err() {
                return false;
            }
            let mut batch = RecvBatch::new(1, 64);
            match recv_batch(&sock, &mut batch) {
                Ok(_) => true,
                Err(e) if e.raw_os_error() == Some(ENOSYS) => false,
                Err(e) => e.kind() == io::ErrorKind::WouldBlock,
            }
        })
    }
}

#[cfg(target_os = "linux")]
pub use sys::{
    available, bind_reuseport, poll, recv_batch, send_batch, PollFd, RecvBatch, SendScratch,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty set with a zero timeout only looks, and finds nothing
    /// ready.
    #[test]
    fn an_empty_poll_set_with_a_zero_timeout_returns_zero() {
        assert_eq!(poll(&mut [], Duration::ZERO).unwrap(), 0);
    }

    mod linux {
        use super::super::*;

        #[test]
        fn reuseport_binds_share_a_port() {
            if !available() {
                eprintln!("skipping: mmsg unavailable at runtime");
                return;
            }
            let a = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
            let port = a.local_addr().unwrap().port();
            let b = bind_reuseport(format!("127.0.0.1:{port}").parse().unwrap())
                .expect("second reuseport bind on the same port");
            assert_eq!(b.local_addr().unwrap().port(), port);
        }

        #[test]
        fn batch_round_trip_preserves_payloads_and_peers() {
            if !available() {
                eprintln!("skipping: mmsg unavailable at runtime");
                return;
            }
            let server = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
            server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let server_addr = server.local_addr().unwrap();
            let client = UdpSocket::bind("127.0.0.1:0").unwrap();
            client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let client_addr = client.local_addr().unwrap();

            // Queue several datagrams, then drain them in one batch.
            let payloads: Vec<Vec<u8>> =
                (0u8..5).map(|i| vec![i; 3 + usize::from(i)]).collect();
            for p in &payloads {
                client.send_to(p, server_addr).unwrap();
            }
            let mut batch = RecvBatch::new(8, 1500);
            let mut seen: Vec<Vec<u8>> = Vec::new();
            while seen.len() < payloads.len() {
                let n = recv_batch(&server, &mut batch).expect("recv batch");
                assert!(n >= 1);
                for i in 0..n {
                    let (bytes, peer) = batch.datagram(i);
                    assert_eq!(peer, client_addr);
                    seen.push(bytes.to_vec());
                }
            }
            assert_eq!(seen, payloads, "payloads arrive whole and in order on loopback");

            // Send a batch of responses back through sendmmsg.
            let responses: Vec<Vec<u8>> = seen.iter().map(|p| {
                let mut r = p.clone();
                r.push(0xAA);
                r
            }).collect();
            let msgs: Vec<(&[u8], SocketAddr)> =
                responses.iter().map(|r| (r.as_slice(), client_addr)).collect();
            let mut scratch = SendScratch::default();
            let mut off = 0;
            while off < msgs.len() {
                off += send_batch(&server, &msgs[off..], &mut scratch).expect("send batch");
            }
            let mut buf = [0u8; 64];
            for want in &responses {
                let (n, from) = client.recv_from(&mut buf).unwrap();
                assert_eq!(from, server_addr);
                assert_eq!(&buf[..n], want.as_slice());
            }
        }

        #[test]
        fn reused_batch_rearms_the_slots_it_filled() {
            if !available() {
                eprintln!("skipping: mmsg unavailable at runtime");
                return;
            }
            let server = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
            server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let server_addr = server.local_addr().unwrap();
            let mut batch = RecvBatch::new(4, 512);
            // Rounds of different sizes, senders and lengths through one
            // batch: a slot that kept the last round's name length, flags
            // or peer would show here.
            for (round, count) in [3usize, 1, 4, 2].into_iter().enumerate() {
                let client = UdpSocket::bind("127.0.0.1:0").unwrap();
                let client_addr = client.local_addr().unwrap();
                let payloads: Vec<Vec<u8>> =
                    (0..count).map(|i| vec![round as u8; 40 * (round + 1) + i]).collect();
                for p in &payloads {
                    client.send_to(p, server_addr).unwrap();
                }
                let mut seen: Vec<Vec<u8>> = Vec::new();
                while seen.len() < count {
                    let n = recv_batch(&server, &mut batch).expect("recv batch");
                    assert_eq!(batch.filled(), n);
                    for i in 0..n {
                        let (bytes, peer) = batch.datagram(i);
                        assert_eq!(peer, client_addr, "round {round} slot {i}");
                        seen.push(bytes.to_vec());
                    }
                }
                assert_eq!(seen, payloads, "round {round}");
            }
        }

        #[test]
        fn recv_batch_times_out_like_recv_from() {
            if !available() {
                eprintln!("skipping: mmsg unavailable at runtime");
                return;
            }
            let sock = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
            sock.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
            let mut batch = RecvBatch::new(4, 512);
            let err = recv_batch(&sock, &mut batch).expect_err("nothing to receive");
            assert!(
                matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
                "timeout surfaced as {err:?}"
            );
            assert_eq!(batch.filled(), 0);
        }

        /// Of two sockets, the one with a datagram queued is reported
        /// readable and the idle one is not; the wait ends at once.
        #[test]
        fn a_queued_datagram_makes_its_socket_readable() {
            let idle = UdpSocket::bind("127.0.0.1:0").unwrap();
            let busy = UdpSocket::bind("127.0.0.1:0").unwrap();
            let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
            sender.send_to(b"ping", busy.local_addr().unwrap()).unwrap();
            let mut fds = [PollFd::udp(&idle), PollFd::udp(&busy)];
            let started = std::time::Instant::now();
            assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
            assert!(started.elapsed() < Duration::from_secs(1), "a ready socket ends the wait");
            assert!(!fds[0].readable() && fds[1].readable());
        }

        /// A listener with a connection waiting is readable, and the
        /// accepted stream is not until its peer writes.
        #[test]
        fn a_pending_connection_makes_its_listener_readable() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut fds = [PollFd::tcp_listener(&listener)];
            assert_eq!(poll(&mut fds, Duration::ZERO).unwrap(), 0);
            let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            assert_eq!(poll(&mut fds, Duration::from_secs(5)).unwrap(), 1);
            assert!(fds[0].readable());
            let (stream, _) = listener.accept().unwrap();
            let mut fds = [PollFd::tcp(&stream)];
            assert_eq!(poll(&mut fds, Duration::ZERO).unwrap(), 0);
        }

        /// Nothing ready — an empty set, or an idle socket — means the
        /// whole timeout is waited out, never less: a sub-millisecond
        /// remainder rounds up, not down.
        #[test]
        fn an_idle_set_times_out_no_earlier_than_asked() {
            let idle = UdpSocket::bind("127.0.0.1:0").unwrap();
            for timeout in [Duration::from_millis(30), Duration::from_micros(20_500)] {
                for fds in [&mut [][..], &mut [PollFd::udp(&idle)][..]] {
                    let started = std::time::Instant::now();
                    assert_eq!(poll(fds, timeout).unwrap(), 0);
                    let waited = started.elapsed();
                    assert!(waited >= timeout, "woke after {waited:?} of {timeout:?}");
                    assert!(fds.iter().all(|fd| !fd.readable()));
                }
            }
        }
    }
}
