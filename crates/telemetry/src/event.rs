//! The fixed-size trace event: 48 bytes, encoded as six `u64` words so
//! the SPSC ring can move it with plain atomic stores.
//!
//! Word layout (all little-endian in the trace file, format DWTRACE2):
//!
//! | word | bits 0..31           | bits 32..63            |
//! |------|----------------------|------------------------|
//! | 0    | `ts_ns` (low)        | `ts_ns` (high)         |
//! | 1    | `client_hash` lo     | `client_hash` hi       |
//! | 2    | `qname_hash`         | `latency_ns`           |
//! | 3    | `auth_id`+`bytes_in` | `bytes_out`+`flags`    |
//! | 4    | `kind`+`rcode`+`dns_id` | reserved (zero)     |
//! | 5    | `journey` lo         | `journey` hi           |
//!
//! The reserved bits must be zero; readers reject anything else so a
//! future version can reuse them.

use std::net::SocketAddr;

use detrand::splitmix64;

/// Response datagram was sent (server) / an answer arrived (client).
pub const FLAG_RESPONSE: u16 = 1 << 0;
/// The inbound datagram failed to decode (FORMERR salvage or drop).
pub const FLAG_DECODE_ERROR: u16 = 1 << 1;
/// Client-side: the transaction window expired with no usable answer.
pub const FLAG_TIMEOUT: u16 = 1 << 2;
/// The datagram travelled over TCP rather than UDP.
pub const FLAG_TCP: u16 = 1 << 3;
/// Chaos proxy: the datagram was dropped (no deliveries).
pub const FLAG_CHAOS_DROP: u16 = 1 << 4;
/// Chaos proxy: the datagram was duplicated.
pub const FLAG_CHAOS_DUP: u16 = 1 << 5;
/// Chaos proxy: payload bytes were flipped.
pub const FLAG_CHAOS_CORRUPT: u16 = 1 << 6;
/// Chaos proxy: the payload was truncated.
pub const FLAG_CHAOS_TRUNCATE: u16 = 1 << 7;
/// Chaos proxy: held past the profile's delay ceiling (reorder draw).
pub const FLAG_CHAOS_REORDER: u16 = 1 << 8;
/// Chaos proxy: delivery was delayed.
pub const FLAG_CHAOS_DELAY: u16 = 1 << 9;
/// Server-side: the engine produced a response but the socket refused
/// to send it (`send_to`/`sendmmsg` failure). `bytes_out` is zero on
/// such events so trace byte accounting matches what actually hit the
/// wire.
pub const FLAG_SEND_FAILED: u16 = 1 << 10;
/// Client-side: the attempt window closed on a TC=1 answer (the UDP
/// reply was truncated and unusable).
pub const FLAG_TC_SEEN: u16 = 1 << 11;
/// Client-side: the transaction was retried over TCP after truncation
/// ([`FLAG_TCP`] is additionally set iff that retry produced the
/// answer).
pub const FLAG_TCP_RETRY: u16 = 1 << 12;
/// Client-side: the query came from an attack workload of the load
/// generator (`dnswild_netio::load::Workload::Attack`) rather than a
/// legitimate VP — the bit the amplification analysis partitions
/// traces on.
pub const FLAG_ATTACK: u16 = 1 << 13;
/// Server-side: response-rate limiting intervened on this query (the
/// response was slipped as TC=1 or suppressed entirely; FLAG_RESPONSE
/// distinguishes the two).
pub const FLAG_RRL: u16 = 1 << 14;
/// Client-side: this attempt was a background cache-prefetch refresh,
/// not a stub-driven transaction (rides on `ClientQuery` events).
pub const FLAG_PREFETCH: u16 = 1 << 15;

/// Sentinel for "no rcode recorded" (wire rcodes are 4 bits).
pub const RCODE_NONE: u8 = 0xff;

/// What produced the event. Stored as one byte; unknown values are
/// preserved so older readers can skip events from newer writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Server worker handled a well-formed query (counted in
    /// `ServerStats::queries`). The per-auth closure gate counts these.
    ServerQuery,
    /// Server worker handled a datagram that did not become a query
    /// (NOTIMP, FORMERR salvage, or a dropped datagram).
    ServerBad,
    /// Load-generator or resolver-client attempt completed (answer,
    /// timeout, or doomed classification).
    ClientQuery,
    /// Chaos proxy carried a client→server datagram.
    ChaosForward,
    /// Chaos proxy carried a server→client datagram.
    ChaosReverse,
    /// Resolver-client record-cache lookup: `FLAG_RESPONSE` = hit (rcode
    /// distinguishes negative hits), `FLAG_TIMEOUT` = expired entry
    /// served stale (RFC 8767), neither = miss. No datagram moved for
    /// these, so analyses that account wire traffic skip them.
    CacheLookup,
    /// Unrecognised kind byte from a newer writer.
    Unknown(u8),
}

impl EventKind {
    pub fn to_u8(self) -> u8 {
        match self {
            EventKind::ServerQuery => 0,
            EventKind::ServerBad => 1,
            EventKind::ClientQuery => 2,
            EventKind::ChaosForward => 3,
            EventKind::ChaosReverse => 4,
            EventKind::CacheLookup => 5,
            EventKind::Unknown(v) => v,
        }
    }

    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => EventKind::ServerQuery,
            1 => EventKind::ServerBad,
            2 => EventKind::ClientQuery,
            3 => EventKind::ChaosForward,
            4 => EventKind::ChaosReverse,
            5 => EventKind::CacheLookup,
            other => EventKind::Unknown(other),
        }
    }

    /// Stable human-readable name, used by the `explain` timelines.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::ServerQuery => "ServerQuery",
            EventKind::ServerBad => "ServerBad",
            EventKind::ClientQuery => "ClientQuery",
            EventKind::ChaosForward => "ChaosForward",
            EventKind::ChaosReverse => "ChaosReverse",
            EventKind::CacheLookup => "CacheLookup",
            EventKind::Unknown(_) => "Unknown",
        }
    }
}

/// One captured datagram. 48 bytes on the wire (six `u64` words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the collector's epoch (its start instant).
    pub ts_ns: u64,
    /// Hash of the peer address (server events) or a stable per-client
    /// token (client events). Groups events into per-client streams for
    /// the rank-profile analysis without storing addresses.
    pub client_hash: u64,
    /// 32-bit hash of the canonical qname wire form (or of the raw
    /// payload for chaos events). Identifies the query name without
    /// storing labels.
    pub qname_hash: u32,
    /// Service time (server), RTT (client), or 0 (chaos). Saturates.
    pub latency_ns: u32,
    /// Index into the trace's authoritative table (0 when unmapped).
    pub auth_id: u16,
    /// Inbound datagram size, saturated to u16.
    pub bytes_in: u16,
    /// Outbound datagram size (sum over deliveries for chaos), saturated.
    pub bytes_out: u16,
    /// `FLAG_*` bits.
    pub flags: u16,
    pub kind: EventKind,
    /// Wire rcode of the response, or [`RCODE_NONE`].
    pub rcode: u8,
    /// The 16-bit DNS message id on the wire. Distinguishes attempts of
    /// the same transaction (the resolver client derives its ids from
    /// `txn * max_tries + attempt`, so the id doubles as an attempt
    /// ordinal). Zero when no wire message was involved (cache lookups).
    pub dns_id: u16,
    /// Seed-deterministic journey id: a hash of the canonical qname wire
    /// form, identical at every hop the query touches (client attempt,
    /// chaos fault decision, server shard, TCP frame). Zero means the
    /// hop could not derive one (unparseable payload).
    pub journey: u64,
}

impl TraceEvent {
    /// A zeroed event with the given kind — fill in what applies.
    pub fn new(kind: EventKind) -> Self {
        TraceEvent {
            ts_ns: 0,
            client_hash: 0,
            qname_hash: 0,
            latency_ns: 0,
            auth_id: 0,
            bytes_in: 0,
            bytes_out: 0,
            flags: 0,
            kind,
            rcode: RCODE_NONE,
            dns_id: 0,
            journey: 0,
        }
    }

    pub fn encode_words(&self) -> [u64; 6] {
        [
            self.ts_ns,
            self.client_hash,
            u64::from(self.qname_hash) | u64::from(self.latency_ns) << 32,
            u64::from(self.auth_id)
                | u64::from(self.bytes_in) << 16
                | u64::from(self.bytes_out) << 32
                | u64::from(self.flags) << 48,
            u64::from(self.kind.to_u8())
                | u64::from(self.rcode) << 8
                | u64::from(self.dns_id) << 16,
            self.journey,
        ]
    }

    pub fn decode_words(w: [u64; 6]) -> Self {
        TraceEvent {
            ts_ns: w[0],
            client_hash: w[1],
            qname_hash: w[2] as u32,
            latency_ns: (w[2] >> 32) as u32,
            auth_id: w[3] as u16,
            bytes_in: (w[3] >> 16) as u16,
            bytes_out: (w[3] >> 32) as u16,
            flags: (w[3] >> 48) as u16,
            kind: EventKind::from_u8(w[4] as u8),
            rcode: (w[4] >> 8) as u8,
            dns_id: (w[4] >> 16) as u16,
            journey: w[5],
        }
    }

    /// Hash of the fields that are deterministic under a fixed seed.
    /// Timestamps, latencies, and client hashes (which embed ephemeral
    /// ports) are excluded so same-seed runs agree; see
    /// [`crate::Trace::digest`] for how order-insensitivity is layered
    /// on top.
    ///
    /// `journey` and `dns_id` are also excluded — deliberately, even
    /// though both are seed-deterministic — so the digest commits to
    /// workload content only and stays comparable with digests recorded
    /// before journey stamping existed.
    pub fn content_key(&self) -> u64 {
        let mut h = 0xd1f1_0017_u64; // DITL-2017, the paper's trace vintage
        h = splitmix64(h ^ u64::from(self.qname_hash));
        h = splitmix64(h ^ u64::from(self.auth_id));
        h = splitmix64(h ^ u64::from(self.kind.to_u8()));
        h = splitmix64(h ^ u64::from(self.rcode));
        h = splitmix64(h ^ u64::from(self.bytes_in));
        h = splitmix64(h ^ u64::from(self.bytes_out));
        h = splitmix64(h ^ u64::from(self.flags));
        h
    }
}

/// Fold a byte string into a `splitmix64` chain — the same idiom the
/// chaos plane uses to key fault decisions off datagram bytes.
pub fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = splitmix64(h ^ (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(word));
    }
    h
}

/// Hash a canonical qname wire form (`Name::canonical_wire`) into the
/// event's 32-bit qname id. One seed, used by every plane, so server
/// and client events for the same name agree on the id.
pub fn qname_hash32(canonical_wire: &[u8]) -> u32 {
    hash_bytes(0x0071_6e61_6d65, canonical_wire) as u32
}

/// Seed constant for [`journey_id`] — distinct from the `qname_hash32`
/// seed so the 64-bit journey space is not a widening of the 32-bit
/// qname space (a colliding qname_hash does not imply a merged journey).
const JOURNEY_SEED: u64 = 0x006a_6f75_726e_6579; // "journey"

/// Derive the journey id from a canonical qname wire form
/// (`Name::canonical_wire`-style: length-prefixed lowercase labels,
/// terminating root byte). Every hop that can see the qname — resolver
/// client, chaos proxy, server shard, TCP framer — computes the same
/// value, which is what lets `analysis::journey` stitch a query's
/// timeline back together without any shared state between processes.
/// Never returns 0; 0 is reserved for "could not derive".
pub fn journey_id(canonical_wire: &[u8]) -> u64 {
    let h = hash_bytes(JOURNEY_SEED, canonical_wire);
    if h == 0 { 1 } else { h }
}

/// Derive `(journey, dns_id)` from a raw DNS datagram, for hops that
/// only hold payload bytes (the chaos proxy, the server fast path, the
/// blast generator). Walks the question name at offset 12, lowercasing
/// labels into the canonical wire form so the result matches
/// [`journey_id`] over `Name::canonical_wire`. Compression pointers
/// cannot appear in a first question name we emitted, but a truncated
/// or corrupted payload can end mid-label — such payloads yield journey
/// 0 (unattributed) while still reporting whatever dns_id bytes exist.
pub fn journey_from_payload(payload: &[u8]) -> (u64, u16) {
    let dns_id = match payload.get(0..2) {
        Some(b) => u16::from_be_bytes([b[0], b[1]]),
        None => 0,
    };
    let mut canonical = [0u8; 256];
    let mut out = 0usize;
    let mut pos = 12usize;
    loop {
        let Some(&len) = payload.get(pos) else {
            return (0, dns_id);
        };
        if len == 0 {
            canonical[out] = 0;
            out += 1;
            break;
        }
        // 0xc0 upward is a compression pointer, 64..=127 unassigned —
        // neither belongs in a question name our planes generate.
        if len >= 64 || out + 1 + len as usize + 1 > canonical.len() {
            return (0, dns_id);
        }
        let Some(label) = payload.get(pos + 1..pos + 1 + len as usize) else {
            return (0, dns_id);
        };
        canonical[out] = len;
        out += 1;
        for &b in label {
            canonical[out] = b.to_ascii_lowercase();
            out += 1;
        }
        pos += 1 + len as usize;
    }
    (journey_id(&canonical[..out]), dns_id)
}

/// Hash a socket address (IP bytes + port) into a client token. The
/// port makes loopback clients distinguishable; it also makes the value
/// non-deterministic across runs, which is why `content_key` skips it.
pub fn hash_socket_addr(addr: &SocketAddr) -> u64 {
    let h = match addr.ip() {
        std::net::IpAddr::V4(ip) => hash_bytes(0x4164_6472, &ip.octets()),
        std::net::IpAddr::V6(ip) => hash_bytes(0x4164_6472, &ip.octets()),
    };
    splitmix64(h ^ u64::from(addr.port()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            ts_ns: 123_456_789_012,
            client_hash: 0xdead_beef_cafe_f00d,
            qname_hash: 0x1234_5678,
            latency_ns: 42_000,
            auth_id: 7,
            bytes_in: 33,
            bytes_out: 512,
            flags: FLAG_RESPONSE | FLAG_CHAOS_DELAY,
            kind: EventKind::ServerQuery,
            rcode: 3,
            dns_id: 0xbeef,
            journey: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn words_round_trip() {
        let ev = sample();
        assert_eq!(TraceEvent::decode_words(ev.encode_words()), ev);
        // All kinds and the sentinel rcode survive.
        for k in 0..=6u8 {
            let mut e = TraceEvent::new(EventKind::from_u8(k));
            e.rcode = RCODE_NONE;
            assert_eq!(TraceEvent::decode_words(e.encode_words()), e);
        }
    }

    #[test]
    fn content_key_ignores_timing_and_client() {
        let a = sample();
        let mut b = a;
        b.ts_ns = 1;
        b.latency_ns = 9;
        b.client_hash = 2;
        assert_eq!(a.content_key(), b.content_key());
        let mut c = a;
        c.rcode = 0;
        assert_ne!(a.content_key(), c.content_key());
        let mut d = a;
        d.flags ^= FLAG_TIMEOUT;
        assert_ne!(a.content_key(), d.content_key());
    }

    #[test]
    fn content_key_ignores_journey_and_dns_id() {
        // Journey stamping must not perturb trace digests.
        let a = sample();
        let mut b = a;
        b.journey = 0;
        b.dns_id = 0;
        assert_eq!(a.content_key(), b.content_key());
    }

    /// Hand-build a query payload: header + one question.
    fn payload_for(id: u16, labels: &[&str]) -> Vec<u8> {
        let mut p = vec![0u8; 12];
        p[0..2].copy_from_slice(&id.to_be_bytes());
        for l in labels {
            p.push(l.len() as u8);
            p.extend_from_slice(l.as_bytes());
        }
        p.push(0);
        p.extend_from_slice(&[0, 16, 0, 1]); // TXT IN
        p
    }

    /// The canonical wire form the resolver client hashes directly.
    fn canonical(labels: &[&str]) -> Vec<u8> {
        let mut w = Vec::new();
        for l in labels {
            w.push(l.len() as u8);
            w.extend(l.bytes().map(|b| b.to_ascii_lowercase()));
        }
        w.push(0);
        w
    }

    #[test]
    fn journey_from_payload_matches_canonical_hash() {
        let labels = ["www", "ourtestdomain", "nl"];
        let (j, id) = journey_from_payload(&payload_for(0x1234, &labels));
        assert_eq!(id, 0x1234);
        assert_eq!(j, journey_id(&canonical(&labels)));
        assert_ne!(j, 0);
        // 0x20-mixed case must land on the same journey: the hops see
        // different casings of one name (query vs cached vs response).
        let (j2, _) = journey_from_payload(&payload_for(9, &["WWW", "OurTestDomain", "NL"]));
        assert_eq!(j2, j);
        // Root name parses too.
        let (jr, _) = journey_from_payload(&payload_for(1, &[]));
        assert_eq!(jr, journey_id(&[0]));
    }

    #[test]
    fn journey_from_payload_rejects_garbage() {
        // Too short for a header: no journey, no id.
        assert_eq!(journey_from_payload(&[0xab]), (0, 0));
        // Header only (truncated before the question): id salvaged.
        let hdr = payload_for(7, &["x"])[..12].to_vec();
        assert_eq!(journey_from_payload(&hdr), (0, 7));
        // Payload ending mid-label.
        let mut cut = payload_for(7, &["longlabel"]);
        cut.truncate(15);
        assert_eq!(journey_from_payload(&cut), (0, 7));
        // A compression pointer where a label length should be.
        let mut ptr = payload_for(7, &[]);
        ptr[12] = 0xc0;
        ptr.push(0x0c);
        assert_eq!(journey_from_payload(&ptr).0, 0);
    }

    #[test]
    fn socket_addr_hash_distinguishes_ports() {
        let a: SocketAddr = "127.0.0.1:5300".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:5301".parse().unwrap();
        assert_ne!(hash_socket_addr(&a), hash_socket_addr(&b));
        assert_eq!(hash_socket_addr(&a), hash_socket_addr(&a));
    }
}
