//! The benchmark's own load generator: one thread, one connected UDP
//! socket, non-blocking and busy-polling. It is deliberately not
//! `netio::blast` — the ruler must not change when `load.rs` does.
//!
//! Every query is pre-encoded from the seed at set-up (the program
//! under test receives only bytes). The pool holds exactly 65 536
//! payloads and payload `i` carries DNS id `i`, so the 16-bit id of a
//! reply *is* its index into the in-flight table.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use crate::check::{content_ok, Profile};
use crate::span::{SpanId, Tracer};
use crate::sys::{now_ns, this_thread_cpu, Cpu};

/// Zone origin every workload queries under.
pub const ORIGIN: &str = "ourtestdomain.nl";
/// Payloads in a pool — one per 16-bit DNS id.
pub const POOL: usize = 1 << 16;
/// Most sends between two receive drains. A catch-up burst after a
/// vCPU stall would otherwise overflow the 208 KiB loopback receive
/// buffer and show up as loss the program never caused.
pub const BURST: usize = 32;
/// A query unanswered for this long is booked as lost and its id freed.
pub const LOSS_TIMEOUT_NS: u64 = 200_000_000;
/// One reply in this many gets the full decode-and-compare check.
pub const DEEP_CHECK_EVERY: u64 = 64;

/// What a query asks, which decides what its answer must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Unique-label wildcard TXT probe (the paper's cold-cache trick).
    ProbeTxt,
    /// `<origin> NS`.
    ApexNs,
    /// `ns1.<origin> A` — delegation glue.
    GlueA,
    /// `<origin> TXT` — a NODATA (the wildcard does not cover the apex).
    ApexTxt,
    /// `hostname.bind CH TXT`.
    ChaosId,
}

/// Relative weights of the query kinds. The default is the
/// recursive-like mix `netio::QueryMix::default()` had when the
/// benchmark was written (84/6/5/3/2), restated here so a later change
/// to that default cannot silently change the workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    weights: [(Kind, u32); 5],
}

impl Mix {
    /// 84% probe TXT, 6% apex NS, 5% glue A, 3% NODATA, 2% CHAOS.
    pub fn recursive_like() -> Mix {
        Mix {
            weights: [
                (Kind::ProbeTxt, 84),
                (Kind::ApexNs, 6),
                (Kind::GlueA, 5),
                (Kind::ApexTxt, 3),
                (Kind::ChaosId, 2),
            ],
        }
    }

    /// Probe TXT only — every answer is the (possibly padded) wildcard.
    pub fn probe_only() -> Mix {
        let mut mix = Mix::recursive_like();
        for (kind, w) in &mut mix.weights {
            *w = u32::from(*kind == Kind::ProbeTxt);
        }
        mix
    }

    fn draw(&self, r: u64) -> Kind {
        let total: u32 = self.weights.iter().map(|(_, w)| w).sum();
        let mut left = (r % u64::from(total.max(1))) as u32;
        for (kind, w) in self.weights {
            if left < w {
                return kind;
            }
            left -= w;
        }
        Kind::ProbeTxt
    }
}

/// SplitMix64 — the generator's own PRNG, so the payload schedule does
/// not depend on a crate of the program.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const TYPE_A: u16 = 1;
const TYPE_NS: u16 = 2;
const TYPE_TXT: u16 = 16;
const TYPE_OPT: u16 = 41;
const CLASS_IN: u16 = 1;
const CLASS_CH: u16 = 3;
/// EDNS(0) payload size every query advertises (the proto default).
const EDNS_PAYLOAD: u16 = 1232;

/// Appends one iterative (RD=0) query with an empty EDNS(0) OPT.
fn encode_query(out: &mut Vec<u8>, id: u16, labels: &[&[u8]], qtype: u16, qclass: u16) {
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // QR=0, opcode QUERY, RD=0
    out.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 1]); // QD=1, AR=1
    for label in labels {
        out.push(label.len() as u8);
        out.extend_from_slice(label);
    }
    out.push(0);
    out.extend_from_slice(&qtype.to_be_bytes());
    out.extend_from_slice(&qclass.to_be_bytes());
    out.push(0); // OPT owner: root
    out.extend_from_slice(&TYPE_OPT.to_be_bytes());
    out.extend_from_slice(&EDNS_PAYLOAD.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0]); // ext-rcode, version, flags, rdlen
}

/// The seeded, pre-encoded query schedule.
#[derive(Debug)]
pub struct Pool {
    bytes: Vec<u8>,
    at: Vec<(u32, u16)>,
    kinds: Vec<Kind>,
}

impl Pool {
    /// Builds the pool for `seed`: kinds drawn from `mix`, probe labels
    /// salted from the seed so different seeds send different bytes.
    pub fn generate(seed: u64, mix: Mix) -> Pool {
        let mut rng = SplitMix(seed);
        let origin: Vec<&[u8]> = ORIGIN.split('.').map(str::as_bytes).collect();
        let mut bytes = Vec::with_capacity(POOL * 64);
        let mut at = Vec::with_capacity(POOL);
        let mut kinds = Vec::with_capacity(POOL);
        for i in 0..POOL {
            let kind = mix.draw(rng.next_u64());
            let salt = rng.next_u64() as u32;
            let start = bytes.len();
            let id = i as u16;
            let probe = format!("p{salt:08x}-q{i:05}");
            let mut labels: Vec<&[u8]> = Vec::with_capacity(4);
            let (qtype, qclass) = match kind {
                Kind::ProbeTxt => {
                    labels.push(probe.as_bytes());
                    labels.extend_from_slice(&origin);
                    (TYPE_TXT, CLASS_IN)
                }
                Kind::ApexNs => {
                    labels.extend_from_slice(&origin);
                    (TYPE_NS, CLASS_IN)
                }
                Kind::GlueA => {
                    labels.push(b"ns1");
                    labels.extend_from_slice(&origin);
                    (TYPE_A, CLASS_IN)
                }
                Kind::ApexTxt => {
                    labels.extend_from_slice(&origin);
                    (TYPE_TXT, CLASS_IN)
                }
                Kind::ChaosId => {
                    labels.extend_from_slice(&[b"hostname", b"bind"]);
                    (TYPE_TXT, CLASS_CH)
                }
            };
            encode_query(&mut bytes, id, &labels, qtype, qclass);
            at.push((start as u32, (bytes.len() - start) as u16));
            kinds.push(kind);
        }
        Pool { bytes, at, kinds }
    }

    /// The query carrying DNS id `id`.
    pub fn payload(&self, id: u16) -> &[u8] {
        let (start, len) = self.at[usize::from(id)];
        &self.bytes[start as usize..start as usize + usize::from(len)]
    }

    /// What query `id` asks.
    pub fn kind(&self, id: u16) -> Kind {
        self.kinds[usize::from(id)]
    }

    /// Every payload back to back (for byte-identity tests).
    #[cfg(test)]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Ids of the first `n` queries of `kind` (layer replays time one
    /// kind at a time).
    pub fn ids_of(&self, kind: Kind, n: usize) -> Vec<u16> {
        (0..POOL)
            .filter(|&i| self.kinds[i] == kind)
            .take(n)
            .map(|i| i as u16)
            .collect()
    }
}

/// A query on the wire, found again by its 16-bit id.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// When the query was due (0 = slot free). Latency counts from here.
    due_ns: u64,
    sent_ns: u64,
    seq: u64,
}

/// A reply matched to its query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Matched {
    /// The query's position in the run.
    pub seq: u64,
    /// When it was due.
    pub due_ns: u64,
    /// When it was actually sent.
    pub sent_ns: u64,
}

/// The in-flight table: 65 536 slots indexed by DNS id plus the send
/// order, so lost queries are found oldest-first without a scan. A
/// reply is matched at most once: a duplicate, or a reply arriving
/// after its query was booked lost, finds its slot free (or re-used by
/// a later sequence number) and is counted stale instead.
#[derive(Debug)]
pub struct InFlight {
    slots: Vec<Slot>,
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
    outstanding: usize,
}

impl Default for InFlight {
    fn default() -> Self {
        InFlight {
            slots: vec![Slot::default(); POOL],
            order: VecDeque::with_capacity(POOL),
            next_seq: 0,
            outstanding: 0,
        }
    }
}

impl InFlight {
    /// Id the next query will carry, or `None` while the slot that id
    /// maps to is still waiting for its reply from 65 536 queries ago.
    pub fn next_id(&self) -> Option<u16> {
        let id = self.next_seq as u16;
        (self.slots[usize::from(id)].due_ns == 0).then_some(id)
    }

    /// Books the query with [`InFlight::next_id`] as sent.
    pub fn sent(&mut self, due_ns: u64, sent_ns: u64) -> u64 {
        let seq = self.next_seq;
        self.slots[usize::from(seq as u16)] = Slot {
            due_ns,
            sent_ns,
            seq,
        };
        self.order.push_back((seq, sent_ns));
        self.next_seq += 1;
        self.outstanding += 1;
        seq
    }

    /// Matches a reply carrying `id`; `None` means stale or duplicate.
    pub fn reply(&mut self, id: u16) -> Option<Matched> {
        let slot = &mut self.slots[usize::from(id)];
        if slot.due_ns == 0 {
            return None;
        }
        let m = Matched {
            seq: slot.seq,
            due_ns: slot.due_ns,
            sent_ns: slot.sent_ns,
        };
        slot.due_ns = 0;
        self.outstanding -= 1;
        Some(m)
    }

    /// Frees every query sent more than `timeout_ns` before `now` and
    /// returns how many were still unanswered (lost).
    pub fn expire(&mut self, now: u64, timeout_ns: u64) -> u64 {
        let mut lost = 0;
        while let Some(&(seq, sent_ns)) = self.order.front() {
            let slot = &mut self.slots[usize::from(seq as u16)];
            let live = slot.due_ns != 0 && slot.seq == seq;
            if live && now.saturating_sub(sent_ns) < timeout_ns {
                break;
            }
            if live {
                slot.due_ns = 0;
                self.outstanding -= 1;
                lost += 1;
            }
            self.order.pop_front();
        }
        lost
    }

    /// Queries sent and neither answered nor booked lost.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// Counters over a generator's whole life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries sent.
    pub sent: u64,
    /// Replies matched to a query.
    pub answered: u64,
    /// Queries that timed out unanswered.
    pub lost: u64,
    /// Replies that matched nothing (duplicate, or later than the loss
    /// timeout). Counted, never double-matched.
    pub stale: u64,
    /// Matched replies whose header was wrong.
    pub bad_header: u64,
    /// Sampled replies whose decoded content was wrong.
    pub bad_content: u64,
    /// Replies that got the deep check.
    pub deep_checked: u64,
}

impl Tally {
    /// Operations that failed: lost, or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.lost + self.bad_header + self.bad_content
    }

    /// Books the reply matched to query `id` (the `seq`-th of the run):
    /// the header check always, the deep check on one in
    /// [`DEEP_CHECK_EVERY`].
    pub fn book(&mut self, profile: Profile, pool: &Pool, id: u16, seq: u64, reply: &[u8]) {
        let (kind, query) = (pool.kind(id), pool.payload(id));
        self.answered += 1;
        if !profile.header_ok(kind, query, reply) {
            self.bad_header += 1;
        } else if seq.is_multiple_of(DEEP_CHECK_EVERY) && profile != Profile::Echo {
            self.deep_checked += 1;
            if !content_ok(query, reply, kind, profile) {
                self.bad_content += 1;
            }
        }
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.sent += o.sent;
        self.answered += o.answered;
        self.lost += o.lost;
        self.stale += o.stale;
        self.bad_header += o.bad_header;
        self.bad_content += o.bad_content;
        self.deep_checked += o.deep_checked;
    }
}

/// What one slice (a fixed stretch of wall time) measured.
#[derive(Debug, Default)]
pub struct Slice {
    /// Wall time of the slice.
    pub wall_ns: u64,
    /// Replies matched in it.
    pub answered: u64,
    /// Latency of each matched reply from its query's *due* time, ns.
    pub latency_ns: Vec<u32>,
    /// How late each query left relative to its due time, ns (open
    /// loop only).
    pub late_ns: Vec<u32>,
    /// Queries already due but not yet sent when the slice ended (open
    /// loop) — a backlog that grows slice over slice means the rate is
    /// above capacity.
    pub backlog_end: u64,
    /// The generator thread's own scheduler books over the slice.
    pub gen_cpu: Cpu,
}

impl Slice {
    /// Replies per second.
    pub fn qps(&self) -> f64 {
        self.answered as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// How a slice paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: keep `window` queries in flight; a query is due the
    /// moment a slot frees.
    Window(usize),
    /// Open loop: query *k* of the slice is due at `k / rate` seconds
    /// whatever the server does; at most `cap` stay on the wire (the
    /// rest wait in the due-queue, and that wait is in their latency).
    Rate {
        /// Queries per second offered.
        rate: f64,
        /// Most queries on the wire at once.
        cap: usize,
    },
}

/// Where per-query spans go in a traced run.
#[derive(Debug)]
pub struct SpanSink {
    /// The recorder.
    pub tracer: Tracer,
    /// Span the per-query spans hang under.
    pub parent: SpanId,
}

/// The UDP load generator.
#[derive(Debug)]
pub struct UdpGen<'a> {
    sock: UdpSocket,
    pool: &'a Pool,
    profile: Profile,
    inflight: InFlight,
    buf: Vec<u8>,
    /// Lifetime counters.
    pub tally: Tally,
    /// Set for the traced run: a span per send call and per answered
    /// query (send → matched reply).
    pub spans: Option<SpanSink>,
}

impl<'a> UdpGen<'a> {
    /// A generator aimed at `target`.
    pub fn connect(
        target: SocketAddr,
        pool: &'a Pool,
        profile: Profile,
    ) -> std::io::Result<UdpGen<'a>> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.connect(target)?;
        sock.set_nonblocking(true)?;
        Ok(UdpGen {
            sock,
            pool,
            profile,
            inflight: InFlight::default(),
            buf: vec![0u8; 4096],
            tally: Tally::default(),
            spans: None,
        })
    }

    /// Runs one slice of `dur_ns` under `pace`.
    pub fn slice(&mut self, dur_ns: u64, pace: Pace) -> Slice {
        let cpu0 = this_thread_cpu();
        let start = now_ns();
        let end = start + dur_ns;
        let mut out = Slice::default();
        // Room for every sample up front (250k qps is far above what
        // one core answers), so no reallocation lands in the timing.
        match pace {
            Pace::Window(_) => out.latency_ns.reserve((dur_ns / 4_000) as usize),
            Pace::Rate { rate, .. } => {
                let expected = (rate * dur_ns as f64 / 1e9) as usize + 64;
                out.latency_ns.reserve(expected);
                out.late_ns.reserve(expected);
            }
        }
        let mut k = 0u64; // queries made due so far in this slice (open loop)
        loop {
            let now = now_ns();
            if now >= end {
                break;
            }
            let mut burst = 0;
            while burst < BURST {
                let due = match pace {
                    Pace::Window(window) => {
                        if self.inflight.outstanding() >= window {
                            break;
                        }
                        None
                    }
                    Pace::Rate { rate, cap } => {
                        let due = start + (k as f64 * 1e9 / rate) as u64;
                        if due > now || due >= end || self.inflight.outstanding() >= cap {
                            break;
                        }
                        Some(due)
                    }
                };
                if !self.send_one(due, &mut out) {
                    break;
                }
                k += 1;
                burst += 1;
            }
            self.drain_ready(&mut out);
            self.tally.lost += self.inflight.expire(now_ns(), LOSS_TIMEOUT_NS);
        }
        out.wall_ns = now_ns() - start;
        if let Pace::Rate { rate, .. } = pace {
            out.backlog_end = ((dur_ns as f64 * rate / 1e9) as u64).saturating_sub(k);
        }
        out.gen_cpu = this_thread_cpu().since(cpu0);
        out
    }

    /// Waits (at most the loss timeout) for everything on the wire, so
    /// a phase ends with `sent == answered + lost` and the server's own
    /// query count can be compared with `sent`.
    pub fn settle(&mut self) {
        let mut sink = Slice::default();
        while self.inflight.outstanding() > 0 {
            self.drain_ready(&mut sink);
            self.tally.lost += self.inflight.expire(now_ns(), LOSS_TIMEOUT_NS);
        }
    }

    /// Sends the next query; `due` is its scheduled time in an open
    /// loop, `None` in a closed loop (due the moment it is sent).
    fn send_one(&mut self, due: Option<u64>, out: &mut Slice) -> bool {
        let Some(id) = self.inflight.next_id() else {
            return false;
        };
        let t0 = now_ns();
        match self.sock.send(self.pool.payload(id)) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) => panic!("generator send failed: {e}"),
        }
        let seq = self.inflight.sent(due.unwrap_or(t0), t0);
        self.tally.sent += 1;
        if let Some(due) = due {
            out.late_ns
                .push(u32::try_from(t0.saturating_sub(due)).unwrap_or(u32::MAX));
        }
        if let Some(s) = &mut self.spans {
            s.tracer.push("gen.send", t0, now_ns(), s.parent, seq);
        }
        true
    }

    /// Reads every datagram already queued on the socket.
    fn drain_ready(&mut self, out: &mut Slice) {
        loop {
            let n = match self.sock.recv(&mut self.buf) {
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    return
                }
                Err(e) => panic!("generator recv failed: {e}"),
            };
            let now = now_ns();
            if n < 2 {
                self.tally.stale += 1;
                continue;
            }
            let id = u16::from_be_bytes([self.buf[0], self.buf[1]]);
            let Some(m) = self.inflight.reply(id) else {
                self.tally.stale += 1;
                continue;
            };
            out.answered += 1;
            out.latency_ns
                .push(u32::try_from(now.saturating_sub(m.due_ns)).unwrap_or(u32::MAX));
            self.tally
                .book(self.profile, self.pool, id, m.seq, &self.buf[..n]);
            if let Some(s) = &mut self.spans {
                s.tracer.push("query", m.sent_ns, now, s.parent, m.seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_proto::{Class, Message, Name, RType};

    #[test]
    fn same_seed_same_bytes_and_another_seed_differs() {
        let a = Pool::generate(2017, Mix::recursive_like());
        let b = Pool::generate(2017, Mix::recursive_like());
        let c = Pool::generate(7, Mix::recursive_like());
        assert_eq!(a.bytes(), b.bytes());
        assert_ne!(a.bytes(), c.bytes());
        assert_eq!(a.at.len(), POOL);
    }

    #[test]
    fn mix_follows_its_weights() {
        let pool = Pool::generate(2017, Mix::recursive_like());
        let share = |k: Kind| pool.kinds.iter().filter(|&&x| x == k).count() as f64 / POOL as f64;
        assert!(
            (share(Kind::ProbeTxt) - 0.84).abs() < 0.01,
            "{}",
            share(Kind::ProbeTxt)
        );
        assert!((share(Kind::ApexNs) - 0.06).abs() < 0.01);
        assert!((share(Kind::ChaosId) - 0.02).abs() < 0.01);
        let probes = Pool::generate(2017, Mix::probe_only());
        assert!(probes.kinds.iter().all(|&k| k == Kind::ProbeTxt));
    }

    /// The hand encoder must produce exactly what the program's own
    /// encoder produces for the same question, or the server would be
    /// fed something no recursive sends.
    #[test]
    fn hand_encoding_equals_the_protocol_crates() {
        let pool = Pool::generate(11, Mix::recursive_like());
        let origin = Name::parse(ORIGIN).unwrap();
        for id in [0u16, 1, 2, 3, 500, 65_535] {
            let decoded = Message::decode(pool.payload(id)).expect("payload decodes");
            let q = decoded.question().expect("one question").clone();
            let mut want = Message::iterative_query(id, q.qname.clone(), q.qtype);
            want.questions[0].qclass = q.qclass;
            assert_eq!(pool.payload(id), &want.encode().unwrap()[..], "id {id}");
            match pool.kind(id) {
                Kind::ProbeTxt => {
                    assert_eq!(q.qtype, RType::Txt);
                    assert_eq!(q.qname.parent().unwrap(), origin);
                }
                Kind::ApexNs => assert_eq!((q.qtype, &q.qname), (RType::Ns, &origin)),
                Kind::GlueA => assert_eq!(q.qtype, RType::A),
                Kind::ApexTxt => assert_eq!((q.qtype, &q.qname), (RType::Txt, &origin)),
                Kind::ChaosId => assert_eq!(q.qclass, Class::Ch),
            }
        }
    }

    #[test]
    fn duplicate_and_stale_replies_are_counted_not_double_matched() {
        let mut t = InFlight::default();
        assert_eq!(t.next_id(), Some(0));
        t.sent(100, 100);
        t.sent(200, 210);
        assert_eq!(t.outstanding(), 2);
        let m = t.reply(1).expect("first copy matches");
        assert_eq!((m.seq, m.due_ns, m.sent_ns), (1, 200, 210));
        assert_eq!(t.reply(1), None, "the duplicate finds the slot free");
        assert_eq!(t.reply(9), None, "an id never sent matches nothing");
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn lost_queries_expire_oldest_first_and_late_replies_go_stale() {
        let mut t = InFlight::default();
        t.sent(1_000, 1_000); // id 0, will be lost
        t.sent(2_000, 2_000); // id 1, answered
        t.sent(900_000, 900_000); // id 2, still young
        assert!(t.reply(1).is_some());
        assert_eq!(
            t.expire(500_000, 400_000),
            1,
            "only id 0 is old and unanswered"
        );
        assert_eq!(t.outstanding(), 1);
        assert_eq!(t.reply(0), None, "a reply after the loss booking is stale");
        assert_eq!(t.expire(500_000, 400_000), 0);
        assert_eq!(t.expire(2_000_000, 400_000), 1);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn an_id_is_not_reused_while_its_query_is_in_flight() {
        let mut t = InFlight::default();
        for i in 0..POOL as u64 {
            assert!(t.next_id().is_some());
            t.sent(i + 1, i + 1);
            if i != 0 {
                assert!(t.reply(i as u16).is_some());
            }
        }
        assert_eq!(
            t.next_id(),
            None,
            "id 0 wrapped round while still on the wire"
        );
        assert!(t.reply(0).is_some());
        assert_eq!(t.next_id(), Some(0));
        // The re-used slot belongs to the new sequence number: expiring
        // the old order entry must not free it.
        t.sent(70_000, 70_000);
        assert_eq!(t.expire(70_001, 1 << 40), 0);
        assert_eq!(t.outstanding(), 1);
    }
}
