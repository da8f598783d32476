//! Whole DNS messages: sections, encoding, decoding, and convenience
//! constructors for queries and responses.

use crate::edns::Edns;
use crate::error::{ProtoError, ProtoResult};
use crate::header::Header;
use crate::name::{Name, NameCompressor};
use crate::question::Question;
use crate::rdata::{Opt, RData};
use crate::record::Record;
use crate::types::{Class, RType, Rcode};
use crate::wire::{WireReader, WireWriter, MAX_MESSAGE_SIZE};

/// Advertised EDNS0 UDP payload size we use in queries.
pub const DEFAULT_EDNS_PAYLOAD: u16 = 1232;

/// A DNS message: header plus the four sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message header. Section counts are recomputed on encode.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (includes the OPT pseudo-record, if any).
    pub additionals: Vec<Record>,
}

impl Message {
    /// A fresh query for `qname`/`qtype` with recursion desired —
    /// what a stub sends to its recursive resolver.
    pub fn stub_query(id: u16, qname: Name, qtype: RType) -> Self {
        Message::query(id, qname, qtype, true)
    }

    /// An iterative (non-RD) query — what a recursive sends to an
    /// authoritative server.
    pub fn iterative_query(id: u16, qname: Name, qtype: RType) -> Self {
        Message::query(id, qname, qtype, false)
    }

    fn query(id: u16, qname: Name, qtype: RType, recursion_desired: bool) -> Self {
        let mut m = Message {
            header: Header { id, recursion_desired, ..Header::default() },
            questions: vec![Question::new(qname, qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        m.add_edns(DEFAULT_EDNS_PAYLOAD);
        m
    }

    /// Starts a response echoing a query's ID and question.
    pub fn response_to(query: &Message, rcode: Rcode) -> Self {
        Message {
            header: query.header.reply(rcode),
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Appends an EDNS0 OPT pseudo-record advertising `payload_size`.
    pub fn add_edns(&mut self, payload_size: u16) {
        self.additionals.push(edns_record(payload_size));
    }

    /// Appends a fully specified OPT pseudo-record (extended rcode,
    /// version, DO bit) — what responders emit during negotiation.
    pub fn add_edns_record(&mut self, edns: &Edns) {
        self.additionals.push(edns.to_record());
    }

    /// The OPT pseudo-record, if present.
    pub fn edns(&self) -> Option<&Record> {
        self.additionals.iter().find(|r| r.rtype() == RType::Opt)
    }

    /// The typed EDNS view of the OPT pseudo-record, if present.
    pub fn edns_info(&self) -> Option<Edns> {
        self.edns().and_then(Edns::from_record)
    }

    /// Number of OPT records in the additional section. RFC 6891 §6.1.1
    /// allows exactly one; responders must answer FORMERR to more.
    pub fn opt_count(&self) -> usize {
        self.additionals.iter().filter(|r| r.rtype() == RType::Opt).count()
    }

    /// The EDNS-advertised UDP payload size, if EDNS is present.
    pub fn edns_payload_size(&self) -> Option<u16> {
        self.edns().map(|r| r.class.to_u16())
    }

    /// The full 12-bit extended RCODE: the OPT's upper bits (when EDNS
    /// is present) prepended to the header's 4-bit RCODE.
    pub fn extended_rcode(&self) -> u16 {
        match self.edns_info() {
            Some(e) => e.extended_rcode(self.header.rcode),
            None => self.header.rcode.to_u8() as u16,
        }
    }

    /// The first (usually only) question.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Whether this message is a response.
    pub fn is_response(&self) -> bool {
        self.header.response
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.header.rcode
    }

    /// Encodes the message, recomputing all section counts.
    pub fn encode(&self) -> ProtoResult<Vec<u8>> {
        let mut buf = Vec::with_capacity(512);
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Encodes the message into `buf`, reusing its allocation.
    ///
    /// `buf` is cleared first and then holds exactly the wire form on
    /// success (byte-identical to [`Message::encode`]); on error it is
    /// left empty. A buffer recycled across responses makes the serving
    /// hot loop allocation-free once it has grown to the working size.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> ProtoResult<()> {
        let mut w = MessageWriter::new(std::mem::take(buf), &self.header);
        let result = self.write_sections(&mut w);
        *buf = w.finish();
        if result.is_err() {
            buf.clear();
        }
        result
    }

    fn write_sections(&self, w: &mut MessageWriter) -> ProtoResult<()> {
        for q in &self.questions {
            w.question(q)?;
        }
        let sections = [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authorities),
            (Section::Additional, &self.additionals),
        ];
        for (section, records) in sections {
            for r in records {
                w.record(section, &r.name, r.class, r.ttl, &r.rdata)?;
            }
        }
        Ok(())
    }

    /// Decodes a message from the wire.
    pub fn decode(buf: &[u8]) -> ProtoResult<Self> {
        let mut r = WireReader::new(buf);
        let header = Header::decode(&mut r)?;
        // The header's counts are claims: reserve no more than the bytes
        // left could hold (a question is ≥ 5 octets, a record ≥ 11).
        let mut questions = Vec::with_capacity((header.qdcount as usize).min(r.remaining() / 5));
        for _ in 0..header.qdcount {
            questions.push(Question::decode(&mut r)?);
        }
        let decode_section = |r: &mut WireReader<'_>, n: u16| -> ProtoResult<Vec<Record>> {
            let mut out = Vec::with_capacity((n as usize).min(r.remaining() / 11));
            for _ in 0..n {
                out.push(Record::decode(r)?);
            }
            Ok(out)
        };
        let answers = decode_section(&mut r, header.ancount)?;
        let authorities = decode_section(&mut r, header.nscount)?;
        let additionals = decode_section(&mut r, header.arcount)?;
        if !r.is_empty() {
            return Err(ProtoError::Malformed("trailing bytes after last section"));
        }
        Ok(Message { header, questions, answers, authorities, additionals })
    }
}

/// The bare OPT pseudo-record advertising `payload_size` (no options,
/// version 0, no extended rcode). Builds without allocating.
fn edns_record(payload_size: u16) -> Record {
    Record {
        name: Name::root(),
        class: Class::Unknown(payload_size),
        ttl: 0,
        rdata: RData::Opt(Opt::empty()),
    }
}

/// The record section a [`MessageWriter`] adds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Answer section.
    Answer = 1,
    /// Authority section.
    Authority = 2,
    /// Additional section.
    Additional = 3,
}

/// Writes one message front to back into a recycled buffer: header,
/// questions, then records, counting entries as they go and patching
/// the four counts into the header at the end. The one encoder —
/// [`Message::encode_into`] and the authoritative engine (which writes
/// records the zone still owns) both drive it.
#[derive(Debug)]
pub struct MessageWriter {
    w: WireWriter,
    c: NameCompressor,
    /// QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT so far.
    counts: [u16; 4],
    /// Where the question section ends.
    body: usize,
}

impl MessageWriter {
    /// Starts a message in `buf` (cleared, capacity kept) with `header`;
    /// the header's own counts are overwritten by [`MessageWriter::finish`].
    pub fn new(buf: Vec<u8>, header: &Header) -> Self {
        let mut w = WireWriter::from_vec(buf);
        header.encode(&mut w).expect("an empty message has room for its header");
        MessageWriter { w, c: NameCompressor::new(), counts: [0; 4], body: Header::WIRE_LEN }
    }

    /// Appends a question (before any record).
    pub fn question(&mut self, q: &Question) -> ProtoResult<()> {
        self.question_parts(&q.qname, q.qtype, q.qclass)
    }

    /// Appends a question from its parts, borrowing the name — so a
    /// caller that keeps the name need not build a [`Question`].
    pub fn question_parts(&mut self, qname: &Name, qtype: RType, qclass: Class) -> ProtoResult<()> {
        qname.encode(&mut self.w, &mut self.c)?;
        self.w.write_u16(qtype.to_u16())?;
        self.w.write_u16(qclass.to_u16())?;
        self.counts[0] += 1;
        self.body = self.w.position();
        Ok(())
    }

    /// Appends one resource record to `section` — the only place a
    /// record is put on the wire. Owner and payload are passed apart so
    /// a wildcard answer can be owned by the query name and a payload
    /// substituted without building a [`Record`]. RDLENGTH is patched
    /// after the RDATA is written.
    pub fn record(
        &mut self,
        section: Section,
        owner: &Name,
        class: Class,
        ttl: u32,
        rdata: &RData,
    ) -> ProtoResult<()> {
        let (w, c) = (&mut self.w, &mut self.c);
        owner.encode(w, c)?;
        w.write_u16(rdata.rtype().to_u16())?;
        w.write_u16(class.to_u16())?;
        w.write_u32(ttl)?;
        let len_pos = w.position();
        w.write_u16(0)?; // placeholder RDLENGTH
        rdata.encode(w, c)?;
        let rdlen = w.position() - len_pos - 2;
        w.patch_u16(len_pos, rdlen as u16)?;
        self.counts[section as usize] += 1;
        Ok(())
    }

    /// Appends the OPT pseudo-record [`Message::add_edns`] adds, to the
    /// additional section.
    pub fn edns(&mut self, payload_size: u16) -> ProtoResult<()> {
        let opt = edns_record(payload_size);
        self.record(Section::Additional, &opt.name, opt.class, opt.ttl, &opt.rdata)
    }

    /// Octets written so far.
    pub fn written(&self) -> usize {
        self.w.position()
    }

    /// Makes every write that would grow the message past `limit`
    /// octets fail with [`ProtoError::MessageTooLong`].
    pub fn set_ceiling(&mut self, limit: usize) {
        self.w.set_ceiling(limit);
    }

    /// Turns the message into its minimal TC=1 form: cut back to header
    /// and questions, record counts zeroed, TC set, ceiling lifted.
    pub fn truncate(&mut self) {
        self.w.truncate(self.body);
        self.w.set_ceiling(MAX_MESSAGE_SIZE);
        self.c.forget_from(self.body);
        self.counts[1..].fill(0);
        let flags = u16::from_be_bytes([self.w.as_slice()[2], self.w.as_slice()[3]]);
        self.w.patch_u16(2, flags | 0x0200).expect("the header is written");
    }

    /// Patches the section counts in and yields the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        for (i, n) in self.counts.into_iter().enumerate() {
            self.w.patch_u16(4 + 2 * i, n).expect("the header is written");
        }
        self.w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::{Ns, Txt, A};
    use crate::types::Opcode;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    /// Compares everything except the section counts, which are only
    /// authoritative after an encode.
    fn assert_same_content(a: &Message, b: &Message) {
        assert_eq!(a.questions, b.questions);
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.authorities, b.authorities);
        assert_eq!(a.additionals, b.additionals);
        let strip = |h: &Header| Header { qdcount: 0, ancount: 0, nscount: 0, arcount: 0, ..*h };
        assert_eq!(strip(&a.header), strip(&b.header));
    }

    #[test]
    fn query_round_trip() {
        let q = Message::stub_query(0x4242, name("p17.ourtestdomain.nl"), RType::Txt);
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_same_content(&back, &q);
        assert!(back.header.recursion_desired);
        assert_eq!(back.edns_payload_size(), Some(DEFAULT_EDNS_PAYLOAD));
    }

    #[test]
    fn iterative_query_has_no_rd() {
        let q = Message::iterative_query(7, name("x.nl"), RType::A);
        assert!(!q.header.recursion_desired);
    }

    #[test]
    fn response_round_trip_with_all_sections() {
        let q = Message::iterative_query(9, name("q.ourtestdomain.nl"), RType::Txt);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.header.authoritative = true;
        resp.answers.push(Record::new(
            name("q.ourtestdomain.nl"),
            5,
            RData::Txt(Txt::from_string("site=SYD").unwrap()),
        ));
        resp.authorities.push(Record::new(
            name("ourtestdomain.nl"),
            3600,
            RData::Ns(Ns::new(name("ns1.ourtestdomain.nl"))),
        ));
        resp.additionals.push(Record::new(
            name("ns1.ourtestdomain.nl"),
            3600,
            RData::A(A::new(Ipv4Addr::new(203, 0, 113, 1))),
        ));
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.header.id, 9);
        assert!(back.header.authoritative);
        assert_eq!(back.answers, resp.answers);
        assert_eq!(back.authorities, resp.authorities);
        assert_eq!(back.additionals, resp.additionals);
    }

    #[test]
    fn counts_recomputed_on_encode() {
        let mut m = Message::stub_query(1, name("a.b"), RType::A);
        m.header.qdcount = 99; // stale; encode must fix it
        let bytes = m.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.header.qdcount, 1);
        assert_eq!(back.header.arcount, 1); // the OPT record
    }

    #[test]
    fn compression_shrinks_response() {
        let q = Message::iterative_query(3, name("q.ourtestdomain.nl"), RType::Txt);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        for i in 1..=4 {
            resp.authorities.push(Record::new(
                name("ourtestdomain.nl"),
                3600,
                RData::Ns(Ns::new(name(&format!("ns{i}.ourtestdomain.nl")))),
            ));
        }
        let bytes = resp.encode().unwrap();
        // Four NS records naming the same suffix: compression should keep
        // the message well under the uncompressed size.
        let uncompressed: usize = resp.authorities.iter().map(|r| r.name.wire_len() + 10 + r.name.wire_len()).sum();
        assert!(bytes.len() < uncompressed);
        assert_same_content(&Message::decode(&bytes).unwrap(), &resp);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let q = Message::stub_query(5, name("a.b"), RType::A);
        let mut bytes = q.encode().unwrap();
        bytes.push(0);
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_truncated() {
        let q = Message::stub_query(5, name("a.b"), RType::A);
        let bytes = q.encode().unwrap();
        assert!(Message::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let q = Message::iterative_query(11, name("q.ourtestdomain.nl"), RType::Txt);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers.push(Record::new(
            name("q.ourtestdomain.nl"),
            5,
            RData::Txt(Txt::from_string("site=FRA").unwrap()),
        ));
        let fresh = resp.encode().unwrap();
        let mut buf = b"stale bytes from a previous response".to_vec();
        let cap_before = buf.capacity();
        resp.encode_into(&mut buf).unwrap();
        assert_eq!(buf, fresh);
        assert!(buf.capacity() >= cap_before, "allocation must be reused, not replaced");
        // Encoding a second, smaller message into the same buffer leaves
        // exactly that message.
        let small = Message::response_to(&q, Rcode::Refused);
        small.encode_into(&mut buf).unwrap();
        assert_eq!(buf, small.encode().unwrap());
    }

    /// Cutting a message back to its questions leaves what a fresh
    /// encode of the TC=1 form would: counts zeroed, TC set, ceiling
    /// lifted, and no compression target pointing into the part cut.
    #[test]
    fn writer_truncates_to_the_minimal_tc_form() {
        let q = Message::iterative_query(21, name("q.ourtestdomain.nl"), RType::Ns);
        let ns = Record::new(
            name("ourtestdomain.nl"),
            60,
            RData::Ns(Ns::new(name("ns1.elsewhere.example"))),
        );
        let mut w = MessageWriter::new(Vec::new(), &q.header.reply(Rcode::NoError));
        w.question(&q.questions[0]).unwrap();
        w.record(Section::Answer, &ns.name, ns.class, ns.ttl, &ns.rdata).unwrap();
        w.set_ceiling(w.written() + 8);
        assert!(w.record(Section::Answer, &ns.name, ns.class, ns.ttl, &ns.rdata).is_err());
        w.truncate();
        // `elsewhere.example` was spelled only in the part cut away —
        // four octets into the NS RDATA, exactly where this TXT now puts
        // the same bytes. A pointer there would decode, but it is not
        // what writing the message afresh produces.
        let decoy = Txt::new([&b"xyz\x09elsewhere\x07example\0"[..]]).unwrap();
        let mut fresh = Message::response_to(&q, Rcode::NoError);
        fresh.header.truncated = true;
        fresh.additionals.push(Record::new(q.questions[0].qname.clone(), 1, RData::Txt(decoy)));
        fresh.additionals.push(Record::new(name("elsewhere.example"), 1, ns.rdata.clone()));
        for r in &fresh.additionals {
            w.record(Section::Additional, &r.name, r.class, r.ttl, &r.rdata).unwrap();
        }
        assert_eq!(w.finish(), fresh.encode().unwrap());
    }

    #[test]
    fn opcode_preserved_in_response() {
        let mut q = Message::stub_query(1, name("a.b"), RType::A);
        q.header.opcode = Opcode::Notify;
        let r = Message::response_to(&q, Rcode::NotImp);
        assert_eq!(r.header.opcode, Opcode::Notify);
        assert_eq!(r.rcode(), Rcode::NotImp);
    }
}
