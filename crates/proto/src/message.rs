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
        // left could hold (a question is ≥ 5 octets).
        let mut questions = Vec::with_capacity((header.qdcount as usize).min(r.remaining() / 5));
        for _ in 0..header.qdcount {
            questions.push(Question::decode(&mut r)?);
        }
        let answers = decode_records(&mut r, header.ancount)?;
        let authorities = decode_records(&mut r, header.nscount)?;
        let additionals = decode_records(&mut r, header.arcount)?;
        end_of_message(&r)?;
        Ok(Message { header, questions, answers, authorities, additionals })
    }

    /// Decodes `buf` as a reply to the question (`qname`, `qtype`),
    /// accepting and rejecting exactly what [`Message::decode`] does, and
    /// keeps only what an asker that holds its own question needs: the
    /// header, whether the first question is the one asked (compared in
    /// place), and the answer records. Each authority and additional
    /// record is handed to `rest` and dropped. So a reply whose other
    /// sections are name-less (an OPT) allocates for its answers only.
    pub fn decode_answer(
        buf: &[u8],
        qname: &Name,
        qtype: RType,
        mut rest: impl FnMut(Section, &Record),
    ) -> ProtoResult<Answer> {
        let mut r = WireReader::new(buf);
        let header = Header::decode(&mut r)?;
        let mut asked = false;
        for i in 0..header.qdcount {
            let same_name = qname.decode_matches(&mut r)?;
            let same_type = RType::from_u16(r.read_u16()?) == qtype;
            r.read_u16()?; // QCLASS
            asked |= i == 0 && same_name && same_type;
        }
        let answers = decode_records(&mut r, header.ancount)?;
        for (section, n) in [(Section::Authority, header.nscount), (Section::Additional, header.arcount)] {
            for _ in 0..n {
                rest(section, &Record::decode(&mut r)?);
            }
        }
        end_of_message(&r)?;
        Ok(Answer { header, asked, answers })
    }
}

/// What [`Message::decode_answer`] keeps of a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Message header.
    pub header: Header,
    /// Whether the reply's first question is the question asked.
    pub asked: bool,
    /// Answer section.
    pub answers: Vec<Record>,
}

/// Decodes a section of `n` records. The count is a claim: reserve no
/// more than the bytes left could hold (a record is ≥ 11 octets).
fn decode_records(r: &mut WireReader<'_>, n: u16) -> ProtoResult<Vec<Record>> {
    let mut out = Vec::with_capacity((n as usize).min(r.remaining() / 11));
    for _ in 0..n {
        out.push(Record::decode(r)?);
    }
    Ok(out)
}

/// A message ends with its last section.
fn end_of_message(r: &WireReader<'_>) -> ProtoResult<()> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(ProtoError::Malformed("trailing bytes after last section"))
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
        assert_eq!(back.edns_info().map(|e| e.payload_size), Some(DEFAULT_EDNS_PAYLOAD));
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

    /// The all-sections response of the round-trip test above, encoded.
    fn all_sections_reply() -> (Message, Vec<u8>) {
        let q = Message::iterative_query(9, name("q.ourtestdomain.nl"), RType::Txt);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers.push(Record::new(
            name("q.ourtestdomain.nl"),
            5,
            RData::Txt(Txt::new(["site=SYD", "and=more"]).unwrap()),
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
        resp.add_edns(DEFAULT_EDNS_PAYLOAD);
        let bytes = resp.encode().unwrap();
        (Message::decode(&bytes).unwrap(), bytes)
    }

    #[test]
    fn decode_answer_keeps_the_answers_and_hands_out_the_rest() {
        let (full, bytes) = all_sections_reply();
        let mut rest = Vec::new();
        let asked = name("Q.OurTestDomain.NL");
        let answer = Message::decode_answer(&bytes, &asked, RType::Txt, |section, r| {
            rest.push((section, r.clone()));
        })
        .unwrap();
        assert_eq!((answer.header, answer.asked, &answer.answers), (full.header, true, &full.answers));
        let sections = [(Section::Authority, &full.authorities), (Section::Additional, &full.additionals)];
        let expected: Vec<_> =
            sections.into_iter().flat_map(|(s, records)| records.iter().map(move |r| (s, r.clone()))).collect();
        assert_eq!(rest, expected);

        for (qname, qtype) in [(name("r.ourtestdomain.nl"), RType::Txt), (asked, RType::A)] {
            let other = Message::decode_answer(&bytes, &qname, qtype, |_, _| {}).unwrap();
            assert!(!other.asked, "{qname} {qtype:?} is not the question");
        }
    }

    #[test]
    fn decode_answer_rejects_what_decode_rejects() {
        let (_, bytes) = all_sections_reply();
        let qname = name("q.ourtestdomain.nl");
        let agree = |b: &[u8]| {
            let answer = Message::decode_answer(b, &qname, RType::Txt, |_, _| {});
            assert_eq!(answer.is_ok(), Message::decode(b).is_ok(), "{b:?}");
        };
        for end in 0..=bytes.len() {
            agree(&bytes[..end]);
        }
        let mut longer = bytes.clone();
        longer.push(0);
        agree(&longer);
        for at in 0..bytes.len() {
            for flip in [0x01, 0x40, 0xc0, 0xff] {
                let mut b = bytes.clone();
                b[at] ^= flip;
                agree(&b);
            }
        }
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
