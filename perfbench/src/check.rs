//! Answer checking. What a correct reply looks like is written down
//! here from the zone's semantics (RFC 1034 §4.3.2 over the preset
//! measurement zone), not derived by asking the engine — so the engine
//! is checked against something other than itself.

use dnswild_proto::{Message, RData, RType, Rcode};

use crate::gen::Kind;

/// The site code every server under test is started with.
pub const SITE: &str = "FRA";
/// Name servers in every zone under test (`ns1`, `ns2`).
pub const NS_COUNT: usize = 2;

/// Which zone and transport a reply came through, which decides its
/// expected shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `test_domain_zone` over UDP: everything fits.
    Plain,
    /// Padded zone behind a 512-byte ceiling over UDP: every probe
    /// answer must come back as an empty TC=1 reply.
    PaddedUdp,
    /// Padded zone over TCP: the whole padded RRset (2 TXT records).
    PaddedTcp,
    /// The benchmark's own echo thread: the reply is the query, byte
    /// for byte.
    Echo,
}

impl Profile {
    /// `(ANCOUNT, TC)` a reply to a query of `kind` must carry.
    fn expect(self, kind: Kind) -> (u16, bool) {
        match (kind, self) {
            (Kind::ProbeTxt, Profile::PaddedUdp) => (0, true),
            (Kind::ProbeTxt, Profile::PaddedTcp) => (2, false),
            (Kind::ProbeTxt, _) => (1, false),
            (Kind::ApexNs, _) => (NS_COUNT as u16, false),
            (Kind::GlueA, _) => (1, false),
            (Kind::ApexTxt, _) => (0, false),
            (Kind::ChaosId, _) => (1, false),
        }
    }

    /// The check made on every reply, on raw bytes: echoed id, QR=1,
    /// RCODE 0, and the TC bit and ANCOUNT the query's kind must draw.
    pub fn header_ok(self, kind: Kind, query: &[u8], reply: &[u8]) -> bool {
        if self == Profile::Echo {
            return reply == query;
        }
        if reply.len() < 12 {
            return false;
        }
        let (ancount, truncated) = self.expect(kind);
        let qr = reply[2] & 0x80 != 0;
        let tc = reply[2] & 0x02 != 0;
        let rcode = reply[3] & 0x0f;
        reply[..2] == query[..2]
            && qr
            && tc == truncated
            && rcode == 0
            && u16::from_be_bytes([reply[6], reply[7]]) == ancount
    }
}

/// The sampled deep check: full decode of query and reply, echoed
/// question, and the content each kind of query must draw.
pub fn content_ok(query: &[u8], reply: &[u8], kind: Kind, profile: Profile) -> bool {
    let (Ok(q), Ok(r)) = (Message::decode(query), Message::decode(reply)) else {
        return false;
    };
    let (Some(asked), Some(echoed)) = (q.question(), r.question()) else {
        return false;
    };
    if !r.is_response() || r.rcode() != Rcode::NoError || asked != echoed {
        return false;
    }
    let owner_ok = r.answers.iter().all(|a| a.name == asked.qname);
    match kind {
        Kind::ProbeTxt if profile == Profile::PaddedUdp => {
            r.header.truncated && r.answers.is_empty()
        }
        Kind::ProbeTxt => {
            // The wildcard is synthesised at the query name and the
            // first TXT is branded with the answering site.
            let branded = r.answers.first().is_some_and(|a| match &a.rdata {
                RData::Txt(t) => t.first_as_string() == format!("site={SITE}"),
                _ => false,
            });
            owner_ok && branded && r.answers.iter().all(|a| a.rtype() == RType::Txt)
        }
        Kind::ApexNs => {
            let mut targets: Vec<String> = r
                .answers
                .iter()
                .filter_map(|a| match &a.rdata {
                    RData::Ns(ns) => Some(ns.name().to_string().to_ascii_lowercase()),
                    _ => None,
                })
                .collect();
            targets.sort();
            let origin = asked.qname.to_string().to_ascii_lowercase();
            let want: Vec<String> = (1..=NS_COUNT).map(|i| format!("ns{i}.{origin}")).collect();
            owner_ok && targets == want
        }
        Kind::GlueA => {
            owner_ok
                && matches!(&r.answers[..], [a] if matches!(&a.rdata,
                    RData::A(addr) if addr.addr() == std::net::Ipv4Addr::new(203, 0, 113, 1)))
        }
        Kind::ApexTxt => {
            // NODATA: empty answer, SOA in authority for negative caching.
            r.answers.is_empty() && r.authorities.iter().any(|a| a.rtype() == RType::Soa)
        }
        Kind::ChaosId => matches!(&r.answers[..], [a] if matches!(&a.rdata,
            RData::Txt(t) if t.first_as_string() == SITE)),
    }
}
