//! Resource records (RFC 1035 §4.1.3).

use std::fmt;

use crate::error::ProtoResult;
use crate::name::Name;
use crate::rdata::RData;
use crate::types::{Class, RType};
use crate::wire::WireReader;

/// A full resource record: owner name, class, TTL and typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Record class.
    pub class: Class,
    /// Time to live, seconds. The paper's test records use TTL=5 to
    /// defeat record caching between probe rounds.
    pub ttl: u32,
    /// Typed payload.
    pub rdata: RData,
}

impl Record {
    /// Creates an Internet-class record.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record { name, class: Class::In, ttl, rdata }
    }

    /// Creates a record with an explicit class (CHAOS identification).
    pub fn with_class(name: Name, class: Class, ttl: u32, rdata: RData) -> Self {
        Record { name, class, ttl, rdata }
    }

    /// The record's TYPE, derived from the RDATA.
    pub fn rtype(&self) -> RType {
        self.rdata.rtype()
    }

    /// Decodes one record.
    pub fn decode(r: &mut WireReader<'_>) -> ProtoResult<Self> {
        let name = Name::decode(r)?;
        let rtype = RType::from_u16(r.read_u16()?);
        let class = Class::from_u16(r.read_u16()?);
        let ttl = r.read_u32()?;
        let rdlength = r.read_u16()? as usize;
        let rdata = RData::decode(r, rtype, rdlength)?;
        Ok(Record { name, class, ttl, rdata })
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} {}", self.name, self.ttl, self.class, self.rtype())?;
        match &self.rdata {
            RData::A(a) => write!(f, " {}", a.addr()),
            RData::Aaaa(a) => write!(f, " {}", a.addr()),
            RData::Ns(n) => write!(f, " {}", n.name()),
            RData::Cname(n) => write!(f, " {}", n.name()),
            RData::Ptr(n) => write!(f, " {}", n.name()),
            RData::Mx(m) => write!(f, " {} {}", m.preference, m.exchange),
            RData::Txt(t) => write!(f, " {:?}", t.first_as_string()),
            RData::Soa(s) => write!(
                f,
                " {} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Opt(o) => write!(f, " ({} options)", o.options.len()),
            RData::Unknown { data, .. } => write!(f, " \\# {}", data.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Header;
    use crate::message::{MessageWriter, Section};
    use crate::rdata::{Txt, A};
    use crate::wire::WireReader;
    use std::net::Ipv4Addr;

    /// The record alone, as [`MessageWriter::record`] writes it after
    /// the 12 header octets.
    fn encoded(rec: &Record) -> Vec<u8> {
        let mut w = MessageWriter::new(Vec::new(), &Header::default());
        w.record(Section::Answer, &rec.name, rec.class, rec.ttl, &rec.rdata).unwrap();
        w.finish().split_off(Header::WIRE_LEN)
    }

    #[test]
    fn round_trip_txt() {
        let rec = Record::new(
            Name::parse("q.ourtestdomain.nl").unwrap(),
            5,
            RData::Txt(Txt::from_string("site=FRA").unwrap()),
        );
        let bytes = encoded(&rec);
        let mut r = WireReader::new(&bytes);
        assert_eq!(Record::decode(&mut r).unwrap(), rec);
        assert!(r.is_empty());
    }

    #[test]
    fn rdlength_is_patched() {
        let rec = Record::new(
            Name::parse("a.example").unwrap(),
            60,
            RData::A(A::new(Ipv4Addr::new(192, 0, 2, 7))),
        );
        let bytes = encoded(&rec);
        // RDLENGTH is the two bytes before the last four (the address)
        let rdlen = u16::from_be_bytes([bytes[bytes.len() - 6], bytes[bytes.len() - 5]]);
        assert_eq!(rdlen, 4);
    }

    #[test]
    fn display_is_zone_file_like() {
        let rec = Record::new(
            Name::parse("example.nl").unwrap(),
            3600,
            RData::A(A::new(Ipv4Addr::new(192, 0, 2, 1))),
        );
        assert_eq!(rec.to_string(), "example.nl. 3600 IN A 192.0.2.1");
    }
}
