//! The question section entry (RFC 1035 §4.1.2).

use std::fmt;

use crate::error::ProtoResult;
use crate::name::Name;
use crate::types::{Class, RType};
use crate::wire::WireReader;

/// One question: QNAME, QTYPE, QCLASS.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// The name being asked about.
    pub qname: Name,
    /// The record type requested.
    pub qtype: RType,
    /// The class (IN for normal lookups, CH for server identification).
    pub qclass: Class,
}

impl Question {
    /// Creates an Internet-class question.
    pub fn new(qname: Name, qtype: RType) -> Self {
        Question { qname, qtype, qclass: Class::In }
    }

    /// Creates a CHAOS-class question (e.g. `hostname.bind TXT CH`).
    pub fn chaos(qname: Name, qtype: RType) -> Self {
        Question { qname, qtype, qclass: Class::Ch }
    }

    /// Decodes a question.
    pub fn decode(r: &mut WireReader<'_>) -> ProtoResult<Self> {
        Ok(Question {
            qname: Name::decode(r)?,
            qtype: RType::from_u16(r.read_u16()?),
            qclass: Class::from_u16(r.read_u16()?),
        })
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Header;
    use crate::message::MessageWriter;

    #[test]
    fn round_trip() {
        let q = Question::new(Name::parse("q1.ourtestdomain.nl").unwrap(), RType::Txt);
        let mut w = MessageWriter::new(Vec::new(), &Header::default());
        w.question(&q).unwrap();
        let bytes = w.finish().split_off(Header::WIRE_LEN);
        let mut r = WireReader::new(&bytes);
        assert_eq!(Question::decode(&mut r).unwrap(), q);
    }

    #[test]
    fn chaos_class() {
        let q = Question::chaos(Name::parse("hostname.bind").unwrap(), RType::Txt);
        assert_eq!(q.qclass, Class::Ch);
        assert_eq!(q.to_string(), "hostname.bind. CH TXT");
    }
}
