//! RDATA: the typed payload of a resource record.

mod address;
mod mx;
mod name_rdata;
mod opt;
mod soa;
mod txt;

pub use address::{A, Aaaa};
pub use mx::Mx;
pub use name_rdata::{Cname, Ns, Ptr};
pub use opt::Opt;
pub use soa::Soa;
pub use txt::{Strings, Txt};

use crate::error::{ProtoError, ProtoResult};
use crate::name::NameCompressor;
use crate::types::RType;
use crate::wire::{WireReader, WireWriter};

/// The payload of a resource record, dispatched by TYPE.
///
/// Types we do not model are preserved verbatim in [`RData::Unknown`] so
/// that messages survive a decode/encode round trip.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(A),
    /// IPv6 address.
    Aaaa(Aaaa),
    /// Name server.
    Ns(Ns),
    /// Canonical name.
    Cname(Cname),
    /// Reverse pointer.
    Ptr(Ptr),
    /// Mail exchange.
    Mx(Mx),
    /// Text record.
    Txt(Txt),
    /// Start of authority.
    Soa(Soa),
    /// EDNS0 OPT pseudo-record payload.
    Opt(Opt),
    /// Unmodelled type: raw RDATA bytes.
    Unknown {
        /// The wire TYPE code.
        rtype: u16,
        /// The raw RDATA.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record TYPE this payload corresponds to.
    pub fn rtype(&self) -> RType {
        match self {
            RData::A(_) => RType::A,
            RData::Aaaa(_) => RType::Aaaa,
            RData::Ns(_) => RType::Ns,
            RData::Cname(_) => RType::Cname,
            RData::Ptr(_) => RType::Ptr,
            RData::Mx(_) => RType::Mx,
            RData::Txt(_) => RType::Txt,
            RData::Soa(_) => RType::Soa,
            RData::Opt(_) => RType::Opt,
            RData::Unknown { rtype, .. } => RType::Unknown(*rtype),
        }
    }

    /// Encodes the RDATA (without the RDLENGTH prefix).
    ///
    /// Names inside RDATA of the classic types (NS, CNAME, PTR, SOA, MX)
    /// participate in compression, matching common server behaviour.
    pub fn encode(&self, w: &mut WireWriter, c: &mut NameCompressor) -> ProtoResult<()> {
        match self {
            RData::A(a) => a.encode(w),
            RData::Aaaa(a) => a.encode(w),
            RData::Ns(n) => n.encode(w, c),
            RData::Cname(n) => n.encode(w, c),
            RData::Ptr(n) => n.encode(w, c),
            RData::Mx(m) => m.encode(w, c),
            RData::Txt(t) => t.encode(w),
            RData::Soa(s) => s.encode(w, c),
            RData::Opt(o) => o.encode(w),
            RData::Unknown { data, .. } => w.write_bytes(data),
        }
    }

    /// Decodes RDATA of the given type. `rdlength` bytes must be consumed.
    pub fn decode(
        r: &mut WireReader<'_>,
        rtype: RType,
        rdlength: usize,
    ) -> ProtoResult<Self> {
        let start = r.position();
        let value = match rtype {
            RType::A => RData::A(A::decode(r)?),
            RType::Aaaa => RData::Aaaa(Aaaa::decode(r)?),
            RType::Ns => RData::Ns(Ns::decode(r)?),
            RType::Cname => RData::Cname(Cname::decode(r)?),
            RType::Ptr => RData::Ptr(Ptr::decode(r)?),
            RType::Mx => RData::Mx(Mx::decode(r)?),
            RType::Txt => RData::Txt(Txt::decode(r, rdlength)?),
            RType::Soa => RData::Soa(Soa::decode(r)?),
            RType::Opt => RData::Opt(Opt::decode(r, rdlength)?),
            RType::Unknown(code) => {
                let data = r.read_bytes(rdlength)?.to_vec();
                RData::Unknown { rtype: code, data }
            }
        };
        let consumed = r.position() - start;
        if consumed != rdlength {
            return Err(ProtoError::RdataLengthMismatch { declared: rdlength, consumed });
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use std::net::Ipv4Addr;

    fn round_trip(rdata: RData) {
        let mut w = WireWriter::new();
        let mut c = NameCompressor::new();
        rdata.encode(&mut w, &mut c).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = RData::decode(&mut r, rdata.rtype(), bytes.len()).unwrap();
        assert_eq!(back, rdata);
    }

    #[test]
    fn round_trip_each_type() {
        round_trip(RData::A(A::new(Ipv4Addr::new(192, 0, 2, 1))));
        round_trip(RData::Aaaa(Aaaa::new("2001:db8::1".parse().unwrap())));
        round_trip(RData::Ns(Ns::new(Name::parse("ns1.example.nl").unwrap())));
        round_trip(RData::Cname(Cname::new(Name::parse("alias.example.nl").unwrap())));
        round_trip(RData::Ptr(Ptr::new(Name::parse("host.example.nl").unwrap())));
        round_trip(RData::Mx(Mx::new(10, Name::parse("mail.example.nl").unwrap())));
        round_trip(RData::Txt(Txt::from_string("site=fra").unwrap()));
        round_trip(RData::Soa(Soa::new(
            Name::parse("ns1.example.nl").unwrap(),
            Name::parse("hostmaster.example.nl").unwrap(),
            2017041201,
            7200,
            3600,
            604800,
            300,
        )));
        round_trip(RData::Unknown { rtype: 99, data: vec![1, 2, 3, 4] });
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        // A record with rdlength 5 (must be 4)
        let bytes = [192, 0, 2, 1, 0];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            RData::decode(&mut r, RType::A, 5),
            Err(ProtoError::RdataLengthMismatch { .. })
        ));
    }
}
