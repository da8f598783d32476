//! The 12-octet DNS message header (RFC 1035 §4.1.1).

use crate::error::ProtoResult;
use crate::types::{Opcode, Rcode};
use crate::wire::{WireReader, WireWriter};

/// Parsed DNS header: ID, flags, and the four section counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Query identifier, echoed in responses.
    pub id: u16,
    /// `QR`: true for responses.
    pub response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// `AA`: answer is authoritative.
    pub authoritative: bool,
    /// `TC`: message was truncated.
    pub truncated: bool,
    /// `RD`: recursion desired.
    pub recursion_desired: bool,
    /// `RA`: recursion available.
    pub recursion_available: bool,
    /// The three reserved bits between RA and RCODE (Z, and the bits
    /// DNSSEC later assigned as AD/CD). RFC 1035 says Z "must be zero",
    /// but real recursives set AD/CD freely, so we preserve the bits
    /// verbatim: decode masks them out of the flags word and encode
    /// re-emits them, making decode→encode a byte identity.
    pub zbits: u8,
    /// Response code.
    pub rcode: Rcode,
    /// Entries in the question section.
    pub qdcount: u16,
    /// Entries in the answer section.
    pub ancount: u16,
    /// Entries in the authority section.
    pub nscount: u16,
    /// Entries in the additional section.
    pub arcount: u16,
}

impl Default for Header {
    fn default() -> Self {
        Header {
            id: 0,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: false,
            recursion_available: false,
            zbits: 0,
            rcode: Rcode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }
}

impl Header {
    /// Wire size of the header.
    pub const WIRE_LEN: usize = 12;

    /// The header a response to this query starts from: its ID, opcode
    /// and RD bit echoed under `rcode`, everything else clear.
    pub fn reply(&self, rcode: Rcode) -> Header {
        Header {
            id: self.id,
            response: true,
            opcode: self.opcode,
            recursion_desired: self.recursion_desired,
            rcode,
            ..Header::default()
        }
    }

    /// Encodes the header.
    pub fn encode(&self, w: &mut WireWriter) -> ProtoResult<()> {
        w.write_u16(self.id)?;
        let mut flags: u16 = 0;
        if self.response {
            flags |= 0x8000;
        }
        flags |= (self.opcode.to_u8() as u16) << 11;
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.truncated {
            flags |= 0x0200;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.recursion_available {
            flags |= 0x0080;
        }
        flags |= ((self.zbits & 0x07) as u16) << 4;
        flags |= self.rcode.to_u8() as u16;
        w.write_u16(flags)?;
        w.write_u16(self.qdcount)?;
        w.write_u16(self.ancount)?;
        w.write_u16(self.nscount)?;
        w.write_u16(self.arcount)
    }

    /// Decodes the header.
    pub fn decode(r: &mut WireReader<'_>) -> ProtoResult<Self> {
        let id = r.read_u16()?;
        let flags = r.read_u16()?;
        Ok(Header {
            id,
            response: flags & 0x8000 != 0,
            opcode: Opcode::from_u8((flags >> 11) as u8),
            authoritative: flags & 0x0400 != 0,
            truncated: flags & 0x0200 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            zbits: ((flags >> 4) & 0x07) as u8,
            rcode: Rcode::from_u8(flags as u8),
            qdcount: r.read_u16()?,
            ancount: r.read_u16()?,
            nscount: r.read_u16()?,
            arcount: r.read_u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_flags() {
        let h = Header {
            id: 0x1234,
            response: true,
            opcode: Opcode::Status,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            zbits: 0b101,
            rcode: Rcode::Refused,
            qdcount: 1,
            ancount: 2,
            nscount: 3,
            arcount: 4,
        };
        let mut w = WireWriter::new();
        h.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), Header::WIRE_LEN);
        let mut r = WireReader::new(&bytes);
        assert_eq!(Header::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn round_trip_default() {
        let h = Header::default();
        let mut w = WireWriter::new();
        h.encode(&mut w).unwrap();
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(Header::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn decode_short_buffer_fails() {
        let mut r = WireReader::new(&[0; 11]);
        assert!(Header::decode(&mut r).is_err());
    }

    #[test]
    fn zbits_masked_on_decode_and_preserved_on_encode() {
        // A header with AD (0x0020) and CD (0x0010) set, as real
        // validating recursives send them.
        let mut bytes = [0u8; 12];
        bytes[2] = 0x01; // RD
        bytes[3] = 0x30; // AD | CD
        let h = Header::decode(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(h.zbits, 0b011);
        assert_eq!(h.rcode, Rcode::NoError);
        let mut w = WireWriter::new();
        h.encode(&mut w).unwrap();
        assert_eq!(w.as_slice(), &bytes);
    }

    /// Property (satellite of the transport-plane PR): for *any* 12-byte
    /// image, decode→encode is a byte identity — every flag bit,
    /// including the reserved Z/AD/CD bits, survives the round trip.
    #[test]
    fn qc_mutated_headers_round_trip_exactly() {
        detrand::qc::property("header_decode_encode_identity").cases(512).check(|g| {
            let mut bytes = [0u8; 12];
            for b in bytes.iter_mut() {
                *b = g.u8();
            }
            let h = Header::decode(&mut WireReader::new(&bytes)).unwrap();
            let mut w = WireWriter::new();
            h.encode(&mut w).unwrap();
            assert_eq!(w.as_slice(), &bytes, "header {h:?} did not re-encode to its wire image");
        });
    }
}
