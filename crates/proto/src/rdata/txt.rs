//! TXT record payload (RFC 1035 §3.3.14).
//!
//! TXT is the measurement workhorse of the reproduced paper: each
//! authoritative site answers the probed TXT name with a *distinct*
//! string, so the client learns in-band which site served it.

use std::fmt;

use crate::error::{ProtoError, ProtoResult};
use crate::wire::{WireReader, WireWriter};

/// A TXT record: one or more character-strings of up to 255 octets
/// each, kept as they go on the wire — each string after its length
/// octet — in one exact-fit allocation, which a record cache keeps as
/// it was decoded.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Txt {
    /// At least one length-prefixed string; the last ends the buffer.
    wire: Box<[u8]>,
}

impl Txt {
    /// Builds a TXT payload from character-strings.
    pub fn new<I, B>(strings: I) -> ProtoResult<Self>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for s in strings {
            let s = s.as_ref();
            if s.len() > 255 {
                return Err(ProtoError::CharacterStringTooLong(s.len()));
            }
            wire.push(s.len() as u8);
            wire.extend_from_slice(s);
        }
        if wire.is_empty() {
            return Err(ProtoError::Malformed("TXT must contain at least one string"));
        }
        Ok(Txt { wire: wire.into() })
    }

    /// Convenience constructor from a single UTF-8 string.
    pub fn from_string(s: &str) -> ProtoResult<Self> {
        Txt::new([s])
    }

    /// The character-strings, in order.
    pub fn strings(&self) -> Strings<'_> {
        Strings { rest: &self.wire }
    }

    /// The first string, lossily decoded — convenient for site identifiers.
    pub fn first_as_string(&self) -> String {
        let first = self.strings().next().expect("a TXT holds at least one string");
        String::from_utf8_lossy(first).into_owned()
    }

    pub(crate) fn encode(&self, w: &mut WireWriter) -> ProtoResult<()> {
        w.write_bytes(&self.wire)
    }

    pub(crate) fn decode(r: &mut WireReader<'_>, rdlength: usize) -> ProtoResult<Self> {
        let rdata = r.read_bytes(rdlength)?;
        let mut at = 0;
        while at < rdata.len() {
            at += 1 + rdata[at] as usize;
        }
        if at > rdata.len() {
            return Err(ProtoError::Malformed("TXT string crosses RDATA boundary"));
        }
        if rdata.is_empty() {
            return Err(ProtoError::Malformed("empty TXT RDATA"));
        }
        Ok(Txt { wire: rdata.into() })
    }
}

impl fmt::Debug for Txt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txt").field("strings", &self.strings()).finish()
    }
}

/// The character-strings of a [`Txt`] (see [`Txt::strings`]).
#[derive(Clone)]
pub struct Strings<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Strings<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.rest.split_first()?;
        let (string, rest) = rest.split_at(len as usize);
        self.rest = rest;
        Some(string)
    }
}

impl fmt::Debug for Strings<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_string_round_trip() {
        let t = Txt::from_string("site=GRU probe=atlas").unwrap();
        let mut w = WireWriter::new();
        t.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Txt::decode(&mut r, bytes.len()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.first_as_string(), "site=GRU probe=atlas");
    }

    #[test]
    fn multiple_strings_round_trip() {
        let t = Txt::new([b"one".to_vec(), b"two".to_vec()]).unwrap();
        let mut w = WireWriter::new();
        t.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let decoded = Txt::decode(&mut r, bytes.len()).unwrap();
        assert_eq!(decoded.strings().collect::<Vec<_>>(), [b"one", b"two"]);
        assert_eq!(*decoded.wire, *bytes, "exact-fit: a cache keeps it as decoded");
    }

    #[test]
    fn rejects_oversized_string() {
        assert!(matches!(
            Txt::new([vec![0u8; 256]]),
            Err(ProtoError::CharacterStringTooLong(256))
        ));
    }

    #[test]
    fn rejects_empty() {
        let strings: Vec<Vec<u8>> = vec![];
        assert!(Txt::new(strings).is_err());
    }

    #[test]
    fn decode_rejects_string_crossing_boundary() {
        // length octet says 10, but rdlength is 3
        let bytes = [10u8, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert!(Txt::decode(&mut r, 3).is_err());
    }
}
