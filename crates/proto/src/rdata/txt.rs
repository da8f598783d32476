//! TXT record payload (RFC 1035 §3.3.14).
//!
//! TXT is the measurement workhorse of the reproduced paper: each
//! authoritative site answers the probed TXT name with a *distinct*
//! string, so the client learns in-band which site served it.

use crate::error::{ProtoError, ProtoResult};
use crate::wire::{WireReader, WireWriter};

/// A TXT record: one or more character-strings of up to 255 octets each.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Txt {
    strings: Vec<Vec<u8>>,
}

impl Txt {
    /// Builds a TXT payload from character-strings.
    pub fn new<I, B>(strings: I) -> ProtoResult<Self>
    where
        I: IntoIterator<Item = B>,
        B: Into<Vec<u8>>,
    {
        let strings: Vec<Vec<u8>> = strings.into_iter().map(Into::into).collect();
        for s in &strings {
            if s.len() > 255 {
                return Err(ProtoError::CharacterStringTooLong(s.len()));
            }
        }
        if strings.is_empty() {
            return Err(ProtoError::Malformed("TXT must contain at least one string"));
        }
        Ok(Txt { strings })
    }

    /// Convenience constructor from a single UTF-8 string.
    pub fn from_string(s: &str) -> ProtoResult<Self> {
        Txt::new([s.as_bytes().to_vec()])
    }

    /// The character-strings.
    pub fn strings(&self) -> &[Vec<u8>] {
        &self.strings
    }

    /// The first string, lossily decoded — convenient for site identifiers.
    pub fn first_as_string(&self) -> String {
        String::from_utf8_lossy(&self.strings[0]).into_owned()
    }

    pub(crate) fn encode(&self, w: &mut WireWriter) -> ProtoResult<()> {
        for s in &self.strings {
            w.write_u8(s.len() as u8)?;
            w.write_bytes(s)?;
        }
        Ok(())
    }

    pub(crate) fn decode(r: &mut WireReader<'_>, rdlength: usize) -> ProtoResult<Self> {
        let end = r.position() + rdlength;
        // Count the strings before copying any, so the vector is
        // exact-fit: a record cache keeps decoded records as they are.
        // The count is never more than the loop below would push.
        let count = r.buffer().get(r.position()..end).map_or(0, |rdata| {
            let (mut at, mut n) = (0, 0);
            while at < rdata.len() {
                at += 1 + rdata[at] as usize;
                n += 1;
            }
            n
        });
        let mut strings = Vec::with_capacity(count);
        while r.position() < end {
            let len = r.read_u8()? as usize;
            if r.position() + len > end {
                return Err(ProtoError::Malformed("TXT string crosses RDATA boundary"));
            }
            strings.push(r.read_bytes(len)?.to_vec());
        }
        if strings.is_empty() {
            return Err(ProtoError::Malformed("empty TXT RDATA"));
        }
        Ok(Txt { strings })
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
        assert_eq!(decoded.strings().len(), 2);
        assert_eq!(decoded.strings.capacity(), 2, "exact-fit: a cache keeps it as decoded");
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
