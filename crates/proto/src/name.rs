//! Domain names: presentation format, wire format, and compression.
//!
//! A [`Name`] is a sequence of labels, stored uncompressed. Comparison and
//! hashing are case-insensitive per RFC 1035 §2.3.3, while the original
//! spelling is preserved for display.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::{ProtoError, ProtoResult};
use crate::wire::{WireReader, WireWriter};

/// Maximum length of a single label, in octets.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire (labels + length octets + root).
pub const MAX_NAME_LEN: usize = 255;

/// One label of a domain name (1–63 octets, arbitrary bytes).
#[derive(Debug, Clone, Eq)]
pub struct Label(Box<[u8]>);

impl Label {
    /// Creates a label from raw octets.
    pub fn new(bytes: &[u8]) -> ProtoResult<Self> {
        if bytes.is_empty() {
            return Err(ProtoError::BadNameSyntax("empty label".into()));
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(ProtoError::LabelTooLong(bytes.len()));
        }
        Ok(Label(bytes.into()))
    }

    /// The raw octets of the label.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in octets.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false: labels have at least one octet.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// ASCII-lowercased copy, used for canonical comparison.
    fn to_lower(&self) -> Vec<u8> {
        self.0.iter().map(|b| b.to_ascii_lowercase()).collect()
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0.iter())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for b in self.0.iter() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in self.0.iter() {
            match b {
                b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                0x21..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\{:03}", b)?,
            }
        }
        Ok(())
    }
}

/// An absolute domain name (always implicitly rooted).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Name {
    labels: Vec<Label>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Builds a name from labels (first label is the leftmost).
    pub fn from_labels<I, B>(labels: I) -> ProtoResult<Self>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let labels = labels
            .into_iter()
            .map(|l| Label::new(l.as_ref()))
            .collect::<ProtoResult<Vec<_>>>()?;
        let name = Name { labels };
        name.check_len()?;
        Ok(name)
    }

    /// Parses presentation format, e.g. `"www.example.nl"` or `"example.nl."`.
    ///
    /// Only simple escaping is supported: `\.` for a literal dot and
    /// `\NNN` decimal escapes.
    pub fn parse(s: &str) -> ProtoResult<Self> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let bytes = s.as_bytes();
        let mut labels = Vec::new();
        let mut current: Vec<u8> = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => {
                    if i + 1 >= bytes.len() {
                        return Err(ProtoError::BadNameSyntax(s.into()));
                    }
                    let next = bytes[i + 1];
                    if next.is_ascii_digit() {
                        if i + 3 >= bytes.len() {
                            return Err(ProtoError::BadNameSyntax(s.into()));
                        }
                        let code = std::str::from_utf8(&bytes[i + 1..i + 4])
                            .ok()
                            .and_then(|t| t.parse::<u16>().ok())
                            .filter(|&v| v <= 255)
                            .ok_or_else(|| ProtoError::BadNameSyntax(s.into()))?;
                        current.push(code as u8);
                        i += 4;
                    } else {
                        current.push(next);
                        i += 2;
                    }
                }
                b'.' => {
                    labels.push(Label::new(&current)?);
                    current.clear();
                    i += 1;
                }
                b => {
                    current.push(b);
                    i += 1;
                }
            }
        }
        if !current.is_empty() {
            labels.push(Label::new(&current)?);
        } else if bytes.last() != Some(&b'.') {
            return Err(ProtoError::BadNameSyntax(s.into()));
        }
        let name = Name { labels };
        name.check_len()?;
        Ok(name)
    }

    /// The labels, leftmost first.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Wire-format length in octets, including per-label length octets and
    /// the terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Returns a new name with `label` prepended, e.g. turning
    /// `example.nl` into `probe-17.example.nl`.
    pub fn prepend(&self, label: &str) -> ProtoResult<Self> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(Label::new(label.as_bytes())?);
        labels.extend(self.labels.iter().cloned());
        let name = Name { labels };
        name.check_len()?;
        Ok(name)
    }

    /// The parent of this name (`www.example.nl` → `example.nl`).
    /// The root has no parent.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name { labels: self.labels[1..].to_vec() })
        }
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        if ancestor.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - ancestor.labels.len();
        self.labels[offset..]
            .iter()
            .zip(ancestor.labels.iter())
            .all(|(a, b)| a == b)
    }

    /// Canonical (lowercased) wire form with no compression. Used as a map
    /// key for compression and caching.
    pub fn canonical_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        for label in &self.labels {
            out.push(label.len() as u8);
            out.extend(label.to_lower());
        }
        out.push(0);
        out
    }

    fn check_len(&self) -> ProtoResult<()> {
        let len = self.wire_len();
        if len > MAX_NAME_LEN {
            return Err(ProtoError::NameTooLong(len));
        }
        Ok(())
    }

    /// Encodes the name without compression.
    pub fn encode_uncompressed(&self, w: &mut WireWriter) -> ProtoResult<()> {
        for label in &self.labels {
            w.write_u8(label.len() as u8)?;
            w.write_bytes(label.as_bytes())?;
        }
        w.write_u8(0)
    }

    /// Encodes the name using the shared [`NameCompressor`] state.
    pub fn encode(&self, w: &mut WireWriter, compressor: &mut NameCompressor) -> ProtoResult<()> {
        compressor.encode_name(self, w)
    }

    /// Decodes a (possibly compressed) name from the reader.
    ///
    /// Compression pointers may only point strictly backwards; loops and
    /// forward pointers are rejected.
    pub fn decode(r: &mut WireReader<'_>) -> ProtoResult<Self> {
        let mut labels = Vec::new();
        let mut wire_len = 1usize; // terminating root octet
        // Position to restore once the first pointer is followed.
        let mut restore: Option<usize> = None;
        let mut min_ptr = r.position();

        loop {
            let len = r.read_u8()?;
            match len & 0xc0 {
                0x00 => {
                    if len == 0 {
                        break;
                    }
                    let bytes = r.read_bytes(len as usize)?;
                    wire_len += len as usize + 1;
                    if wire_len > MAX_NAME_LEN {
                        return Err(ProtoError::NameTooLong(wire_len));
                    }
                    labels.push(Label::new(bytes)?);
                }
                0xc0 => {
                    let lo = r.read_u8()?;
                    let target = (((len & 0x3f) as usize) << 8) | lo as usize;
                    if target >= min_ptr {
                        return Err(ProtoError::BadCompressionPointer(target));
                    }
                    if restore.is_none() {
                        restore = Some(r.position());
                    }
                    min_ptr = target;
                    r.seek(target)?;
                }
                other => return Err(ProtoError::BadLabelType(other)),
            }
        }

        if let Some(pos) = restore {
            r.seek(pos)?;
        }
        Ok(Name { labels })
    }
}

/// Lets a `HashMap<Name, _>` be probed with a borrowed label slice —
/// any suffix of [`Name::labels`] — without building a `Name`. Sound
/// because `Name` derives `Eq`/`Hash` from its one `labels` field.
impl Borrow<[Label]> for Name {
    fn borrow(&self) -> &[Label] {
        &self.labels
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for label in &self.labels {
            write!(f, "{label}.")?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = ProtoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// Shared compression state for one message being written.
///
/// Tracks, for every name suffix already emitted, its offset in the
/// message. Subsequent names reuse the longest matching suffix via a
/// compression pointer. Only offsets below 0x3FFF are eligible (the
/// pointer encoding has 14 bits).
#[derive(Debug, Default)]
pub struct NameCompressor {
    offsets: HashMap<Vec<u8>, u16>,
}

impl NameCompressor {
    /// Creates an empty compressor for a new message.
    pub fn new() -> Self {
        Self::default()
    }

    fn encode_name(&mut self, name: &Name, w: &mut WireWriter) -> ProtoResult<()> {
        let labels = name.labels();
        for (i, label) in labels.iter().enumerate() {
            let suffix_key = suffix_key(&labels[i..]);
            if let Some(&offset) = self.offsets.get(&suffix_key) {
                w.write_u16(0xc000 | offset)?;
                return Ok(());
            }
            let here = w.position();
            if here <= 0x3fff {
                self.offsets.insert(suffix_key, here as u16);
            }
            w.write_u8(label.len() as u8)?;
            w.write_bytes(label.as_bytes())?;
        }
        w.write_u8(0)
    }
}

fn suffix_key(labels: &[Label]) -> Vec<u8> {
    let mut key = Vec::new();
    for label in labels {
        key.push(label.len() as u8);
        key.extend(label.to_lower());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(name("example.nl").to_string(), "example.nl.");
        assert_eq!(name("example.nl.").to_string(), "example.nl.");
        assert_eq!(name(".").to_string(), ".");
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn parse_rejects_bad_syntax() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse("..").is_err());
        assert!(Name::parse(&"a".repeat(64)).is_err());
    }

    #[test]
    fn parse_escapes() {
        let n = Name::parse(r"a\.b.example").unwrap();
        assert_eq!(n.label_count(), 2);
        assert_eq!(n.labels()[0].as_bytes(), b"a.b");
        let n = Name::parse(r"a\046b.example").unwrap();
        assert_eq!(n.labels()[0].as_bytes(), b"a.b");
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let a = name("Example.NL");
        let b = name("eXAMPLE.nl");
        assert_eq!(a, b);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn map_keyed_by_name_is_probed_with_borrowed_labels() {
        let mut map = HashMap::new();
        map.insert(name("Probe.Example.NL"), 7);
        let q = name("x.pRoBe.example.nl");
        assert_eq!(map.get(&q.labels()[1..]), Some(&7), "suffix, any case");
        assert_eq!(map.get(q.labels()), None);
        assert_eq!(map.get(&q.labels()[2..]), None, "ancestors are distinct keys");
    }

    #[test]
    fn subdomain_relations() {
        assert!(name("www.example.nl").is_subdomain_of(&name("example.nl")));
        assert!(name("example.nl").is_subdomain_of(&name("example.nl")));
        assert!(name("example.nl").is_subdomain_of(&Name::root()));
        assert!(!name("example.nl").is_subdomain_of(&name("www.example.nl")));
        assert!(!name("badexample.nl").is_subdomain_of(&name("example.nl")));
    }

    #[test]
    fn parent_and_prepend() {
        let n = name("example.nl");
        assert_eq!(n.parent().unwrap(), name("nl"));
        assert_eq!(name("nl").parent().unwrap(), Name::root());
        assert!(Name::root().parent().is_none());
        assert_eq!(n.prepend("www").unwrap(), name("www.example.nl"));
    }

    #[test]
    fn wire_round_trip_uncompressed() {
        let n = name("www.example.nl");
        let mut w = WireWriter::new();
        n.encode_uncompressed(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), n.wire_len());
        let mut r = WireReader::new(&bytes);
        assert_eq!(Name::decode(&mut r).unwrap(), n);
    }

    #[test]
    fn compression_reuses_suffixes() {
        let mut w = WireWriter::new();
        let mut c = NameCompressor::new();
        name("ns1.example.nl").encode(&mut w, &mut c).unwrap();
        let first_len = w.position();
        name("ns2.example.nl").encode(&mut w, &mut c).unwrap();
        let bytes = w.into_bytes();
        // second name should be label "ns2" (4 bytes) + pointer (2 bytes)
        assert_eq!(bytes.len(), first_len + 4 + 2);

        let mut r = WireReader::new(&bytes);
        assert_eq!(Name::decode(&mut r).unwrap(), name("ns1.example.nl"));
        assert_eq!(Name::decode(&mut r).unwrap(), name("ns2.example.nl"));
        assert!(r.is_empty());
    }

    #[test]
    fn compression_full_name_pointer() {
        let mut w = WireWriter::new();
        let mut c = NameCompressor::new();
        name("example.nl").encode(&mut w, &mut c).unwrap();
        name("EXAMPLE.nl").encode(&mut w, &mut c).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let a = Name::decode(&mut r).unwrap();
        let b = Name::decode(&mut r).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_pointer_loop() {
        // pointer at offset 0 pointing to itself
        let bytes = [0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(Name::decode(&mut r).is_err());
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        let bytes = [0xc0, 0x04, 0, 0, 0];
        let mut r = WireReader::new(&bytes);
        assert!(Name::decode(&mut r).is_err());
    }

    #[test]
    fn decode_rejects_bad_label_type() {
        let bytes = [0x40, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(Name::decode(&mut r), Err(ProtoError::BadLabelType(_))));
    }

    #[test]
    fn decode_rejects_overlong_name() {
        // 5 labels of 63 bytes = 320 octets wire > 255
        let mut bytes = Vec::new();
        for _ in 0..5 {
            bytes.push(63);
            bytes.extend(std::iter::repeat_n(b'a', 63));
        }
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        assert!(matches!(Name::decode(&mut r), Err(ProtoError::NameTooLong(_))));
    }

    #[test]
    fn root_round_trip() {
        let mut w = WireWriter::new();
        Name::root().encode_uncompressed(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0]);
        let mut r = WireReader::new(&bytes);
        assert!(Name::decode(&mut r).unwrap().is_root());
    }
}
