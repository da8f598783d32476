//! Domain names: presentation format, wire format, and compression.
//!
//! A [`Name`] is one contiguous buffer: the name in uncompressed wire
//! form (length octet, label, length octet, label, …) minus the
//! terminating root octet, in its original spelling. The root is the
//! empty buffer and allocates nothing; every other name is exactly one
//! allocation; labels, parents and ancestors are sub-slices of it.
//! Comparison and hashing are case-insensitive per RFC 1035 §2.3.3 and
//! run over the whole buffer at once — sound because a length octet
//! (≤ 63) is never an ASCII letter, so folding case cannot move a label
//! boundary, and two buffers that fold to the same bytes parse into the
//! same labels.
//!
//! [`NameCompressor`] (RFC 1035 §4.1.4) owns no map: it remembers where
//! each suffix was first written *literally* and checks a candidate
//! against the bytes already in the message.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::{ProtoError, ProtoResult};
use crate::wire::{WireReader, WireWriter};

/// Maximum length of a single label, in octets.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire (labels + length octets + root).
pub const MAX_NAME_LEN: usize = 255;

/// An absolute domain name (always implicitly rooted).
#[derive(Clone, Default)]
pub struct Name {
    /// Wire form without the root octet; every length octet is 1..=63
    /// and the buffer ends exactly at a label boundary.
    wire: Box<[u8]>,
}

/// Checks that `label` can be a label: 1–63 octets, arbitrary bytes.
fn check_label(label: &[u8]) -> ProtoResult<()> {
    if label.is_empty() {
        return Err(ProtoError::BadNameSyntax("empty label".into()));
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(ProtoError::LabelTooLong(label.len()));
    }
    Ok(())
}

/// Appends one label in wire form.
fn push_label(wire: &mut Vec<u8>, label: &[u8]) -> ProtoResult<()> {
    check_label(label)?;
    wire.push(label.len() as u8);
    wire.extend_from_slice(label);
    Ok(())
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name::default()
    }

    /// Seals a buffer of pushed labels, enforcing the 255-octet limit.
    fn from_wire(wire: Vec<u8>) -> ProtoResult<Self> {
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(ProtoError::NameTooLong(wire.len() + 1));
        }
        Ok(Name { wire: wire.into_boxed_slice() })
    }

    /// Builds a name from labels (first label is the leftmost).
    pub fn from_labels<I, B>(labels: I) -> ProtoResult<Self>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for label in labels {
            push_label(&mut wire, label.as_ref())?;
        }
        Name::from_wire(wire)
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
        let mut wire = Vec::with_capacity(bytes.len() + 1);
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
                    push_label(&mut wire, &current)?;
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
            push_label(&mut wire, &current)?;
        } else if bytes.last() != Some(&b'.') {
            return Err(ProtoError::BadNameSyntax(s.into()));
        }
        Name::from_wire(wire)
    }

    /// The labels (1–63 raw octets each), leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> + Clone {
        let mut rest = &self.wire[..];
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (label, after) = tail.split_at(len as usize);
            rest = after;
            Some(label)
        })
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Wire-format length in octets, including per-label length octets and
    /// the terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Returns a new name with `label` prepended, e.g. turning
    /// `example.nl` into `probe-17.example.nl`.
    pub fn prepend(&self, label: &str) -> ProtoResult<Self> {
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        push_label(&mut wire, label.as_bytes())?;
        wire.extend_from_slice(&self.wire);
        Name::from_wire(wire)
    }

    /// Rewrites the leftmost label as `label` in place, making the name
    /// `self.parent().prepend(label)` would build, without allocating —
    /// which can be done only when `label` is as long as the label it
    /// replaces. `Ok(false)` leaves the name as it was: a label of
    /// another length, or the root, which has no label to replace.
    /// Fails on the labels [`Name::prepend`] rejects.
    pub fn relabel(&mut self, label: &str) -> ProtoResult<bool> {
        let label = label.as_bytes();
        check_label(label)?;
        match self.wire.split_first_mut() {
            Some((&mut len, rest)) if len as usize == label.len() => {
                rest[..label.len()].copy_from_slice(label);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// The parent of this name (`www.example.nl` → `example.nl`).
    /// The root has no parent.
    pub fn parent(&self) -> Option<Name> {
        let (&len, rest) = self.wire.split_first()?;
        Some(Name { wire: rest[len as usize..].into() })
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`: the
    /// ancestor's buffer is a suffix of ours that starts on one of our
    /// label boundaries.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let Some(cut) = self.wire.len().checked_sub(ancestor.wire.len()) else {
            return false;
        };
        let mut pos = 0;
        while pos < cut {
            pos += 1 + self.wire[pos] as usize;
        }
        pos == cut && self.wire[cut..].eq_ignore_ascii_case(&ancestor.wire)
    }

    /// Canonical (lowercased, uncompressed, root-terminated) wire form,
    /// written into the caller's stack buffer. The key of the zone
    /// store and of every qname hash.
    pub fn canonical_wire<'b>(&self, buf: &'b mut [u8; MAX_NAME_LEN]) -> &'b [u8] {
        let n = self.wire.len();
        buf[..n].copy_from_slice(&self.wire);
        buf[..n].make_ascii_lowercase();
        buf[n] = 0;
        &buf[..=n]
    }

    /// Encodes the name without compression.
    pub fn encode_uncompressed(&self, w: &mut WireWriter) -> ProtoResult<()> {
        w.write_bytes(&self.wire)?;
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
        let mut buf = [0u8; MAX_NAME_LEN];
        Ok(Name { wire: Name::decode_wire(r, &mut buf)?.into() })
    }

    /// Decodes a name as [`Name::decode`] does, accepting and rejecting
    /// the same bytes, but only to compare it with `self`: nothing is
    /// allocated.
    pub fn decode_matches(&self, r: &mut WireReader<'_>) -> ProtoResult<bool> {
        let mut buf = [0u8; MAX_NAME_LEN];
        Ok(Name::decode_wire(r, &mut buf)?.eq_ignore_ascii_case(&self.wire))
    }

    /// Decodes a name into `wire` (the form [`Name`] keeps, without the
    /// root octet) and returns the part of it that was written.
    fn decode_wire<'b>(r: &mut WireReader<'_>, wire: &'b mut [u8; MAX_NAME_LEN]) -> ProtoResult<&'b [u8]> {
        let mut used = 0usize;
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
                    let end = used + 1 + bytes.len();
                    if end + 1 > MAX_NAME_LEN {
                        return Err(ProtoError::NameTooLong(end + 1));
                    }
                    wire[used] = len;
                    wire[used + 1..end].copy_from_slice(bytes);
                    used = end;
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
        Ok(&wire[..used])
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.canonical_wire(&mut [0; MAX_NAME_LEN]));
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            for &b in label {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{:03}", b)?,
                }
            }
            write!(f, ".")?;
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

/// Offsets a compression pointer can express (14 bits).
const POINTER_MASK: u32 = 0x3fff;
/// Suffixes remembered without touching the heap — more than a 20-NS
/// referral with glue writes.
const INLINE_TARGETS: usize = 32;

/// Shared compression state for one message being written.
///
/// Remembers, for every name suffix written *literally* so far, where it
/// starts — the first occurrence only, and only offsets a pointer can
/// express. Each entry packs an 18-bit filter tag over the offset; a
/// tag match is verified against the bytes already in the message
/// (case-insensitively, following pointers), so a later name reuses the
/// longest suffix the message already spells.
#[derive(Debug, Default)]
pub struct NameCompressor {
    /// `tag | offset` per remembered suffix, in message order.
    inline: [u32; INLINE_TARGETS],
    used: usize,
    /// Entries past the inline table (long messages only).
    spill: Vec<u32>,
}

/// Filter tag of the suffix `len` octets long whose first label is
/// `label`: FNV-1a over the lower-cased label, seeded with the length.
fn suffix_tag(label: &[u8], len: usize) -> u32 {
    let mut h = 0x811c_9dc5 ^ len as u32;
    for b in label {
        h = (h ^ b.to_ascii_lowercase() as u32).wrapping_mul(0x0100_0193);
    }
    h & !POINTER_MASK
}

/// Whether the name starting at `pos` of `msg` spells exactly `suffix`
/// (flat wire form, no root octet), ignoring case. Pointers are
/// followed at most once per possible label.
fn spelled_at(msg: &[u8], mut pos: usize, mut suffix: &[u8]) -> bool {
    let mut hops = 0;
    loop {
        let Some(&len) = msg.get(pos) else { return false };
        if len & 0xc0 == 0xc0 {
            let Some(&lo) = msg.get(pos + 1) else { return false };
            hops += 1;
            if hops > MAX_NAME_LEN / 2 {
                return false;
            }
            pos = ((len & 0x3f) as usize) << 8 | lo as usize;
            continue;
        }
        if len == 0 {
            return suffix.is_empty();
        }
        if suffix.first() != Some(&len) {
            return false;
        }
        let end = pos + 1 + len as usize;
        match msg.get(pos + 1..end) {
            Some(label) if label.eq_ignore_ascii_case(&suffix[1..=len as usize]) => {}
            _ => return false,
        }
        (pos, suffix) = (end, &suffix[1 + len as usize..]);
    }
}

impl NameCompressor {
    /// Creates an empty compressor for a new message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the message already spells `suffix`, if it does.
    fn find(&self, tag: u32, suffix: &[u8], msg: &[u8]) -> Option<u16> {
        self.inline[..self.used]
            .iter()
            .chain(&self.spill)
            .filter(|&&e| e & !POINTER_MASK == tag)
            .map(|&e| (e & POINTER_MASK) as u16)
            .find(|&at| spelled_at(msg, at as usize, suffix))
    }

    fn encode_name(&mut self, name: &Name, w: &mut WireWriter) -> ProtoResult<()> {
        let mut suffix: &[u8] = &name.wire;
        while let Some((&len, tail)) = suffix.split_first() {
            let (label, rest) = tail.split_at(len as usize);
            let tag = suffix_tag(label, suffix.len());
            if let Some(offset) = self.find(tag, suffix, w.as_slice()) {
                return w.write_u16(0xc000 | offset);
            }
            let here = w.position();
            w.write_bytes(&suffix[..1 + label.len()])?;
            if here <= POINTER_MASK as usize {
                match self.inline.get_mut(self.used) {
                    Some(slot) => (*slot, self.used) = (tag | here as u32, self.used + 1),
                    None => self.spill.push(tag | here as u32),
                }
            }
            suffix = rest;
        }
        w.write_u8(0)
    }

    /// Forgets every suffix at or past `pos` — the message was cut back
    /// to there. Entries are in ascending offset order.
    pub(crate) fn forget_from(&mut self, pos: usize) {
        let before = |e: &u32| ((e & POINTER_MASK) as usize) < pos;
        self.used = self.inline[..self.used].partition_point(before);
        self.spill.truncate(self.spill.partition_point(before));
    }
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
        assert_eq!(n.labels().next(), Some(&b"a.b"[..]));
        let n = Name::parse(r"a\046b.example").unwrap();
        assert_eq!(n.labels().collect::<Vec<_>>(), [&b"a.b"[..], b"example"]);
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

    /// The contract the zone store relies on: the canonical wire form
    /// is one key per name whatever its spelling, and an ancestor's key
    /// is a sub-slice of it — a map is probed without building a `Name`.
    #[test]
    fn canonical_wire_suffixes_are_the_keys_of_the_ancestors() {
        let mut map = std::collections::HashMap::new();
        let mut buf = [0; MAX_NAME_LEN];
        map.insert(name("Probe.Example.NL").canonical_wire(&mut buf).to_vec(), 7);
        let q = name("x.pRoBe.example.nl");
        let key = q.canonical_wire(&mut buf);
        assert_eq!(key, b"\x01x\x05probe\x07example\x02nl\0");
        assert_eq!(map.get(&key[2..]), Some(&7), "suffix, any case");
        assert_eq!(map.get(key), None);
        assert_eq!(map.get(&key[8..]), None, "ancestors are distinct keys");
        assert_eq!(Name::root().canonical_wire(&mut buf), [0]);
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

    /// `relabel` builds what `parent` then `prepend` build, in place and
    /// only at the old label's length, and rejects what `prepend` does.
    #[test]
    fn relabel_rewrites_the_first_label_in_place() {
        let mut n = name("c0-t17.example.nl");
        assert!(n.relabel("c0-t18").unwrap());
        assert_eq!(n, n.parent().unwrap().prepend("c0-t18").unwrap());
        assert_eq!(n.to_string(), "c0-t18.example.nl.");
        assert!(!n.relabel("c0-t100").unwrap(), "another length does not fit");
        assert_eq!(n, name("c0-t18.example.nl"), "and leaves the name alone");
        assert!(!Name::root().relabel("a").unwrap(), "the root has no label");
        for bad in ["", &"a".repeat(64)] {
            assert!(n.relabel(bad).is_err() && n.prepend(bad).is_err(), "{bad:?}");
        }
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
