//! The versioned binary trace format — our miniature DITL capture file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "DWTRACE2"                      8 bytes
//! version u16                             TRACE_FORMAT_VERSION
//! auths   u16 count, then per auth:
//!           u16 id, u8 len, len bytes     (UTF-8 site/auth code)
//! blocks  repeated until EOF:
//!           0x01 + 48-byte event          one TraceEvent
//!           0x02 + u64 events + u64 overflow   footer (must be last)
//! ```
//!
//! The auth table is written up front so readers can map `auth_id`
//! without scanning; the footer carries drop accounting so a trace
//! that lost events to ring overflow says so in-band. A trace without
//! a footer (writer crashed) is rejected rather than silently short.
//!
//! Version 2 (journey ids + wire DNS ids, 48-byte events) is the only
//! format read or written; a `DWTRACE1` file is rejected as bad magic.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use detrand::splitmix64;

use crate::event::TraceEvent;

pub const TRACE_FORMAT_VERSION: u16 = 2;
pub const EVENT_BYTES: usize = 48;

const MAGIC: &[u8; 8] = b"DWTRACE2";
const TAG_EVENT: u8 = 0x01;
const TAG_FOOTER: u8 = 0x02;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Streaming writer; owned by the collector's drain thread.
pub struct TraceWriter<W: Write> {
    out: W,
    events: u64,
}

impl TraceWriter<BufWriter<File>> {
    pub fn create(path: &Path, auths: &[String]) -> io::Result<Self> {
        TraceWriter::new(BufWriter::new(File::create(path)?), auths)
    }
}

impl<W: Write> TraceWriter<W> {
    pub fn new(mut out: W, auths: &[String]) -> io::Result<Self> {
        out.write_all(MAGIC)?;
        out.write_all(&TRACE_FORMAT_VERSION.to_le_bytes())?;
        let count = u16::try_from(auths.len()).map_err(|_| bad("too many auths"))?;
        out.write_all(&count.to_le_bytes())?;
        for (id, code) in auths.iter().enumerate() {
            let bytes = code.as_bytes();
            let len = u8::try_from(bytes.len()).map_err(|_| bad("auth code too long"))?;
            out.write_all(&(id as u16).to_le_bytes())?;
            out.write_all(&[len])?;
            out.write_all(bytes)?;
        }
        Ok(TraceWriter { out, events: 0 })
    }

    pub fn write_event(&mut self, ev: &TraceEvent) -> io::Result<()> {
        let mut buf = [0u8; 1 + EVENT_BYTES];
        buf[0] = TAG_EVENT;
        for (i, w) in ev.encode_words().iter().enumerate() {
            buf[1 + i * 8..1 + (i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        self.out.write_all(&buf)?;
        self.events += 1;
        Ok(())
    }

    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Write the footer (event count + overflow drops) and flush.
    pub fn finish(mut self, overflow: u64) -> io::Result<()> {
        self.out.write_all(&[TAG_FOOTER])?;
        self.out.write_all(&self.events.to_le_bytes())?;
        self.out.write_all(&overflow.to_le_bytes())?;
        self.out.flush()
    }
}

/// A fully loaded trace.
#[derive(Debug, Clone)]
pub struct Trace {
    pub version: u16,
    /// `auth_id` → site/auth code, in table order.
    pub auths: Vec<String>,
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (from the footer).
    pub overflow: u64,
}

impl Trace {
    pub fn read_from(path: &Path) -> io::Result<Self> {
        Trace::read(BufReader::new(File::open(path)?))
    }

    pub fn read<R: Read>(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a dnswild trace (bad magic)"));
        }
        let version = read_u16(&mut r)?;
        if version != TRACE_FORMAT_VERSION {
            return Err(bad(format!("unsupported trace version {version}")));
        }
        let count = read_u16(&mut r)?;
        let mut auths = vec![String::new(); count as usize];
        for _ in 0..count {
            let id = read_u16(&mut r)? as usize;
            let mut len = [0u8; 1];
            r.read_exact(&mut len)?;
            let mut code = vec![0u8; len[0] as usize];
            r.read_exact(&mut code)?;
            let code = String::from_utf8(code).map_err(|_| bad("auth code not UTF-8"))?;
            *auths.get_mut(id).ok_or_else(|| bad("auth id out of range"))? = code;
        }
        let mut events = Vec::new();
        let mut footer: Option<(u64, u64)> = None;
        loop {
            let mut tag = [0u8; 1];
            match r.read_exact(&mut tag) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e),
            }
            match tag[0] {
                TAG_EVENT => {
                    let mut buf = [0u8; EVENT_BYTES];
                    r.read_exact(&mut buf)?;
                    let mut words = [0u64; 6];
                    for (i, w) in words.iter_mut().enumerate() {
                        *w = u64::from_le_bytes(buf[i * 8..(i + 1) * 8].try_into().unwrap());
                    }
                    // v2 reclaimed bits 16..31 of word 4 for the dns id;
                    // the upper half stays reserved for a future format.
                    if words[4] >> 32 != 0 {
                        return Err(bad("reserved event bytes not zero"));
                    }
                    events.push(TraceEvent::decode_words(words));
                }
                TAG_FOOTER => {
                    let count = read_u64(&mut r)?;
                    let overflow = read_u64(&mut r)?;
                    footer = Some((count, overflow));
                }
                other => return Err(bad(format!("unknown block tag {other:#x}"))),
            }
        }
        let (count, overflow) = footer.ok_or_else(|| bad("trace has no footer (truncated?)"))?;
        if count != events.len() as u64 {
            return Err(bad(format!(
                "footer claims {count} events, file holds {}",
                events.len()
            )));
        }
        Ok(Trace { version, auths, events, overflow })
    }

    pub fn auth_code(&self, id: u16) -> &str {
        self.auths.get(id as usize).map(String::as_str).unwrap_or("?")
    }

    /// Order-insensitive digest over the deterministic event content.
    ///
    /// Each event contributes `splitmix64(key ^ splitmix64(occurrence))`
    /// where `key` is [`TraceEvent::content_key`] and `occurrence`
    /// numbers repeats of identical content; the contributions are
    /// folded with a wrapping sum (the chaos plane's digest idiom), so
    /// worker interleaving cannot change the result — only the multiset
    /// of event contents can.
    pub fn digest(&self) -> u64 {
        let mut seen: HashMap<u64, u64> = HashMap::new();
        let mut digest = 0u64;
        for ev in &self.events {
            let key = ev.content_key();
            let occurrence = seen.entry(key).or_insert(0);
            digest = digest.wrapping_add(splitmix64(key ^ splitmix64(*occurrence ^ 0x7472_6163)));
            *occurrence += 1;
        }
        digest
    }
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FLAG_RESPONSE};

    fn ev(i: u64, kind: EventKind) -> TraceEvent {
        let mut e = TraceEvent::new(kind);
        e.ts_ns = i * 1000;
        e.qname_hash = (i % 3) as u32;
        e.flags = FLAG_RESPONSE;
        e.rcode = 0;
        e
    }

    fn write_trace(events: &[TraceEvent], overflow: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let auths = vec!["FRA".to_string(), "GRU".to_string()];
        let mut w = TraceWriter::new(&mut buf, &auths).unwrap();
        for e in events {
            w.write_event(e).unwrap();
        }
        w.finish(overflow).unwrap();
        buf
    }

    #[test]
    fn file_round_trip() {
        let events: Vec<_> = (0..10).map(|i| ev(i, EventKind::ServerQuery)).collect();
        let bytes = write_trace(&events, 3);
        let t = Trace::read(&bytes[..]).unwrap();
        assert_eq!(t.version, TRACE_FORMAT_VERSION);
        assert_eq!(t.auths, vec!["FRA", "GRU"]);
        assert_eq!(t.events, events);
        assert_eq!(t.overflow, 3);
        assert_eq!(t.auth_code(0), "FRA");
        assert_eq!(t.auth_code(9), "?");
    }

    #[test]
    fn truncated_and_corrupt_traces_are_rejected() {
        let bytes = write_trace(&[ev(1, EventKind::ServerQuery)], 0);
        // No footer.
        assert!(Trace::read(&bytes[..bytes.len() - 17]).is_err());
        // Bad magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(Trace::read(&bad_magic[..]).is_err());
        // The retired version-1 magic is just another bad magic.
        let mut v1_magic = bytes.clone();
        v1_magic[..8].copy_from_slice(b"DWTRACE1");
        let err = Trace::read(&v1_magic[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // Future version.
        let mut bad_version = bytes.clone();
        bad_version[8] = 9;
        assert!(Trace::read(&bad_version[..]).is_err());
    }

    #[test]
    fn digest_is_order_insensitive_but_content_sensitive() {
        let mut events: Vec<_> = (0..20).map(|i| ev(i, EventKind::ServerQuery)).collect();
        let a = Trace::read(&write_trace(&events, 0)[..]).unwrap().digest();
        events.reverse();
        let b = Trace::read(&write_trace(&events, 0)[..]).unwrap().digest();
        assert_eq!(a, b, "reordering events changed the digest");
        // Timing changes do not matter…
        for e in &mut events {
            e.ts_ns += 1;
            e.latency_ns += 7;
            e.client_hash ^= 42;
        }
        assert_eq!(Trace::read(&write_trace(&events, 0)[..]).unwrap().digest(), a);
        // …nor does journey correlation (journey id and wire id): the
        // digest keys on workload content only.
        for (i, e) in events.iter_mut().enumerate() {
            e.journey = 0xdead_beef ^ (i as u64);
            e.dns_id = i as u16;
        }
        assert_eq!(Trace::read(&write_trace(&events, 0)[..]).unwrap().digest(), a);
        // …but content changes do.
        events[0].rcode = 2;
        assert_ne!(Trace::read(&write_trace(&events, 0)[..]).unwrap().digest(), a);
    }

    #[test]
    fn digest_counts_duplicate_multiplicity() {
        let e = ev(1, EventKind::ServerQuery);
        let one = Trace::read(&write_trace(&[e], 0)[..]).unwrap().digest();
        let two = Trace::read(&write_trace(&[e, e], 0)[..]).unwrap().digest();
        assert_ne!(one, two, "duplicate events must change the digest");
    }
}
