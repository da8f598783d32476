//! Property-based tests of the DNS wire format: round-trip invariants
//! and decoder robustness against arbitrary bytes.
//!
//! Ported from `proptest` to the in-tree `detrand::qc` harness with
//! higher case counts (512 vs proptest's default 256).

use detrand::qc::{property, Gen};

use dnswild_proto::rdata::{Aaaa, Cname, Mx, Ns, Ptr, Soa, Txt, A};
use dnswild_proto::{Message, Name, RData, RType, Rcode, Record};

const CASES: u32 = 512;

/// A valid DNS label: 1–19 arbitrary bytes (avoiding length-edge
/// blowups while still exercising binary labels).
fn gen_label(g: &mut Gen) -> Vec<u8> {
    g.bytes(1..20)
}

/// A valid name: up to 5 labels.
fn gen_name(g: &mut Gen) -> Name {
    let labels = g.vec(0..6, gen_label);
    Name::from_labels(labels).expect("labels within limits")
}

fn gen_rdata(g: &mut Gen) -> RData {
    match g.index(9) {
        0 => {
            let mut o = [0u8; 4];
            o.iter_mut().for_each(|b| *b = g.u8());
            RData::A(A::new(o.into()))
        }
        1 => {
            let mut o = [0u8; 16];
            o.iter_mut().for_each(|b| *b = g.u8());
            RData::Aaaa(Aaaa::new(o.into()))
        }
        2 => RData::Ns(Ns::new(gen_name(g))),
        3 => RData::Cname(Cname::new(gen_name(g))),
        4 => RData::Ptr(Ptr::new(gen_name(g))),
        5 => RData::Mx(Mx::new(g.u16(), gen_name(g))),
        6 => {
            let strings = g.vec(1..4, |g| g.bytes(0..40));
            RData::Txt(Txt::new(strings).expect("strings within limits"))
        }
        7 => RData::Soa(Soa::new(
            gen_name(g),
            gen_name(g),
            g.u32(),
            g.u32(),
            g.u32(),
            g.u32(),
            g.u32(),
        )),
        _ => RData::Unknown { rtype: 200, data: g.bytes(0..50) },
    }
}

fn gen_record(g: &mut Gen) -> Record {
    Record::new(gen_name(g), g.u32(), gen_rdata(g))
}

#[test]
fn name_round_trips() {
    property("name_round_trips").cases(CASES).check(|g| {
        let name = gen_name(g);
        let mut w = dnswild_proto::WireWriter::new();
        name.encode_uncompressed(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = dnswild_proto::WireReader::new(&bytes);
        let back = Name::decode(&mut r).unwrap();
        assert_eq!(back, name);
    });
}

#[test]
fn name_display_parse_round_trips() {
    property("name_display_parse_round_trips").cases(CASES).check(|g| {
        let name = gen_name(g);
        let text = name.to_string();
        let back = Name::parse(&text).unwrap();
        assert_eq!(back, name);
    });
}

#[test]
fn message_round_trips() {
    property("message_round_trips").cases(CASES).check(|g| {
        let id = g.u16();
        let qname = gen_name(g);
        let answers = g.vec(0..5, gen_record);
        let authorities = g.vec(0..3, gen_record);
        let mut msg = Message::iterative_query(id, qname, RType::Txt);
        msg.header.response = true;
        msg.header.rcode = Rcode::NoError;
        msg.answers = answers;
        msg.authorities = authorities;
        let bytes = msg.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.header.id, msg.header.id);
        assert_eq!(back.questions, msg.questions);
        assert_eq!(back.answers, msg.answers);
        assert_eq!(back.authorities, msg.authorities);
        assert_eq!(back.additionals, msg.additionals);
    });
}

/// The buffer-reuse encode path must be byte-identical to the
/// allocating one, whatever message it is handed and whatever stale
/// contents the recycled buffer held.
#[test]
fn encode_into_matches_into_bytes() {
    property("encode_into_matches_into_bytes").cases(CASES).check(|g| {
        let mut msg = Message::iterative_query(g.u16(), gen_name(g), RType::Txt);
        msg.header.response = g.bool();
        msg.answers = g.vec(0..5, gen_record);
        msg.authorities = g.vec(0..3, gen_record);
        let fresh = msg.encode().unwrap();
        let mut buf = g.bytes(0..64); // stale garbage a hot loop would carry
        msg.encode_into(&mut buf).unwrap();
        assert_eq!(buf, fresh);
    });
}

/// The decoder must never panic, whatever bytes arrive. (Errors are
/// fine; crashes are not — this is the server's untrusted input.)
#[test]
fn decoder_never_panics() {
    property("decoder_never_panics").cases(2 * CASES).check(|g| {
        let bytes = g.bytes(0..600);
        let _ = Message::decode(&bytes);
    });
}

/// Decoding a truncated valid message must error, not panic or
/// succeed with garbage sections.
#[test]
fn truncation_is_an_error() {
    property("truncation_is_an_error").cases(CASES).check(|g| {
        let qname = gen_name(g);
        let cut = g.usize_in(1..20);
        let msg = Message::stub_query(1, qname, RType::A);
        let bytes = msg.encode().unwrap();
        let cut = cut.min(bytes.len() - 1);
        let truncated = &bytes[..bytes.len() - cut];
        assert!(Message::decode(truncated).is_err());
    });
}

/// Compression must never grow a message beyond its uncompressed size.
#[test]
fn compression_never_grows() {
    property("compression_never_grows").cases(CASES).check(|g| {
        let names = g.vec(1..6, gen_name);
        let mut msg = Message::iterative_query(9, names[0].clone(), RType::Ns);
        for n in &names {
            msg.answers.push(Record::new(names[0].clone(), 60, RData::Ns(Ns::new(n.clone()))));
        }
        let compressed = msg.encode().unwrap().len();
        let uncompressed: usize = {
            // Rebuild with compression defeated by unique first labels is
            // complex; instead bound by the sum of wire_lens plus fixed
            // section overhead, which an uncompressed encoding would meet
            // or exceed.
            let name_bytes: usize = msg
                .answers
                .iter()
                .map(|r| {
                    r.name.wire_len()
                        + 10
                        + match &r.rdata {
                            RData::Ns(n) => n.name().wire_len(),
                            _ => 0,
                        }
                })
                .sum::<usize>()
                + msg.questions[0].qname.wire_len()
                + 4
                + 12
                + 11; // OPT record
            name_bytes
        };
        assert!(compressed <= uncompressed, "{compressed} > {uncompressed}");
    });
}

/// Structure-aware fuzzing: flip any single byte of a valid message;
/// the decoder must never panic (error or reinterpretation are both
/// acceptable outcomes).
#[test]
fn single_byte_flip_never_panics() {
    property("single_byte_flip_never_panics").cases(2 * CASES).check(|g| {
        let qname = gen_name(g);
        let answers = g.vec(0..4, |g| (gen_name(g), g.u32()));
        let flip_bits = g.u32_in(1..256) as u8;
        let mut msg = Message::iterative_query(7, qname, RType::Ns);
        msg.header.response = true;
        for (name, ttl) in answers {
            msg.answers.push(Record::new(name.clone(), ttl, RData::Ns(Ns::new(name))));
        }
        let mut bytes = msg.encode().unwrap();
        let pos = g.index(bytes.len());
        bytes[pos] ^= flip_bits;
        let _ = Message::decode(&bytes);
    });
}

/// Double-decode consistency: whatever decodes successfully must
/// re-encode and decode to the same structure (idempotent wire form).
#[test]
fn decode_encode_decode_is_stable() {
    property("decode_encode_decode_is_stable").cases(CASES).check(|g| {
        let qname = gen_name(g);
        let recs = g.vec(0..4, gen_record);
        let mut msg = Message::iterative_query(3, qname, RType::Txt);
        msg.header.response = true;
        msg.answers = recs;
        let once = Message::decode(&msg.encode().unwrap()).unwrap();
        let twice = Message::decode(&once.encode().unwrap()).unwrap();
        assert_eq!(once.answers, twice.answers);
        assert_eq!(once.questions, twice.questions);
        assert_eq!(once.header.id, twice.header.id);
    });
}

// ---------------------------------------------------------------------
// The reference compressor: the per-message `HashMap<Vec<u8>, u16>` the
// encoder used before `NameCompressor` started looking back into the
// message it writes, kept as the oracle (every suffix keyed by its
// lower-cased wire form, the first literal occurrence wins, offsets
// past 0x3FFF never registered). The encoder is checked against it,
// never the other way round.
// ---------------------------------------------------------------------

#[derive(Default)]
struct MapCompressor {
    offsets: std::collections::HashMap<Vec<u8>, u16>,
}

impl MapCompressor {
    fn name(&mut self, out: &mut Vec<u8>, name: &Name) {
        let labels: Vec<&[u8]> = name.labels().collect();
        for (i, label) in labels.iter().enumerate() {
            let mut key = Vec::new();
            for l in &labels[i..] {
                key.push(l.len() as u8);
                key.extend(l.to_ascii_lowercase());
            }
            if let Some(&at) = self.offsets.get(&key) {
                return out.extend((0xc000 | at).to_be_bytes());
            }
            if out.len() <= 0x3fff {
                self.offsets.insert(key, out.len() as u16);
            }
            out.push(label.len() as u8);
            out.extend(*label);
        }
        out.push(0);
    }
}

/// `msg` as the map-based encoder wrote it. The 12 header octets are
/// taken from `header` (they hold no names).
fn reference_encode(msg: &Message, header: &[u8]) -> Vec<u8> {
    let (mut out, mut c) = (header.to_vec(), MapCompressor::default());
    for q in &msg.questions {
        c.name(&mut out, &q.qname);
        out.extend(q.qtype.to_u16().to_be_bytes());
        out.extend(q.qclass.to_u16().to_be_bytes());
    }
    for r in msg.answers.iter().chain(&msg.authorities).chain(&msg.additionals) {
        c.name(&mut out, &r.name);
        out.extend(r.rtype().to_u16().to_be_bytes());
        out.extend(r.class.to_u16().to_be_bytes());
        out.extend(r.ttl.to_be_bytes());
        let len_at = out.len();
        out.extend([0, 0]);
        match &r.rdata {
            RData::Ns(n) => c.name(&mut out, n.name()),
            RData::Cname(n) => c.name(&mut out, n.name()),
            RData::Ptr(n) => c.name(&mut out, n.name()),
            RData::Mx(mx) => {
                out.extend(mx.preference.to_be_bytes());
                c.name(&mut out, &mx.exchange);
            }
            RData::Soa(soa) => {
                c.name(&mut out, &soa.mname);
                c.name(&mut out, &soa.rname);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    out.extend(v.to_be_bytes());
                }
            }
            RData::Txt(t) => {
                for s in t.strings() {
                    out.push(s.len() as u8);
                    out.extend(s);
                }
            }
            RData::Opt(_) => {}
            other => panic!("the generator below makes no {other:?}"),
        }
        let rdlen = (out.len() - len_at - 2) as u16;
        out[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }
    out
}

/// Names over an alphabet this small collide in most suffixes; the
/// mixed spellings keep the case-insensitive match honest. `wide` adds
/// a numbered label, so a long message holds hundreds of distinct
/// suffixes and comes back to them after the compressor's inline table
/// is full.
fn gen_colliding_name(g: &mut Gen, wide: usize) -> Name {
    const LABELS: &[&str] = &["a", "A", "b", "ns", "Ns", "example", "EXAMPLE", "nl", "NL"];
    let mut labels: Vec<String> =
        (0..g.usize_in(0..5)).map(|_| g.choose(LABELS).to_string()).collect();
    if wide > 0 && g.bool() {
        labels.insert(0, format!("h{}", g.usize_in(0..wide)));
    }
    Name::from_labels(labels).unwrap()
}

#[test]
fn compressor_matches_the_reference_map_compressor() {
    let (long, crossing) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    property("compressor_matches_the_reference_map_compressor").cases(2048).check(|g| {
        // One case in sixteen is a long message.
        let (records, wide) = match g.index(16) {
            0 => (g.usize_in(300..700), 400),
            _ => (g.usize_in(0..12), 0),
        };
        let mut msg = Message::iterative_query(g.u16(), gen_colliding_name(g, wide), RType::Ns);
        msg.header.response = true;
        for i in 0..records {
            let rdata = match g.index(7) {
                0 => RData::Ns(Ns::new(gen_colliding_name(g, wide))),
                1 => RData::Cname(Cname::new(gen_colliding_name(g, wide))),
                2 => RData::Ptr(Ptr::new(gen_colliding_name(g, wide))),
                3 => RData::Mx(Mx::new(g.u16(), gen_colliding_name(g, wide))),
                4 => RData::Soa(Soa::new(
                    gen_colliding_name(g, wide),
                    gen_colliding_name(g, wide),
                    g.u32(),
                    1,
                    2,
                    3,
                    4,
                )),
                // Filler that may look like names or pointers.
                _ => RData::Txt(Txt::new([g.bytes(0..120)]).unwrap()),
            };
            let section = match i % 3 {
                0 => &mut msg.answers,
                1 => &mut msg.authorities,
                _ => &mut msg.additionals,
            };
            section.push(Record::new(gen_colliding_name(g, wide), g.u32(), rdata));
        }
        let bytes = msg.encode().unwrap();
        assert_eq!(bytes, reference_encode(&msg, &bytes[..12]), "{records} records");
        assert_eq!(Message::decode(&bytes).unwrap().answers, msg.answers);
        if wide > 0 {
            long.set(long.get() + 1);
            crossing.set(crossing.get() + usize::from(bytes.len() > 0x3fff + 1000));
        }
    });
    if std::env::var_os("DETRAND_REPLAY").is_none() {
        let (long, crossing) = (long.get(), crossing.get());
        assert!(long >= 64 && crossing >= 32, "{long} long messages, {crossing} past 0x3FFF");
    }
}

// ---------------------------------------------------------------------
// `Name`: one flat buffer, compared and hashed in one pass.
// ---------------------------------------------------------------------

fn hash_of(name: &Name) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// `==` is label-wise, ASCII-case-insensitive equality — checked
/// against the label iterator — and equal names hash equally.
#[test]
fn name_eq_and_hash_agree_and_ignore_case() {
    property("name_eq_and_hash_agree_and_ignore_case").cases(2 * CASES).check(|g| {
        // Few, short, case-varied labels: equal pairs are common.
        let gen = |g: &mut Gen| {
            let labels = g.vec(0..4, |g| g.string_of(b"aAbB\x01\x02", 1..3));
            Name::from_labels(labels).unwrap()
        };
        let (a, b) = (gen(g), gen(g));
        let lower = |n: &Name| n.labels().map(|l| l.to_ascii_lowercase()).collect::<Vec<_>>();
        assert_eq!(a == b, lower(&a) == lower(&b), "{a} vs {b}");
        if a == b {
            assert_eq!(hash_of(&a), hash_of(&b), "{a} vs {b}");
        }
        // Flipping the case of every letter changes nothing but the spelling.
        let flip = |b: &u8| if b.is_ascii_alphabetic() { b ^ 0x20 } else { *b };
        let flipped =
            Name::from_labels(a.labels().map(|l| l.iter().map(flip).collect::<Vec<_>>())).unwrap();
        assert_eq!(a, flipped);
        assert_eq!(hash_of(&a), hash_of(&flipped));
    });
}

/// The spelling a name arrived in survives decode → encode (the 0x20
/// echo), compressed or not, and every constructor agrees with the
/// label iterator.
#[test]
fn name_constructors_round_trip_against_the_label_iterator() {
    property("name_constructors_round_trip_against_the_label_iterator").cases(CASES).check(|g| {
        let labels = g.vec(0..6, gen_label);
        let name = Name::from_labels(&labels).unwrap();
        assert_eq!(name.labels().collect::<Vec<_>>(), labels);
        assert_eq!(name.label_count(), labels.len());
        assert_eq!(name.is_root(), labels.is_empty());
        assert_eq!(name.wire_len(), labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1);
        // parse(display) and decode(encode) keep every octet.
        let parsed = Name::parse(&name.to_string()).unwrap();
        assert_eq!(parsed.labels().collect::<Vec<_>>(), labels);
        let msg = Message::iterative_query(1, name.clone(), RType::A);
        let back = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(back.questions[0].qname.labels().collect::<Vec<_>>(), labels);
        // parent / prepend walk the same labels.
        match name.parent() {
            Some(parent) => {
                assert_eq!(parent.labels().collect::<Vec<_>>(), labels[1..]);
                assert!(name.is_subdomain_of(&parent) && !parent.is_subdomain_of(&name));
            }
            None => assert!(name.is_root()),
        }
        let child = name.prepend("Probe-1").unwrap();
        assert_eq!(child.labels().next(), Some(&b"Probe-1"[..]));
        assert_eq!(child.parent().unwrap().labels().collect::<Vec<_>>(), labels);
        assert!(child.is_subdomain_of(&name) && child.is_subdomain_of(&Name::root()));
    });
}

/// `is_subdomain_of` compares labels, not bytes: neither a longer label
/// ending in the ancestor's spelling nor a label whose *content* is the
/// ancestor's wire form makes a subdomain.
#[test]
fn subdomain_test_respects_label_boundaries() {
    let example = Name::parse("example.nl").unwrap();
    assert!(Name::parse("WWW.Example.NL").unwrap().is_subdomain_of(&example));
    assert!(!Name::parse("badexample.nl").unwrap().is_subdomain_of(&example));
    let disguised = Name::from_labels([&b"\x07example\x02nl"[..]]).unwrap();
    assert_eq!(disguised.label_count(), 1);
    assert!(!disguised.is_subdomain_of(&example));
    let disguised = Name::from_labels([&b"x\x07example"[..], b"nl"]).unwrap();
    assert!(!disguised.is_subdomain_of(&example));
    assert!(disguised.is_subdomain_of(&Name::parse("nl").unwrap()));
}

/// 255 octets on the wire is the limit, from every way in.
#[test]
fn name_length_limit_is_255_octets() {
    let label = |n: usize| vec![b'x'; n];
    // 63+1 + 63+1 + 63+1 + 61+1 + root = 255.
    let longest = Name::from_labels([label(63), label(63), label(63), label(61)]).unwrap();
    assert_eq!(longest.wire_len(), 255);
    assert!(Name::from_labels([label(63), label(63), label(63), label(62)]).is_err());
    assert!(Name::from_labels([label(64)]).is_err());
    assert!(Name::from_labels([label(0)]).is_err());
    assert!(longest.prepend("y").is_err());
    assert!(Name::parse(&longest.to_string()).is_ok());
    assert!(Name::parse(&format!("y.{longest}")).is_err());
    let mut w = dnswild_proto::WireWriter::new();
    longest.encode_uncompressed(&mut w).unwrap();
    let mut bytes = w.into_bytes();
    assert_eq!(Name::decode(&mut dnswild_proto::WireReader::new(&bytes)).unwrap(), longest);
    // One more octet in the last label: 256 on the wire.
    bytes[192] = 62;
    bytes.insert(193, b'x');
    assert!(Name::decode(&mut dnswild_proto::WireReader::new(&bytes)).is_err());
}
