//! The golden wire corpus: (query bytes, transport, engine preset) →
//! response bytes, generated at the commit *before* the wire path was
//! rebuilt (flat `Name`, look-back compressor, direct response writer)
//! and pinned here — the byte-identity proof that rewrite needed and
//! that no later change to the encoder or the engine may lose.
//!
//! `tests/data/wire_golden.txt` holds one case per line,
//! `id <TAB> query-hex <TAB> response-hex` (`-` = no query / no
//! response). The test rebuilds every case from the definitions below
//! and requires (a) the same ids in the same order, (b) the same query
//! bytes from today's encoder, and (c) the same response bytes when the
//! *stored* query is replayed. Regenerate deliberately with
//!
//! ```text
//! cargo test --test wire_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use dnswild_proto::rdata::{Cname, Mx, Ns, Ptr, Soa, Txt, A};
use dnswild_proto::{Class, Edns, Message, Name, Opcode, RData, RType, Record};
use dnswild_server::{AnswerEngine, RateLimitPolicy, RrlScope, TransportKind, TruncationPolicy};
use dnswild_zone::presets::{attack_test_domain_zone, padded_test_domain_zone, test_domain_zone};

const ORIGIN: &str = "ourtestdomain.nl";

fn name(s: &str) -> Name {
    Name::parse(s).expect("fixture name parses")
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/wire_golden.txt")
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(s, "{b:02x}").unwrap();
    }
    s
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

/// One corpus line.
struct Case {
    id: String,
    query: Option<Vec<u8>>,
    response: Option<Vec<u8>>,
}

/// The three engine presets of the serving plane (`dnswild serve`
/// plain, `--pad 900 --edns-size 512`, `--attack-zone`).
fn presets() -> Vec<(&'static str, AnswerEngine)> {
    let origin = name(ORIGIN);
    vec![
        (
            "plain",
            AnswerEngine::new("FRA", vec![test_domain_zone(&origin, 4)]),
        ),
        (
            "padded512",
            AnswerEngine::new("SYD", vec![padded_test_domain_zone(&origin, 4, 900)])
                .with_truncation_policy(TruncationPolicy::symmetric(512)),
        ),
        (
            "attack20",
            AnswerEngine::new("GRU", vec![attack_test_domain_zone(&origin, 4, 20)]),
        ),
    ]
}

/// Query names: wildcard, exact, apex, the attack zone's NXDOMAIN and
/// referral subtrees, out-of-zone, root — several in mixed case (the
/// 0x20 echo must survive, compression must ignore it).
const QNAMES: &[&str] = &[
    "p1-r1.ourtestdomain.nl",
    "Probe-417-20170412.OurTestDomain.NL",
    "a.b.c.ourtestdomain.nl",
    "ourtestdomain.nl",
    "OURTESTDOMAIN.nl",
    "ns1.ourtestdomain.nl",
    "NS3.ourtestdomain.NL",
    "hostmaster.ourtestdomain.nl",
    "void.ourtestdomain.nl",
    "wt3f9a.void.ourtestdomain.nl",
    "Deep.WT00.Void.ourtestdomain.nl",
    "lab.ourtestdomain.nl",
    "x.Lab.ourtestdomain.nl",
    "dns7.lab.ourtestdomain.nl",
    "*.ourtestdomain.nl",
    "example.com",
    "nl",
    ".",
];

const QTYPES: &[RType] = &[RType::Txt, RType::A, RType::Ns, RType::Soa, RType::Aaaa];

/// No EDNS, then the three advertised sizes that straddle the answers.
const EDNS: &[Option<u16>] = &[None, Some(512), Some(1232), Some(4096)];

fn query(id: u16, qname: &str, qtype: RType, edns: Option<u16>) -> Message {
    let mut q = Message::iterative_query(id, name(qname), qtype);
    q.additionals.clear();
    if let Some(size) = edns {
        q.add_edns(size);
    }
    q
}

fn run(engine: &mut AnswerEngine, payload: &[u8], transport: TransportKind) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    engine
        .handle_packet(payload, transport, &mut buf)
        .response
        .then_some(buf)
}

/// The engine half of the corpus: every preset × name × type × EDNS
/// size × transport, then the packets that never reach a zone.
fn engine_cases(replay: Option<&[Case]>) -> Vec<Case> {
    let mut out = Vec::new();
    let mut next = 0usize;
    // With `replay`, the stored query bytes are what the engine sees.
    let mut push = |id: String, query: Vec<u8>, f: &mut dyn FnMut(&[u8]) -> Option<Vec<u8>>| {
        let stored = replay
            .and_then(|cases| cases.get(next))
            .and_then(|c| c.query.clone());
        next += 1;
        let response = f(stored.as_deref().unwrap_or(&query));
        out.push(Case {
            id,
            query: Some(query),
            response,
        });
    };
    for (preset, mut engine) in presets() {
        let mut id = 0u16;
        for qname in QNAMES {
            for qtype in QTYPES {
                for edns in EDNS {
                    // The plain zone never truncates and the padded preset
                    // caps every advertisement at 512: two sizes say it all.
                    if preset != "attack20" && matches!(edns, Some(512) | Some(4096)) {
                        continue;
                    }
                    for (tname, transport) in
                        [("udp", TransportKind::Udp), ("tcp", TransportKind::Tcp)]
                    {
                        id = id.wrapping_add(257);
                        let size = edns.map_or("noedns".to_string(), |s| format!("edns{s}"));
                        let payload = query(id, qname, *qtype, *edns).encode().unwrap();
                        push(
                            format!("{preset}/{tname}/{size}/{qname}/{qtype}"),
                            payload,
                            &mut |p| run(&mut engine, p, transport),
                        );
                    }
                }
            }
        }
        // CHAOS identification, answered and refused.
        for (qname, qtype) in [
            ("hostname.bind", RType::Txt),
            ("ID.Server", RType::Txt),
            ("version.bind", RType::Txt),
            ("hostname.bind", RType::A),
        ] {
            for edns in [None, Some(1232)] {
                let mut q = query(0x4348, qname, qtype, edns);
                q.questions[0].qclass = Class::Ch;
                push(
                    format!("{preset}/udp/chaos/{qname}/{qtype}/{edns:?}"),
                    q.encode().unwrap(),
                    &mut |p| run(&mut engine, p, TransportKind::Udp),
                );
            }
        }
        // BADVERS: EDNS version 1.
        let mut q = query(0xbad0, "p1-r1.ourtestdomain.nl", RType::Txt, None);
        let mut edns = Edns::new(1232);
        edns.version = 1;
        q.additionals.push(edns.to_record());
        push(
            format!("{preset}/udp/badvers"),
            q.encode().unwrap(),
            &mut |p| run(&mut engine, p, TransportKind::Udp),
        );
        // Two OPT records: FORMERR with the question echoed.
        let mut q = query(0x2222, "p1-r1.ourtestdomain.nl", RType::Txt, Some(1232));
        q.add_edns(4096);
        push(
            format!("{preset}/udp/two-opt"),
            q.encode().unwrap(),
            &mut |p| run(&mut engine, p, TransportKind::Udp),
        );
        // Non-QUERY opcode: NOTIMP.
        let mut q = query(0x0505, "ourtestdomain.nl", RType::Soa, Some(1232));
        q.header.opcode = Opcode::Update;
        q.header.recursion_desired = true;
        push(
            format!("{preset}/tcp/notimp"),
            q.encode().unwrap(),
            &mut |p| run(&mut engine, p, TransportKind::Tcp),
        );
        // FORMERR salvage (readable header, broken body), a QR=1
        // packet and short garbage (both dropped), a header-only query.
        let mut broken = query(0xabcd, "p1-r1.ourtestdomain.nl", RType::Txt, Some(1232));
        broken.header.recursion_desired = true;
        let mut broken = broken.encode().unwrap();
        broken.truncate(broken.len() - 3);
        push(format!("{preset}/udp/formerr-salvage"), broken, &mut |p| {
            run(&mut engine, p, TransportKind::Udp)
        });
        let mut resp = query(0x7777, "p1-r1.ourtestdomain.nl", RType::Txt, None);
        resp.header.response = true;
        push(
            format!("{preset}/udp/qr1-dropped"),
            resp.encode().unwrap(),
            &mut |p| run(&mut engine, p, TransportKind::Udp),
        );
        push(
            format!("{preset}/udp/short-garbage"),
            vec![0xab, 0xcd, 0x00],
            &mut |p| run(&mut engine, p, TransportKind::Udp),
        );
        let mut empty = query(0x0e0e, ".", RType::A, None);
        empty.questions.clear();
        push(
            format!("{preset}/udp/no-question"),
            empty.encode().unwrap(),
            &mut |p| run(&mut engine, p, TransportKind::Udp),
        );
    }

    // RRL on the attack zone: burst 0 limits every charged response;
    // slip 1 leaks each as a minimal TC=1 reply, slip 0 drops it.
    let origin = name(ORIGIN);
    for (tag, slip, scope) in [
        ("slip", 1, RrlScope::Abusive),
        ("drop", 0, RrlScope::Abusive),
        ("slip-all", 1, RrlScope::All),
    ] {
        let policy = RateLimitPolicy {
            burst: 0,
            rate: 0,
            period: 1,
            slip,
            scope,
            ..Default::default()
        };
        let mut engine = AnswerEngine::new("GRU", vec![attack_test_domain_zone(&origin, 4, 20)])
            .with_rate_limit(policy);
        for (qname, qtype) in [
            ("wt0001.void.ourtestdomain.nl", RType::A),
            ("x.lab.ourtestdomain.nl", RType::A),
            ("Example.COM", RType::A),
            ("p1-r1.ourtestdomain.nl", RType::Txt),
        ] {
            for edns in [None, Some(1232)] {
                let payload = query(0x5151, qname, qtype, edns).encode().unwrap();
                push(
                    format!("rrl-{tag}/udp/{qname}/{qtype}/{edns:?}"),
                    payload,
                    &mut |p| {
                        let mut buf = Vec::new();
                        engine
                            .handle_packet_from(p, TransportKind::Udp, Some(9), &mut buf, None)
                            .response
                            .then_some(buf)
                    },
                );
            }
        }
    }
    out
}

fn soa(mname: &str, rname: &str) -> RData {
    RData::Soa(Soa::new(
        name(mname),
        name(rname),
        2017041201,
        7200,
        3600,
        604800,
        300,
    ))
}

/// Hand-built messages: names inside NS/CNAME/PTR/MX/SOA RDATA, mixed
/// case, suffix re-use across sections, and one message long enough to
/// cross offset 0x3FFF (where compression targets stop registering).
fn message_cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |id: &str, m: &Message| {
        out.push(Case {
            id: format!("msg/{id}"),
            query: None,
            response: Some(m.encode().unwrap()),
        })
    };

    let mut m = Message::stub_query(0x1001, name("WWW.Example.NL"), RType::A);
    m.header.response = true;
    m.header.recursion_available = true;
    m.answers.push(Record::new(
        name("www.example.nl"),
        300,
        RData::Cname(Cname::new(name("Web.Hosting.example.NL"))),
    ));
    m.answers.push(Record::new(
        name("web.hosting.EXAMPLE.nl"),
        300,
        RData::Cname(Cname::new(name("edge.cdn.example.com"))),
    ));
    m.answers.push(Record::new(
        name("EDGE.cdn.example.com"),
        60,
        RData::A(A::new([192, 0, 2, 7].into())),
    ));
    m.authorities.push(Record::new(
        name("example.com"),
        3600,
        RData::Ns(Ns::new(name("ns1.example.com"))),
    ));
    m.authorities.push(Record::new(
        name("example.com"),
        3600,
        RData::Ns(Ns::new(name("NS2.Example.Com"))),
    ));
    m.authorities.push(Record::new(
        name("example.nl"),
        3600,
        soa("ns1.example.nl", "hostmaster.example.nl"),
    ));
    m.additionals.push(Record::new(
        name("ns1.example.com"),
        3600,
        RData::A(A::new([192, 0, 2, 53].into())),
    ));
    push("cname-chain-ns-soa", &m);

    let mut m = Message::iterative_query(0x1002, name("example.nl"), RType::Mx);
    m.header.response = true;
    m.header.authoritative = true;
    for (pref, host) in [
        (10, "mail.example.nl"),
        (20, "MAIL2.example.nl"),
        (30, "mx.backup.example.org"),
        (40, "example.nl"),
    ] {
        m.answers.push(Record::new(
            name("example.nl"),
            3600,
            RData::Mx(Mx::new(pref, name(host))),
        ));
    }
    m.answers.push(Record::new(
        name("4.3.2.1.in-addr.arpa"),
        60,
        RData::Ptr(Ptr::new(name("mail.example.nl"))),
    ));
    m.answers.push(Record::new(
        name("example.nl"),
        5,
        RData::Txt(Txt::from_string("\u{7}example\u{2}nl").unwrap()),
    ));
    m.answers.push(Record::new(
        name("."),
        5,
        soa(".", "nstld.verisign-grs.com"),
    ));
    m.answers.push(Record::new(
        name("example.nl"),
        9,
        RData::Unknown {
            rtype: 99,
            data: b"\x07example\x02nl\x00".to_vec(),
        },
    ));
    push("mx-ptr-txt-root-unknown", &m);

    // One label whose *content* looks like the wire form of a name.
    let tricky = Name::from_labels([&b"\x07example\x02nl"[..], &b"nl"[..]]).unwrap();
    let mut m = Message::iterative_query(0x1003, tricky.clone(), RType::Ns);
    m.header.response = true;
    m.answers.push(Record::new(
        name("example.nl"),
        1,
        RData::Ns(Ns::new(tricky.clone())),
    ));
    m.answers.push(Record::new(
        tricky,
        1,
        RData::Ns(Ns::new(name("badexample.nl"))),
    ));
    m.answers.push(Record::new(
        name("badexample.nl"),
        1,
        RData::Ns(Ns::new(name("example.nl"))),
    ));
    push("label-boundaries", &m);

    // 700 records, > 16 KiB: several hundred distinct suffixes, every
    // third name re-used later, names in four RDATA types.
    let mut m = Message::iterative_query(0x1004, name("big.Example.NL"), RType::Txt);
    m.header.response = true;
    let host = |i: usize| {
        let case = if i.is_multiple_of(4) {
            "EXAMPLE.nl"
        } else {
            "example.NL"
        };
        name(&format!("h{}.sub{}.zone{}.{case}", i / 3, i % 7, i % 11))
    };
    for i in 0..700usize {
        let rdata = match i % 5 {
            0 => RData::Ns(Ns::new(host(i + 1))),
            1 => RData::Cname(Cname::new(host(i / 2))),
            2 => RData::Mx(Mx::new(i as u16, host(i * 7 % 700))),
            3 => soa(&format!("ns{}.example.nl", i % 3), &host(i).to_string()),
            _ => RData::Txt(Txt::from_string(&"x".repeat(40 + i % 50)).unwrap()),
        };
        let section = match i % 3 {
            0 => &mut m.answers,
            1 => &mut m.authorities,
            _ => &mut m.additionals,
        };
        section.push(Record::new(host(i), i as u32, rdata));
    }
    assert!(
        m.encode().unwrap().len() > 0x4000 + 2000,
        "must cross the pointer range"
    );
    push("long-700-records", &m);
    out
}

fn generate(replay: Option<&[Case]>) -> Vec<Case> {
    let mut cases = engine_cases(replay);
    cases.extend(message_cases());
    cases
}

fn load() -> Vec<Case> {
    let text = std::fs::read_to_string(fixture_path()).expect("tests/data/wire_golden.txt exists");
    text.lines()
        .map(|line| {
            let mut f = line.split('\t');
            let id = f.next().expect("id").to_string();
            let mut bytes = || match f.next().expect("hex field") {
                "-" => None,
                h => Some(unhex(h)),
            };
            let query = bytes();
            Case {
                id,
                query,
                response: bytes(),
            }
        })
        .collect()
}

#[test]
fn responses_match_the_golden_corpus() {
    let golden = load();
    let now = generate(Some(&golden));
    assert!(
        golden.len() >= 1400,
        "corpus looks truncated: {} cases",
        golden.len()
    );
    assert_eq!(
        now.iter().map(|c| &c.id).collect::<Vec<_>>(),
        golden.iter().map(|c| &c.id).collect::<Vec<_>>(),
        "case list drifted from the fixture — regenerate deliberately"
    );
    let mut wrong = Vec::new();
    for (n, g) in now.iter().zip(&golden) {
        if n.query != g.query {
            wrong.push(format!(
                "{}: query bytes\n  now    {}\n  golden {}",
                g.id,
                show(&n.query),
                show(&g.query)
            ));
        }
        if n.response != g.response {
            wrong.push(format!(
                "{}: response bytes\n  now    {}\n  golden {}",
                g.id,
                show(&n.response),
                show(&g.response)
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} cases differ:\n{}",
        wrong.len(),
        golden.len(),
        wrong[..wrong.len().min(5)].join("\n")
    );
}

fn show(bytes: &Option<Vec<u8>>) -> String {
    bytes.as_deref().map_or("-".to_string(), hex)
}

#[test]
#[ignore = "writes tests/data/wire_golden.txt; run only to re-pin the wire format on purpose"]
fn regenerate() {
    let mut text = String::new();
    for c in generate(None) {
        writeln!(text, "{}\t{}\t{}", c.id, show(&c.query), show(&c.response)).unwrap();
    }
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), text).unwrap();
}
