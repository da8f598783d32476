//! Property-based tests of the zone store: lookup invariants and wildcard
//! semantics under randomized zone contents — plus the differential check of `Zone::lookup` and the answer engine
//! against a naive RFC 1034 §4.3.2 oracle (bottom of the file).
//!
//! Ported from `proptest` to the in-tree `detrand::qc` harness with
//! higher case counts (512 vs proptest's default 256).

use detrand::qc::{property, Gen};

use std::cell::RefCell;
use std::collections::BTreeMap;

use dnswild::proto::rdata::{Aaaa, Cname, Ns, Soa, Txt, A};
use dnswild::proto::{Message, Name, RData, RType, Rcode, Record};
use dnswild::server::{AnswerEngine, TransportKind};
use dnswild::zone::{Lookup, RrSet, Zone};

const CASES: u32 = 512;

/// A hostname-ish label matching the old proptest regex
/// `[a-z][a-z0-9-]{0,8}` with no trailing dash.
fn gen_label(g: &mut Gen) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    loop {
        let mut s = g.string_of(FIRST, 1..2);
        s.push_str(&g.string_of(REST, 0..9));
        if !s.ends_with('-') {
            return s;
        }
    }
}

/// Relative names under the origin: 1–3 labels.
fn gen_relative_name(g: &mut Gen) -> Vec<String> {
    g.vec(1..4, gen_label)
}

fn origin() -> Name {
    Name::parse("prop.test").unwrap()
}

fn to_name(rel: &[String]) -> Name {
    let mut name = origin();
    for l in rel.iter().rev() {
        name = name.prepend(l).unwrap();
    }
    name
}

fn base_zone() -> Zone {
    let mut z = Zone::new(origin());
    z.insert(Record::new(
        origin(),
        3600,
        RData::Soa(Soa::new(
            Name::parse("ns1.prop.test").unwrap(),
            Name::parse("hostmaster.prop.test").unwrap(),
            1,
            2,
            3,
            4,
            300,
        )),
    ));
    z.insert(Record::new(
        origin(),
        3600,
        RData::Ns(Ns::new(Name::parse("ns1.prop.test").unwrap())),
    ));
    z
}

fn rdata_for(kind: u8, payload: u8) -> RData {
    match kind % 3 {
        0 => RData::A(A::new(std::net::Ipv4Addr::new(192, 0, 2, payload))),
        1 => RData::Txt(Txt::from_string(&format!("v{payload}")).unwrap()),
        _ => RData::Ns(Ns::new(Name::parse(&format!("ns{payload}.prop.test")).unwrap())),
    }
}

/// Anything inserted is found again by an exact-match lookup
/// (unless shadowed by a delegation cut above it, which base_zone
/// avoids by only inserting NS at the apex or as the record itself).
#[test]
fn inserted_records_are_found() {
    property("inserted_records_are_found").cases(CASES).check(|g| {
        let entries = g.vec(1..12, |g| (gen_relative_name(g), g.u32_in(0..3) as u8, g.u8()));
        let mut zone = base_zone();
        let mut inserted: Vec<(Name, RType)> = Vec::new();
        for (rel, kind, payload) in &entries {
            // NS records below the apex create delegation cuts that
            // legitimately shadow deeper names; keep this property
            // focused by only inserting A/TXT below the apex.
            let kind = if *kind % 3 == 2 { 0 } else { *kind };
            let name = to_name(rel);
            let rdata = rdata_for(kind, *payload);
            let rtype = rdata.rtype();
            zone.insert(Record::new(name.clone(), 60, rdata));
            inserted.push((name, rtype));
        }
        for (name, rtype) in inserted {
            match zone.lookup(&name, rtype) {
                Lookup::Answer(answer) => {
                    assert!(answer.records().all(|(owner, _)| owner == &name));
                    assert!(answer.records().any(|(_, r)| r.rtype() == rtype));
                }
                other => panic!("lost {name} {rtype}: {other:?}"),
            }
        }
    });
}

/// Lookup never panics, whatever name/type is asked.
#[test]
fn lookup_never_panics() {
    property("lookup_never_panics").cases(CASES).check(|g| {
        let entries = g.vec(0..8, |g| (gen_relative_name(g), g.u32_in(0..3) as u8, g.u8()));
        let queries = g.vec(1..20, |g| (gen_relative_name(g), g.u16()));
        let mut zone = base_zone();
        for (rel, kind, payload) in &entries {
            zone.insert(Record::new(to_name(rel), 60, rdata_for(*kind, *payload)));
        }
        for (rel, qtype) in &queries {
            let _ = zone.lookup(&to_name(rel), RType::from_u16(*qtype));
        }
    });
}

/// NXDOMAIN is honest: no RRset exists at that name.
#[test]
fn nxdomain_means_absent() {
    property("nxdomain_means_absent").cases(CASES).check(|g| {
        let entries = g.vec(1..10, |g| (gen_relative_name(g), g.u8()));
        let query = gen_relative_name(g);
        let mut zone = base_zone();
        for (rel, payload) in &entries {
            zone.insert(Record::new(to_name(rel), 60, rdata_for(0, *payload)));
        }
        let qname = to_name(&query);
        if let Lookup::NxDomain { .. } = zone.lookup(&qname, RType::A) {
            for t in [RType::A, RType::Txt, RType::Ns, RType::Cname] {
                assert!(zone.get(&qname, t).is_none());
            }
        }
    });
}

/// Wildcard answers are synthesized at the query name and only for
/// names that do not exist explicitly.
#[test]
fn wildcard_synthesis_owner_is_qname() {
    property("wildcard_synthesis_owner_is_qname").cases(CASES).check(|g| {
        let sub = gen_label(g);
        let q = gen_label(g);
        let mut zone = base_zone();
        let wild_parent = to_name(std::slice::from_ref(&sub));
        zone.insert(Record::new(
            wild_parent.prepend("*").unwrap(),
            5,
            RData::Txt(Txt::from_string("wild").unwrap()),
        ));
        let qname = wild_parent.prepend(&q).unwrap();
        match zone.lookup(&qname, RType::Txt) {
            Lookup::Answer(answer) if q != "*" => {
                assert_eq!(answer.records().next().unwrap().0, &qname);
            }
            Lookup::Answer(_) => {} // literal "*" query matches the record itself
            other => panic!("wildcard failed for {qname}: {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------
// The RFC 1034 §4.3.2 oracle (ROADMAP needle 3b): the lookup algorithm
// written as naively as the RFC reads — linear scans over `Zone::iter()`
// and nothing else of the store, names built freely, "exists" defined
// from first principles (owns records or has a descendant that does).
// `Zone::lookup` and the engine are checked against it, never the
// other way round; it must pass at the commit before any lookup change.
// ---------------------------------------------------------------------

/// A lookup result with everything owned: what the oracle builds, and
/// what the store's borrowed [`Lookup`] is copied into for comparison
/// (wildcard answers under the owner they are served as).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict {
    Answer(Vec<Record>),
    NoData { soa: Record },
    NxDomain { soa: Record },
    Referral { ns: Vec<Record>, glue: Vec<Record> },
    OutOfZone,
}

fn owned(lookup: Lookup<'_>) -> Verdict {
    match lookup {
        Lookup::Answer(answer) => {
            let served = |(owner, r): (&Name, &Record)| {
                Record::with_class(owner.clone(), r.class, r.ttl, r.rdata.clone())
            };
            Verdict::Answer(answer.records().map(served).collect())
        }
        Lookup::NoData { soa } => Verdict::NoData { soa: soa.clone() },
        Lookup::NxDomain { soa } => Verdict::NxDomain { soa: soa.clone() },
        Lookup::Referral { ns, glue } => {
            Verdict::Referral { ns: ns.records().to_vec(), glue: glue.records().cloned().collect() }
        }
        Lookup::OutOfZone => Verdict::OutOfZone,
    }
}

fn oracle(zone: &Zone, qname: &Name, qtype: RType) -> Verdict {
    let sets: Vec<&RrSet> = zone.iter().collect();
    let origin = zone.origin();
    let rrset =
        |name: &Name, t: RType| sets.iter().copied().find(|s| s.name() == name && s.rtype() == t);
    let exists = |name: &Name| sets.iter().any(|s| s.name().is_subdomain_of(name));

    // Step 2: is this our zone at all (and is it servable)?
    if !qname.is_subdomain_of(origin) {
        return Verdict::OutOfZone;
    }
    let Some(soa) = rrset(origin, RType::Soa) else {
        return Verdict::OutOfZone;
    };
    let soa = soa.records()[0].clone();

    // Step 3b: matching down label by label, a node with NS records
    // below the apex is a cut — refer, with whatever glue we hold.
    let mut ancestors = Vec::new();
    let mut n = qname.clone();
    while &n != origin {
        ancestors.push(n.clone());
        n = n.parent().unwrap();
    }
    for cut in ancestors.iter().rev() {
        if let Some(ns) = rrset(cut, RType::Ns) {
            let mut glue = Vec::new();
            for rdata in ns.rdatas() {
                let RData::Ns(target) = rdata else { unreachable!("NS set holds NS") };
                for t in [RType::A, RType::Aaaa] {
                    if let Some(set) = rrset(target.name(), t) {
                        glue.extend(set.records().iter().cloned());
                    }
                }
            }
            return Verdict::Referral { ns: ns.records().to_vec(), glue };
        }
    }

    // Step 3a: the whole qname matched; or 3c: it did not, so look for
    // `*` under the closest encloser and answer as if it were the qname.
    let (owner, synthesized) = if exists(qname) {
        (qname.clone(), false)
    } else {
        let mut encloser = qname.parent().unwrap();
        while !exists(&encloser) {
            encloser = encloser.parent().unwrap();
        }
        let wild = encloser.prepend("*").unwrap();
        if !exists(&wild) {
            return Verdict::NxDomain { soa };
        }
        (wild, true)
    };
    let copy = |set: &RrSet| -> Vec<Record> {
        set.records()
            .iter()
            .map(|r| match synthesized {
                true => Record::with_class(qname.clone(), r.class, r.ttl, r.rdata.clone()),
                false => r.clone(),
            })
            .collect()
    };
    if let Some(set) = rrset(&owner, qtype) {
        return Verdict::Answer(copy(set));
    }
    let Some(cname) = rrset(&owner, RType::Cname) else {
        return Verdict::NoData { soa };
    };

    // CNAME: restart at the canonical name, inside this zone only, for
    // at most eight hops (loops are legal zone data).
    let mut chain = copy(cname);
    for _ in 0..8 {
        let RData::Cname(target) = chain.last().unwrap().rdata.clone() else { break };
        if let Some(set) = rrset(target.name(), qtype) {
            chain.extend(set.records().iter().cloned());
            break;
        }
        match rrset(target.name(), RType::Cname) {
            Some(next) => chain.extend(next.records().iter().cloned()),
            None => break,
        }
    }
    Verdict::Answer(chain)
}

/// Labels drawn from an alphabet this small make cuts, empty
/// non-terminals, wildcards and CNAME loops collide in most zones; the
/// upper-case `A` keeps case-insensitive matching honest.
const ORACLE_LABELS: &[&str] = &["a", "b", "c", "*", "A"];
const ORACLE_QTYPES: &[RType] =
    &[RType::A, RType::Aaaa, RType::Txt, RType::Ns, RType::Cname, RType::Soa, RType::Mx];

fn gen_oracle_name(g: &mut Gen, max_labels: usize) -> Name {
    // One name in sixteen lies outside the zone.
    let mut name = if g.u32_in(0..16) == 0 { Name::parse("other.test").unwrap() } else { origin() };
    for _ in 0..g.usize_in(0..max_labels + 1) {
        let label = g.choose(ORACLE_LABELS);
        name = name.prepend(label).unwrap();
    }
    name
}

/// A small random zone: usually with an SOA, up to 14 records of five
/// types at names of up to three labels, NS and CNAME targets drawn
/// from the same name space (so glue and chains resolve in-zone).
fn gen_oracle_zone(g: &mut Gen) -> Zone {
    let mut zone = if g.u32_in(0..32) == 0 { Zone::new(origin()) } else { base_zone() };
    for _ in 0..g.usize_in(0..15) {
        let mut owner = origin();
        for _ in 0..g.usize_in(0..4) {
            let label = g.choose(ORACLE_LABELS);
            owner = owner.prepend(label).unwrap();
        }
        let rdata = match g.u32_in(0..6) {
            0 => RData::A(A::new(std::net::Ipv4Addr::new(192, 0, 2, g.u8()))),
            1 => RData::Aaaa(Aaaa::new(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1))),
            2 => RData::Txt(Txt::from_string(&format!("v{}", g.u8())).unwrap()),
            3 => RData::Ns(Ns::new(gen_oracle_name(g, 2))),
            _ => RData::Cname(Cname::new(gen_oracle_name(g, 2))),
        };
        zone.insert(Record::new(owner, 60 + g.u32_in(0..4), rdata));
    }
    zone
}

/// Which §4.3.2 branch a verdict took, for the coverage floor below.
fn branch(zone: &Zone, qname: &Name, verdict: &Verdict) -> &'static str {
    let exact = zone.iter().any(|s| s.name().is_subdomain_of(qname));
    match verdict {
        Verdict::Answer(recs) => match (exact, recs[0].rtype() == RType::Cname && recs.len() > 1) {
            (true, false) => "exact",
            (true, true) => "exact-cname",
            (false, false) => "wildcard",
            (false, true) => "wildcard-cname",
        },
        Verdict::NoData { .. } if exact => "nodata",
        Verdict::NoData { .. } => "wildcard-nodata",
        Verdict::NxDomain { .. } => "nxdomain",
        Verdict::Referral { .. } => "referral",
        Verdict::OutOfZone => "out-of-zone",
    }
}

const ORACLE_BRANCHES: &[&str] = &[
    "exact",
    "exact-cname",
    "wildcard",
    "wildcard-cname",
    "nodata",
    "wildcard-nodata",
    "nxdomain",
    "referral",
    "out-of-zone",
];

/// Every branch must have been exercised often enough for agreement on
/// it to mean something.
fn assert_branch_coverage(seen: &BTreeMap<&'static str, u32>) {
    if std::env::var_os("DETRAND_REPLAY").is_some() {
        return; // a single replayed case covers what it covers
    }
    for b in ORACLE_BRANCHES {
        let n = seen.get(b).copied().unwrap_or(0);
        assert!(n >= 25, "branch {b} reached only {n} times: {seen:?}");
    }
}

/// `Zone::lookup` returns what the oracle returns — same variant, same
/// records in the same order, same spelling of every name (`Name`
/// equality ignores case, so the `Debug` forms are compared too).
#[test]
fn lookup_agrees_with_rfc1034_oracle() {
    let seen = RefCell::new(BTreeMap::new());
    property("lookup_agrees_with_rfc1034_oracle").cases(2048).check(|g| {
        let zone = gen_oracle_zone(g);
        for _ in 0..6 {
            let qname = gen_oracle_name(g, 4);
            let qtype = *g.choose(ORACLE_QTYPES);
            let want = oracle(&zone, &qname, qtype);
            let got = owned(zone.lookup(&qname, qtype));
            assert_eq!(got, want, "{qname} {qtype} in\n{zone:?}");
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "spelling of {qname} {qtype}");
            *seen.borrow_mut().entry(branch(&zone, &qname, &want)).or_insert(0) += 1;
        }
    });
    assert_branch_coverage(&seen.into_inner());
}

/// The CNAME cut-off, pinned: a two-name loop yields the first CNAME
/// plus exactly eight chased hops, from both implementations.
#[test]
fn cname_loop_is_cut_after_eight_hops() {
    let mut zone = base_zone();
    let (a, b) = (to_name(&["a".into()]), to_name(&["b".into()]));
    zone.insert(Record::new(a.clone(), 60, RData::Cname(Cname::new(b.clone()))));
    zone.insert(Record::new(b, 60, RData::Cname(Cname::new(a.clone()))));
    let Verdict::Answer(chain) = owned(zone.lookup(&a, RType::A)) else {
        panic!("expected a chain")
    };
    assert_eq!(chain.len(), 9);
    assert_eq!(Verdict::Answer(chain), oracle(&zone, &a, RType::A));
}

/// The engine's response carries the oracle's verdict: rcode, AA and
/// the answer / authority sections (plus referral glue ahead of the
/// echoed OPT) are what §4.3.2 prescribes for it.
#[test]
fn engine_response_agrees_with_rfc1034_oracle() {
    let seen = RefCell::new(BTreeMap::new());
    property("engine_response_agrees_with_rfc1034_oracle").cases(2048).check(|g| {
        let zone = gen_oracle_zone(g);
        let mut engine = AnswerEngine::new("FRA", vec![zone.clone()]);
        let mut buf = Vec::new();
        for id in 0..4 {
            let qname = gen_oracle_name(g, 4);
            let qtype = *g.choose(ORACLE_QTYPES);
            let query = Message::iterative_query(id, qname.clone(), qtype).encode().unwrap();
            assert!(engine.handle_packet(&query, TransportKind::Udp, &mut buf).response);
            let resp = Message::decode(&buf).unwrap();
            assert!(!resp.header.truncated, "tiny zones never truncate");
            let want = oracle(&zone, &qname, qtype);
            let (rcode, aa, answers, authorities, glue) = match want.clone() {
                Verdict::Answer(records) => (Rcode::NoError, true, records, vec![], vec![]),
                Verdict::NoData { soa } => (Rcode::NoError, true, vec![], vec![soa], vec![]),
                Verdict::NxDomain { soa } => (Rcode::NxDomain, true, vec![], vec![soa], vec![]),
                Verdict::Referral { ns, glue } => (Rcode::NoError, false, vec![], ns, glue),
                Verdict::OutOfZone => (Rcode::Refused, false, vec![], vec![], vec![]),
            };
            let ctx = format!("{qname} {qtype} in\n{zone:?}");
            assert_eq!(resp.rcode(), rcode, "{ctx}");
            assert_eq!(resp.header.authoritative, aa, "{ctx}");
            assert_eq!(resp.answers, answers, "{ctx}");
            assert_eq!(resp.authorities, authorities, "{ctx}");
            assert_eq!(&resp.additionals[..glue.len()], &glue[..], "{ctx}");
            *seen.borrow_mut().entry(branch(&zone, &qname, &want)).or_insert(0) += 1;
        }
        let stats = engine.stats();
        assert_eq!((stats.queries, stats.question_outcomes()), (4, 4));
    });
    assert_branch_coverage(&seen.into_inner());
}
