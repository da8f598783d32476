//! Property-based tests of the zone store: lookup invariants, wildcard
//! semantics, and serializer round trips under randomized zone contents.
//!
//! Ported from `proptest` to the in-tree `detrand::qc` harness with
//! higher case counts (512 vs proptest's default 256).

use detrand::qc::{property, Gen};

use dnswild::proto::rdata::{Ns, Soa, Txt, A};
use dnswild::proto::{Name, RData, RType, Record};
use dnswild::zone::{parse_zone, write_zone, Lookup, Zone};

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
                Lookup::Answer(records) => {
                    assert!(records.iter().all(|r| r.name == name));
                    assert!(records.iter().any(|r| r.rtype() == rtype));
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
            Lookup::Answer(records) if q != "*" => {
                assert_eq!(&records[0].name, &qname);
            }
            Lookup::Answer(_) => {} // literal "*" query matches the record itself
            other => panic!("wildcard failed for {qname}: {other:?}"),
        }
    });
}

/// Serialize → parse preserves every RRset.
#[test]
fn serializer_round_trips() {
    property("serializer_round_trips").cases(CASES).check(|g| {
        let entries = g.vec(0..10, |g| (gen_relative_name(g), g.u32_in(0..2) as u8, g.u8()));
        let mut zone = base_zone();
        for (rel, kind, payload) in &entries {
            zone.insert(Record::new(to_name(rel), 60, rdata_for(*kind, *payload)));
        }
        let text = write_zone(&zone);
        let back = parse_zone(&text, &origin()).expect("serialized zone parses");
        assert_eq!(back.rrset_count(), zone.rrset_count());
        for set in zone.iter() {
            let again = back.get(set.name(), set.rtype());
            assert!(again.is_some(), "lost {} {}", set.name(), set.rtype());
            assert_eq!(again.unwrap().len(), set.len());
        }
    });
}
