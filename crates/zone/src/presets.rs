//! Ready-made zones for the reproduction experiments.

use dnswild_proto::rdata::{Ns, Soa, Txt, A};
use dnswild_proto::{Name, RData, Record};
use std::net::Ipv4Addr;

use crate::zone::Zone;

/// The placeholder the authoritative server substitutes with its own site
/// identity when answering probe TXT queries (the paper's trick of giving
/// each NS a different response for the same record).
pub const SITE_PLACEHOLDER: &str = "@SITE@";

/// TTL of the probe TXT record; the paper uses 5 seconds so responses
/// never survive in record caches between probe rounds.
pub const PROBE_TTL: u32 = 5;

/// Builds the measurement zone: `origin` with `ns_count` name servers
/// (`ns1` … `nsN`) and a wildcard TXT at the apex answering any unique
/// probe label with [`SITE_PLACEHOLDER`].
///
/// The NS A records here are decorative (the simulator routes by
/// `SimAddr`); they make the zone well-formed and give
/// the delegation realistic glue.
pub fn test_domain_zone(origin: &Name, ns_count: usize) -> Zone {
    probe_ttl_test_domain_zone(origin, ns_count, PROBE_TTL)
}

/// [`test_domain_zone`] with an explicit TTL on the wildcard probe
/// record — the knob the caching-recursive experiments turn: a low TTL
/// ages a warm cache quickly (the §4.4 cache-decay setup), a high one
/// keeps hit rates pinned.
pub fn probe_ttl_test_domain_zone(origin: &Name, ns_count: usize, probe_ttl: u32) -> Zone {
    assert!(ns_count >= 1, "a zone needs at least one NS");
    let mut zone = Zone::new(origin.clone());
    zone.insert(Record::new(
        origin.clone(),
        3600,
        RData::Soa(Soa::new(
            origin.prepend("ns1").expect("short label"),
            origin.prepend("hostmaster").expect("short label"),
            2017041201,
            7200,
            3600,
            604800,
            300,
        )),
    ));
    for i in 1..=ns_count {
        let ns_name = origin.prepend(&format!("ns{i}")).expect("short label");
        zone.insert(Record::new(origin.clone(), 3600, RData::Ns(Ns::new(ns_name.clone()))));
        zone.insert(Record::new(
            ns_name,
            3600,
            RData::A(A::new(Ipv4Addr::new(203, 0, 113, i as u8))),
        ));
    }
    zone.insert(Record::new(
        origin.prepend("*").expect("short label"),
        probe_ttl,
        RData::Txt(Txt::from_string(SITE_PLACEHOLDER).expect("short string")),
    ));
    zone
}

/// [`test_domain_zone`] with the wildcard TXT RRset padded so every
/// probe answer's rdata totals at least `pad_bytes` — big enough to
/// overflow a small negotiated EDNS payload and force TC=1 on UDP,
/// which is how the truncation → TCP-retry path is exercised end to
/// end. The site-placeholder record is kept as the RRset's *first*
/// record (the server still brands it); padding rides in extra TXT
/// records of opaque 200-octet strings.
pub fn padded_test_domain_zone(origin: &Name, ns_count: usize, pad_bytes: usize) -> Zone {
    let mut zone = test_domain_zone(origin, ns_count);
    if pad_bytes == 0 {
        return zone;
    }
    let chunk = vec![b'x'; 200];
    let strings = vec![chunk; pad_bytes.div_ceil(200)];
    zone.insert(Record::new(
        origin.prepend("*").expect("short label"),
        PROBE_TTL,
        RData::Txt(Txt::new(strings).expect("short strings")),
    ));
    zone
}

/// The label whose subtree anchors NXDOMAINs in the attack zone: the
/// node exists (so the apex wildcard does not cover names below it —
/// wildcard synthesis only happens at the closest encloser), but it has
/// no wildcard child, so `anything.void.<origin>` is NXDOMAIN.
pub const NX_ANCHOR_LABEL: &str = "void";

/// The delegated label of the attack zone: `lab.<origin>` is a zone
/// cut, so any name at or below it draws a referral.
pub const DELEGATION_LABEL: &str = "lab";

/// [`test_domain_zone`] extended into the adversarial-workload zone:
///
/// * `void.<origin>` — an ordinary TXT node with no wildcard below it,
///   so random-subdomain ("water torture") queries like
///   `wt3f9a.void.<origin>` are honest NXDOMAINs while the apex
///   wildcard keeps answering legitimate probe labels;
/// * `lab.<origin>` — a delegation fattened with `delegation_ns` NS
///   records (`dns1.lab.<origin>` …) plus one A glue record each, the
///   NXNSAttack amplification vector: a ~45-byte query for any name
///   under `lab` pulls a referral carrying the whole NS+glue set.
pub fn attack_test_domain_zone(origin: &Name, ns_count: usize, delegation_ns: usize) -> Zone {
    assert!(delegation_ns >= 1, "a delegation needs at least one NS");
    assert!(delegation_ns <= 100, "glue addressing supports at most 100 delegation NS");
    let mut zone = test_domain_zone(origin, ns_count);
    let anchor = origin.prepend(NX_ANCHOR_LABEL).expect("short label");
    zone.insert(Record::new(
        anchor,
        3600,
        RData::Txt(Txt::from_string("nx-anchor").expect("short string")),
    ));
    let cut = origin.prepend(DELEGATION_LABEL).expect("short label");
    for i in 1..=delegation_ns {
        let ns_name = cut.prepend(&format!("dns{i}")).expect("short label");
        zone.insert(Record::new(cut.clone(), 3600, RData::Ns(Ns::new(ns_name.clone()))));
        zone.insert(Record::new(
            ns_name,
            3600,
            RData::A(A::new(Ipv4Addr::new(203, 0, 113, (100 + i) as u8))),
        ));
    }
    zone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Lookup;
    use dnswild_proto::RType;

    #[test]
    fn zone_answers_unique_labels() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zone = test_domain_zone(&origin, 4);
        assert_eq!(zone.apex_ns().unwrap().len(), 4);
        let q = Name::parse("p99-round3.ourtestdomain.nl").unwrap();
        let Lookup::Answer(answer) = zone.lookup(&q, RType::Txt) else {
            panic!("expected answer")
        };
        let (_, rec) = answer.records().next().unwrap();
        assert_eq!(rec.ttl, PROBE_TTL);
        let RData::Txt(t) = &rec.rdata else { panic!("not TXT") };
        assert_eq!(t.first_as_string(), SITE_PLACEHOLDER);
    }

    #[test]
    fn padded_zone_fattens_the_wildcard_answer() {
        let origin = Name::parse("x.nl").unwrap();
        let zone = padded_test_domain_zone(&origin, 1, 900);
        let q = Name::parse("p1.x.nl").unwrap();
        let Lookup::Answer(answer) = zone.lookup(&q, RType::Txt) else {
            panic!("expected answer")
        };
        let recs: Vec<&Record> = answer.records().map(|(_, r)| r).collect();
        let total: usize = recs
            .iter()
            .map(|r| match &r.rdata {
                RData::Txt(t) => t.strings().map(<[u8]>::len).sum::<usize>(),
                _ => 0,
            })
            .sum();
        assert!(total >= 900, "rdata only {total} bytes");
        assert!(
            recs.iter().any(|r| matches!(
                &r.rdata, RData::Txt(t) if t.first_as_string() == SITE_PLACEHOLDER
            )),
            "placeholder record must survive for branding"
        );
    }

    #[test]
    #[should_panic(expected = "at least one NS")]
    fn zero_ns_rejected() {
        let origin = Name::parse("x.nl").unwrap();
        test_domain_zone(&origin, 0);
    }

    #[test]
    fn attack_zone_nxdomains_below_the_anchor() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zone = attack_test_domain_zone(&origin, 2, 8);
        // Water-torture names are NXDOMAIN, not wildcard-covered...
        let wt = Name::parse("wt3f9a.void.ourtestdomain.nl").unwrap();
        assert!(matches!(zone.lookup(&wt, RType::A), Lookup::NxDomain { .. }));
        // ...while the apex wildcard still answers legitimate probes.
        let probe = Name::parse("p1-r1.ourtestdomain.nl").unwrap();
        assert!(matches!(zone.lookup(&probe, RType::Txt), Lookup::Answer(_)));
        // The anchor node itself resolves normally.
        let anchor = Name::parse("void.ourtestdomain.nl").unwrap();
        assert!(matches!(zone.lookup(&anchor, RType::Txt), Lookup::Answer(_)));
    }

    #[test]
    fn attack_zone_referrals_carry_the_full_ns_and_glue_set() {
        let origin = Name::parse("ourtestdomain.nl").unwrap();
        let zone = attack_test_domain_zone(&origin, 2, 12);
        let q = Name::parse("v01.lab.ourtestdomain.nl").unwrap();
        let Lookup::Referral { ns, glue } = zone.lookup(&q, RType::A) else {
            panic!("expected a referral below the cut");
        };
        assert_eq!(ns.len(), 12, "every delegation NS rides the referral");
        assert_eq!(glue.records().count(), 12, "one A glue per NS");
    }
}
