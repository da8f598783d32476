//! The zone store and authoritative lookup algorithm (RFC 1034 §4.3.2,
//! minus DNSSEC), including wildcard synthesis — which the reproduced
//! measurement depends on: every probe queries a *unique* label under the
//! test domain, answered by a wildcard TXT record.
//!
//! **One index.** A [`Zone`] is a single map from every name that
//! *exists* — record owners and the empty non-terminals above them — to
//! the RRsets that name owns (none, for an empty non-terminal). "Exists"
//! is "has a node", so NODATA vs NXDOMAIN needs no second structure.
//! The key is the name's canonical wire form
//! ([`Name::canonical_wire`]), so an ancestor's key is a sub-slice of
//! its descendant's.
//!
//! **One walk, nothing built.** [`Zone::lookup`] lower-cases the query
//! name once into a stack buffer, descends from the apex over suffixes
//! of that buffer and stops at the first delegation cut, at the query
//! name's own node, or — when a node is missing — at its closest
//! encloser, whose `*` child is probed from a second stack buffer. The
//! [`Lookup`] it returns borrows the zone's RRsets; nothing is copied
//! or allocated.

use std::collections::HashMap;

use dnswild_proto::{Name, RData, RType, Record, MAX_NAME_LEN};

use crate::rrset::RrSet;

/// Result of an authoritative lookup, borrowed from the zone.
#[derive(Debug, Clone, Copy)]
pub enum Lookup<'a> {
    /// The answer RRset, possibly preceded by the CNAMEs that led to it.
    Answer(Answer<'a>),
    /// The name exists but has no records of the requested type. The SOA
    /// record for negative caching is included.
    NoData {
        /// Zone SOA for the authority section.
        soa: &'a Record,
    },
    /// The name does not exist. The SOA record is included.
    NxDomain {
        /// Zone SOA for the authority section.
        soa: &'a Record,
    },
    /// The name is delegated to a child zone: NS records plus any glue.
    Referral {
        /// The delegation NS RRset.
        ns: &'a RrSet,
        /// Glue address records for in-zone name servers.
        glue: Glue<'a>,
    },
    /// The name is not within this zone at all.
    OutOfZone,
}

/// CNAME hops followed inside the zone before the chain is cut (loops
/// are legal zone data).
const MAX_CHAIN: usize = 8;

/// A positive answer: the RRset found at the query name's node — its
/// `qtype` set, or its CNAME — then each in-zone hop of the CNAME chain.
#[derive(Debug, Clone, Copy)]
pub struct Answer<'a> {
    sets: [Option<&'a RrSet>; 1 + MAX_CHAIN],
    /// Set when the first RRset came from a wildcard: it is served
    /// owned by the query name (RFC 1034 §4.3.3), not by `*`.
    synthesized_at: Option<&'a Name>,
}

impl<'a> Answer<'a> {
    /// The answer's records in wire order, each with the owner name it
    /// is served under.
    pub fn records(&self) -> impl Iterator<Item = (&'a Name, &'a Record)> + '_ {
        self.sets.iter().flatten().enumerate().flat_map(move |(i, set)| {
            let owner = self.synthesized_at.filter(|_| i == 0);
            set.records().iter().map(move |r| (owner.unwrap_or(&r.name), r))
        })
    }
}

/// The A/AAAA glue of a delegation's name servers that live inside the
/// zone, looked up as it is iterated.
#[derive(Debug, Clone, Copy)]
pub struct Glue<'a> {
    zone: &'a Zone,
    ns: &'a RrSet,
}

impl<'a> Glue<'a> {
    /// The glue records, per name server: A, then AAAA.
    pub fn records(&self) -> impl Iterator<Item = &'a Record> + '_ {
        let zone = self.zone;
        let targets = self.ns.rdatas().filter_map(|rdata| match rdata {
            RData::Ns(target) => Some(target.name()),
            _ => None,
        });
        targets
            .flat_map(move |t| [zone.get(t, RType::A), zone.get(t, RType::Aaaa)])
            .flatten()
            .flat_map(RrSet::records)
    }
}

/// An authoritative zone: an origin plus its RRsets.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    /// The origin's key in `nodes`.
    origin_key: Box<[u8]>,
    /// Every existing name (canonical wire form) → the RRsets it owns,
    /// at most one per type. A node's ancestors up to the origin always
    /// have nodes too.
    nodes: HashMap<Box<[u8]>, Vec<RrSet>>,
}

/// The RRset of `rtype` among one node's sets (a handful at most).
fn of_type(sets: &[RrSet], rtype: RType) -> Option<&RrSet> {
    sets.iter().find(|s| s.rtype() == rtype)
}

impl Zone {
    /// Creates an empty zone. Call [`Zone::insert`] with at least an SOA
    /// before serving it.
    pub fn new(origin: Name) -> Self {
        let origin_key = origin.canonical_wire(&mut [0; MAX_NAME_LEN]).into();
        Zone { origin, origin_key, nodes: HashMap::new() }
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Inserts a record. Panics if the owner is outside the zone —
    /// building a zone with foreign names is a programming error.
    pub fn insert(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record owner {} outside zone {}",
            record.name,
            self.origin
        );
        let mut buf = [0; MAX_NAME_LEN];
        let key = record.name.canonical_wire(&mut buf);
        // Give every ancestor up to the origin a node, so empty
        // non-terminals resolve to NODATA, not NXDOMAIN. An ancestor
        // that already has one brought its own ancestors with it.
        let mut at = 0;
        while key.len() - at > self.origin_key.len() {
            at += 1 + key[at] as usize;
            if self.nodes.contains_key(&key[at..]) {
                break;
            }
            self.nodes.insert(key[at..].into(), Vec::new());
        }
        let sets = self.nodes.entry(key.into()).or_default();
        match sets.iter_mut().find(|s| s.rtype() == record.rtype()) {
            Some(set) => set.push(record),
            None => sets.push(RrSet::new(record)),
        }
    }

    /// The apex node with the SOA record it must hold for the zone to
    /// be servable.
    fn apex(&self) -> Option<(&[RrSet], &Record)> {
        let sets = self.nodes.get(&self.origin_key)?;
        Some((sets, &of_type(sets, RType::Soa)?.records()[0]))
    }

    /// The zone's SOA record, if present.
    pub fn soa(&self) -> Option<&Record> {
        self.apex().map(|(_, soa)| soa)
    }

    /// The apex NS RRset, if present.
    pub fn apex_ns(&self) -> Option<&RrSet> {
        self.get(&self.origin, RType::Ns)
    }

    /// The RRsets `name` owns, if it exists.
    fn node(&self, name: &Name) -> Option<&[RrSet]> {
        self.nodes.get(name.canonical_wire(&mut [0; MAX_NAME_LEN])).map(Vec::as_slice)
    }

    /// Direct RRset fetch (no wildcard or CNAME processing).
    pub fn get(&self, name: &Name, rtype: RType) -> Option<&RrSet> {
        of_type(self.node(name)?, rtype)
    }

    /// Iterates all RRsets, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &RrSet> {
        self.nodes.values().flatten()
    }

    /// Authoritative lookup per RFC 1034 §4.3.2.
    pub fn lookup<'a>(&'a self, qname: &'a Name, qtype: RType) -> Lookup<'a> {
        let mut buf = [0; MAX_NAME_LEN];
        let key = qname.canonical_wire(&mut buf);
        // Where each label below the origin starts, leftmost first.
        let mut cuts = [0u8; MAX_NAME_LEN / 2];
        let (mut below, mut at) = (0, 0);
        while key.len() - at > self.origin_key.len() {
            cuts[below] = at as u8;
            below += 1;
            at += 1 + key[at] as usize;
        }
        if key[at..] != *self.origin_key {
            return Lookup::OutOfZone;
        }
        let Some((mut node, soa)) = self.apex() else {
            return Lookup::OutOfZone; // not a servable zone
        };
        // Walk down from just below the apex towards the qname, one
        // suffix of `key` per step.
        for &cut in cuts[..below].iter().rev() {
            let cut = cut as usize;
            let Some(sets) = self.nodes.get(&key[cut..]) else {
                // The qname does not exist and the rest of `key` past
                // this label is its closest encloser: synthesize from
                // `*` there, if any.
                let encloser = &key[cut + 1 + key[cut] as usize..];
                let mut wild = [0; MAX_NAME_LEN];
                wild[..2].copy_from_slice(b"\x01*");
                wild[2..2 + encloser.len()].copy_from_slice(encloser);
                return match self.nodes.get(&wild[..2 + encloser.len()]) {
                    Some(sets) => self.answer_at(sets, qtype, soa, Some(qname)),
                    None => Lookup::NxDomain { soa },
                };
            };
            if let Some(ns) = of_type(sets, RType::Ns) {
                return Lookup::Referral { ns, glue: Glue { zone: self, ns } };
            }
            node = sets;
        }
        self.answer_at(node, qtype, soa, None)
    }

    /// The step the exact and the wildcard case share, at a node that
    /// exists: the requested type, else a CNAME chased through the zone
    /// (bounded, loops are legal), else NODATA. A target with no node —
    /// out of zone, or absent — ends the chain: the recursive restarts
    /// resolution there. (A CNAME *query* is answered from the node
    /// itself and never chased, so in the chase a chain that reached
    /// its `qtype` RRset stops at the next turn.)
    fn answer_at<'a>(
        &'a self,
        sets: &'a [RrSet],
        qtype: RType,
        soa: &'a Record,
        synthesized_at: Option<&'a Name>,
    ) -> Lookup<'a> {
        let Some(mut last) = of_type(sets, qtype).or_else(|| of_type(sets, RType::Cname)) else {
            return Lookup::NoData { soa };
        };
        let mut answer = Answer { sets: [None; 1 + MAX_CHAIN], synthesized_at };
        answer.sets[0] = Some(last);
        let hops = if qtype == RType::Cname { 0 } else { MAX_CHAIN };
        for hop in &mut answer.sets[1..=hops] {
            let Some(RData::Cname(target)) = last.rdatas().last() else { break };
            let Some(sets) = self.node(target.name()) else { break };
            let Some(next) = of_type(sets, qtype).or_else(|| of_type(sets, RType::Cname)) else {
                break;
            };
            (*hop, last) = (Some(next), next);
        }
        Lookup::Answer(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_proto::rdata::{Cname, Ns, Soa, Txt, A};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn test_zone() -> Zone {
        let origin = name("ourtestdomain.nl");
        let mut z = Zone::new(origin.clone());
        z.insert(Record::new(
            origin.clone(),
            3600,
            RData::Soa(Soa::new(
                name("ns1.ourtestdomain.nl"),
                name("hostmaster.ourtestdomain.nl"),
                2017,
                7200,
                3600,
                604800,
                300,
            )),
        ));
        z.insert(Record::new(origin.clone(), 3600, RData::Ns(Ns::new(name("ns1.ourtestdomain.nl")))));
        z.insert(Record::new(origin.clone(), 3600, RData::Ns(Ns::new(name("ns2.ourtestdomain.nl")))));
        z.insert(Record::new(
            name("ns1.ourtestdomain.nl"),
            3600,
            RData::A(A::new(Ipv4Addr::new(203, 0, 113, 1))),
        ));
        z.insert(Record::new(
            name("ns2.ourtestdomain.nl"),
            3600,
            RData::A(A::new(Ipv4Addr::new(203, 0, 113, 2))),
        ));
        // The measurement wildcard: any unique label answers with TXT.
        z.insert(Record::new(
            name("*.probe.ourtestdomain.nl"),
            5,
            RData::Txt(Txt::from_string("@SITE@").unwrap()),
        ));
        z.insert(Record::new(
            name("www.ourtestdomain.nl"),
            300,
            RData::Cname(Cname::new(name("web.ourtestdomain.nl"))),
        ));
        z.insert(Record::new(
            name("web.ourtestdomain.nl"),
            300,
            RData::A(A::new(Ipv4Addr::new(203, 0, 113, 10))),
        ));
        // A delegation.
        z.insert(Record::new(
            name("child.ourtestdomain.nl"),
            3600,
            RData::Ns(Ns::new(name("ns.child.ourtestdomain.nl"))),
        ));
        z.insert(Record::new(
            name("ns.child.ourtestdomain.nl"),
            3600,
            RData::A(A::new(Ipv4Addr::new(203, 0, 113, 20))),
        ));
        z
    }

    /// The (owner, record) pairs of a positive answer.
    fn answer<'a>(lookup: Lookup<'a>) -> Vec<(&'a Name, &'a Record)> {
        match lookup {
            Lookup::Answer(answer) => answer.records().collect(),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn exact_match() {
        let z = test_zone();
        let q = name("web.ourtestdomain.nl");
        let recs = answer(z.lookup(&q, RType::A));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.rtype(), RType::A);
    }

    #[test]
    fn wildcard_synthesis_unique_labels() {
        let z = test_zone();
        for label in ["q1", "q2", "probe-417-20170412"] {
            let qname = name(&format!("{label}.probe.ourtestdomain.nl"));
            let recs = answer(z.lookup(&qname, RType::Txt));
            assert_eq!(recs[0].0, &qname, "served under the qname");
            assert_eq!(recs[0].1.ttl, 5, "paper's anti-caching TTL");
        }
    }

    /// A wildcard answer is owned by the query name in the *query's*
    /// spelling, while the record itself is the zone's own, not a copy.
    #[test]
    fn wildcard_answer_borrows_the_set_and_is_owned_by_the_qname() {
        let z = test_zone();
        let qname = name("MiXeD-17.Probe.OurTestDomain.NL");
        let recs = answer(z.lookup(&qname, RType::Txt));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0.to_string(), "MiXeD-17.Probe.OurTestDomain.NL.");
        let stored = &z.get(&name("*.probe.ourtestdomain.nl"), RType::Txt).unwrap().records()[0];
        assert!(std::ptr::eq(recs[0].1, stored), "no record is materialized");
        // An exact match is served under the owner the zone spells.
        let exact = name("WEB.ourtestdomain.nl");
        let recs = answer(z.lookup(&exact, RType::A));
        assert_eq!(recs[0].0.to_string(), "web.ourtestdomain.nl.");
    }

    #[test]
    fn wildcard_does_not_apply_to_existing_name() {
        let z = test_zone();
        // `probe` itself exists (as an empty non-terminal); no wildcard.
        match z.lookup(&name("probe.ourtestdomain.nl"), RType::Txt) {
            Lookup::NoData { .. } => {}
            other => panic!("expected NODATA at empty non-terminal, got {other:?}"),
        }
    }

    #[test]
    fn nxdomain_when_no_wildcard() {
        let z = test_zone();
        match z.lookup(&name("nosuch.ourtestdomain.nl"), RType::A) {
            Lookup::NxDomain { soa } => assert_eq!(soa.rtype(), RType::Soa),
            other => panic!("expected NXDOMAIN, got {other:?}"),
        }
    }

    #[test]
    fn nodata_on_wrong_type() {
        let z = test_zone();
        match z.lookup(&name("web.ourtestdomain.nl"), RType::Txt) {
            Lookup::NoData { .. } => {}
            other => panic!("expected NODATA, got {other:?}"),
        }
    }

    #[test]
    fn cname_chased_in_zone() {
        let z = test_zone();
        let q = name("www.ourtestdomain.nl");
        let recs = answer(z.lookup(&q, RType::A));
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1.rtype(), RType::Cname);
        assert_eq!(recs[1].1.rtype(), RType::A);
    }

    #[test]
    fn cname_query_returns_cname_itself() {
        let z = test_zone();
        let q = name("www.ourtestdomain.nl");
        let recs = answer(z.lookup(&q, RType::Cname));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.rtype(), RType::Cname);
    }

    #[test]
    fn referral_below_delegation() {
        let z = test_zone();
        match z.lookup(&name("deep.child.ourtestdomain.nl"), RType::A) {
            Lookup::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.records().count(), 1, "in-zone glue present");
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn out_of_zone() {
        let z = test_zone();
        assert!(matches!(z.lookup(&name("example.com"), RType::A), Lookup::OutOfZone));
        // A suffix of the bytes is not a suffix of the labels.
        assert!(matches!(z.lookup(&name("xourtestdomain.nl"), RType::A), Lookup::OutOfZone));
    }

    #[test]
    fn apex_queries() {
        let z = test_zone();
        let apex = name("ourtestdomain.nl");
        assert_eq!(answer(z.lookup(&apex, RType::Ns)).len(), 2);
        assert!(z.soa().is_some());
        assert_eq!(z.apex_ns().unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn insert_foreign_name_panics() {
        let mut z = Zone::new(name("ourtestdomain.nl"));
        z.insert(Record::new(
            name("other.example"),
            60,
            RData::A(A::new(Ipv4Addr::new(1, 2, 3, 4))),
        ));
    }
}
