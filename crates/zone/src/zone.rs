//! The zone store and authoritative lookup algorithm (RFC 1034 §4.3.2,
//! minus DNSSEC), including wildcard synthesis — which the reproduced
//! measurement depends on: every probe queries a *unique* label under the
//! test domain, answered by a wildcard TXT record.
//!
//! **One index.** A [`Zone`] is a single map from every name that
//! *exists* — record owners and the empty non-terminals above them — to
//! the RRsets that name owns (none, for an empty non-terminal). "Exists"
//! is "has a node", so NODATA vs NXDOMAIN needs no second structure.
//!
//! **One walk.** [`Zone::lookup`] descends from the apex over borrowed
//! suffixes of the query name (`qname.labels()[skip..]`, via
//! `Borrow<[Label]> for Name`) and stops at the first delegation cut,
//! at the query name's own node, or — when a node is missing — at its
//! closest encloser, whose `*` child is the only name the lookup ever
//! builds.

use std::collections::HashMap;

use dnswild_proto::{Label, Name, RData, RType, Record};

use crate::rrset::RrSet;

/// Result of an authoritative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The answer RRset (owner name already rewritten for wildcards),
    /// possibly preceded by CNAME records that led to it.
    Answer(Vec<Record>),
    /// The name exists but has no records of the requested type. The SOA
    /// record for negative caching is included.
    NoData {
        /// Zone SOA for the authority section.
        soa: Record,
    },
    /// The name does not exist. The SOA record is included.
    NxDomain {
        /// Zone SOA for the authority section.
        soa: Record,
    },
    /// The name is delegated to a child zone: NS records plus any glue.
    Referral {
        /// The delegation NS RRset.
        ns: Vec<Record>,
        /// Glue address records for in-zone name servers.
        glue: Vec<Record>,
    },
    /// The name is not within this zone at all.
    OutOfZone,
}

/// An authoritative zone: an origin plus its RRsets.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    /// Every existing name → the RRsets it owns, at most one per type.
    /// A node's ancestors up to the origin always have nodes too.
    nodes: HashMap<Name, Vec<RrSet>>,
}

/// The RRset of `rtype` among one node's sets (a handful at most).
fn of_type(sets: &[RrSet], rtype: RType) -> Option<&RrSet> {
    sets.iter().find(|s| s.rtype() == rtype)
}

impl Zone {
    /// Creates an empty zone. Call [`Zone::insert`] with at least an SOA
    /// before serving it.
    pub fn new(origin: Name) -> Self {
        Zone { origin, nodes: HashMap::new() }
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
        // Give every ancestor up to the origin a node, so empty
        // non-terminals resolve to NODATA, not NXDOMAIN. An ancestor
        // that already has one brought its own ancestors with it.
        let mut ancestor = record.name.clone();
        while ancestor != self.origin {
            ancestor = ancestor.parent().expect("walked past the root while inside the zone");
            if self.nodes.contains_key(&ancestor) {
                break;
            }
            self.nodes.insert(ancestor.clone(), Vec::new());
        }
        let sets = self.nodes.entry(record.name.clone()).or_default();
        match sets.iter_mut().find(|s| s.rtype() == record.rtype()) {
            Some(set) => set.push(record),
            None => sets.push(RrSet::new(record)),
        }
    }

    /// The apex node with the SOA record it must hold for the zone to
    /// be servable.
    fn apex(&self) -> Option<(&[RrSet], &Record)> {
        let sets = self.nodes.get(&self.origin)?;
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

    /// Direct RRset fetch (no wildcard or CNAME processing).
    pub fn get(&self, name: &Name, rtype: RType) -> Option<&RrSet> {
        of_type(self.nodes.get(name)?, rtype)
    }

    /// Number of RRsets in the zone.
    pub fn rrset_count(&self) -> usize {
        self.nodes.values().map(Vec::len).sum()
    }

    /// Iterates all RRsets, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &RrSet> {
        self.nodes.values().flatten()
    }

    /// Authoritative lookup per RFC 1034 §4.3.2.
    pub fn lookup(&self, qname: &Name, qtype: RType) -> Lookup {
        if !qname.is_subdomain_of(&self.origin) {
            return Lookup::OutOfZone;
        }
        let Some((mut node, soa)) = self.apex() else {
            return Lookup::OutOfZone; // not a servable zone
        };
        let labels = qname.labels();
        // Walk down from just below the apex towards the qname, one
        // borrowed suffix per step.
        for skip in (0..labels.len() - self.origin.label_count()).rev() {
            let Some(below) = self.nodes.get(&labels[skip..]) else {
                // The qname does not exist and `labels[skip + 1..]` is its
                // closest encloser: synthesize from `*` there, if any.
                let wild = std::iter::once(&b"*"[..])
                    .chain(labels[skip + 1..].iter().map(Label::as_bytes));
                return match Name::from_labels(wild).ok().and_then(|w| self.nodes.get(&w)) {
                    Some(sets) => self.answer_at(sets, qtype, soa, Some(qname)),
                    None => Lookup::NxDomain { soa: soa.clone() },
                };
            };
            if let Some(ns) = of_type(below, RType::Ns) {
                return self.referral(ns);
            }
            node = below;
        }
        self.answer_at(node, qtype, soa, None)
    }

    /// The step the exact and the wildcard case share, at a node that
    /// exists: the requested type, else a CNAME to chase, else NODATA.
    /// Wildcard records are re-owned at `synthesize_at` (the qname,
    /// RFC 1034 §4.3.3); exact ones are copied as stored.
    fn answer_at(
        &self,
        sets: &[RrSet],
        qtype: RType,
        soa: &Record,
        synthesize_at: Option<&Name>,
    ) -> Lookup {
        let copy = |set: &RrSet| match synthesize_at {
            Some(qname) => set.materialize_at(qname),
            None => set.records().to_vec(),
        };
        if let Some(set) = of_type(sets, qtype) {
            return Lookup::Answer(copy(set));
        }
        match of_type(sets, RType::Cname) {
            Some(cname) => Lookup::Answer(self.chase_cname(copy(cname), qtype)),
            None => Lookup::NoData { soa: soa.clone() },
        }
    }

    /// The referral at a delegation cut: its NS RRset plus the A/AAAA
    /// glue of every name server that lives inside this zone.
    fn referral(&self, ns_set: &RrSet) -> Lookup {
        let mut glue = Vec::new();
        for rdata in ns_set.rdatas() {
            let RData::Ns(target) = rdata else { continue };
            for t in [RType::A, RType::Aaaa] {
                if let Some(set) = self.get(target.name(), t) {
                    glue.extend(set.records().iter().cloned());
                }
            }
        }
        Lookup::Referral { ns: ns_set.records().to_vec(), glue }
    }

    /// Follows an in-zone CNAME chain (bounded to avoid loops), appending
    /// the target RRset when it resolves inside the zone. A target with
    /// no node — out of zone, or absent — ends the chain: the recursive
    /// restarts resolution there. (`qtype` is never CNAME here —
    /// `answer_at` answers that from the node itself — so a chain that
    /// reached its `qtype` RRset stops at the next turn.)
    fn chase_cname(&self, mut chain: Vec<Record>, qtype: RType) -> Vec<Record> {
        const MAX_CHAIN: usize = 8;
        for _ in 0..MAX_CHAIN {
            let Some(RData::Cname(target)) = chain.last().map(|r| &r.rdata) else { break };
            let Some(sets) = self.nodes.get(target.name()) else { break };
            let Some(next) = of_type(sets, qtype).or_else(|| of_type(sets, RType::Cname)) else {
                break;
            };
            chain.extend(next.records().iter().cloned());
        }
        chain
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

    #[test]
    fn exact_match() {
        let z = test_zone();
        match z.lookup(&name("web.ourtestdomain.nl"), RType::A) {
            Lookup::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rtype(), RType::A);
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesis_unique_labels() {
        let z = test_zone();
        for label in ["q1", "q2", "probe-417-20170412"] {
            let qname = name(&format!("{label}.probe.ourtestdomain.nl"));
            match z.lookup(&qname, RType::Txt) {
                Lookup::Answer(recs) => {
                    assert_eq!(recs[0].name, qname, "owner rewritten to qname");
                    assert_eq!(recs[0].ttl, 5, "paper's anti-caching TTL");
                }
                other => panic!("expected wildcard answer, got {other:?}"),
            }
        }
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
        match z.lookup(&name("www.ourtestdomain.nl"), RType::A) {
            Lookup::Answer(recs) => {
                assert_eq!(recs.len(), 2);
                assert_eq!(recs[0].rtype(), RType::Cname);
                assert_eq!(recs[1].rtype(), RType::A);
            }
            other => panic!("expected CNAME chain, got {other:?}"),
        }
    }

    #[test]
    fn cname_query_returns_cname_itself() {
        let z = test_zone();
        match z.lookup(&name("www.ourtestdomain.nl"), RType::Cname) {
            Lookup::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rtype(), RType::Cname);
            }
            other => panic!("expected CNAME answer, got {other:?}"),
        }
    }

    #[test]
    fn referral_below_delegation() {
        let z = test_zone();
        match z.lookup(&name("deep.child.ourtestdomain.nl"), RType::A) {
            Lookup::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 1, "in-zone glue present");
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn out_of_zone() {
        let z = test_zone();
        assert_eq!(z.lookup(&name("example.com"), RType::A), Lookup::OutOfZone);
    }

    #[test]
    fn apex_queries() {
        let z = test_zone();
        match z.lookup(&name("ourtestdomain.nl"), RType::Ns) {
            Lookup::Answer(recs) => assert_eq!(recs.len(), 2),
            other => panic!("expected apex NS, got {other:?}"),
        }
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
