//! Resource-record sets: all records sharing an owner name and type.

use dnswild_proto::{Name, RData, RType, Record};

/// An RRset: one or more records with the same owner name and type.
///
/// RFC 2181 §5.2 requires all members to share a TTL; we enforce this by
/// clamping every member to the TTL of the first record inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrSet {
    records: Vec<Record>,
}

impl RrSet {
    /// Creates an RRset from its first record.
    pub fn new(record: Record) -> Self {
        RrSet { records: vec![record] }
    }

    /// Adds a record; its TTL is clamped to the set's TTL.
    pub fn push(&mut self, mut record: Record) {
        record.ttl = self.ttl();
        // Exact duplicates (same RDATA) are idempotent, per RFC 2181 §5.
        if !self.records.iter().any(|r| r.rdata == record.rdata) {
            self.records.push(record);
        }
    }

    /// The set's shared TTL.
    pub fn ttl(&self) -> u32 {
        self.records[0].ttl
    }

    /// Owner name.
    pub fn name(&self) -> &Name {
        &self.records[0].name
    }

    /// Record type.
    pub fn rtype(&self) -> RType {
        self.records[0].rtype()
    }

    /// The member records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// RRsets are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates the RDATA payloads.
    pub fn rdatas(&self) -> impl Iterator<Item = &RData> {
        self.records.iter().map(|r| &r.rdata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_proto::rdata::Ns;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ns_record(owner: &str, target: &str, ttl: u32) -> Record {
        Record::new(name(owner), ttl, RData::Ns(Ns::new(name(target))))
    }

    #[test]
    fn ttl_clamped_to_first() {
        let mut set = RrSet::new(ns_record("example.nl", "ns1.example.nl", 3600));
        set.push(ns_record("example.nl", "ns2.example.nl", 60));
        assert_eq!(set.ttl(), 3600);
        assert!(set.records().iter().all(|r| r.ttl == 3600));
    }

    #[test]
    fn duplicate_rdata_not_added() {
        let mut set = RrSet::new(ns_record("example.nl", "ns1.example.nl", 300));
        set.push(ns_record("example.nl", "NS1.EXAMPLE.NL", 300));
        assert_eq!(set.len(), 1);
    }
}
