//! The cache proper: a bounded, TTL-respecting record store with
//! negative caching, prefetch marking, and serve-stale.

use std::hash::{BuildHasher, RandomState};

use dnswild_proto::{Message, Name, RData, RType, Rcode, Record};

use crate::clock::{CacheTime, Secs};

/// TTL put on answers served stale (RFC 8767 §4 caps the advertised
/// lifetime of stale data at 30 seconds).
pub const STALE_TTL: u32 = 30;

/// What kind of response an entry memoizes. RFC 2308 keeps the two
/// negative shapes distinct: NXDOMAIN denies the *name*, NODATA denies
/// only the *type* — a cache that conflates them answers wrongly for
/// sibling types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A positive answer with records.
    Positive,
    /// NOERROR with an empty answer section (the type doesn't exist).
    NoData,
    /// NXDOMAIN (the name doesn't exist).
    NxDomain,
}

/// "No slot": the end of a bucket chain, of the free list, of the LRU
/// list.
const NIL: u32 = u32::MAX;

/// The keyed hash a cache indexes its questions by: SipHash under a
/// random key — the keys are names a client chooses, so an unkeyed hash
/// would let it pick a chain. Caches built on clones of one hasher
/// agree on every question's hash, so a caller that spreads questions
/// over several of them hashes each question once and hands the hash
/// in ([`RecordCache::probe_hashed`], [`RecordCache::insert_hashed`]).
#[derive(Debug, Clone, Default)]
pub struct QuestionHasher(RandomState);

impl QuestionHasher {
    /// A hasher under a fresh random key.
    pub fn new() -> Self {
        QuestionHasher::default()
    }

    /// The hash of the question (`qname`, `qtype`); `qname`'s case does
    /// not enter it.
    pub fn hash(&self, qname: &Name, qtype: RType) -> u64 {
        self.0.hash_one((qname, qtype))
    }
}

/// One slot of the slab: a stored response under its question (class
/// is always IN here), threaded onto its bucket's chain and, in a
/// bounded cache, onto the LRU list by slot index. A vacant slot holds
/// the root name and no records — neither owns heap memory — and
/// `chain` links the free list.
#[derive(Debug)]
struct Slot {
    qname: Name,
    qtype: RType,
    /// The question's keyed hash: unlinking and re-bucketing never
    /// rehash, and a chain walk compares names only on a match.
    hash: u64,
    answers: Vec<Record>,
    rcode: Rcode,
    kind: EntryKind,
    expires: CacheTime,
    /// One-shot latch so an entry triggers at most one prefetch per
    /// lifetime; reset by the refreshing insert.
    prefetch_fired: bool,
    chain: u32,
    /// LRU neighbours: the entries used just before and just after
    /// (`NIL` in an unbounded cache, which keeps no list).
    older: u32,
    newer: u32,
}

/// What a lookup found, short of the records themselves: everything a
/// caller needs to decide what happens next, and all that
/// [`RecordCache::probe`] copies out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// The cached response code (NOERROR or NXDOMAIN).
    pub rcode: Rcode,
    /// Positive / NODATA / NXDOMAIN.
    pub kind: EntryKind,
    /// See [`CachedResponse::prefetch_due`].
    pub prefetch_due: bool,
    /// See [`CachedResponse::stale`].
    pub stale: bool,
    /// The TTL the records go out under: on a live hit a ceiling, the
    /// remaining lifetime in whole seconds floored at 1 (a record
    /// keeps its own TTL when that is smaller); on a stale one
    /// [`STALE_TTL`], flat.
    pub ttl: u32,
}

/// What a cache lookup yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResponse {
    /// Answer records with TTLs decremented to the remaining lifetime
    /// (floored at 1s — a live entry never emits TTL=0).
    pub answers: Vec<Record>,
    /// The cached response code (NOERROR or NXDOMAIN).
    pub rcode: Rcode,
    /// Positive / NODATA / NXDOMAIN.
    pub kind: EntryKind,
    /// True when this hit is close enough to expiry that the caller
    /// should refresh it in the background.
    pub prefetch_due: bool,
    /// True when served past expiry under RFC 8767 (only from
    /// [`RecordCache::get_stale`]).
    pub stale: bool,
}

dnswild_ledger::counter_set! {
    /// Statistics for cache behaviour. The labels are the keys of the
    /// `cache-stats:` line and the `kind`s of the scraped
    /// `dnswild_cache_events_total`.
    pub struct CacheStats {
        /// Lookups that found a live entry.
        hits => "hits",
        /// Lookups that found nothing usable (includes `expired`).
        misses => "misses",
        /// Misses that found an entry past its TTL (subset of `misses`).
        expired => "expired",
        /// Live hits on negative entries (subset of `hits`).
        negative_hits => "negative",
        /// Entries stored.
        inserts => "inserts",
        /// Entries pushed out by the capacity bound.
        evictions => "evictions",
        /// Expired entries served anyway under serve-stale.
        stale_served => "stale_served",
    }
}

/// Knobs; the default configuration reproduces the original sim-plane
/// cache exactly (unbounded, no prefetch, expired entries dropped on
/// probe), so the simulator's outputs are bit-stable across the
/// unification.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheConfig {
    /// Maximum live entries; 0 means unbounded.
    pub capacity: usize,
    /// Prefetch when a hit finds its entry with at most this many
    /// seconds of life left; 0 disables prefetch marking.
    pub prefetch_window_s: u32,
    /// How long past expiry an entry stays servable stale; 0 disables
    /// serve-stale (expired entries are removed on probe).
    pub max_stale_s: u32,
}

/// How long a negative answer (NODATA/NXDOMAIN) that carries no SOA
/// lives: RFC 2308 gives it no lifetime, so both resolvers use this one.
pub const NEGATIVE_TTL_WITHOUT_SOA: u32 = 300;

/// The RFC 2308 lifetime of `reply` as a negative answer:
/// `min(SOA.minimum, SOA.ttl)` of the authority section's SOA, or
/// [`NEGATIVE_TTL_WITHOUT_SOA`] when the reply carries none.
pub fn negative_ttl(reply: &Message) -> u32 {
    reply.authorities.iter().find_map(soa_negative_ttl).unwrap_or(NEGATIVE_TTL_WITHOUT_SOA)
}

/// `min(SOA.minimum, SOA.ttl)` when `record` is an SOA: the lifetime it
/// gives, as an authority record, to the negative answer it comes with.
pub fn soa_negative_ttl(record: &Record) -> Option<u32> {
    match &record.rdata {
        RData::Soa(soa) => Some(soa.minimum.min(record.ttl)),
        _ => None,
    }
}

/// A TTL-respecting record cache; see the crate docs for the plane split.
///
/// Entries live in a slab. A lookup hashes the caller's question once,
/// walks one bucket's chain of slot indices and compares names in
/// place, so it allocates nothing. A bounded cache keeps its LRU order
/// as a doubly linked list through the same slots — O(1) to touch, O(1)
/// to evict, exact; an unbounded one evicts nothing and keeps no order.
#[derive(Debug)]
pub struct RecordCache {
    slots: Vec<Slot>,
    /// Chain heads, indexed by the low bits of the hash, `hash & (len −
    /// 1)`: a power of two, and never fewer buckets than entries.
    buckets: Vec<u32>,
    hasher: QuestionHasher,
    /// Head of the vacant slots' list.
    free: u32,
    /// Least and most recently used entry (bounded caches only).
    oldest: u32,
    newest: u32,
    /// Occupied slots.
    live: usize,
    cfg: CacheConfig,
    stats: CacheStats,
}

impl Default for RecordCache {
    fn default() -> Self {
        RecordCache::with_config(CacheConfig::default())
    }
}

impl RecordCache {
    /// An empty cache with sim-compatible defaults (see [`CacheConfig`]).
    pub fn new() -> Self {
        RecordCache::default()
    }

    /// An empty cache with explicit knobs.
    pub fn with_config(cfg: CacheConfig) -> Self {
        RecordCache::with_hasher(cfg, QuestionHasher::new())
    }

    /// An empty cache with explicit knobs that indexes questions by
    /// `hasher`'s hash: the one [`RecordCache::probe_hashed`] and
    /// [`RecordCache::insert_hashed`] take.
    pub fn with_hasher(cfg: CacheConfig, hasher: QuestionHasher) -> Self {
        RecordCache {
            slots: Vec::new(),
            buckets: vec![NIL; 8],
            hasher,
            free: NIL,
            oldest: NIL,
            newest: NIL,
            live: 0,
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.buckets.len() - 1)
    }

    /// The slot holding (`qname`, `qtype`), whose keyed hash is `hash`.
    fn find(&self, hash: u64, qname: &Name, qtype: RType) -> Option<u32> {
        let mut i = self.buckets[self.bucket(hash)];
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.hash == hash && slot.qtype == qtype && slot.qname == *qname {
                return Some(i);
            }
            i = slot.chain;
        }
        None
    }

    /// Whether this cache evicts, and so keeps its LRU list.
    fn bounded(&self) -> bool {
        self.cfg.capacity > 0
    }

    /// Takes slot `i` off the LRU list.
    fn unlink(&mut self, i: u32) {
        if !self.bounded() {
            return;
        }
        let (older, newer) = (self.slots[i as usize].older, self.slots[i as usize].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
    }

    /// Puts slot `i` at the most recently used end of the LRU list.
    fn push_newest(&mut self, i: u32) {
        if !self.bounded() {
            return;
        }
        (self.slots[i as usize].older, self.slots[i as usize].newer) = (self.newest, NIL);
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n as usize].newer = i,
        }
        self.newest = i;
    }

    /// Marks slot `i` as just used.
    fn touch(&mut self, i: u32) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Drops the entry in slot `i`: off the LRU list, off its bucket's
    /// chain, its heap memory released, the slot onto the free list.
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        let (bucket, next) = (self.bucket(self.slots[i as usize].hash), self.slots[i as usize].chain);
        if self.buckets[bucket] == i {
            self.buckets[bucket] = next;
        } else {
            let mut before = self.buckets[bucket];
            while self.slots[before as usize].chain != i {
                before = self.slots[before as usize].chain;
            }
            self.slots[before as usize].chain = next;
        }
        let slot = &mut self.slots[i as usize];
        (slot.qname, slot.answers, slot.chain) = (Name::root(), Vec::new(), self.free);
        self.free = i;
        self.live -= 1;
    }

    /// Doubles the bucket array and re-chains every entry, walking the
    /// slab. Every slot holds one: the index grows when it has as many
    /// entries as buckets, and the slab, which grows only when no slot
    /// is vacant and never past the bucket count, has no more slots.
    fn grow(&mut self) {
        assert_eq!(self.slots.len(), self.live, "a full index leaves no slot vacant");
        self.buckets = vec![NIL; self.buckets.len() * 2];
        for i in 0..self.slots.len() {
            let bucket = self.bucket(self.slots[i].hash);
            self.slots[i].chain = self.buckets[bucket];
            self.buckets[bucket] = i as u32;
        }
    }

    /// How a response becomes a cache entry, for both planes: answers
    /// under their own minimum TTL, negatives (NODATA/NXDOMAIN) under
    /// the RFC 2308 value [`negative_ttl`] takes from the reply. The
    /// caller has already judged `reply` an answer to (`qname`,
    /// `qtype`).
    pub fn insert_reply(&mut self, qname: &Name, qtype: RType, reply: &Message, now: CacheTime) {
        let negative_ttl = negative_ttl(reply);
        self.insert(qname.clone(), qtype, reply.answers.clone(), reply.rcode(), negative_ttl, now);
    }

    /// Stores a response. TTL is the minimum across answer records, or
    /// `negative_ttl` when there are none ([`RecordCache::insert_reply`]
    /// takes it from the reply). TTL 0 is uncacheable.
    pub fn insert(
        &mut self,
        qname: Name,
        qtype: RType,
        answers: Vec<Record>,
        rcode: Rcode,
        negative_ttl: u32,
        now: CacheTime,
    ) {
        let hash = self.hasher.hash(&qname, qtype);
        self.insert_hashed(hash, qname, qtype, answers, rcode, negative_ttl, now);
    }

    /// [`RecordCache::insert`] for a caller that has hashed the question
    /// already: `hash` is its hash under the hasher this cache was built
    /// with ([`RecordCache::with_hasher`]).
    #[allow(clippy::too_many_arguments)] // `insert`'s arguments and the hash
    pub fn insert_hashed(
        &mut self,
        hash: u64,
        qname: Name,
        qtype: RType,
        answers: Vec<Record>,
        rcode: Rcode,
        negative_ttl: u32,
        now: CacheTime,
    ) {
        let ttl = answers.iter().map(|r| r.ttl).min().unwrap_or(negative_ttl);
        if ttl == 0 {
            return; // uncacheable
        }
        let kind = if rcode == Rcode::NxDomain {
            EntryKind::NxDomain
        } else if answers.is_empty() {
            EntryKind::NoData
        } else {
            EntryKind::Positive
        };
        self.stats.inserts += 1;
        // A refresh is the old entry out and a new one in: the prefetch
        // latch starts over, the slot is reused straight away.
        if let Some(old) = self.find(hash, &qname, qtype) {
            self.remove(old);
        }
        if self.live == self.buckets.len() {
            self.grow();
        }
        let bucket = self.bucket(hash);
        let slot = Slot {
            qname,
            qtype,
            hash,
            answers,
            rcode,
            kind,
            expires: now + Secs(ttl as u64),
            prefetch_fired: false,
            chain: self.buckets[bucket],
            older: NIL,
            newer: NIL,
        };
        let i = match self.free {
            NIL => {
                assert!(self.slots.len() < NIL as usize, "slot indices are 32 bits");
                self.slots.push(slot);
                self.slots.len() as u32 - 1
            }
            vacant => {
                self.free = std::mem::replace(&mut self.slots[vacant as usize], slot).chain;
                vacant
            }
        };
        self.buckets[bucket] = i;
        self.push_newest(i);
        self.live += 1;
        while self.bounded() && self.live > self.cfg.capacity {
            self.remove(self.oldest);
            self.stats.evictions += 1;
        }
    }

    /// Whether an entry that expired at `expires` may still be served
    /// stale at `now`.
    fn in_stale_window(&self, expires: CacheTime, now: CacheTime) -> bool {
        self.cfg.max_stale_s > 0
            && now.micros_since(expires) <= self.cfg.max_stale_s as u64 * 1_000_000
    }

    /// Looks a question up and reports what it found without copying a
    /// record — no heap allocation, hit or miss. Expiry is exclusive:
    /// an entry is dead *at* its expiry instant; a dead entry is dropped
    /// unless [`RecordCache::probe_stale`] could still serve it.
    pub fn probe(&mut self, qname: &Name, qtype: RType, now: CacheTime) -> Option<Hit> {
        self.probe_hashed(self.hasher.hash(qname, qtype), qname, qtype, now)
    }

    /// [`RecordCache::probe`] for a caller that has hashed the question
    /// already: `hash` is its hash under the hasher this cache was built
    /// with ([`RecordCache::with_hasher`]).
    pub fn probe_hashed(
        &mut self,
        hash: u64,
        qname: &Name,
        qtype: RType,
        now: CacheTime,
    ) -> Option<Hit> {
        self.probe_at(hash, qname, qtype, now).map(|(_, hit)| hit)
    }

    /// The probe proper: the hit and the slot it was found in.
    fn probe_at(
        &mut self,
        hash: u64,
        qname: &Name,
        qtype: RType,
        now: CacheTime,
    ) -> Option<(u32, Hit)> {
        let cfg = self.cfg;
        let Some(i) = self.find(hash, qname, qtype) else {
            self.stats.misses += 1;
            return None;
        };
        let expires = self.slots[i as usize].expires;
        if expires <= now {
            self.stats.misses += 1;
            self.stats.expired += 1;
            if !self.in_stale_window(expires, now) {
                self.remove(i);
            }
            return None;
        }
        let e = &mut self.slots[i as usize];
        self.stats.hits += 1;
        if e.kind != EntryKind::Positive {
            self.stats.negative_hits += 1;
        }
        let prefetch_due = cfg.prefetch_window_s > 0
            && !e.prefetch_fired
            && e.expires.micros_since(now) <= cfg.prefetch_window_s as u64 * 1_000_000;
        e.prefetch_fired |= prefetch_due;
        // Floor at 1: a record with sub-second life left is still live
        // (exclusive expiry), and TTL=0 on the wire would tell
        // downstream "do not cache" — the opposite of truth.
        let ttl = e.expires.secs_since(now).max(1) as u32;
        let hit = Hit { rcode: e.rcode, kind: e.kind, prefetch_due, stale: false, ttl };
        self.touch(i);
        Some((i, hit))
    }

    /// Finds an *expired* entry servable under RFC 8767: one still within
    /// the `max_stale_s` window. `None` changes nothing. Callers reach
    /// for this only after every authoritative has failed them.
    pub fn probe_stale(&mut self, qname: &Name, qtype: RType, now: CacheTime) -> Option<Hit> {
        self.probe_stale_at(qname, qtype, now).map(|(_, hit)| hit)
    }

    /// The stale probe proper: the hit and the slot it was found in.
    fn probe_stale_at(
        &mut self,
        qname: &Name,
        qtype: RType,
        now: CacheTime,
    ) -> Option<(u32, Hit)> {
        if self.cfg.max_stale_s == 0 {
            return None;
        }
        let i = self.find(self.hasher.hash(qname, qtype), qname, qtype)?;
        let e = &self.slots[i as usize];
        if e.expires > now || !self.in_stale_window(e.expires, now) {
            return None; // still live (use `probe`) or too stale to trust
        }
        let hit = Hit { rcode: e.rcode, kind: e.kind, prefetch_due: false, stale: true, ttl: STALE_TTL };
        self.stats.stale_served += 1;
        self.touch(i);
        Some((i, hit))
    }

    /// The records `hit`, found in slot `i`, goes out with.
    fn materialise(&self, i: u32, hit: Hit) -> CachedResponse {
        let answers = self.slots[i as usize]
            .answers
            .iter()
            .map(|r| Record { ttl: if hit.stale { hit.ttl } else { r.ttl.min(hit.ttl) }, ..r.clone() })
            .collect();
        CachedResponse {
            answers,
            rcode: hit.rcode,
            kind: hit.kind,
            prefetch_due: hit.prefetch_due,
            stale: hit.stale,
        }
    }

    /// [`RecordCache::probe`], then the records: live entries get their
    /// TTLs adjusted to the remaining lifetime, as a real cache serves
    /// them.
    pub fn get(&mut self, qname: &Name, qtype: RType, now: CacheTime) -> Option<CachedResponse> {
        let hash = self.hasher.hash(qname, qtype);
        self.probe_at(hash, qname, qtype, now).map(|(i, hit)| self.materialise(i, hit))
    }

    /// [`RecordCache::probe_stale`], then the records, under
    /// [`STALE_TTL`].
    pub fn get_stale(
        &mut self,
        qname: &Name,
        qtype: RType,
        now: CacheTime,
    ) -> Option<CachedResponse> {
        self.probe_stale_at(qname, qtype, now).map(|(i, hit)| self.materialise(i, hit))
    }

    /// Drops everything (the "cold cache" the paper enforces with 4-hour
    /// breaks between measurements). Statistics survive.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.buckets.fill(NIL);
        (self.free, self.oldest, self.newest, self.live) = (NIL, NIL, NIL, 0);
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entry count. An expired entry lingers until it is probed, and
    /// past that only while its serve-stale window lasts: the first
    /// `get` after the window drops it.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// How many buckets of the index head a chain. With the low bits of
    /// the hashes spread evenly that is most of `min(len(), buckets)`;
    /// a caller that routes questions between caches by their hash
    /// checks with it that the routing leaves those bits alone.
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|&&head| head != NIL).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_proto::rdata::{Soa, Txt};

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn txt_record(owner: &str, ttl: u32) -> Record {
        Record::new(name(owner), ttl, RData::Txt(Txt::from_string("x").unwrap()))
    }

    fn t(secs: u64) -> CacheTime {
        CacheTime::ZERO + Secs(secs)
    }

    fn us(micros: u64) -> CacheTime {
        CacheTime::from_micros(micros)
    }

    #[test]
    fn cache_stats_cover_every_field() {
        dnswild_ledger::assert_counter_set_covers_every_field::<CacheStats, 7>();
    }

    // ---- ported sim-plane suite (behaviour must not drift) ----

    #[test]
    fn hit_within_ttl() {
        let mut c = RecordCache::new();
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        let hit = c.get(&name("a.nl"), RType::Txt, t(4)).unwrap();
        assert_eq!(hit.rcode, Rcode::NoError);
        assert_eq!(hit.answers[0].ttl, 1, "ttl decremented to remaining");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn miss_after_ttl() {
        let mut c = RecordCache::new();
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        assert!(c.get(&name("a.nl"), RType::Txt, t(5)).is_none());
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().expired, 1);
        assert!(c.is_empty(), "expired entry evicted when serve-stale is off");
    }

    #[test]
    fn negative_entries_cached_with_negative_ttl() {
        let mut c = RecordCache::new();
        c.insert(name("nx.nl"), RType::A, vec![], Rcode::NxDomain, 60, t(0));
        let hit = c.get(&name("nx.nl"), RType::A, t(59)).unwrap();
        assert_eq!(hit.rcode, Rcode::NxDomain);
        assert!(c.get(&name("nx.nl"), RType::A, t(61)).is_none());
    }

    #[test]
    fn zero_ttl_not_cached() {
        let mut c = RecordCache::new();
        c.insert(name("z.nl"), RType::Txt, vec![txt_record("z.nl", 0)], Rcode::NoError, 300, t(0));
        assert!(c.get(&name("z.nl"), RType::Txt, t(0)).is_none());
        assert_eq!(c.stats().inserts, 0);
    }

    #[test]
    fn distinct_types_are_distinct_entries() {
        let mut c = RecordCache::new();
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 60)], Rcode::NoError, 300, t(0));
        assert!(c.get(&name("a.nl"), RType::A, t(1)).is_none());
        assert!(c.get(&name("a.nl"), RType::Txt, t(1)).is_some());
    }

    #[test]
    fn unique_labels_never_hit() {
        // The paper's methodology in miniature.
        let mut c = RecordCache::new();
        for i in 0..10 {
            let qname = name(&format!("probe-{i}.test.nl"));
            assert!(c.get(&qname, RType::Txt, t(i)).is_none());
            c.insert(qname, RType::Txt, vec![txt_record("x.nl", 5)], Rcode::NoError, 300, t(i));
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 10);
    }

    #[test]
    fn clear_empties() {
        let mut c = RecordCache::new();
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 60)], Rcode::NoError, 300, t(0));
        c.clear();
        assert!(c.is_empty());
    }

    // ---- satellite pins: TTL floor and exclusive expiry boundary ----

    #[test]
    fn ttl_floors_at_one_second_on_reads() {
        let mut c = RecordCache::new();
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        // 4.999999s in: remaining truncates to 0 whole seconds, but the
        // entry is live — a live entry must never emit TTL=0.
        let hit = c.get(&name("a.nl"), RType::Txt, us(4_999_999)).unwrap();
        assert_eq!(hit.answers[0].ttl, 1, "sub-second remainder floors to 1, not 0");
    }

    #[test]
    fn expiry_is_exclusive_at_the_boundary() {
        let mut c = RecordCache::new();
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        // One microsecond before expiry: still live.
        assert!(c.get(&name("a.nl"), RType::Txt, us(4_999_999)).is_some());
        // Exactly at expiry: dead. (`expires > now` — strict.)
        assert!(c.get(&name("a.nl"), RType::Txt, us(5_000_000)).is_none());
    }

    // ---- RFC 2308: NXDOMAIN vs NODATA ----

    #[test]
    fn nxdomain_and_nodata_stay_distinct() {
        let mut c = RecordCache::new();
        c.insert(name("gone.nl"), RType::A, vec![], Rcode::NxDomain, 60, t(0));
        c.insert(name("txt-only.nl"), RType::A, vec![], Rcode::NoError, 60, t(0));
        let nx = c.get(&name("gone.nl"), RType::A, t(1)).unwrap();
        let nodata = c.get(&name("txt-only.nl"), RType::A, t(1)).unwrap();
        assert_eq!(nx.kind, EntryKind::NxDomain);
        assert_eq!(nx.rcode, Rcode::NxDomain);
        assert_eq!(nodata.kind, EntryKind::NoData);
        assert_eq!(nodata.rcode, Rcode::NoError, "NODATA is NOERROR + empty, not NXDOMAIN");
        assert_eq!(c.stats().negative_hits, 2);
    }

    /// The reply→entry rule both resolvers share: a negative reply
    /// lives for min(SOA.minimum, SOA.ttl), `NEGATIVE_TTL_WITHOUT_SOA`
    /// only without an SOA, and a positive one for its own records' TTL.
    #[test]
    fn insert_reply_takes_the_negative_ttl_from_the_soa() {
        let q = Message::iterative_query(1, name("gone.nl"), RType::A);
        let mut nx = Message::response_to(&q, Rcode::NxDomain);
        let mut c = RecordCache::new();
        c.insert_reply(&name("bare.nl"), RType::A, &nx, t(0));
        assert!(c.get(&name("bare.nl"), RType::A, t(299)).is_some(), "no SOA: the default");
        assert!(c.get(&name("bare.nl"), RType::A, t(300)).is_none());
        for (owner, soa_ttl, minimum, lives) in [("min.nl", 3600, 60, 60), ("ttl.nl", 30, 60, 30)] {
            let soa = Soa::new(name("ns1.nl"), name("hostmaster.nl"), 1, 7200, 3600, 86400, minimum);
            nx.authorities = vec![Record::new(name("nl"), soa_ttl, RData::Soa(soa))];
            c.insert_reply(&name(owner), RType::A, &nx, t(0));
            let hit = c.get(&name(owner), RType::A, t(lives - 1)).expect("inside the negative TTL");
            assert_eq!(hit.kind, EntryKind::NxDomain);
            assert!(c.get(&name(owner), RType::A, t(lives)).is_none(), "{owner} outlived {lives}s");
        }
        let mut pos = Message::response_to(&q, Rcode::NoError);
        pos.answers.push(txt_record("gone.nl", 5));
        pos.authorities = nx.authorities.clone();
        c.insert_reply(&name("gone.nl"), RType::A, &pos, t(0));
        assert_eq!(c.get(&name("gone.nl"), RType::A, t(4)).unwrap().kind, EntryKind::Positive);
        assert!(c.get(&name("gone.nl"), RType::A, t(5)).is_none(), "answers keep their own TTL");
    }

    // ---- bounded LRU ----

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = RecordCache::with_config(CacheConfig { capacity: 2, ..Default::default() });
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 60)], Rcode::NoError, 300, t(0));
        c.insert(name("b.nl"), RType::Txt, vec![txt_record("b.nl", 60)], Rcode::NoError, 300, t(1));
        // Touch a so b becomes the LRU victim.
        assert!(c.get(&name("a.nl"), RType::Txt, t(2)).is_some());
        c.insert(name("c.nl"), RType::Txt, vec![txt_record("c.nl", 60)], Rcode::NoError, 300, t(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(&name("b.nl"), RType::Txt, t(4)).is_none(), "b was evicted");
        assert!(c.get(&name("a.nl"), RType::Txt, t(4)).is_some(), "recently used a survives");
        assert!(c.get(&name("c.nl"), RType::Txt, t(4)).is_some());
    }

    #[test]
    fn queue_compaction_keeps_lru_order() {
        let mut c = RecordCache::with_config(CacheConfig { capacity: 2, ..Default::default() });
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 600)], Rcode::NoError, 300, t(0));
        c.insert(name("b.nl"), RType::Txt, vec![txt_record("b.nl", 600)], Rcode::NoError, 300, t(0));
        // Hammer one entry far past the compaction threshold.
        for i in 0..500 {
            assert!(c.get(&name("a.nl"), RType::Txt, t(1 + i % 2)).is_some());
        }
        c.insert(name("c.nl"), RType::Txt, vec![txt_record("c.nl", 600)], Rcode::NoError, 300, t(2));
        assert!(c.get(&name("b.nl"), RType::Txt, t(3)).is_none(), "cold b evicted, not hot a");
        assert!(c.get(&name("a.nl"), RType::Txt, t(3)).is_some());
    }

    /// 64 touches with no eviction between them was where the old lazy
    /// queue compacted — and, when the compacting touch was the last
    /// one before an insert, lost track of the entry it had just
    /// touched and evicted the newcomer in its place.
    #[test]
    fn the_newcomer_is_never_the_victim() {
        let mut c = RecordCache::with_config(CacheConfig { capacity: 1, ..Default::default() });
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 600)], Rcode::NoError, 300, t(0));
        for _ in 0..66 {
            assert!(c.get(&name("a.nl"), RType::Txt, t(1)).is_some());
        }
        c.insert(name("b.nl"), RType::Txt, vec![txt_record("b.nl", 600)], Rcode::NoError, 300, t(2));
        assert!(c.get(&name("b.nl"), RType::Txt, t(3)).is_some(), "the entry just stored stays");
        assert!(c.get(&name("a.nl"), RType::Txt, t(3)).is_none(), "the older one made room");
    }

    // ---- the slab and its index ----

    /// The index grows by doubling and shrinks by unlinking; neither may
    /// lose an entry, resurrect one, or confuse two names sharing a
    /// bucket. 3,000 names across nine doublings, every third expired
    /// and dropped by its probe, the rest still found; then the vacated
    /// slots are reused before the slab grows again. Twice: unbounded,
    /// with no LRU list, and bounded above the fill, with one.
    #[test]
    fn the_index_survives_growth_removal_and_slot_reuse() {
        for capacity in [0, 10_000] {
            let mut c = RecordCache::with_config(CacheConfig { capacity, ..Default::default() });
            let owner = |i: u32| name(&format!("n{i}.grow.nl"));
            let put = |c: &mut RecordCache, i, ttl, at| {
                c.insert(owner(i), RType::Txt, vec![txt_record("x.nl", ttl)], Rcode::NoError, 300, t(at));
            };
            for i in 0..3_000 {
                put(&mut c, i, if i % 3 == 0 { 5 } else { 600 }, 0);
            }
            assert_eq!((c.len(), c.slots.len()), (3_000, 3_000));
            assert!(c.buckets.len() >= 3_000 && c.buckets.len().is_power_of_two());
            for i in 0..3_000 {
                assert_eq!(c.get(&owner(i), RType::Txt, t(10)).is_some(), i % 3 != 0, "n{i}");
                assert!(c.get(&owner(i), RType::A, t(10)).is_none(), "the type is part of the key");
            }
            assert_eq!(c.len(), 2_000, "every expired entry was dropped by its probe");
            for i in 3_000..4_000 {
                put(&mut c, i, 600, 10);
            }
            assert_eq!((c.len(), c.slots.len()), (3_000, 3_000), "vacated slots are reused first");
            for i in 0..4_000 {
                let found = c.get(&owner(i), RType::Txt, t(11)).is_some();
                assert_eq!(found, i % 3 != 0 || i >= 3_000, "n{i}, capacity {capacity}");
            }
            assert_eq!(c.stats().evictions, 0);
            c.clear();
            assert!(c.is_empty() && c.get(&owner(1), RType::Txt, t(11)).is_none());
            put(&mut c, 1, 600, 11);
            assert_eq!((c.len(), c.slots.len()), (1, 1), "a cleared cache starts over");
        }
    }

    /// A bounded cache's slab is bounded too: one slot per entry plus
    /// the one an insert fills before it evicts.
    #[test]
    fn a_bounded_cache_never_holds_more_slots_than_capacity_plus_one() {
        let mut c = RecordCache::with_config(CacheConfig { capacity: 4, ..Default::default() });
        for i in 0..1_000 {
            let owner = name(&format!("n{i}.churn.nl"));
            c.insert(owner, RType::Txt, vec![txt_record("x.nl", 600)], Rcode::NoError, 300, t(0));
            assert!(c.len() <= 4 && c.slots.len() <= 5);
        }
        assert_eq!(c.stats().evictions, 996);
        assert_eq!(c.buckets.len(), 8, "and its index never had to grow");
    }

    /// `probe` is `get` without the records: same verdict, same flags,
    /// same books, and a TTL ceiling that is what `get` clamps to.
    #[test]
    fn probe_reports_what_get_serves() {
        let cfg = CacheConfig { prefetch_window_s: 5, max_stale_s: 60, ..Default::default() };
        let (mut probed, mut got) = (RecordCache::with_config(cfg), RecordCache::with_config(cfg));
        for c in [&mut probed, &mut got] {
            let answers = vec![txt_record("a.nl", 10), txt_record("a.nl", 3)];
            c.insert(name("a.nl"), RType::Txt, answers, Rcode::NoError, 300, t(0));
            c.insert(name("nx.nl"), RType::A, vec![], Rcode::NxDomain, 8, t(0));
        }
        for (owner, qtype, at) in [
            ("a.nl", RType::Txt, 1),
            ("A.NL", RType::Txt, 2),
            ("nx.nl", RType::A, 2),
            ("nx.nl", RType::Txt, 2),
            ("nx.nl", RType::A, 9),
        ] {
            let hit = probed.probe(&name(owner), qtype, t(at));
            let full = got.get(&name(owner), qtype, t(at));
            assert_eq!(hit.is_some(), full.is_some(), "{owner} at {at}s");
            if let (Some(hit), Some(full)) = (hit, full) {
                assert_eq!(
                    (hit.rcode, hit.kind, hit.prefetch_due, hit.stale),
                    (full.rcode, full.kind, full.prefetch_due, full.stale)
                );
                assert!(full.answers.iter().all(|r| r.ttl <= hit.ttl));
            }
        }
        let stale = probed.probe_stale(&name("nx.nl"), RType::A, t(9)).unwrap();
        let full = got.get_stale(&name("nx.nl"), RType::A, t(9)).unwrap();
        assert_eq!((stale.rcode, stale.stale, stale.ttl), (full.rcode, true, STALE_TTL));
        assert_eq!(probed.stats(), got.stats());
    }

    // ---- RFC 8767 serve-stale ----

    fn stale_cfg(max_stale_s: u32) -> CacheConfig {
        CacheConfig { max_stale_s, ..Default::default() }
    }

    #[test]
    fn stale_entries_served_within_window_under_budget() {
        let mut c = RecordCache::with_config(stale_cfg(60));
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        // Expired probe misses but retains the entry.
        assert!(c.get(&name("a.nl"), RType::Txt, t(10)).is_none());
        assert_eq!(c.len(), 1, "expired entry retained while serve-stale is on");
        let stale = c.get_stale(&name("a.nl"), RType::Txt, t(10)).unwrap();
        assert!(stale.stale);
        assert_eq!(stale.answers[0].ttl, STALE_TTL);
        assert_eq!(c.stats().stale_served, 1);
    }

    #[test]
    fn stale_window_and_liveness_are_enforced() {
        let mut c = RecordCache::with_config(stale_cfg(60));
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        // Still live: get_stale refuses (the live path owns it).
        assert!(c.get_stale(&name("a.nl"), RType::Txt, t(3)).is_none());
        // Past expiry + max_stale: too old to trust.
        assert!(c.get_stale(&name("a.nl"), RType::Txt, t(5 + 61)).is_none());
        // Inside the window: served.
        assert!(c.get_stale(&name("a.nl"), RType::Txt, t(5 + 60)).is_some());
    }

    /// Serve-stale keeps an expired entry for `get_stale`, not for
    /// ever: once the window has passed nothing can serve it again, and
    /// on an unbounded cache whose upstream stays dead nothing else
    /// would reclaim it.
    #[test]
    fn an_entry_past_its_stale_window_is_reclaimed() {
        let mut c = RecordCache::with_config(stale_cfg(60));
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        assert!(c.get(&name("a.nl"), RType::Txt, t(5 + 60)).is_none());
        assert_eq!(c.len(), 1, "the last instant of the window: still servable stale");
        assert!(c.get(&name("a.nl"), RType::Txt, t(5 + 61)).is_none());
        assert_eq!(c.len(), 0, "past the window: dropped by the probe that found it");
        assert_eq!(c.stats().expired, 2);
    }

    #[test]
    fn stale_negative_answers_keep_their_rcode() {
        let mut c = RecordCache::with_config(stale_cfg(600));
        c.insert(name("nx.nl"), RType::A, vec![], Rcode::NxDomain, 5, t(0));
        assert!(c.get(&name("nx.nl"), RType::A, t(6)).is_none());
        let stale = c.get_stale(&name("nx.nl"), RType::A, t(6)).unwrap();
        assert_eq!(stale.rcode, Rcode::NxDomain);
        assert_eq!(stale.kind, EntryKind::NxDomain);
    }

    // ---- prefetch near expiry ----

    #[test]
    fn prefetch_marks_hot_entries_near_expiry_once() {
        let cfg = CacheConfig { prefetch_window_s: 2, ..Default::default() };
        let mut c = RecordCache::with_config(cfg);
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 10)], Rcode::NoError, 300, t(0));
        // Hot but not near expiry: no prefetch.
        assert!(!c.get(&name("a.nl"), RType::Txt, t(1)).unwrap().prefetch_due);
        assert!(!c.get(&name("a.nl"), RType::Txt, t(2)).unwrap().prefetch_due);
        // Near expiry (remaining <= 2s): due.
        assert!(c.get(&name("a.nl"), RType::Txt, t(8)).unwrap().prefetch_due);
        // The latch keeps a hot entry from re-triggering every hit.
        assert!(!c.get(&name("a.nl"), RType::Txt, t(9)).unwrap().prefetch_due);
        // A refreshing insert re-arms it.
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 10)], Rcode::NoError, 300, t(9));
        assert!(!c.get(&name("a.nl"), RType::Txt, t(10)).unwrap().prefetch_due);
        assert!(c.get(&name("a.nl"), RType::Txt, t(17)).unwrap().prefetch_due);
    }
}
