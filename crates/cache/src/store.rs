//! The cache proper: a bounded, TTL-respecting record store with
//! negative caching, prefetch marking, and serve-stale.

use std::collections::{HashMap, VecDeque};

use dnswild_proto::{Message, Name, RData, RType, Rcode, Record};

use crate::clock::{CacheTime, Secs};

/// TTL stamped on answers served stale (RFC 8767 §4 caps the advertised
/// lifetime of stale data at 30 seconds).
pub const STALE_TTL: u32 = 30;

/// Cache key: question name and type (class is always IN here).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    qname: Name,
    qtype: RType,
}

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

/// A stored response.
#[derive(Debug, Clone)]
struct Entry {
    answers: Vec<Record>,
    rcode: Rcode,
    kind: EntryKind,
    expires: CacheTime,
    /// LRU stamp: the tick of the most recent use (see `queue`).
    stamp: u64,
    /// Live hits since (re-)insertion — the popularity signal prefetch
    /// keys on.
    hits: u64,
    /// One-shot latch so a hot entry triggers at most one prefetch per
    /// lifetime; reset by the refreshing insert.
    prefetch_fired: bool,
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
    /// True when this hit is hot and close enough to expiry that the
    /// caller should refresh it in the background.
    pub prefetch_due: bool,
    /// True when served past expiry under RFC 8767 (only from
    /// [`RecordCache::get_stale`]).
    pub stale: bool,
}

/// Statistics for cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing usable (includes `expired`).
    pub misses: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Misses that found an entry past its TTL (subset of `misses`).
    pub expired: u64,
    /// Live hits on negative entries (subset of `hits`).
    pub negative_hits: u64,
    /// Entries pushed out by the capacity bound.
    pub evictions: u64,
    /// Expired entries served anyway under serve-stale.
    pub stale_served: u64,
}

/// Knobs; the default configuration reproduces the original sim-plane
/// cache exactly (unbounded, no prefetch, expired entries dropped on
/// probe), so the simulator's outputs are bit-stable across the
/// unification.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum live entries; 0 means unbounded.
    pub capacity: usize,
    /// Prefetch when a hot entry's remaining life is at most this many
    /// seconds; 0 disables prefetch marking.
    pub prefetch_window_s: u32,
    /// Hits an entry needs before it counts as hot.
    pub prefetch_min_hits: u64,
    /// How long past expiry an entry stays servable stale; 0 disables
    /// serve-stale (expired entries are removed on probe).
    pub max_stale_s: u32,
    /// Maximum stale answers this cache will ever serve.
    pub stale_budget: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 0,
            prefetch_window_s: 0,
            prefetch_min_hits: 1,
            max_stale_s: 0,
            stale_budget: u64::MAX,
        }
    }
}

/// A TTL-respecting record cache; see the crate docs for the plane split.
#[derive(Debug, Default)]
pub struct RecordCache {
    entries: HashMap<CacheKey, Entry>,
    /// Lazy LRU order: every use pushes `(tick, key)`; eviction pops from
    /// the front, skipping records whose tick no longer matches the
    /// entry's current stamp. O(1) amortized, no linked list.
    queue: VecDeque<(u64, CacheKey)>,
    tick: u64,
    cfg: CacheConfig,
    stats: CacheStats,
}

impl RecordCache {
    /// An empty cache with sim-compatible defaults (see [`CacheConfig`]).
    pub fn new() -> Self {
        RecordCache::default()
    }

    /// An empty cache with explicit knobs.
    pub fn with_config(cfg: CacheConfig) -> Self {
        RecordCache { cfg, ..RecordCache::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn touch(&mut self, key: &CacheKey) -> u64 {
        self.tick += 1;
        self.queue.push_back((self.tick, key.clone()));
        // The queue holds one record per *use*, not per entry; compact
        // once the dead weight dominates so unbounded caches with hot
        // entries don't grow it forever.
        if self.queue.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.queue.retain(|(tick, key)| {
                entries.get(key).is_some_and(|e| e.stamp == *tick)
            });
        }
        self.tick
    }

    fn evict_to_capacity(&mut self) {
        if self.cfg.capacity == 0 {
            return;
        }
        while self.entries.len() > self.cfg.capacity {
            match self.queue.pop_front() {
                Some((tick, key)) => {
                    let live = self.entries.get(&key).is_some_and(|e| e.stamp == tick);
                    if live {
                        self.entries.remove(&key);
                        self.stats.evictions += 1;
                    }
                }
                None => break, // queue exhausted: nothing left to evict
            }
        }
    }

    /// How a response becomes a cache entry, for both planes: answers
    /// under their own minimum TTL, negatives (NODATA/NXDOMAIN) under
    /// the RFC 2308 value `min(SOA.minimum, SOA.ttl)` of the authority
    /// section's SOA, or `default_negative_ttl` when the reply carries
    /// none. The caller has already judged `reply` an answer to
    /// (`qname`, `qtype`).
    pub fn insert_reply(
        &mut self,
        qname: &Name,
        qtype: RType,
        reply: &Message,
        default_negative_ttl: u32,
        now: CacheTime,
    ) {
        let negative_ttl = reply
            .authorities
            .iter()
            .find_map(|r| match &r.rdata {
                RData::Soa(soa) => Some(soa.minimum.min(r.ttl)),
                _ => None,
            })
            .unwrap_or(default_negative_ttl);
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
        let key = CacheKey { qname, qtype };
        let stamp = self.touch(&key);
        self.entries.insert(
            key,
            Entry {
                answers,
                rcode,
                kind,
                expires: now + Secs(ttl as u64),
                stamp,
                hits: 0,
                prefetch_fired: false,
            },
        );
        self.evict_to_capacity();
    }

    /// Looks a question up; live entries get their TTLs adjusted to the
    /// remaining lifetime, as a real cache serves them. Expiry is
    /// exclusive: an entry is dead *at* its expiry instant.
    pub fn get(&mut self, qname: &Name, qtype: RType, now: CacheTime) -> Option<CachedResponse> {
        let key = CacheKey { qname: qname.clone(), qtype };
        let cfg = self.cfg;
        match self.entries.get_mut(&key) {
            Some(e) if e.expires > now => {
                self.stats.hits += 1;
                if e.kind != EntryKind::Positive {
                    self.stats.negative_hits += 1;
                }
                e.hits += 1;
                // Floor at 1: a record with sub-second life left is still
                // live (exclusive expiry), and TTL=0 on the wire would
                // tell downstream "do not cache" — the opposite of truth.
                let remaining = e.expires.secs_since(now).max(1) as u32;
                let prefetch_due = cfg.prefetch_window_s > 0
                    && !e.prefetch_fired
                    && e.hits >= cfg.prefetch_min_hits
                    && e.expires.micros_since(now) <= cfg.prefetch_window_s as u64 * 1_000_000;
                if prefetch_due {
                    e.prefetch_fired = true;
                }
                let answers = e
                    .answers
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r.ttl = r.ttl.min(remaining);
                        r
                    })
                    .collect();
                let out = CachedResponse {
                    answers,
                    rcode: e.rcode,
                    kind: e.kind,
                    prefetch_due,
                    stale: false,
                };
                self.touch(&key);
                let stamp = self.tick;
                if let Some(e) = self.entries.get_mut(&key) {
                    e.stamp = stamp;
                }
                Some(out)
            }
            Some(_) => {
                self.stats.misses += 1;
                self.stats.expired += 1;
                if cfg.max_stale_s == 0 {
                    self.entries.remove(&key);
                } // else: retained for get_stale
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Serves an *expired* entry under RFC 8767, if it is within the
    /// `max_stale_s` window and the stale-answer budget has room.
    /// Answers carry [`STALE_TTL`]. Callers reach for this only after
    /// every authoritative has failed them.
    pub fn get_stale(
        &mut self,
        qname: &Name,
        qtype: RType,
        now: CacheTime,
    ) -> Option<CachedResponse> {
        if self.cfg.max_stale_s == 0 || self.stats.stale_served >= self.cfg.stale_budget {
            return None;
        }
        let key = CacheKey { qname: qname.clone(), qtype };
        let max_stale_us = self.cfg.max_stale_s as u64 * 1_000_000;
        let e = self.entries.get(&key)?;
        if e.expires > now || now.micros_since(e.expires) > max_stale_us {
            return None; // still live (use `get`) or too stale to trust
        }
        self.stats.stale_served += 1;
        let answers = e
            .answers
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.ttl = STALE_TTL;
                r
            })
            .collect();
        let out = CachedResponse {
            answers,
            rcode: e.rcode,
            kind: e.kind,
            prefetch_due: false,
            stale: true,
        };
        let stamp = self.touch(&key);
        if let Some(e) = self.entries.get_mut(&key) {
            e.stamp = stamp;
        }
        Some(out)
    }

    /// Drops everything (the "cold cache" the paper enforces with 4-hour
    /// breaks between measurements). Statistics survive.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.queue.clear();
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entry count (expired entries may linger until probed, or until
    /// their serve-stale window passes under eviction pressure).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    /// lives for min(SOA.minimum, SOA.ttl), the caller's default only
    /// without an SOA, and a positive one for its own records' TTL.
    #[test]
    fn insert_reply_takes_the_negative_ttl_from_the_soa() {
        let q = Message::iterative_query(1, name("gone.nl"), RType::A);
        let mut nx = Message::response_to(&q, Rcode::NxDomain);
        let mut c = RecordCache::new();
        c.insert_reply(&name("bare.nl"), RType::A, &nx, 300, t(0));
        assert!(c.get(&name("bare.nl"), RType::A, t(299)).is_some(), "no SOA: the default");
        assert!(c.get(&name("bare.nl"), RType::A, t(300)).is_none());
        for (owner, soa_ttl, minimum, lives) in [("min.nl", 3600, 60, 60), ("ttl.nl", 30, 60, 30)] {
            let soa = Soa::new(name("ns1.nl"), name("hostmaster.nl"), 1, 7200, 3600, 86400, minimum);
            nx.authorities = vec![Record::new(name("nl"), soa_ttl, RData::Soa(soa))];
            c.insert_reply(&name(owner), RType::A, &nx, 300, t(0));
            let hit = c.get(&name(owner), RType::A, t(lives - 1)).expect("inside the negative TTL");
            assert_eq!(hit.kind, EntryKind::NxDomain);
            assert!(c.get(&name(owner), RType::A, t(lives)).is_none(), "{owner} outlived {lives}s");
        }
        let mut pos = Message::response_to(&q, Rcode::NoError);
        pos.answers.push(txt_record("gone.nl", 5));
        pos.authorities = nx.authorities.clone();
        c.insert_reply(&name("gone.nl"), RType::A, &pos, 300, t(0));
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

    // ---- RFC 8767 serve-stale ----

    fn stale_cfg(max_stale_s: u32, budget: u64) -> CacheConfig {
        CacheConfig { max_stale_s, stale_budget: budget, ..Default::default() }
    }

    #[test]
    fn stale_entries_served_within_window_under_budget() {
        let mut c = RecordCache::with_config(stale_cfg(60, 1));
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        // Expired probe misses but retains the entry.
        assert!(c.get(&name("a.nl"), RType::Txt, t(10)).is_none());
        assert_eq!(c.len(), 1, "expired entry retained while serve-stale is on");
        let stale = c.get_stale(&name("a.nl"), RType::Txt, t(10)).unwrap();
        assert!(stale.stale);
        assert_eq!(stale.answers[0].ttl, STALE_TTL);
        assert_eq!(c.stats().stale_served, 1);
        // Budget of 1 is now spent.
        assert!(c.get_stale(&name("a.nl"), RType::Txt, t(11)).is_none());
    }

    #[test]
    fn stale_window_and_liveness_are_enforced() {
        let mut c = RecordCache::with_config(stale_cfg(60, u64::MAX));
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 5)], Rcode::NoError, 300, t(0));
        // Still live: get_stale refuses (the live path owns it).
        assert!(c.get_stale(&name("a.nl"), RType::Txt, t(3)).is_none());
        // Past expiry + max_stale: too old to trust.
        assert!(c.get_stale(&name("a.nl"), RType::Txt, t(5 + 61)).is_none());
        // Inside the window: served.
        assert!(c.get_stale(&name("a.nl"), RType::Txt, t(5 + 60)).is_some());
    }

    #[test]
    fn stale_negative_answers_keep_their_rcode() {
        let mut c = RecordCache::with_config(stale_cfg(600, u64::MAX));
        c.insert(name("nx.nl"), RType::A, vec![], Rcode::NxDomain, 5, t(0));
        assert!(c.get(&name("nx.nl"), RType::A, t(6)).is_none());
        let stale = c.get_stale(&name("nx.nl"), RType::A, t(6)).unwrap();
        assert_eq!(stale.rcode, Rcode::NxDomain);
        assert_eq!(stale.kind, EntryKind::NxDomain);
    }

    // ---- popularity-driven prefetch ----

    #[test]
    fn prefetch_marks_hot_entries_near_expiry_once() {
        let cfg = CacheConfig { prefetch_window_s: 2, prefetch_min_hits: 2, ..Default::default() };
        let mut c = RecordCache::with_config(cfg);
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 10)], Rcode::NoError, 300, t(0));
        // Hot but not near expiry: no prefetch.
        assert!(!c.get(&name("a.nl"), RType::Txt, t(1)).unwrap().prefetch_due);
        assert!(!c.get(&name("a.nl"), RType::Txt, t(2)).unwrap().prefetch_due);
        // Near expiry (remaining <= 2s) and past the hit threshold: due.
        assert!(c.get(&name("a.nl"), RType::Txt, t(8)).unwrap().prefetch_due);
        // The latch keeps a hot entry from re-triggering every hit.
        assert!(!c.get(&name("a.nl"), RType::Txt, t(9)).unwrap().prefetch_due);
        // A refreshing insert re-arms it.
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 10)], Rcode::NoError, 300, t(9));
        assert!(!c.get(&name("a.nl"), RType::Txt, t(10)).unwrap().prefetch_due);
        assert!(c.get(&name("a.nl"), RType::Txt, t(17)).unwrap().prefetch_due);
    }

    #[test]
    fn cold_entries_never_prefetch() {
        let cfg = CacheConfig { prefetch_window_s: 2, prefetch_min_hits: 5, ..Default::default() };
        let mut c = RecordCache::with_config(cfg);
        c.insert(name("a.nl"), RType::Txt, vec![txt_record("a.nl", 10)], Rcode::NoError, 300, t(0));
        // One hit near expiry is below the popularity threshold.
        assert!(!c.get(&name("a.nl"), RType::Txt, t(9)).unwrap().prefetch_due);
    }
}
