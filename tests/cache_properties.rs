//! Cache-plane property suite: for *stable* zones a record cache is
//! transparent — a client resolving through one observes exactly the
//! answers the authority would give, whatever mix of hits, refills,
//! evictions and expirations the op sequence produces — and the
//! client-side ledger ([`ClientStats::check`]) balances for every
//! outcome mix, prefetch included.
//!
//! The first three properties drive the [`RecordCache`] model directly
//! with an explicit clock (512+ cases each); the last one puts a cached
//! and an uncached client side by side on real sockets. Failures replay
//! deterministically via the seed printed by the harness
//! (`DETRAND_REPLAY`).

use std::sync::Arc;

use dnswild::cache::{
    CacheConfig, CacheStats, CacheTime, CachedResponse, EntryKind, RecordCache, Secs, STALE_TTL,
};
use dnswild::netio::{resolve, serve, ClientStats, ResolveConfig, ServeConfig, SharedCache};
use dnswild::proto::rdata::Txt;
use dnswild::proto::{Name, RData, RType, Rcode, Record};
use dnswild::zone::presets::test_domain_zone;

use detrand::qc;

/// A stable zone in miniature: eight questions whose answers are a pure
/// function of the question, covering positive (one- and two-record),
/// NODATA and NXDOMAIN shapes. `(answers, rcode, negative_ttl)`.
fn stable_answer(i: usize, qname: &Name) -> (Vec<Record>, Rcode, u32) {
    let txt = |v: &str, ttl: u32| {
        Record::new(qname.clone(), ttl, RData::Txt(Txt::from_string(v).unwrap()))
    };
    match i % 4 {
        0 => (vec![txt(&format!("v{i}"), 5 + (i as u32 * 7) % 50)], Rcode::NoError, 300),
        1 => {
            let ttl = 8 + (i as u32 * 11) % 40;
            (vec![txt(&format!("a{i}"), ttl), txt(&format!("b{i}"), ttl + 3)], Rcode::NoError, 300)
        }
        2 => (vec![], Rcode::NoError, 4 + i as u32), // NODATA
        _ => (vec![], Rcode::NxDomain, 6 + i as u32),
    }
}

fn stable_names() -> Vec<Name> {
    (0..8).map(|i| Name::parse(&format!("q{i}.stable.nl")).unwrap()).collect()
}

/// Whatever the cache's internal state — fresh, warm, evicted, expired,
/// retained-for-stale — a query either hits with the authority's exact
/// answer (rcode, kind, rdata; TTLs only ever decremented, never 0) or
/// misses and is refilled from the authority. Either way the observed
/// final answer is the authority's, so stable zones cannot be answered
/// wrongly through the cache. The books hold throughout.
#[test]
fn cache_is_transparent_for_stable_zones() {
    let names = stable_names();
    qc::property("cache/transparent-for-stable-zones").cases(512).check(|g| {
        let cfg = CacheConfig {
            capacity: *g.choose(&[0, 0, 1, 2, 4, 8]),
            prefetch_window_s: *g.choose(&[0, 2]),
            max_stale_s: *g.choose(&[0, 60]),
        };
        let mut cache = RecordCache::with_config(cfg);
        let mut now = CacheTime::ZERO;
        let probes = 16 + g.index(32);
        for _ in 0..probes {
            now = now + Secs(g.u64_in(0..6));
            let i = g.index(names.len());
            let qname = &names[i];
            let (want_answers, want_rcode, neg_ttl) = stable_answer(i, qname);
            match cache.get(qname, RType::Txt, now) {
                Some(hit) => {
                    assert!(!hit.stale, "live path never serves stale");
                    assert_eq!(hit.rcode, want_rcode);
                    let want_kind = match (want_rcode, want_answers.is_empty()) {
                        (Rcode::NxDomain, _) => EntryKind::NxDomain,
                        (_, true) => EntryKind::NoData,
                        (_, false) => EntryKind::Positive,
                    };
                    assert_eq!(hit.kind, want_kind, "RFC 2308 shapes stay distinct");
                    assert_eq!(hit.answers.len(), want_answers.len());
                    for (got, want) in hit.answers.iter().zip(&want_answers) {
                        assert_eq!(got.name, want.name);
                        assert_eq!(got.rdata, want.rdata, "cached rdata is the authority's");
                        assert!(
                            got.ttl >= 1 && got.ttl <= want.ttl,
                            "TTL only decrements, floored at 1 ({} vs {})",
                            got.ttl,
                            want.ttl
                        );
                    }
                }
                None => {
                    // Miss: the client refills from the (stable)
                    // authority, so the observed answer is authoritative
                    // by construction.
                    cache.insert(
                        qname.clone(),
                        RType::Txt,
                        want_answers,
                        want_rcode,
                        neg_ttl,
                        now,
                    );
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, probes as u64, "every probe hits or misses");
        assert_eq!(s.inserts, s.misses, "every miss was refilled (all TTLs cacheable)");
        assert!(s.expired <= s.misses);
        assert!(s.negative_hits <= s.hits);
        assert_eq!(s.stale_served, 0, "authority alive: stale path never taken");
        if cfg.capacity > 0 {
            assert!(cache.len() <= cfg.capacity, "capacity bound holds under churn");
        }
    });
}

/// The decremented TTL a hit carries is exactly the remaining whole
/// seconds, floored at 1 (a live entry never says "do not cache"), and
/// expiry is exclusive: dead at the boundary instant, alive one
/// microsecond before.
#[test]
fn ttl_decrement_is_exact_and_expiry_exclusive() {
    let qname = Name::parse("ttl.stable.nl").unwrap();
    qc::property("cache/ttl-decrement-exact").cases(512).check(|g| {
        let ttl = g.u32_in(1..600);
        let base = CacheTime::from_micros(g.u64_in(0..1_000_000_000));
        let life_us = ttl as u64 * 1_000_000;
        let off_us = g.u64_in(0..2 * life_us);
        let rec = Record::new(qname.clone(), ttl, RData::Txt(Txt::from_string("t").unwrap()));
        let mut cache = RecordCache::new();
        cache.insert(qname.clone(), RType::Txt, vec![rec], Rcode::NoError, 300, base);
        let probe = CacheTime::from_micros(base.as_micros() + off_us);
        match cache.get(&qname, RType::Txt, probe) {
            Some(hit) => {
                assert!(off_us < life_us, "hit past expiry at +{off_us}us of {life_us}us");
                let want = (((life_us - off_us) / 1_000_000) as u32).max(1);
                assert_eq!(hit.answers[0].ttl, want, "remaining = floor(secs left), min 1");
            }
            None => {
                assert!(off_us >= life_us, "miss before expiry at +{off_us}us of {life_us}us");
                assert_eq!(cache.stats().expired, 1);
            }
        }
    });
}

/// RFC 8767 serve-stale is exactly bounded: `get_stale` answers iff the
/// entry is expired and within `max_stale_s` of its expiry — and every
/// stale answer carries [`STALE_TTL`] with the original rcode intact.
#[test]
fn serve_stale_respects_window_and_budget() {
    let qname = Name::parse("stale.stable.nl").unwrap();
    qc::property("cache/serve-stale-window-and-budget").cases(512).check(|g| {
        let ttl = g.u32_in(1..60);
        let max_stale = g.u32_in(1..120);
        let negative = g.bool();
        let mut cache = RecordCache::with_config(CacheConfig {
            max_stale_s: max_stale,
            ..CacheConfig::default()
        });
        let (answers, rcode) = if negative {
            (vec![], Rcode::NxDomain)
        } else {
            let rec = Record::new(qname.clone(), ttl, RData::Txt(Txt::from_string("s").unwrap()));
            (vec![rec], Rcode::NoError)
        };
        cache.insert(qname.clone(), RType::Txt, answers, rcode, ttl, CacheTime::ZERO);
        // Probe anywhere from mid-life to past the stale window.
        let probe_s = g.u64_in(0..(ttl + max_stale) as u64 + 10);
        let probe = CacheTime::ZERO + Secs(probe_s);
        let expired = probe_s >= ttl as u64;
        let in_window = probe_s <= (ttl + max_stale) as u64;
        let want_served = expired && in_window;
        match cache.get_stale(&qname, RType::Txt, probe) {
            Some(stale) => {
                assert!(want_served, "served outside the contract at +{probe_s}s");
                assert!(stale.stale);
                assert_eq!(stale.rcode, rcode, "stale answers keep their rcode");
                for r in &stale.answers {
                    assert_eq!(r.ttl, STALE_TTL, "stale answers advertise the capped TTL");
                }
                assert_eq!(cache.stats().stale_served, 1);
            }
            None => assert!(!want_served, "refused inside the contract at +{probe_s}s"),
        }
    });
}

/// The client ledger balances for *every* transaction-outcome mix: cache
/// hits (positive and negative) with and without prefetches, prefetches
/// ending in an answer, a timeout or a lame reply, UDP answers after
/// retries, give-up SERVFAILs, TC→TCP fallback (both arms), and stale
/// serves. Books are per-outcome double-entry; any drift in one of the
/// `check()` identities shows up here.
#[test]
fn books_balance_with_prefetch_for_every_outcome_mix() {
    qc::property("cache/books-balance-with-prefetch").cases(512).check(|g| {
        let mut s = ClientStats::default();
        for _ in 0..g.usize_in(1..64) {
            s.transactions += 1;
            match g.index(5) {
                // Cache hit, optionally launching a prefetch whose
                // attempt ends in exactly one outcome bucket.
                0 => {
                    s.answered += 1;
                    s.cache_hits += 1;
                    if g.bool() {
                        s.cache_negative += 1;
                    }
                    if g.bool() {
                        s.prefetches += 1;
                        s.attempts += 1;
                        match g.index(3) {
                            0 => s.prefetch_ok += 1,
                            1 => s.timeouts += 1,
                            _ => s.lame += 1,
                        }
                    }
                }
                // UDP answer after 0..3 failed tries.
                1 => {
                    let fails = g.u64_in(0..3);
                    for _ in 0..fails {
                        s.attempts += 1;
                        match g.index(3) {
                            0 => s.timeouts += 1,
                            1 => s.lame += 1,
                            _ => s.formerr += 1,
                        }
                    }
                    s.attempts += 1;
                    s.retries += fails;
                    s.answered += 1;
                }
                // Give-up SERVFAIL: every try failed.
                2 => {
                    let tries = 1 + g.u64_in(0..3);
                    for _ in 0..tries {
                        s.attempts += 1;
                        s.timeouts += 1;
                    }
                    s.retries += tries - 1;
                    s.servfails += 1;
                }
                // TC=1 → TCP fallback; on failure one UDP retry decides.
                3 => {
                    s.attempts += 1;
                    s.tc_seen += 1;
                    s.tcp_attempts += 1;
                    if g.bool() {
                        s.tcp_answered += 1;
                        s.answered += 1;
                    } else {
                        s.tcp_failed += 1;
                        s.attempts += 1;
                        s.retries += 1;
                        if g.bool() {
                            s.answered += 1;
                        } else {
                            s.timeouts += 1;
                            s.servfails += 1;
                        }
                    }
                }
                // Upstreams dead: tries all time out, stale entry saves
                // the transaction.
                _ => {
                    let tries = 1 + g.u64_in(0..3);
                    for _ in 0..tries {
                        s.attempts += 1;
                        s.timeouts += 1;
                    }
                    s.retries += tries - 1;
                    s.stale_served += 1;
                    s.answered += 1;
                }
            }
        }
        s.check().unwrap_or_else(|e| panic!("books diverged: {e}\n{s:?}"));
    });
}

/// On real sockets: a cache-enabled client and a cache-disabled client
/// resolving the same stable zone observe identical final answers
/// (every transaction answered, none SERVFAILed), with the warm cached
/// pass answering entirely from memory — and the books balance with
/// prefetch on. Few cases, because each runs four real resolves.
#[test]
fn cached_and_uncached_clients_agree_on_stable_zones() {
    let origin = Name::parse("ourtestdomain.nl").unwrap();
    qc::property("cache/enabled-equals-disabled-on-the-wire").cases(6).check(|g| {
        let txns = g.u64_in(16..33);
        let concurrency = g.usize_in(1..5);
        let prefetch = g.bool();
        let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let base = |seed: u64| {
            let mut cfg = ResolveConfig::new(vec![handle.local_addr()], origin.clone())
                .transactions(txns)
                .concurrency(concurrency);
            cfg.seed = seed;
            cfg
        };
        let seed = g.u64();

        // Uncached reference: two identical passes.
        let plain_a = resolve(base(seed)).unwrap();
        let plain_b = resolve(base(seed)).unwrap();

        // Cached client: same schedule; the zone's TTLs dwarf the run,
        // so the second pass is all hits. A prefetch window wider than
        // any TTL makes every warm hit fire exactly one refresh.
        let cache = SharedCache::new(CacheConfig {
            prefetch_window_s: if prefetch { 1 << 20 } else { 0 },
            ..CacheConfig::default()
        });
        let cached = |seed| base(seed).cache(Arc::clone(&cache));
        let cold = resolve(cached(seed)).unwrap();
        let warm = resolve(cached(seed)).unwrap();
        handle.shutdown();

        for report in [&plain_a, &plain_b, &cold, &warm] {
            report.stats.check().unwrap();
            assert_eq!(report.stats.transactions, txns);
            assert_eq!(report.stats.answered, txns, "stable zone: every txn answered");
            assert_eq!(report.stats.servfails, 0);
        }
        assert_eq!(cold.stats.cache_hits, 0, "first cached pass is cold");
        assert_eq!(warm.stats.cache_hits, txns, "second cached pass is all hits");
        if prefetch {
            assert_eq!(warm.stats.prefetches, txns, "every warm hit refreshes once");
            assert_eq!(warm.stats.prefetch_ok, warm.stats.prefetches);
            assert_eq!(warm.stats.attempts, warm.stats.prefetches);
        } else {
            assert_eq!(warm.stats.attempts, 0, "hits cost zero socket sends");
        }
    });
}

// ---- reference model: a naive cache the real one must shadow ----

/// Which reclamation rule the model follows for an entry found expired
/// by `get` while serve-stale is on: `false` keeps it whatever its age
/// (an entry past `max_stale_s` then lingers forever), `true` drops it
/// once it has left the stale window and nothing can serve it again.
const RECLAIM_PAST_STALE_WINDOW: bool = true;

struct ModelEntry {
    qname: Name,
    qtype: RType,
    answers: Vec<Record>,
    rcode: Rcode,
    expires_us: u64,
    last_use: u64,
    prefetch_fired: bool,
}

/// The cache as its documentation reads, with no index and no list: a
/// `Vec` scanned linearly, the LRU victim found by smallest last-use
/// counter. Returns the same [`CachedResponse`] the real cache does.
struct Model {
    cfg: CacheConfig,
    stats: CacheStats,
    uses: u64,
    entries: Vec<ModelEntry>,
}

impl Model {
    fn position(&self, qname: &Name, qtype: RType) -> Option<usize> {
        self.entries.iter().position(|e| e.qname == *qname && e.qtype == qtype)
    }

    fn respond(
        e: &ModelEntry,
        ttl: impl Fn(u32) -> u32,
        prefetch_due: bool,
        stale: bool,
    ) -> CachedResponse {
        let answers = e.answers.iter().map(|r| Record { ttl: ttl(r.ttl), ..r.clone() }).collect();
        let kind = match (e.rcode, e.answers.is_empty()) {
            (Rcode::NxDomain, _) => EntryKind::NxDomain,
            (_, true) => EntryKind::NoData,
            (_, false) => EntryKind::Positive,
        };
        CachedResponse { answers, rcode: e.rcode, kind, prefetch_due, stale }
    }

    fn insert(
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
            return;
        }
        self.stats.inserts += 1;
        if let Some(i) = self.position(&qname, qtype) {
            self.entries.remove(i);
        }
        self.uses += 1;
        self.entries.push(ModelEntry {
            qname,
            qtype,
            answers,
            rcode,
            expires_us: now.as_micros() + ttl as u64 * 1_000_000,
            last_use: self.uses,
            prefetch_fired: false,
        });
        while self.cfg.capacity > 0 && self.entries.len() > self.cfg.capacity {
            let victim =
                (0..self.entries.len()).min_by_key(|&i| self.entries[i].last_use).unwrap();
            self.entries.remove(victim);
            self.stats.evictions += 1;
        }
    }

    fn get(&mut self, qname: &Name, qtype: RType, now: CacheTime) -> Option<CachedResponse> {
        let (cfg, now_us) = (self.cfg, now.as_micros());
        let Some(i) = self.position(qname, qtype) else {
            self.stats.misses += 1;
            return None;
        };
        let e = &mut self.entries[i];
        if e.expires_us <= now_us {
            self.stats.misses += 1;
            self.stats.expired += 1;
            let past_window = now_us - e.expires_us > cfg.max_stale_s as u64 * 1_000_000;
            if cfg.max_stale_s == 0 || (RECLAIM_PAST_STALE_WINDOW && past_window) {
                self.entries.remove(i);
            }
            return None;
        }
        self.stats.hits += 1;
        let left_us = e.expires_us - now_us;
        let remaining = (left_us / 1_000_000).max(1) as u32;
        let prefetch_due = cfg.prefetch_window_s > 0
            && !e.prefetch_fired
            && left_us <= cfg.prefetch_window_s as u64 * 1_000_000;
        e.prefetch_fired |= prefetch_due;
        self.uses += 1;
        e.last_use = self.uses;
        let out = Model::respond(e, |ttl| ttl.min(remaining), prefetch_due, false);
        if out.kind != EntryKind::Positive {
            self.stats.negative_hits += 1;
        }
        Some(out)
    }

    fn get_stale(&mut self, qname: &Name, qtype: RType, now: CacheTime) -> Option<CachedResponse> {
        let (cfg, now_us) = (self.cfg, now.as_micros());
        if cfg.max_stale_s == 0 {
            return None;
        }
        let i = self.position(qname, qtype)?;
        let e = &mut self.entries[i];
        if e.expires_us > now_us || now_us - e.expires_us > cfg.max_stale_s as u64 * 1_000_000 {
            return None;
        }
        self.stats.stale_served += 1;
        self.uses += 1;
        e.last_use = self.uses;
        Some(Model::respond(e, |_| STALE_TTL, false, true))
    }
}

/// [`RecordCache`] against the model, op by op: 512 seeded sequences of
/// `insert` / `get` / `get_stale` over 8–16 names × 2 types (a skewed
/// choice, so some keys stay hot), every capacity from unbounded to 8,
/// with prefetch and a stale window switched on and off. After every step the two agree on the answer (hit, miss or
/// `None`; `prefetch_due`; clamped TTLs), on `stats()` and on `len()`.
/// At the end — and in half the sequences after *every* eviction — a
/// sweep over all keys shows the same resident set, so an LRU that
/// picks any victim but the least recently used entry is caught at the
/// eviction that went wrong.
#[test]
fn record_cache_shadows_a_naive_reference_model() {
    qc::property("cache/shadows-reference-model").cases(512).check(|g| {
        let cfg = CacheConfig {
            capacity: *g.choose(&[0, 1, 2, 4, 8]),
            prefetch_window_s: *g.choose(&[0, 2, 5]),
            max_stale_s: *g.choose(&[0, 3, 60]),
        };
        // Both spellings of every name: lookups fold case (RFC 1035).
        let names: Vec<[Name; 2]> = (0..g.usize_in(8..17))
            .map(|i| [format!("q{i}.model.nl"), format!("Q{i}.MoDeL.NL")].map(|s| Name::parse(&s).unwrap()))
            .collect();
        let types = [RType::Txt, RType::A];
        let mut cache = RecordCache::with_config(cfg);
        let mut model = Model { cfg, stats: CacheStats::default(), uses: 0, entries: Vec::new() };
        let sweep_every_eviction = g.bool();
        let mut now_us = 0u64;
        let ops = 200 + g.index(200);
        for step in 0..ops {
            now_us += *g.choose(&[0, 0, 0, 1, 999_999, 1_000_000, 3_000_000]);
            let now = CacheTime::from_micros(now_us);
            let qname = &names[g.index(names.len()).min(g.index(names.len()))][g.index(2)];
            let qtype = types[g.index(2)];
            let evictions = model.stats.evictions;
            match g.index(8) {
                0..=2 => {
                    let ttl = g.u32_in(0..40);
                    let txt = |v: &str, ttl| {
                        Record::new(qname.clone(), ttl, RData::Txt(Txt::from_string(v).unwrap()))
                    };
                    let (answers, rcode) = match g.index(4) {
                        0 => (vec![txt("one", ttl)], Rcode::NoError),
                        1 => (vec![txt("a", ttl + 4), txt("b", ttl)], Rcode::NoError),
                        2 => (vec![], Rcode::NoError),
                        _ => (vec![], Rcode::NxDomain),
                    };
                    let negative_ttl = g.u32_in(0..20);
                    cache.insert(qname.clone(), qtype, answers.clone(), rcode, negative_ttl, now);
                    model.insert(qname.clone(), qtype, answers, rcode, negative_ttl, now);
                }
                3 => assert_eq!(
                    cache.get_stale(qname, qtype, now),
                    model.get_stale(qname, qtype, now),
                    "get_stale at step {step}"
                ),
                _ => assert_eq!(
                    cache.get(qname, qtype, now),
                    model.get(qname, qtype, now),
                    "get at step {step}"
                ),
            }
            let evicted = model.stats.evictions > evictions && sweep_every_eviction;
            if evicted || step + 1 == ops {
                for (qname, qtype) in names.iter().flat_map(|n| types.map(|t| (&n[0], t))) {
                    assert_eq!(
                        cache.get(qname, qtype, now),
                        model.get(qname, qtype, now),
                        "resident set after step {step}: {qname} {qtype:?}"
                    );
                }
            }
            assert_eq!(cache.stats(), model.stats, "books at step {step}");
            assert_eq!(cache.len(), model.entries.len(), "resident count at step {step}");
        }
    });
}
