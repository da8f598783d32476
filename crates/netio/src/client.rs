//! A recursive-resolver client for real sockets: the retry/backoff/
//! re-ranking loop of `dnswild-resolver`, driven over the kernel's UDP
//! stack instead of the simulator.
//!
//! The client runs [`ResolveConfig::concurrency`] *lanes*: transactions
//! in flight, each with its own socket (so its own source port, and its
//! own RRL bucket upstream), a [`SelectionPolicy`] built from the
//! configured [`PolicyKind`], and an [`InfraCache`] fed with real
//! round-trip samples — so BIND-style SRTT re-ranking (§4.2 of the
//! paper) happens against real authoritatives behind real (possibly
//! chaos-proxied) sockets. A transaction is retried with exponential
//! backoff until it is answered or `max_tries` attempts are exhausted,
//! at which point it is accounted as a SERVFAIL; nothing is ever lost.
//!
//! A lane is a resumable state machine, not a thread: it sends, then
//! waits for its socket (or its TCP detour's stream) to turn readable
//! or its deadline to pass, on the event loop of `closed_loop`
//! the load generator's lanes run on too. Only a TCP `connect` blocks.
//!
//! ## Determinism contract
//!
//! `dnswild smoke --chaos` requires the final counters to be identical
//! across runs with the same seed. These rules make that hold on real
//! sockets:
//!
//! * Every attempt's query bytes are unique and deterministic (qname
//!   carries the lane and transaction numbers, the DNS ID is derived
//!   from transaction × attempt), so a content-keyed
//!   [`crate::chaos::FaultPlan`] gives every attempt an independent,
//!   reproducible fate.
//! * Everything a lane decides is its own: its socket, RNG stream,
//!   contiguous share of the transactions and books. Which lanes share
//!   a loop thread changes none of it.
//! * Attempt windows start at the base timeout and double per retry,
//!   and must stay far above the chaos plane's worst-case hold time
//!   ([`crate::chaos::FaultProfile::max_hold`], both directions
//!   summed): a reply is then *either* always inside its window or
//!   never delivered, so timeout counts cannot flip between runs.
//! * Read before expire (see `closed_loop::EventLoop`): a
//!   reply that was readable before its deadline is classified as an
//!   answer however late a busy loop gets to it — as a thread blocked
//!   in `recv` would have.
//! * A failure reply (REFUSED/SERVFAIL/FORMERR/NOTIMP/TC) dooms its
//!   attempt but the retransmit timer still paces the retry, so the
//!   classification of a duplicated failure reply does not depend on
//!   which copy arrives first — both copies land inside the same
//!   window. When an answer arrives on an already-doomed attempt (the
//!   failure was a mutated duplicate copy), the failure is reclassified
//!   as `stale`, which is exactly where the opposite arrival order
//!   would have put it.
//! * The TCP fallback for truncated answers fires only *after* the
//!   attempt window closes still doomed by TC — never synchronously on
//!   the first TC=1 read — so whether a truncated copy or a duplicated
//!   clean answer is read first cannot change which transport completes
//!   the transaction.
//!
//! Which *server* an attempt goes to (and therefore the per-server
//! split) legitimately varies with real RTTs; the aggregate counters do
//! not.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use detrand::{splitmix64, DetRng};
use dnswild_cache::{soa_negative_ttl, CacheConfig, CacheStats, CacheTime, Clock, EntryKind, Hit,
    QuestionHasher, RecordCache, WallClock, NEGATIVE_TTL_WITHOUT_SOA};
use dnswild_metrics::{counter_set, watchdog::inputs, AtomicSet, Hook, Registry};
use dnswild_mmsg::PollFd;
use dnswild_netsim::{SimAddr, SimDuration, SimTime};
use dnswild_proto::{
    Answer, Class, Header, Message, MessageWriter, Name, RType, Rcode, Record, Section,
    DEFAULT_EDNS_PAYLOAD,
};
use dnswild_resolver::{InfraCache, PolicyKind, SelectionPolicy};
use dnswild_telemetry::{
    journey_id, qname_hash32, Collector, Event, EventKind, Producer, FLAG_PREFETCH, FLAG_RESPONSE,
    FLAG_TCP, FLAG_TCP_RETRY, FLAG_TC_SEEN, FLAG_TIMEOUT, RCODE_NONE,
};

use crate::closed_loop::{cores, run_lanes, share_of, thread_stream, Lane, LaneSocket};
use crate::server::is_idle_recv;
use crate::tcp::{write_frame, FrameReader};

/// How long a lane keeps reading after its last transaction, so every
/// straggling duplicate or delayed reply is drained and accounted. Must
/// exceed the chaos plane's worst-case hold time with margin. Public so
/// benchmarks deriving per-transaction costs from a report's `elapsed`
/// can subtract the fixed tail.
pub const DRAIN_WINDOW: Duration = Duration::from_millis(200);

/// Transactions a lane runs between two publishes of its books to its
/// cell. A publish is a few atomic adds; once per transaction, that was
/// ~4% of a warm (cache-hit) transaction on a 2-vCPU host.
const PUBLISH_EVERY: u64 = 64;

/// Most shards a [`SharedCache`] splits into. Two lanes rarely meet
/// on one of sixteen locks; past sixteen loop threads a seventeenth shard
/// would start to matter, and no caller has that many.
const SHARDS: usize = 16;

/// The record cache shared by every lane of a [`resolve`] run — and,
/// when the caller reuses the handle, across *runs*: that is how a
/// second identical blast becomes the paper's warm-cache scenario.
///
/// The cache itself is clock-agnostic (`dnswild-cache`); this handle
/// pairs it with a [`WallClock`] anchored at construction, so entries
/// age with real time the way the TTLs on the wire promise.
///
/// Inside it is up to 16 (`SHARDS`) independently locked
/// [`RecordCache`]s, a question always going to the shard its keyed
/// hash names, so lanes asking different questions seldom wait for each
/// other. The whole-cache bound survives the split: a `capacity` of N
/// is divided over `min(16, N)` shards, rounded down, so the shards
/// together never hold more than N entries (each evicts by its own LRU
/// order).
///
/// A question is hashed once: the high bits of its hash pick the shard,
/// and the shard, built on the same hasher, indexes its buckets by the
/// low bits of that same hash.
pub struct SharedCache {
    shards: Box<[Shard]>,
    /// The one hash every shard indexes by. Keyed: with a guessable
    /// hash a client could send every question to one lock and one
    /// chain.
    hasher: QuestionHasher,
    clock: Box<dyn Clock + Send + Sync>,
}

/// One shard on cache lines of its own: a lock taken on one shard does
/// not invalidate the line its neighbour's lock sits on.
#[repr(align(128))]
struct Shard(Mutex<RecordCache>);

impl Shard {
    fn lock(&self) -> MutexGuard<'_, RecordCache> {
        self.0.lock().expect("cache lock")
    }
}

impl std::fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache").field("len", &self.len()).field("stats", &self.stats()).finish()
    }
}

impl SharedCache {
    /// A cache handle with the given knobs (see [`CacheConfig`]).
    pub fn new(cfg: CacheConfig) -> Arc<SharedCache> {
        SharedCache::with_clock(cfg, Box::new(WallClock::new()))
    }

    /// [`SharedCache::new`] on an injected clock — how this crate's
    /// tests age entries past a TTL without sleeping through it.
    pub(crate) fn with_clock(
        cfg: CacheConfig,
        clock: Box<dyn Clock + Send + Sync>,
    ) -> Arc<SharedCache> {
        let shards = if cfg.capacity == 0 { SHARDS } else { SHARDS.min(cfg.capacity) };
        let per_shard = CacheConfig { capacity: cfg.capacity / shards, ..cfg };
        let hasher = QuestionHasher::new();
        let shard = || Shard(Mutex::new(RecordCache::with_hasher(per_shard, hasher.clone())));
        Arc::new(SharedCache { shards: (0..shards).map(|_| shard()).collect(), hasher, clock })
    }

    /// The current instant on this cache's timeline.
    pub fn now(&self) -> CacheTime {
        self.clock.now()
    }

    /// Cache-side counters (hits/misses/expired/negative/evictions/
    /// stale_served as the *cache* saw them, summed over the shards;
    /// the per-run client view lives in [`ClientStats`]).
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().map(|shard| shard.lock().stats()).sum()
    }

    /// Feeds `dnswild_cache_events_total{kind}` — one series per
    /// [`CacheStats`] field — and the `dnswild_cache_entries` gauge from
    /// this cache's own books on every read of `registry`. Whoever
    /// creates the cache calls this once: a second feed would count
    /// every event twice.
    pub fn register(self: &Arc<Self>, registry: &Registry) {
        let cache = Arc::clone(self);
        registry.mirror_counters(
            "dnswild_cache_events_total",
            "record-cache events, one series per CacheStats field",
            &[],
            move || cache.stats(),
        );
        let entries = registry.gauge("dnswild_cache_entries", "record-cache entries resident");
        let cache = Arc::clone(self);
        registry.on_scrape(move || entries.set(cache.len() as f64));
    }

    /// Live + stale-retained entry count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the shard of the question whose hash is `hash`, picked by
    /// the hash's high 32 bits: the shard's index takes the low ones, so
    /// every question in a shard can still land in any of its buckets.
    /// Callers read the clock first: nothing but the shard's own work
    /// happens under the lock.
    fn shard(&self, hash: u64) -> MutexGuard<'_, RecordCache> {
        let pick = ((hash >> 32) * self.shards.len() as u64) >> 32;
        self.shards[pick as usize].lock()
    }

    /// See [`RecordCache::probe`]: a hit copies no record, the client
    /// sends none.
    fn probe(&self, qname: &Name, qtype: RType) -> Option<Hit> {
        let now = self.clock.now();
        let hash = self.hasher.hash(qname, qtype);
        self.shard(hash).probe_hashed(hash, qname, qtype, now)
    }

    /// See [`RecordCache::probe_stale`]. The shard hashes the question
    /// again: a stale probe follows a transaction every server failed.
    fn probe_stale(&self, qname: &Name, qtype: RType) -> Option<Hit> {
        let now = self.clock.now();
        self.shard(self.hasher.hash(qname, qtype)).probe_stale(qname, qtype, now)
    }

    /// Stores an answering reply under the rule of
    /// [`RecordCache::insert_reply`], keeping the caller's qname and the
    /// reply's decoded records (exact-fit: the decoder sizes each
    /// section by its count) rather than copies. The caller has taken
    /// `negative_ttl` from the reply's SOA; the clock is read before the
    /// shard is taken.
    fn insert_reply(&self, qname: Name, qtype: RType, reply: Answer, negative_ttl: u32) {
        let now = self.clock.now();
        let hash = self.hasher.hash(&qname, qtype);
        let (answers, rcode) = (reply.answers, reply.header.rcode);
        self.shard(hash).insert_hashed(hash, qname, qtype, answers, rcode, negative_ttl, now);
    }
}

/// Configuration for [`resolve`].
#[derive(Debug, Clone)]
pub struct ResolveConfig {
    /// The authoritative servers (or chaos proxies fronting them) to
    /// spread queries over. At most 254 entries.
    pub servers: Vec<SocketAddr>,
    /// Which implementation family's selection algorithm to run.
    pub policy: PolicyKind,
    /// Total transactions (logical queries) across all lanes.
    pub transactions: u64,
    /// Lanes: transactions in flight at once, each on its own socket —
    /// not threads; `resolve` packs the lanes onto one event-loop
    /// thread per core (see the module docs). Part of the determinism
    /// contract: the same transaction→lane split must be used across
    /// runs.
    pub concurrency: usize,
    /// Base per-attempt timeout; doubles on each retry (capped at 8×).
    pub timeout: Duration,
    /// Attempts per transaction before giving up with SERVFAIL.
    pub max_tries: u32,
    /// Seed for the per-lane policy RNG streams.
    pub seed: u64,
    /// When set, every query advertises EDNS(0) with this UDP payload
    /// size. A small size (e.g. 512) is how the truncation → TCP-retry
    /// path is forced against zones with fat answers.
    pub edns_size: Option<u16>,
    /// Retry a transaction over TCP once its attempt window closes on a
    /// TC=1 answer (RFC 7766). On by default; off leaves truncated
    /// attempts accounted under `tc_seen` and paced into UDP retries.
    pub tcp_fallback: bool,
    /// Reuse one TCP fallback connection per server across queries
    /// (RFC 7766). On by default. Off opens a fresh connection per
    /// fallback: whether a *cached* connection still works when reused
    /// depends on wall-clock races (server idle sheds, chaos resets),
    /// so deterministic harnesses — the chaos smoke and its verify
    /// gates — turn reuse off to keep the frame sequence a pure
    /// function of the seed.
    pub tcp_reuse: bool,
    /// Zone origin the probe queries are built under.
    pub origin: Name,
    /// Telemetry collector: when set, each lane records one
    /// `ClientQuery` event per attempt outcome (answer, doomed reply,
    /// or timeout). The event `auth_id` is the server *index*, which —
    /// like [`ResolveReport::per_server`] — follows real RTTs and is
    /// not deterministic across runs.
    pub collector: Option<Arc<Collector>>,
    /// Metrics registry: when set, the run's books are fed into it from
    /// the cells the lanes publish to — the [`ClientStats`] ledger,
    /// and per authoritative the attempt count and run-mean answer RTT —
    /// under the names the share-vs-RTT watchdog consumes (see
    /// `dnswild_metrics::watchdog::inputs`). Like
    /// [`ResolveReport::per_server`], the per-auth series follow real
    /// RTTs and are not part of the determinism contract. When the run
    /// ends its series keep their final values and the registry stops
    /// reading its cells, so runs sharing one registry add up.
    pub metrics: Option<Arc<Registry>>,
    /// Record cache: when set, every transaction consults it before
    /// touching the socket (a hit costs zero socket I/O) and stores the
    /// answer it resolves. Share one handle across [`resolve`] calls to
    /// model a warm recursive. The counters a cached run produces are
    /// deterministic as long as runs stay well inside the zone's TTL
    /// (expiry follows wall time, not the seed).
    ///
    /// The cache's own [`CacheConfig`] decides the rest: with a
    /// `prefetch_window_s` a hit the cache marks `prefetch_due` is
    /// refreshed by one background UDP attempt, keeping popular names
    /// warm; with a `max_stale_s` window a transaction that exhausts
    /// all its tries is answered from the expired entry (RFC 8767) —
    /// the "every authoritative is unreachable" lifeline.
    pub cache: Option<Arc<SharedCache>>,
}

impl ResolveConfig {
    /// Defaults: BIND-style SRTT policy, 1,000 transactions, 4 lanes,
    /// 250 ms base timeout, 4 tries, seed 2017.
    pub fn new(servers: Vec<SocketAddr>, origin: Name) -> Self {
        ResolveConfig {
            servers,
            policy: PolicyKind::BindSrtt,
            transactions: 1_000,
            concurrency: 4,
            timeout: Duration::from_millis(250),
            max_tries: 4,
            seed: 2017,
            edns_size: None,
            tcp_fallback: true,
            tcp_reuse: true,
            origin,
            collector: None,
            metrics: None,
            cache: None,
        }
    }

    /// Attaches a shared record cache (see [`ResolveConfig::cache`]).
    pub fn cache(mut self, cache: Arc<SharedCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Advertises EDNS(0) with `size` on every query (see
    /// [`ResolveConfig::edns_size`]).
    pub fn edns_size(mut self, size: u16) -> Self {
        self.edns_size = Some(size);
        self
    }

    /// Enables or disables the truncation TCP fallback (see
    /// [`ResolveConfig::tcp_fallback`]).
    pub fn tcp_fallback(mut self, on: bool) -> Self {
        self.tcp_fallback = on;
        self
    }

    /// Enables or disables fallback-connection reuse (see
    /// [`ResolveConfig::tcp_reuse`]).
    pub fn tcp_reuse(mut self, on: bool) -> Self {
        self.tcp_reuse = on;
        self
    }

    /// Attaches a telemetry collector (see [`ResolveConfig::collector`]).
    pub fn collector(mut self, collector: Arc<Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Attaches a metrics registry (see [`ResolveConfig::metrics`]).
    pub fn metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Overrides the transaction count.
    pub fn transactions(mut self, transactions: u64) -> Self {
        self.transactions = transactions;
        self
    }

    /// Overrides the lane count (transactions in flight).
    pub fn concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = concurrency.max(1);
        self
    }

    /// Overrides the selection policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the base per-attempt timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides the attempts-per-transaction budget.
    pub fn max_tries(mut self, tries: u32) -> Self {
        self.max_tries = tries.max(1);
        self
    }
}

counter_set! {
    /// Resolver-level counters. Transactions are never lost: every one
    /// ends in `answered` or `servfails`, and every datagram read is
    /// classified into exactly one reply counter — [`ClientStats::check`]
    /// verifies both books. The labels are the keys of the
    /// `chaos-client:` line and the `kind`s of the scraped
    /// `dnswild_client_events_total`; every field is deterministic for a
    /// given seed, so the smoke gate compares those lines verbatim.
    pub struct ClientStats {
        /// Transactions run.
        transactions => "txns",
        /// Transactions that got a matching positive answer.
        answered => "answered",
        /// Transactions abandoned after `max_tries` failed attempts.
        servfails => "servfail",
        /// Queries sent (first tries + retries).
        attempts => "attempts",
        /// Attempts beyond each transaction's first.
        retries => "retries",
        /// Attempts whose window expired with no reply at all.
        timeouts => "timeouts",
        /// Attempts doomed by a REFUSED/SERVFAIL reply (the server is
        /// excluded and penalised in the infra cache, like a lame
        /// delegation).
        lame => "lame",
        /// Attempts doomed by a FORMERR/NOTIMP reply (the query was mangled
        /// in transit; the server is not blamed).
        formerr => "formerr",
        /// Attempts doomed by a TC=1 reply.
        tc_seen => "tc",
        /// TCP fallback queries issued after a TC-doomed attempt window.
        tcp_attempts => "tcp_try",
        /// Transactions completed by a TCP fallback answer (a subset of
        /// `answered`).
        tcp_answered => "tcp_ok",
        /// TCP fallbacks that failed (connect/frame error, timeout, or an
        /// unusable reply); the transaction went back to UDP retries.
        tcp_failed => "tcp_fail",
        /// Datagrams that failed to decode as DNS messages.
        corrupt_replies => "corrupt",
        /// Decoded replies not attributable to an in-flight attempt:
        /// duplicates, late arrivals from finished transactions, and
        /// mutated copies whose question or rcode no longer matches. (These
        /// are one bucket on purpose: whether a mutated duplicate is read
        /// before or after the clean answer must not change the counts.)
        stale => "stale",
        /// Transactions answered from a live cache entry — no socket I/O at
        /// all (a subset of `answered`).
        cache_hits => "cache_hits",
        /// Of `cache_hits`, those served from a negative entry (RFC 2308
        /// NXDOMAIN or NODATA).
        cache_negative => "cache_neg",
        /// Transactions answered from an *expired* cache entry after every
        /// try failed (RFC 8767; a subset of `answered`, disjoint from
        /// `cache_hits`).
        stale_served => "stale_srv",
        /// Background refresh attempts launched for hot entries near expiry
        /// (each adds one to `attempts` but belongs to no transaction's
        /// retry budget).
        prefetches => "prefetch",
        /// Prefetches whose refresh answer arrived and was re-cached.
        prefetch_ok => "prefetch_ok",
    }
}

impl ClientStats {
    /// Total *UDP datagrams* read and classified (every reverse-
    /// direction delivery ends up in exactly one of these counters).
    /// Transactions answered over the TCP fallback are excluded: their
    /// answer bytes never crossed the UDP socket — and so are cache
    /// hits and stale serves, whose answers never crossed any socket.
    /// Prefetch answers did, so they count.
    pub fn received(&self) -> u64 {
        self.answered - self.tcp_answered - self.cache_hits - self.stale_served
            + self.prefetch_ok
            + self.lame
            + self.formerr
            + self.tc_seen
            + self.corrupt_replies
            + self.stale
    }

    /// The accounting invariants: no transaction may be lost and no
    /// attempt may end in more than one way.
    pub fn check(&self) -> Result<(), String> {
        if self.answered + self.servfails != self.transactions {
            return Err(format!(
                "lost transactions: answered {} + servfail {} != {}",
                self.answered, self.servfails, self.transactions
            ));
        }
        // Cache hits never touch the socket, so they launch no first
        // try; prefetches are extra attempts outside any retry budget.
        if self.attempts != self.transactions - self.cache_hits + self.retries + self.prefetches {
            return Err(format!(
                "attempt books: {} attempts != {} transactions - {} cache hits + {} retries + {} prefetches",
                self.attempts, self.transactions, self.cache_hits, self.retries, self.prefetches
            ));
        }
        if self.tcp_answered + self.cache_hits + self.stale_served > self.answered {
            return Err(format!(
                "answer books: tcp {} + cache {} + stale-served {} > {} answered",
                self.tcp_answered, self.cache_hits, self.stale_served, self.answered
            ));
        }
        if self.cache_negative > self.cache_hits {
            return Err(format!(
                "cache books: {} negative hits > {} hits",
                self.cache_negative, self.cache_hits
            ));
        }
        if self.prefetch_ok > self.prefetches {
            return Err(format!(
                "prefetch books: {} completed > {} launched",
                self.prefetch_ok, self.prefetches
            ));
        }
        // A UDP attempt ends in exactly one of: the (UDP) answer, a
        // timeout, or a dooming failure reply. TCP-fallback answers
        // complete a *transaction* without completing any UDP attempt —
        // their attempt already ended in `tc_seen`. Cache hits and
        // stale serves complete transactions without launching (or
        // completing) any attempt; a prefetch's answer completes its
        // attempt without completing any transaction.
        let ended = self.answered - self.tcp_answered - self.cache_hits - self.stale_served
            + self.prefetch_ok
            + self.timeouts
            + self.lame
            + self.formerr
            + self.tc_seen;
        if self.attempts != ended {
            return Err(format!(
                "attempt outcomes sum to {ended}, expected {} ({self:?})",
                self.attempts
            ));
        }
        if self.tcp_attempts != self.tcp_answered + self.tcp_failed {
            return Err(format!(
                "tcp books: {} attempts != {} answered + {} failed",
                self.tcp_attempts, self.tcp_answered, self.tcp_failed
            ));
        }
        Ok(())
    }
}

/// What one [`resolve`] run did.
#[derive(Debug, Clone)]
pub struct ResolveReport {
    /// Aggregated counters across lanes.
    pub stats: ClientStats,
    /// Query attempts per server, aligned with
    /// [`ResolveConfig::servers`]. *Not* deterministic across runs —
    /// the split follows real RTTs.
    pub per_server: Vec<u64>,
    /// Wall-clock duration of the run, including the drain window.
    pub elapsed: Duration,
}

/// One UDP attempt of the current transaction: its ID, the server it
/// went to, and when.
#[derive(Clone, Copy)]
struct Attempt {
    id: u16,
    server: usize,
    sent_at: Instant,
}

/// A cached TCP fallback connection to one server, with its resumable
/// frame reader and its frame-writing scratch (RFC 7766 encourages
/// connection reuse across queries).
struct TcpConn {
    stream: TcpStream,
    reader: FrameReader,
    scratch: Vec<u8>,
}

/// Connects a fallback stream. Only the connect itself blocks: the
/// lane reads the reply when its loop's `poll` says so.
fn tcp_connect(addr: &SocketAddr, timeout: Duration) -> io::Result<TcpConn> {
    let stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(TcpConn { stream, reader: FrameReader::new(), scratch: Vec::new() })
}

/// How one received reply relates to the current transaction.
enum Reply {
    /// A full answer to it — right ID, QR=1, TC=0, NOERROR/NXDOMAIN,
    /// same question — handed out decoded, so no one decodes it again,
    /// with its RFC 2308 lifetime as a negative answer.
    Answer { attempt: usize, answer: Answer, negative_ttl: u32 },
    Lame { attempt: usize },
    FormErr,
    Tc,
    Corrupt,
    Mismatch,
    Stale,
}

/// Which kind of failure reply doomed the current attempt — remembered
/// so a subsequent clean answer (the failure having been a mutated
/// duplicate copy) can reclassify it as stale.
enum Doom {
    Lame,
    FormErr,
    Tc,
}

/// One lane's published books. The lane is the only writer — its
/// [`ClientStats`] one delta per [`PUBLISH_EVERY`] transactions and at
/// the end, its per-server counts as they happen — and [`resolve`]'s
/// report and the registry feed both read these cells, so a quiescent
/// scrape equals the report by construction. It and each of its server
/// cells are line-aligned, so no two lanes write to one cache line.
#[repr(align(64))]
struct LaneCell {
    stats: AtomicSet<ClientStats, 19>,
    /// Indexed like [`ResolveConfig::servers`].
    servers: Box<[ServerCell]>,
}

/// One lane's counts against one server.
#[derive(Default)]
#[repr(align(64))]
struct ServerCell {
    /// Attempts sent.
    attempts: AtomicU64,
    /// Attempts answered (over UDP or the TCP fallback), and the sum of
    /// their RTTs in microseconds.
    answers: AtomicU64,
    rtt_sum_us: AtomicU64,
}

impl LaneCell {
    fn new(servers: usize) -> LaneCell {
        LaneCell {
            stats: AtomicSet::default(),
            servers: (0..servers).map(|_| ServerCell::default()).collect(),
        }
    }
}

/// One count of server `server`, summed over every lane's cell.
fn server_total(cells: &[LaneCell], server: usize, count: fn(&ServerCell) -> &AtomicU64) -> u64 {
    cells.iter().map(|c| count(&c.servers[server]).load(Ordering::Relaxed)).sum()
}

/// Feeds `registry` from the lanes' cells on every read: the client
/// ledger as `dnswild_client_events_total{kind}`, and per authoritative
/// its attempts and run-mean answer RTT — the two sides of the paper's
/// Fig. 3 share-vs-1/SRTT law the watchdog judges.
///
/// The RTT gauge holds the *run-mean* RTT of answered attempts, not the
/// per-lane infra cache's instantaneous SRTT: the watchdog compares a
/// *cumulative* attempt share against the RTT expectation, so the RTT
/// side must be equally cumulative — a snapshot taken right after one
/// chaos-delayed reply would skew the expectation by an order of
/// magnitude. (Fig. 3 likewise plots shares against RTT medians over
/// the whole measurement window.)
///
/// Returns the hooks, which [`resolve`] settles once the run is over.
fn register(registry: &Registry, servers: &[SocketAddr], cells: &Arc<[LaneCell]>) -> Vec<Hook> {
    let books = Arc::clone(cells);
    let mut hooks = vec![registry.mirror_counters(
        inputs::CLIENT_EVENTS,
        "resolver-client events, one series per ClientStats field",
        &[],
        move || books.iter().map(|c| c.stats.snapshot()).sum::<ClientStats>(),
    )];
    for (i, server) in servers.iter().enumerate() {
        let addr = server.to_string();
        let auth = [("auth", addr.as_str())];
        let books = Arc::clone(cells);
        hooks.push(registry.mirror_counter(
            inputs::ATTEMPTS,
            "client query attempts per authoritative",
            &auth,
            move || server_total(&books, i, |s| &s.attempts),
        ));
        let srtt = registry.gauge_with(
            inputs::SRTT_MS,
            "client run-mean answer RTT per authoritative (ms)",
            &auth,
        );
        let books = Arc::clone(cells);
        hooks.push(registry.on_scrape(move || {
            let answers = server_total(&books, i, |s| &s.answers);
            if answers > 0 {
                let sum_us = server_total(&books, i, |s| &s.rtt_sum_us);
                srtt.set(sum_us as f64 / answers as f64 / 1_000.0);
            }
        }));
    }
    hooks
}

/// Runs the closed-loop resolver client; blocks until every lane has
/// finished its transactions and drained its socket. The lanes are
/// packed onto one event-loop thread per core the host offers.
pub fn resolve(config: ResolveConfig) -> io::Result<ResolveReport> {
    resolve_on(config, cores())
}

/// [`resolve`] with its lanes packed onto `loops` threads (see
/// [`run_lanes`]). Which lanes share a thread changes no lane's books:
/// that is the packing invariance the tests hold.
pub(crate) fn resolve_on(config: ResolveConfig, loops: usize) -> io::Result<ResolveReport> {
    if config.servers.is_empty() || config.servers.len() > 254 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "resolve needs between 1 and 254 servers",
        ));
    }
    let servers = config.servers.len();
    let lanes = config.concurrency.max(1);
    let cells: Arc<[LaneCell]> = (0..lanes).map(|_| LaneCell::new(servers)).collect();
    let hooks = config.metrics.as_ref().map(|r| register(r, &config.servers, &cells));
    let start = Instant::now();
    let run = run_lanes(lanes, loops, |i| ResolverLane::new(&config, i, &cells[i]));
    if let (Some(registry), Some(hooks)) = (&config.metrics, hooks) {
        registry.settle(hooks);
    }
    run?;
    Ok(ResolveReport {
        stats: cells.iter().map(|c| c.stats.snapshot()).sum(),
        per_server: (0..servers).map(|i| server_total(&cells, i, |s| &s.attempts)).collect(),
        elapsed: start.elapsed(),
    })
}

/// Maps server index `i` to the [`SimAddr`] token the policy layer
/// keys its infra cache on.
fn server_token(i: usize) -> SimAddr {
    SimAddr::from_ipv4(Ipv4Addr::new(10, 0, 0, (i + 1) as u8)).expect("10.x encodes")
}

/// Appends `n` in decimal. Not `write!`: a warm transaction costs well
/// under a microsecond, and `core::fmt` would be a visible share of it.
fn push_decimal(s: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn sim_now(epoch: Instant) -> SimTime {
    SimTime::from_micros(epoch.elapsed().as_micros() as u64)
}

/// What the current UDP attempt has come to so far.
struct AttemptOutcome {
    id: u16,
    /// The server this attempt was sent to.
    server: usize,
    window: Duration,
    /// The failure reply that doomed the attempt, unless a later clean
    /// answer reclassified it as stale.
    doomed: Option<Doom>,
    /// The clean answer, once one arrived inside the window (or over
    /// the TCP detour it led to).
    answer: Option<Answered>,
}

/// The attempt a transaction was answered on (an earlier attempt's
/// late reply counts), and the reply's size.
struct Answered {
    server: usize,
    rtt: Duration,
    bytes: usize,
}

/// Telemetry identity of the transaction an attempt belongs to.
struct Ids {
    client: u64,
    qname_hash: u32,
    journey: u64,
}

/// What a lane is waiting for. Every wait has a deadline; a lane that
/// waits for nothing is ready to run on, or done.
#[derive(Clone, Copy)]
enum Phase {
    /// Between transactions: runs on at the next [`Lane::advance`].
    Ready,
    /// A UDP attempt's window is open until `deadline`.
    Udp { deadline: Instant },
    /// A TCP detour, on its `plan`-th connection, awaits its reply.
    Tcp { plan: usize, deadline: Instant },
    /// Every transaction is done; stragglers are read until
    /// [`DRAIN_WINDOW`] passes without one.
    Drain { deadline: Instant },
    Done,
}

/// One lane: a transaction in flight, and everything it needs to run
/// on its own — its socket (so its own source port, and its own RRL
/// bucket upstream), selection policy fed with real RTT samples, infra
/// cache, RNG stream, contiguous share of the transactions, and books.
/// Transaction attempts and background prefetches are the same attempt
/// under different IDs.
pub(crate) struct ResolverLane<'a> {
    cfg: &'a ResolveConfig,
    /// Where this lane publishes its books.
    cell: &'a LaneCell,
    /// Names the lane's queries (`c{index}-t{txn}`) and seeds its streams.
    index: usize,
    socket: LaneSocket,
    tokens: Vec<SimAddr>,
    policy: Box<dyn SelectionPolicy>,
    infra: InfraCache,
    rng: DetRng,
    epoch: Instant,
    /// Counts since the last [`ResolverLane::publish`].
    stats: ClientStats,
    producer: Option<Producer>,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    /// One cached TCP fallback connection per server (RFC 7766 reuse).
    tcp_conns: Vec<Option<TcpConn>>,
    /// The lane's transactions: `first_txn..end_txn`, `next_txn` next.
    first_txn: u64,
    next_txn: u64,
    end_txn: u64,
    phase: Phase,
    /// The current transaction: its number, name and telemetry ids
    /// (whose client token, the lane's, is stable across same-seed
    /// runs, so trace-side client groupings are).
    txn: u64,
    label: String,
    qname: Name,
    ids: Ids,
    /// Its try in flight (0-based), and whether that is a prefetch.
    try_no: u32,
    prefetch: bool,
    /// Its attempts so far, and the servers it has given up on — both
    /// reused from one transaction to the next.
    sent: Vec<Attempt>,
    excluded: Vec<SimAddr>,
    /// The attempt in flight.
    out: AttemptOutcome,
    /// When the current TCP detour began.
    tcp_started: Instant,
}

impl<'a> ResolverLane<'a> {
    fn new(cfg: &'a ResolveConfig, index: usize, cell: &'a LaneCell) -> io::Result<Self> {
        let socket = LaneSocket::bind(&cfg.servers[0])?;
        let (first_txn, share) = share_of(cfg.transactions, cfg.concurrency.max(1), index);
        let now = Instant::now();
        Ok(ResolverLane {
            cfg,
            cell,
            index,
            socket,
            tokens: (0..cfg.servers.len()).map(server_token).collect(),
            policy: cfg.policy.build(),
            infra: InfraCache::new(cfg.policy.default_infra_expiry(), cfg.policy.smoothing()),
            rng: DetRng::seed_from_u64(thread_stream(cfg.seed, index)),
            epoch: now,
            stats: ClientStats::default(),
            producer: cfg.collector.as_ref().map(|c| c.producer()),
            send_buf: Vec::with_capacity(128),
            recv_buf: vec![0u8; 4096],
            tcp_conns: (0..cfg.servers.len()).map(|_| None).collect(),
            first_txn,
            next_txn: first_txn,
            end_txn: first_txn + share,
            phase: Phase::Ready,
            txn: first_txn,
            label: String::new(),
            qname: Name::root(),
            ids: Ids {
                client: splitmix64(thread_stream(0x636c_6e74 ^ cfg.seed, index)),
                qname_hash: 0,
                journey: 0,
            },
            try_no: 0,
            prefetch: false,
            sent: Vec::with_capacity(cfg.max_tries.max(1) as usize),
            excluded: Vec::new(),
            out: AttemptOutcome {
                id: 0,
                server: 0,
                window: Duration::ZERO,
                doomed: None,
                answer: None,
            },
            tcp_started: now,
        })
    }

    /// Adds the counts since the last call to this lane's cell. Called
    /// between transactions only, when the books are whole.
    fn publish(&mut self) {
        self.cell.stats.add(std::mem::take(&mut self.stats));
    }

    /// Starts the next transaction, or the drain after the last one.
    fn next_transaction(&mut self) -> io::Result<()> {
        if self.next_txn == self.end_txn {
            self.phase = Phase::Drain { deadline: Instant::now() + DRAIN_WINDOW };
            return Ok(());
        }
        let txn = self.next_txn;
        self.next_txn += 1;
        if (txn - self.first_txn).is_multiple_of(PUBLISH_EVERY) {
            self.publish();
        }
        self.stats.transactions += 1;
        self.txn = txn;
        self.label.clear();
        self.label.push('c');
        push_decimal(&mut self.label, self.index as u64);
        self.label.push_str("-t");
        push_decimal(&mut self.label, txn);
        // A hit left the last qname here; a miss moved it into the cache.
        if !self.qname.relabel(&self.label).expect("short probe label") {
            self.qname = self.cfg.origin.prepend(&self.label).expect("short probe label");
        }
        if self.producer.is_some() {
            let mut buf = [0; dnswild_proto::MAX_NAME_LEN];
            let wire = self.qname.canonical_wire(&mut buf);
            // Same canonical bytes every other hop derives from the
            // payload, so the ids agree without coordination.
            (self.ids.qname_hash, self.ids.journey) = (qname_hash32(wire), journey_id(wire));
        }
        self.sent.clear();
        self.excluded.clear();

        // Cache first: a live hit answers the transaction with zero
        // socket I/O. Only a hot entry near expiry goes to the wire —
        // as a background prefetch, not a transaction attempt.
        if let Some(cache) = &self.cfg.cache {
            let hit = cache.probe(&self.qname, RType::Txt);
            if let Some(p) = &self.producer {
                match &hit {
                    Some(h) => record_cache_lookup(p, &self.ids, FLAG_RESPONSE, h.rcode.to_u8()),
                    None => record_cache_lookup(p, &self.ids, 0, RCODE_NONE),
                }
            }
            if let Some(h) = hit {
                self.stats.answered += 1;
                self.stats.cache_hits += 1;
                if h.kind != EntryKind::Positive {
                    self.stats.cache_negative += 1;
                }
                if h.prefetch_due {
                    // Background refresh: one UDP attempt, no retries,
                    // no TCP fallback. The ID lives in the top half of
                    // the space so it cannot collide with transaction
                    // IDs, which are txn × max_tries + attempt.
                    self.stats.prefetches += 1;
                    self.prefetch = true;
                    self.send_attempt(0x8000u16 | (txn as u16 & 0x7fff), self.cfg.timeout)?;
                }
                return Ok(());
            }
        }
        self.prefetch = false;
        self.try_no = 0;
        self.send_try()
    }

    /// Sends try `try_no` of the current transaction.
    fn send_try(&mut self) -> io::Result<()> {
        let max_tries = self.cfg.max_tries.max(1);
        // Deterministic per-(transaction, attempt) ID: retransmits
        // are new datagrams with fresh content, so a content-keyed
        // fault plan gives each attempt an independent fate.
        let id = (self.txn.wrapping_mul(max_tries as u64) + self.try_no as u64) as u16;
        if self.try_no > 0 {
            self.stats.retries += 1;
        }
        // Exponential backoff: the base timeout doubles per retry.
        self.send_attempt(id, self.cfg.timeout.saturating_mul(1 << self.try_no.min(3)))
    }

    /// One UDP attempt: pick a server outside `excluded`, send the
    /// query under `id`, and open its `window`.
    fn send_attempt(&mut self, id: u16, window: Duration) -> io::Result<()> {
        let now = sim_now(self.epoch);
        let token =
            self.policy.select(&self.tokens, &self.excluded, &mut self.infra, now, &mut self.rng);
        let server = self.tokens.iter().position(|&t| t == token).expect("token is a candidate");
        self.cell.servers[server].attempts.fetch_add(1, Ordering::Relaxed);
        self.write_query(id);
        let sent_at = Instant::now();
        self.socket.udp.send_to(&self.send_buf, self.cfg.servers[server])?;
        self.stats.attempts += 1;
        self.sent.push(Attempt { id, server, sent_at });
        self.out = AttemptOutcome { id, server, window, doomed: None, answer: None };
        self.phase = Phase::Udp { deadline: sent_at + window };
        Ok(())
    }

    /// Writes attempt `id`'s query into the send buffer: the bytes
    /// `Message::iterative_query(id, qname, TXT)` encodes to, its OPT
    /// advertising the configured EDNS size — with no `Message` built
    /// and the qname borrowed, not copied.
    fn write_query(&mut self, id: u16) {
        let header = Header { id, ..Header::default() };
        let mut w = MessageWriter::new(std::mem::take(&mut self.send_buf), &header);
        w.question_parts(&self.qname, RType::Txt, Class::In).expect("probe query encodes");
        w.edns(self.cfg.edns_size.unwrap_or(DEFAULT_EDNS_PAYLOAD)).expect("probe query encodes");
        self.send_buf = w.finish();
    }

    /// Classifies one datagram read inside an attempt's window.
    ///
    /// A failure reply dooms the attempt but the window still runs out
    /// (see the determinism contract); an answer after a failure reply
    /// means the failure was a mutated duplicate copy, so it moves to
    /// `stale` — where the opposite arrival order would have put it. A
    /// clean answer to any attempt of the transaction closes the window.
    fn on_datagram(&mut self, got: usize) -> io::Result<()> {
        match classify(&self.recv_buf[..got], &self.sent, &self.qname) {
            Reply::Answer { attempt: a, answer, negative_ttl } => {
                if let Some(kind) = self.out.doomed.take() {
                    match kind {
                        Doom::Lame => self.stats.lame -= 1,
                        Doom::FormErr => self.stats.formerr -= 1,
                        Doom::Tc => self.stats.tc_seen -= 1,
                    }
                    self.stats.stale += 1;
                }
                let Attempt { server, sent_at, .. } = self.sent[a];
                let rtt = sent_at.elapsed();
                self.observe_rtt(server, rtt);
                self.cache_reply(answer, negative_ttl);
                self.out.answer = Some(Answered { server, rtt, bytes: got });
                return self.end_udp_attempt();
            }
            Reply::Lame { attempt: a } if self.out.doomed.is_none() => {
                self.stats.lame += 1;
                let token = self.tokens[self.sent[a].server];
                self.infra.observe_timeout(token, sim_now(self.epoch));
                self.excluded.push(token);
                self.out.doomed = Some(Doom::Lame);
            }
            Reply::FormErr if self.out.doomed.is_none() => {
                self.stats.formerr += 1;
                self.out.doomed = Some(Doom::FormErr);
            }
            Reply::Tc if self.out.doomed.is_none() => {
                self.stats.tc_seen += 1;
                self.out.doomed = Some(Doom::Tc);
            }
            // A second failure reply in the same window can only be
            // a duplicated copy of the first; fold it into `stale`
            // so the count is order-independent.
            Reply::Lame { .. } | Reply::FormErr | Reply::Tc => self.stats.stale += 1,
            Reply::Corrupt => self.stats.corrupt_replies += 1,
            // A matching-ID reply that is no longer an answer or a
            // recognisable failure is a mutated copy; had it been
            // read after the clean answer it would have been
            // `Stale`, so it must land in the same bucket.
            Reply::Mismatch => self.stats.stale += 1,
            Reply::Stale => self.stats.stale += 1,
        }
        Ok(())
    }

    /// The current UDP attempt's window has closed: on an answer, on
    /// its deadline doomed, or on its deadline silent.
    fn end_udp_attempt(&mut self) -> io::Result<()> {
        self.phase = Phase::Ready;
        if self.prefetch {
            if self.out.answer.is_some() {
                self.stats.prefetch_ok += 1;
            }
            self.record_attempt(FLAG_PREFETCH);
            return Ok(());
        }
        // Truncation fallback (RFC 7766): only once the window has
        // closed still doomed by TC — see the determinism contract.
        // The attempt itself stays accounted under `tc_seen`; a TCP
        // answer completes the *transaction*.
        if matches!(self.out.doomed, Some(Doom::Tc)) && self.cfg.tcp_fallback {
            self.stats.tcp_attempts += 1;
            self.tcp_started = Instant::now();
            return self.tcp_try(0);
        }
        self.end_try(0)
    }

    /// Sends the TC-doomed attempt's query over TCP on the first plan
    /// from `from` on that gets it written. The cached connection may
    /// have gone stale since the last fallback; on any error it is
    /// dropped and the next plan is a fresh one. With reuse off there
    /// is no cached connection to gamble on, so each fallback is
    /// exactly one fresh connection carrying exactly one frame. No plan
    /// left fails the detour.
    fn tcp_try(&mut self, from: usize) -> io::Result<()> {
        let plans: &[bool] = if self.cfg.tcp_reuse { &[false, true] } else { &[true] };
        let server = self.out.server;
        for (plan, &fresh) in plans.iter().enumerate().skip(from) {
            if fresh || self.tcp_conns[server].is_none() {
                self.tcp_conns[server] =
                    tcp_connect(&self.cfg.servers[server], self.cfg.timeout).ok();
            }
            let Some(conn) = self.tcp_conns[server].as_mut() else {
                continue;
            };
            match write_frame(&mut conn.stream, &self.send_buf, &mut conn.scratch) {
                Ok(()) => {
                    let deadline = Instant::now() + self.cfg.timeout;
                    self.phase = Phase::Tcp { plan, deadline };
                    return Ok(());
                }
                Err(_) => self.tcp_conns[server] = None,
            }
        }
        self.tcp_end(None)
    }

    /// One read towards the TCP detour's reply frame; `FrameReader`
    /// resumes at any byte, so a reply split over several reads costs
    /// nothing but the reads. A closed or broken connection moves the
    /// detour to its next plan.
    fn read_tcp(&mut self, plan: usize) -> io::Result<bool> {
        let conn = self.tcp_conns[self.out.server].as_mut().expect("a detour holds its stream");
        let reply = match conn.reader.read_frame(&mut conn.stream) {
            // A TCP reply completes the transaction only as a full
            // answer to the attempt it retries — an earlier attempt's
            // ID does not count here.
            Ok(Some(p)) => {
                let retried = &self.sent[self.sent.len() - 1..];
                Some((p.len(), classify(p, retried, &self.qname)))
            }
            Err(e) if is_idle_recv(&e) || e.kind() == io::ErrorKind::Interrupted => {
                return Ok(false)
            }
            Ok(None) | Err(_) => None,
        };
        match reply {
            Some(reply) => self.tcp_end(Some(reply))?,
            None => {
                self.tcp_conns[self.out.server] = None;
                self.tcp_try(plan + 1)?;
            }
        }
        Ok(true)
    }

    /// The TCP detour is over, with `reply` or without one.
    fn tcp_end(&mut self, reply: Option<(usize, Reply)>) -> io::Result<()> {
        let server = self.out.server;
        if !self.cfg.tcp_reuse {
            self.tcp_conns[server] = None;
        }
        let mut flags = FLAG_TCP_RETRY;
        match reply {
            Some((bytes, Reply::Answer { answer, negative_ttl, .. })) => {
                let rtt = self.tcp_started.elapsed();
                self.stats.tcp_answered += 1;
                self.observe_rtt(server, rtt);
                self.cache_reply(answer, negative_ttl);
                self.out.answer = Some(Answered { server, rtt, bytes });
                flags |= FLAG_TC_SEEN | FLAG_TCP;
            }
            _ => self.stats.tcp_failed += 1,
        }
        self.end_try(flags)
    }

    /// The current try is settled: book it, then answer the
    /// transaction, send its next try, or give it up.
    fn end_try(&mut self, flags: u16) -> io::Result<()> {
        self.record_attempt(flags);
        self.phase = Phase::Ready;
        if self.out.answer.is_some() {
            self.stats.answered += 1;
            return Ok(());
        }
        self.try_no += 1;
        if self.try_no < self.cfg.max_tries.max(1) {
            return self.send_try();
        }
        // Last resort (RFC 8767): when every try failed and the
        // cache still holds the expired answer inside its stale
        // window, serve it stale rather than SERVFAIL.
        match self.cfg.cache.as_ref().and_then(|c| c.probe_stale(&self.qname, RType::Txt)) {
            Some(h) => {
                self.stats.answered += 1;
                self.stats.stale_served += 1;
                if let Some(p) = &self.producer {
                    record_cache_lookup(p, &self.ids, FLAG_TIMEOUT, h.rcode.to_u8());
                }
            }
            None => self.stats.servfails += 1,
        }
        Ok(())
    }

    /// Feeds an answered attempt's RTT to the policy and the cell.
    fn observe_rtt(&mut self, server: usize, rtt: Duration) {
        let us = rtt.as_micros() as u64;
        self.infra.observe_rtt(
            self.tokens[server],
            SimDuration::from_micros(us),
            sim_now(self.epoch),
        );
        let cell = &self.cell.servers[server];
        cell.answers.fetch_add(1, Ordering::Relaxed);
        cell.rtt_sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Hands an answer to the cache, with the transaction's qname: the
    /// answer ends the transaction, so nothing asks for the name again.
    fn cache_reply(&mut self, reply: Answer, negative_ttl: u32) {
        if let Some(cache) = &self.cfg.cache {
            let qname = std::mem::replace(&mut self.qname, Name::root());
            cache.insert_reply(qname, RType::Txt, reply, negative_ttl);
        }
    }

    /// Exactly one ClientQuery event per attempt, emitted once its fate
    /// is settled. The doom-then-answer reclassification already
    /// collapsed duplicate replies, so the outcome (and hence the event
    /// count) is arrival-order independent. `flags` carries what only
    /// the caller knows: prefetch, TCP detour.
    fn record_attempt(&self, flags: u16) {
        let Some(producer) = &self.producer else {
            return;
        };
        let (ids, out) = (&self.ids, &self.out);
        let clamp_ns = |d: Duration| d.as_nanos().min(u64::from(u32::MAX) as u128) as u32;
        let mut ev = Event::new(EventKind::ClientQuery);
        ev.ts_ns = producer.now_ns();
        ev.client_hash = ids.client;
        ev.qname_hash = ids.qname_hash;
        ev.journey = ids.journey;
        ev.dns_id = out.id;
        ev.bytes_in = self.send_buf.len().min(u16::MAX as usize) as u16;
        ev.flags = flags;
        match &out.answer {
            Some(a) => {
                ev.auth_id = a.server as u16;
                ev.latency_ns = clamp_ns(a.rtt);
                ev.bytes_out = a.bytes.min(u16::MAX as usize) as u16;
                ev.flags |= FLAG_RESPONSE;
                ev.rcode = 0;
            }
            None => {
                ev.auth_id = out.server as u16;
                ev.latency_ns = clamp_ns(out.window);
                ev.rcode = RCODE_NONE;
                ev.flags |= if out.doomed.is_some() { FLAG_RESPONSE } else { FLAG_TIMEOUT };
                if matches!(out.doomed, Some(Doom::Tc)) {
                    ev.flags |= FLAG_TC_SEEN;
                }
            }
        }
        producer.record(&ev);
    }
}

/// A resolver lane on the loop: transactions, their attempts and TCP
/// detours, then the drain.
impl Lane for ResolverLane<'_> {
    /// Runs the lane on until it waits: starts transactions, answers
    /// cache hits (which touch no socket, so a run of hits never waits)
    /// and sends attempts.
    fn advance(&mut self) -> io::Result<()> {
        while matches!(self.phase, Phase::Ready) {
            self.next_transaction()?;
        }
        Ok(())
    }

    fn deadline(&self) -> Option<Instant> {
        match self.phase {
            Phase::Udp { deadline } | Phase::Tcp { deadline, .. } | Phase::Drain { deadline } => {
                Some(deadline)
            }
            Phase::Ready | Phase::Done => None,
        }
    }

    /// The TCP detour's stream while one is out, else the UDP socket.
    fn poll_fd(&self) -> PollFd {
        match self.phase {
            Phase::Tcp { .. } => {
                let conn = self.tcp_conns[self.out.server].as_ref();
                PollFd::tcp(&conn.expect("a detour holds its stream").stream)
            }
            _ => PollFd::udp(&self.socket.udp),
        }
    }

    /// A datagram, or what one read brings of the TCP detour's reply
    /// frame.
    fn read(&mut self) -> io::Result<bool> {
        if let Phase::Tcp { plan, .. } = self.phase {
            return self.read_tcp(plan);
        }
        let Some(got) = self.socket.read(&mut self.recv_buf)? else {
            return Ok(false);
        };
        match self.phase {
            Phase::Udp { .. } => self.on_datagram(got)?,
            _ => {
                // Duplicates and delayed replies of finished
                // transactions: read them all so the reverse-direction
                // books balance (chaos smoke asserts that every
                // delivered datagram was classified).
                if Message::decode(&self.recv_buf[..got]).is_ok() {
                    self.stats.stale += 1;
                } else {
                    self.stats.corrupt_replies += 1;
                }
                self.phase = Phase::Drain { deadline: Instant::now() + DRAIN_WINDOW };
            }
        }
        Ok(true)
    }

    /// An attempt window closes, a TCP detour's connection times out, a
    /// drain ends.
    fn expire(&mut self) -> io::Result<()> {
        match self.phase {
            Phase::Udp { .. } => {
                if self.out.doomed.is_none() {
                    let token = self.tokens[self.out.server];
                    self.stats.timeouts += 1;
                    self.infra.observe_timeout(token, sim_now(self.epoch));
                    self.excluded.push(token);
                }
                self.end_udp_attempt()
            }
            Phase::Tcp { plan, .. } => {
                self.tcp_conns[self.out.server] = None;
                self.tcp_try(plan + 1)
            }
            Phase::Drain { .. } => {
                self.publish();
                self.phase = Phase::Done;
                Ok(())
            }
            Phase::Ready | Phase::Done => Ok(()),
        }
    }
}

/// One `CacheLookup` event: `flags` says how the probe went
/// ([`FLAG_RESPONSE`] a live hit, [`FLAG_TIMEOUT`] a stale serve, 0 a
/// miss) and `rcode` what the entry held.
fn record_cache_lookup(producer: &Producer, ids: &Ids, flags: u16, rcode: u8) {
    let mut ev = Event::new(EventKind::CacheLookup);
    ev.ts_ns = producer.now_ns();
    ev.client_hash = ids.client;
    ev.qname_hash = ids.qname_hash;
    ev.journey = ids.journey;
    ev.flags = flags;
    ev.rcode = rcode;
    producer.record(&ev);
}

/// Classifies one received reply — a datagram, or a TCP frame's payload
/// — against the attempts of the current transaction it may answer.
/// Every outcome is a pure function of the reply's bytes and the
/// (deterministic) attempt table, never of arrival timing. The reply is
/// decoded as an answer to the transaction's question: its answer
/// records are all that is built (and all the cache keeps), the SOA
/// that sets a negative answer's lifetime read on the way.
fn classify(payload: &[u8], sent: &[Attempt], qname: &Name) -> Reply {
    let mut negative_ttl = None;
    let soa = |section: Section, record: &Record| {
        if section == Section::Authority && negative_ttl.is_none() {
            negative_ttl = soa_negative_ttl(record);
        }
    };
    let Ok(answer) = Message::decode_answer(payload, qname, RType::Txt, soa) else {
        return Reply::Corrupt;
    };
    let header = &answer.header;
    let Some(attempt) = sent.iter().position(|a| a.id == header.id) else {
        return Reply::Stale;
    };
    if !header.response {
        return Reply::Mismatch;
    }
    if header.truncated {
        return Reply::Tc;
    }
    match header.rcode {
        Rcode::FormErr | Rcode::NotImp => Reply::FormErr,
        Rcode::Refused | Rcode::ServFail => Reply::Lame { attempt },
        Rcode::NoError | Rcode::NxDomain if answer.asked => {
            let negative_ttl = negative_ttl.unwrap_or(NEGATIVE_TTL_WITHOUT_SOA);
            Reply::Answer { attempt, answer, negative_ttl }
        }
        _ => Reply::Mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::tests::stale_reply_windows;
    use crate::closed_loop::EventLoop;
    use crate::server::{serve, ServeConfig};
    use crate::tcp::TcpOptions;
    use detrand::Rng;
    use dnswild_proto::{rdata::Txt, RData, Record};
    use std::collections::{BTreeMap, HashMap};
    use dnswild_server::TruncationPolicy;
    use dnswild_zone::presets::{padded_test_domain_zone, test_domain_zone};
    use std::net::UdpSocket;
    use std::sync::Arc;

    fn origin() -> Name {
        Name::parse("ourtestdomain.nl").unwrap()
    }

    /// A wall clock the test can wind forward, so entries age past a TTL
    /// without the test sleeping through it.
    struct WoundClock {
        wall: WallClock,
        ahead_us: Arc<AtomicU64>,
    }

    impl Clock for WoundClock {
        fn now(&self) -> CacheTime {
            let ahead = self.ahead_us.load(Ordering::Relaxed);
            CacheTime::from_micros(self.wall.now().as_micros() + ahead)
        }
    }

    /// A cache on a [`WoundClock`], and the handle that winds it.
    fn wound_cache(cfg: CacheConfig) -> (Arc<SharedCache>, Arc<AtomicU64>) {
        let ahead_us = Arc::new(AtomicU64::new(0));
        let clock = WoundClock { wall: WallClock::new(), ahead_us: Arc::clone(&ahead_us) };
        (SharedCache::with_clock(cfg, Box::new(clock)), ahead_us)
    }

    /// Against a healthy server every transaction is answered on its
    /// first attempt and the books balance.
    #[test]
    fn lossless_resolve_answers_every_transaction() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let report = resolve(
            ResolveConfig::new(vec![handle.local_addr()], origin())
                .transactions(300)
                .concurrency(3),
        )
        .unwrap();
        let stats = handle.shutdown();
        report.stats.check().unwrap();
        assert_eq!(report.stats.transactions, 300);
        assert_eq!(report.stats.answered, 300);
        assert_eq!(report.stats.servfails, 0);
        assert_eq!(report.stats.attempts, 300);
        assert_eq!(report.stats.retries, 0);
        assert_eq!(stats.queries, 300);
        assert_eq!(report.per_server, vec![300]);
    }

    /// A server that never answers: every transaction exhausts its
    /// tries and is accounted as SERVFAIL — nothing is lost, nothing
    /// hangs.
    #[test]
    fn silent_server_yields_accounted_servfails() {
        // Bound but never read: queries vanish without ICMP errors.
        let black_hole = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut cfg = ResolveConfig::new(vec![black_hole.local_addr().unwrap()], origin())
            .transactions(6)
            .concurrency(2);
        cfg.timeout = Duration::from_millis(30);
        cfg.max_tries = 2;
        let report = resolve(cfg).unwrap();
        report.stats.check().unwrap();
        assert_eq!(report.stats.transactions, 6);
        assert_eq!(report.stats.servfails, 6);
        assert_eq!(report.stats.answered, 0);
        assert_eq!(report.stats.attempts, 12);
        assert_eq!(report.stats.timeouts, 12);
    }

    /// Two servers, one silent: the policy learns to prefer the live
    /// one, and every transaction still completes.
    #[test]
    fn failover_prefers_the_live_server() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let black_hole = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut cfg = ResolveConfig::new(
            vec![handle.local_addr(), black_hole.local_addr().unwrap()],
            origin(),
        )
        .transactions(60)
        .concurrency(2)
        .policy(PolicyKind::BindSrtt);
        cfg.timeout = Duration::from_millis(40);
        let report = resolve(cfg).unwrap();
        handle.shutdown();
        report.stats.check().unwrap();
        assert_eq!(report.stats.answered + report.stats.servfails, 60);
        assert_eq!(report.stats.answered, 60, "failover always reaches the live server");
        assert!(
            report.per_server[0] > report.per_server[1],
            "SRTT re-ranking shifts load to the live server: {:?}",
            report.per_server
        );
    }

    /// With a registry attached, the per-auth attempt counters mirror
    /// the per-server split exactly, the transaction/SERVFAIL totals
    /// mirror the stats, and every answered-to server carries a live
    /// SRTT gauge — the exact inputs the watchdog's share law reads.
    #[test]
    fn metered_resolve_feeds_the_watchdog_inputs() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let a = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones.clone()).threads(1)).unwrap();
        let b = serve(ServeConfig::new("127.0.0.1:0", "LHR", zones).threads(1)).unwrap();
        let servers = vec![a.local_addr(), b.local_addr()];
        let registry = Arc::new(Registry::new());
        let report = resolve(
            ResolveConfig::new(servers.clone(), origin())
                .transactions(120)
                .concurrency(2)
                .metrics(registry.clone()),
        )
        .unwrap();
        a.shutdown();
        b.shutdown();
        report.stats.check().unwrap();

        let attempts = registry.counters(inputs::ATTEMPTS);
        assert_eq!(attempts.len(), 2);
        for (i, server) in servers.iter().enumerate() {
            let addr = server.to_string();
            let (_, v) = attempts
                .iter()
                .find(|(labels, _)| labels.iter().any(|(_, l)| *l == addr))
                .expect("per-auth attempts series");
            assert_eq!(*v, report.per_server[i], "attempts{{auth={addr}}}");
        }
        assert_eq!(
            attempts.iter().map(|(_, v)| v).sum::<u64>(),
            report.stats.attempts
        );
        let client = registry.counters(inputs::CLIENT_EVENTS);
        let kind = |kind: &str| {
            client.iter().find(|(labels, _)| labels[0] == ("kind".into(), kind.into())).map(|s| s.1)
        };
        assert_eq!(kind("txns"), Some(report.stats.transactions));
        assert_eq!(kind("servfail"), Some(report.stats.servfails));
        // Both servers answered at least once (120 txns, min-SRTT
        // exploration), so both SRTT gauges hold a real measurement.
        for (labels, srtt) in registry.gauges(inputs::SRTT_MS) {
            assert!(srtt > 0.0, "srtt gauge {labels:?} = {srtt}");
        }
    }

    /// Fat answers against a small negotiated EDNS payload: every UDP
    /// attempt comes back TC=1, and every transaction still completes —
    /// over the TCP fallback — with both sides' books balancing.
    #[test]
    fn truncated_udp_answers_complete_over_tcp() {
        let zones = Arc::new(vec![padded_test_domain_zone(&origin(), 2, 900)]);
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(2)
                .tcp(TcpOptions::default())
                .truncation(TruncationPolicy::symmetric(512)),
        )
        .unwrap();
        let mut cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
            .transactions(12)
            .concurrency(2)
            .edns_size(512);
        cfg.timeout = Duration::from_millis(40);
        let report = resolve(cfg).unwrap();
        let stats = handle.shutdown();
        report.stats.check().unwrap();
        assert_eq!(report.stats.transactions, 12);
        assert_eq!(report.stats.answered, 12, "every truncated txn completes");
        assert_eq!(report.stats.servfails, 0);
        assert_eq!(report.stats.tc_seen, 12, "every UDP attempt was truncated");
        assert_eq!(report.stats.tcp_attempts, 12);
        assert_eq!(report.stats.tcp_answered, 12);
        assert_eq!(report.stats.tcp_failed, 0);
        // Server side agrees: one truncated UDP answer and one TCP
        // answer per transaction.
        assert_eq!(stats.truncated, 12);
        assert_eq!(stats.tcp_queries, 12);
        assert_eq!(stats.queries, 24);
    }

    /// With the fallback disabled, truncation is accounted but the
    /// transaction keeps burning UDP retries into SERVFAIL.
    #[test]
    fn tc_without_fallback_exhausts_retries() {
        let zones = Arc::new(vec![padded_test_domain_zone(&origin(), 2, 900)]);
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(1)
                .truncation(TruncationPolicy::symmetric(512)),
        )
        .unwrap();
        let mut cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
            .transactions(4)
            .concurrency(2)
            .edns_size(512)
            .tcp_fallback(false);
        cfg.timeout = Duration::from_millis(20);
        cfg.max_tries = 2;
        let report = resolve(cfg).unwrap();
        handle.shutdown();
        report.stats.check().unwrap();
        assert_eq!(report.stats.servfails, 4);
        assert_eq!(report.stats.tc_seen, 8, "both tries of all 4 txns truncated");
        assert_eq!(report.stats.tcp_attempts, 0);
    }

    #[test]
    fn client_stats_cover_every_field() {
        dnswild_metrics::counters::assert_counter_set_covers_every_field::<ClientStats, 19>();
    }

    /// The classifier is a pure function of bytes and attempt table.
    #[test]
    fn classification_matrix() {
        let qname = origin().prepend("c0-t0").unwrap();
        let sent = vec![Attempt { id: 7, server: 0, sent_at: Instant::now() }];
        // Undecodable garbage.
        assert!(matches!(classify(&[0xff, 0x00], &sent, &qname), Reply::Corrupt));
        // Unknown ID.
        let other = Message::iterative_query(9, qname.clone(), RType::Txt);
        assert!(matches!(classify(&other.encode().unwrap(), &sent, &qname), Reply::Stale));
        // Matching answer.
        let q = Message::iterative_query(7, qname.clone(), RType::Txt);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.header.authoritative = true;
        assert!(matches!(
            classify(&resp.encode().unwrap(), &sent, &qname),
            Reply::Answer { attempt: 0, .. }
        ));
        // Lame (REFUSED).
        let lame = Message::response_to(&q, Rcode::Refused);
        assert!(matches!(classify(&lame.encode().unwrap(), &sent, &qname), Reply::Lame { .. }));
        // TC wins over rcode.
        let mut tc = Message::response_to(&q, Rcode::NoError);
        tc.header.truncated = true;
        assert!(matches!(classify(&tc.encode().unwrap(), &sent, &qname), Reply::Tc));
        // Wrong question.
        let wrong = Message::iterative_query(7, origin().prepend("elsewhere").unwrap(), RType::Txt);
        let wrong_resp = Message::response_to(&wrong, Rcode::NoError);
        assert!(matches!(
            classify(&wrong_resp.encode().unwrap(), &sent, &qname),
            Reply::Mismatch
        ));
    }

    /// With a shared cache, a second identical run is answered entirely
    /// from memory: every transaction a hit, zero socket I/O, and the
    /// server never sees a warm-pass query.
    #[test]
    fn warm_cache_answers_without_socket_io() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let cache = SharedCache::new(CacheConfig::default());
        let cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
            .transactions(120)
            .concurrency(3)
            .cache(Arc::clone(&cache));
        let cold = resolve(cfg.clone()).unwrap();
        let warm = resolve(cfg).unwrap();
        let server = handle.shutdown();
        cold.stats.check().unwrap();
        warm.stats.check().unwrap();
        assert_eq!(cold.stats.cache_hits, 0, "first run is cold");
        assert_eq!(cold.stats.answered, 120);
        assert_eq!(warm.stats.cache_hits, 120, "every repeat hits");
        assert_eq!(warm.stats.answered, 120);
        assert_eq!(warm.stats.attempts, 0, "hits cost zero socket sends");
        assert_eq!(server.queries, 120, "the warm pass never reached the server");
        let cs = cache.stats();
        assert_eq!((cs.hits, cs.misses, cs.inserts), (120, 120, 120));
    }

    /// NXDOMAIN answers are cached negatively (RFC 2308, TTL from the
    /// zone's SOA minimum) and repeats hit without socket I/O.
    #[test]
    fn negative_answers_are_cached() {
        use dnswild_zone::presets::attack_test_domain_zone;
        let zones = Arc::new(vec![attack_test_domain_zone(&origin(), 2, 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        // Probe labels under the NX anchor: every answer is NXDOMAIN.
        let nx_origin = origin().prepend("void").unwrap();
        let cache = SharedCache::new(CacheConfig::default());
        let cfg = ResolveConfig::new(vec![handle.local_addr()], nx_origin)
            .transactions(60)
            .concurrency(2)
            .cache(Arc::clone(&cache));
        let cold = resolve(cfg.clone()).unwrap();
        let warm = resolve(cfg).unwrap();
        handle.shutdown();
        cold.stats.check().unwrap();
        warm.stats.check().unwrap();
        assert_eq!(cold.stats.answered, 60, "NXDOMAIN is an answer, not a failure");
        assert_eq!(cold.stats.cache_negative, 0);
        assert_eq!(warm.stats.cache_hits, 60);
        assert_eq!(warm.stats.cache_negative, 60, "repeats served from negative entries");
        assert_eq!(warm.stats.attempts, 0);
    }

    /// When every authoritative goes dark after the cache warmed and
    /// the entries have expired, serve-stale completes every
    /// transaction (RFC 8767) instead of SERVFAILing.
    #[test]
    fn serve_stale_completes_when_upstreams_die() {
        use dnswild_zone::presets::probe_ttl_test_domain_zone;
        let zones = Arc::new(vec![probe_ttl_test_domain_zone(&origin(), 2, 1)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let (cache, ahead_us) = wound_cache(CacheConfig {
            max_stale_s: 3600,
            ..CacheConfig::default()
        });
        let cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
            .transactions(24)
            .concurrency(2)
            .cache(Arc::clone(&cache));
        let cold = resolve(cfg.clone()).unwrap();
        handle.shutdown();
        cold.stats.check().unwrap();
        assert_eq!(cold.stats.answered, 24);
        // Let the 1s-TTL entries expire, then point every query at a
        // blackhole: a bound socket nobody ever reads.
        ahead_us.store(1_200_000, Ordering::Relaxed);
        let blackhole = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dead = ResolveConfig::new(vec![blackhole.local_addr().unwrap()], origin())
            .transactions(24)
            .concurrency(2)
            .timeout(Duration::from_millis(30))
            .max_tries(2)
            .cache(Arc::clone(&cache));
        let stale = resolve(dead).unwrap();
        stale.stats.check().unwrap();
        assert_eq!(stale.stats.answered, 24, "serve-stale completes every transaction");
        assert_eq!(stale.stats.stale_served, 24);
        assert_eq!(stale.stats.servfails, 0);
        assert_eq!(stale.stats.cache_hits, 0, "entries were expired, not live");
        assert_eq!(stale.stats.timeouts, 48, "every real attempt still timed out");
    }

    /// A hot entry close to expiry triggers exactly one background
    /// prefetch refresh, and the refreshed answer lands in the cache.
    #[test]
    fn prefetch_refreshes_hot_entries_near_expiry() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(2)).unwrap();
        let (cache, ahead_us) = wound_cache(CacheConfig {
            prefetch_window_s: 4,
            ..CacheConfig::default()
        });
        let cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
            .transactions(40)
            .concurrency(2)
            .cache(Arc::clone(&cache));
        let cold = resolve(cfg.clone()).unwrap();
        assert_eq!(cold.stats.prefetches, 0, "fresh entries are outside the window");
        // Age the TTL=5 entries into the 4s prefetch window.
        ahead_us.store(1_200_000, Ordering::Relaxed);
        let warm = resolve(cfg).unwrap();
        let server = handle.shutdown();
        warm.stats.check().unwrap();
        assert_eq!(warm.stats.cache_hits, 40, "prefetch never blocks the hit");
        assert_eq!(warm.stats.prefetches, 40, "each hot entry refreshed once");
        assert_eq!(warm.stats.prefetch_ok, 40);
        assert_eq!(warm.stats.attempts, 40, "the only socket I/O was the refreshes");
        assert_eq!(server.queries, 80, "cold fills + prefetch refreshes");
    }

    // ---- the sharded cache: invisible shards, whole-cache bounds ----

    /// A clock that reads the instant the test last stored: virtual
    /// time, advanced by the op sequence alone.
    struct SetClock(Arc<AtomicU64>);

    impl Clock for SetClock {
        fn now(&self) -> CacheTime {
            CacheTime::from_micros(self.0.load(Ordering::Relaxed))
        }
    }

    /// A cache on a [`SetClock`], and the instant it reads.
    fn set_cache(cfg: CacheConfig) -> (Arc<SharedCache>, Arc<AtomicU64>) {
        let now_us = Arc::new(AtomicU64::new(0));
        (SharedCache::with_clock(cfg, Box::new(SetClock(Arc::clone(&now_us)))), now_us)
    }

    /// A one-record TXT answer to `qname`, or (TTL `None`) a bare
    /// NXDOMAIN, which lives for [`NEGATIVE_TTL_WITHOUT_SOA`].
    fn reply_to(qname: &Name, ttl: Option<u32>) -> Message {
        let query = Message::iterative_query(1, qname.clone(), RType::Txt);
        let Some(ttl) = ttl else {
            return Message::response_to(&query, Rcode::NxDomain);
        };
        let mut reply = Message::response_to(&query, Rcode::NoError);
        let txt = RData::Txt(Txt::from_string("x").unwrap());
        reply.answers.push(Record::new(qname.clone(), ttl, txt));
        reply
    }

    /// Stores `reply` the way a lane does: encoded, classified as the
    /// answer to the one attempt it answers, and inserted.
    fn insert_as_lane(cache: &SharedCache, qname: &Name, reply: &Message) {
        let sent = [Attempt { id: reply.header.id, server: 0, sent_at: Instant::now() }];
        let Reply::Answer { answer, negative_ttl, .. } = classify(&reply.encode().unwrap(), &sent, qname)
        else {
            panic!("{reply:?} is not an answer to {qname}");
        };
        cache.insert_reply(qname.clone(), RType::Txt, answer, negative_ttl);
    }

    fn numbered_names(n: usize) -> Vec<Name> {
        (0..n).map(|i| origin().prepend(&format!("n{i}")).unwrap()).collect()
    }

    /// To one caller an unbounded `SharedCache` is a `RecordCache`: the
    /// same 20,000 seeded operations — stores, probes, stale probes on
    /// a moving clock, prefetch and serve-stale switched on — give the
    /// same verdict at every step and the same books and entry count
    /// after it.
    #[test]
    fn the_shards_are_invisible_to_a_single_caller() {
        let cfg = CacheConfig {
            prefetch_window_s: 3,
            max_stale_s: 20,
            ..CacheConfig::default()
        };
        let (shared, now_us) = set_cache(cfg);
        let mut single = RecordCache::with_config(cfg);
        let names = numbered_names(300);
        let mut rng = DetRng::seed_from_u64(20);
        for step in 0..20_000 {
            now_us.fetch_add(rng.gen_range(0..400_000u64), Ordering::Relaxed);
            let now = shared.now();
            let qname = &names[rng.gen_range(0..names.len())];
            match rng.gen_range(0..8u32) {
                0..=2 => {
                    let ttl = (rng.gen_range(0..8u32) > 0).then(|| rng.gen_range(0..15u32));
                    let reply = reply_to(qname, ttl);
                    single.insert_reply(qname, RType::Txt, &reply, now);
                    insert_as_lane(&shared, qname, &reply);
                }
                3 => assert_eq!(
                    shared.probe_stale(qname, RType::Txt),
                    single.probe_stale(qname, RType::Txt, now),
                    "stale probe at step {step}"
                ),
                _ => assert_eq!(
                    shared.probe(qname, RType::Txt),
                    single.probe(qname, RType::Txt, now),
                    "probe at step {step}"
                ),
            }
            assert_eq!(shared.stats(), single.stats(), "books at step {step}");
            assert_eq!(shared.len(), single.len(), "entries at step {step}");
        }
        let s = shared.stats();
        assert!(s.stale_served > 0, "{s:?}");
        assert!(s.hits > 1_000 && s.expired > 1_000 && s.negative_hits > 100, "{s:?}");
    }

    /// A shard indexes its buckets by the low bits of the hash that
    /// picked it, so the pick must use other bits: had it taken the
    /// hash mod 16, every question in a shard would share the low four
    /// bits and use one bucket in sixteen. 4,096 names over 16 shards:
    /// in every shard, at least half as many buckets in use as entries.
    #[test]
    fn shard_and_bucket_take_different_bits_of_one_hash() {
        let (cache, _) = set_cache(CacheConfig::default());
        for qname in numbered_names(4_096) {
            insert_as_lane(&cache, &qname, &reply_to(&qname, Some(600)));
        }
        assert_eq!((cache.len(), cache.shards.len()), (4_096, 16));
        for shard in cache.shards.iter() {
            let shard = shard.lock();
            let (used, live) = (shard.occupied_buckets(), shard.len());
            assert!(2 * used >= live, "{live} entries in {used} buckets");
        }
    }

    /// Eight threads, 20,000 operations each, a few hundred names
    /// between them, on a cache told to hold 37 entries and serve stale
    /// answers: no sample of `len()` ever exceeds 37, exactly the
    /// lookups issued are booked as hits or misses, every store is
    /// booked, and no lock is left poisoned.
    #[test]
    fn whole_cache_bounds_hold_under_eight_threads() {
        const THREADS: usize = 8;
        let cfg = CacheConfig {
            capacity: 37,
            max_stale_s: 2,
            ..CacheConfig::default()
        };
        let (cache, now_us) = set_cache(cfg);
        assert_eq!(cache.shards.len(), 16);
        let names = numbered_names(300);
        let start = std::sync::Barrier::new(THREADS);
        let issued: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, now_us, names, start) = (&cache, &now_us, &names, &start);
                    scope.spawn(move || {
                        let mut rng = DetRng::seed_from_u64(thread_stream(37, t));
                        let (mut lookups, mut stores) = (0, 0);
                        start.wait();
                        for op in 0..20_000 {
                            // 20 ms a step: a 1 s TTL runs out while
                            // the entry is, often enough, still here.
                            now_us.fetch_add(20_000, Ordering::Relaxed);
                            let qname = &names[rng.gen_range(0..names.len())];
                            match rng.gen_range(0..8u32) {
                                0..=1 => {
                                    insert_as_lane(cache, qname, &reply_to(qname, Some(1)));
                                    stores += 1;
                                }
                                2..=3 => drop(cache.probe_stale(qname, RType::Txt)),
                                _ => {
                                    cache.probe(qname, RType::Txt);
                                    lookups += 1;
                                }
                            }
                            if op % 64 == 0 {
                                let len = cache.len();
                                assert!(len <= 37, "{len} entries in a cache bounded at 37");
                            }
                        }
                        (lookups, stores)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no thread panicked")).collect()
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, issued.iter().map(|i| i.0).sum::<u64>());
        assert_eq!(s.inserts, issued.iter().map(|i| i.1).sum::<u64>());
        assert!(s.hits > 0 && s.expired > 0 && s.evictions > 0 && s.stale_served > 0, "{s:?}");
        assert!(cache.len() <= 37 && cache.shards.iter().all(|shard| !shard.0.is_poisoned()));
    }

    /// A faster cache must send the *same* stream upstream. The load
    /// model of "Modeling and Predicting DNS Server Load" (PAPERS.md)
    /// says what that stream is: a name asked at Poisson rate λ whose
    /// answers live T seconds misses once per renewal cycle of mean
    /// T + 1/λ, so over D seconds it reaches the authoritative
    /// λ·D / (1 + λ·T) times. A seeded Zipf(1) stream over 200 names at
    /// 50 q/s for 2,000 virtual seconds, T = 10 s: for each of the 20
    /// most popular names the misses are within 10% of that, their sum
    /// within 2% — and `SharedCache` misses exactly where `RecordCache`
    /// does.
    #[test]
    fn misses_per_name_follow_the_renewal_load_model() {
        const NAMES: usize = 200;
        const HEAD: usize = 20;
        const TTL_S: u32 = 10;
        let (rate, duration_s) = (50.0, 2_000.0);
        let names = numbered_names(NAMES);
        let weights: Vec<f64> = (1..=NAMES).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let (shared, now_us) = set_cache(CacheConfig::default());
        let mut single = RecordCache::new();
        let mut misses = [vec![0u64; NAMES], vec![0u64; NAMES]];
        let mut rng = DetRng::seed_from_u64(2017);
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            if t >= duration_s {
                break;
            }
            let mut pick = rng.next_f64() * total;
            let i = weights.iter().position(|w| { pick -= w; pick < 0.0 }).unwrap_or(NAMES - 1);
            now_us.store((t * 1e6) as u64, Ordering::Relaxed);
            let (qname, now) = (&names[i], shared.now());
            let reply = reply_to(qname, Some(TTL_S));
            if shared.probe(qname, RType::Txt).is_none() {
                misses[0][i] += 1;
                insert_as_lane(&shared, qname, &reply);
            }
            if single.probe(qname, RType::Txt, now).is_none() {
                misses[1][i] += 1;
                single.insert_reply(qname, RType::Txt, &reply, now);
            }
        }
        assert_eq!(misses[0], misses[1], "both caches send the same upstream stream");
        let (mut predicted_sum, mut observed_sum) = (0.0, 0.0);
        for i in 0..HEAD {
            let lambda = rate * weights[i] / total;
            let predicted = lambda * duration_s / (1.0 + lambda * TTL_S as f64);
            let observed = misses[0][i] as f64;
            assert!(
                (observed - predicted).abs() <= 0.10 * predicted,
                "rank {}: {observed} misses, the model predicts {predicted:.1}",
                i + 1
            );
            predicted_sum += predicted;
            observed_sum += observed;
        }
        assert!(
            (observed_sum - predicted_sum).abs() <= 0.02 * predicted_sum,
            "head of the distribution: {observed_sum} misses, the model predicts {predicted_sum:.1}"
        );
    }

    // ---- lanes on one event loop ----

    /// A one-lane loop.
    fn one_lane_loop<'a>(cfg: &'a ResolveConfig, cells: &'a [LaneCell]) -> EventLoop<ResolverLane<'a>> {
        EventLoop::new(vec![ResolverLane::new(cfg, 0, &cells[0]).unwrap()])
    }

    /// A stale reply late in a window must not restart it — the wait
    /// after it is for what is left — and must not leave the next
    /// window shorter. The load lane's twin is
    /// `closed_loop::tests::a_stale_reply_does_not_extend_the_window`.
    #[test]
    fn a_stale_reply_neither_extends_the_window_nor_shortens_the_next() {
        let window = Duration::from_millis(200);
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let cfg = ResolveConfig::new(vec![server.local_addr().unwrap()], origin())
            .transactions(2)
            .concurrency(1)
            .timeout(window)
            .max_tries(1);
        let cells = [LaneCell::new(1)];
        let mut lp = one_lane_loop(&cfg, &cells);
        stale_reply_windows(&mut lp, server, window, |lane| (lane.stats.stale, lane.stats.timeouts));
    }

    /// A reply queued before its window closed is an answer, however
    /// long after the deadline the loop gets round to reading it: every
    /// readable socket is read before any window is closed.
    #[test]
    fn a_reply_readable_before_its_deadline_is_an_answer_however_late_it_is_read() {
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
        let window = Duration::from_millis(40);
        let cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
            .transactions(1)
            .concurrency(1)
            .timeout(window)
            .max_tries(1);
        let cells = [LaneCell::new(1)];
        let mut lp = one_lane_loop(&cfg, &cells);
        lp.lanes[0].advance().unwrap(); // the query is on the wire
        // The loop is elsewhere until the window is long closed; the
        // answer has been waiting in the socket all along.
        std::thread::sleep(window * 3);
        assert!(lp.turn().unwrap());
        handle.shutdown();
        let s = &lp.lanes[0].stats;
        assert_eq!((s.answered, s.timeouts, s.servfails), (1, 0, 0), "{s:?}");
    }

    /// What [`Scripted`] does with one UDP query.
    #[derive(Clone, Copy)]
    enum Script {
        Answer,
        Truncate,
        Ignore,
    }

    /// (arrival, lane) of every UDP query a [`Scripted`] server saw.
    type UdpLog = Vec<(Instant, usize)>;
    /// (frame arrival, reply sent) of every TCP exchange it served.
    type TcpLog = Vec<(Instant, Instant)>;

    /// A scripted authoritative on loopback: each UDP query is logged on
    /// arrival and, `udp_delay` later, answered, truncated or ignored as
    /// `script(lane, id)` says — the lane read from its `c{lane}-t…`
    /// label; every TCP frame is answered `tcp_hold` after it arrived.
    struct Scripted {
        addr: SocketAddr,
        stop: Arc<std::sync::atomic::AtomicBool>,
        threads: Vec<std::thread::JoinHandle<()>>,
        log: Arc<Mutex<UdpLog>>,
        tcp_log: Arc<Mutex<TcpLog>>,
    }

    impl Scripted {
        fn start(
            script: fn(usize, u16) -> Script,
            udp_delay: Duration,
            tcp_hold: Duration,
        ) -> Scripted {
            use std::net::TcpListener;
            let (udp, addr, tcp) = crate::server::bind_twin(
                "127.0.0.1:0".parse().unwrap(),
                || {
                    let udp = UdpSocket::bind("127.0.0.1:0")?;
                    let addr = udp.local_addr()?;
                    Ok((udp, addr))
                },
                TcpListener::bind,
            )
            .unwrap();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let log: Arc<Mutex<UdpLog>> = Arc::default();
            let tcp_log: Arc<Mutex<TcpLog>> = Arc::default();
            let reply = |query: &Message, tc: bool| {
                let mut r = Message::response_to(query, Rcode::NoError);
                r.header.truncated = tc;
                r.encode().unwrap()
            };
            let udp_thread = {
                let (stop, log) = (Arc::clone(&stop), Arc::clone(&log));
                std::thread::spawn(move || {
                    udp.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
                    let mut buf = [0u8; 512];
                    while !stop.load(Ordering::Relaxed) {
                        let Ok((n, peer)) = udp.recv_from(&mut buf) else { continue };
                        let query = Message::decode(&buf[..n]).unwrap();
                        let label = query.question().unwrap().qname.to_string();
                        let lane: usize = label[1..label.find('-').unwrap()].parse().unwrap();
                        log.lock().unwrap().push((Instant::now(), lane));
                        std::thread::sleep(udp_delay);
                        match script(lane, query.header.id) {
                            Script::Answer => drop(udp.send_to(&reply(&query, false), peer)),
                            Script::Truncate => drop(udp.send_to(&reply(&query, true), peer)),
                            Script::Ignore => {}
                        }
                    }
                })
            };
            let tcp_thread = {
                let (stop, tcp_log) = (Arc::clone(&stop), Arc::clone(&tcp_log));
                std::thread::spawn(move || {
                    tcp.set_nonblocking(true).unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        let Ok((mut stream, _)) = tcp.accept() else {
                            std::thread::sleep(Duration::from_millis(2));
                            continue;
                        };
                        stream.set_nonblocking(false).unwrap();
                        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                        let mut reader = FrameReader::new();
                        while let Ok(Some(frame)) = reader.read_frame(&mut stream) {
                            let arrived = Instant::now();
                            let query = Message::decode(frame).unwrap();
                            std::thread::sleep(tcp_hold);
                            write_frame(&mut stream, &reply(&query, false), &mut Vec::new()).unwrap();
                            tcp_log.lock().unwrap().push((arrived, Instant::now()));
                        }
                    }
                })
            };
            Scripted { addr, stop, threads: vec![udp_thread, tcp_thread], log, tcp_log }
        }

        /// Stops the server; returns the UDP arrivals and TCP exchanges.
        fn stop(self) -> (UdpLog, TcpLog) {
            self.stop.store(true, Ordering::Relaxed);
            for t in self.threads {
                t.join().unwrap();
            }
            let udp = std::mem::take(&mut *self.log.lock().unwrap());
            let tcp = std::mem::take(&mut *self.tcp_log.lock().unwrap());
            (udp, tcp)
        }
    }

    /// Lane 0's first query meets silence and waits out a 300 ms
    /// window; the other three lanes, on the same loop thread, get
    /// every one of their 120 transactions answered inside that window.
    #[test]
    fn a_lane_waiting_out_a_silent_window_delays_no_other_lane() {
        let window = Duration::from_millis(300);
        let auth = Scripted::start(
            |lane, id| if (lane, id) == (0, 0) { Script::Ignore } else { Script::Answer },
            Duration::ZERO,
            Duration::ZERO,
        );
        let cfg = ResolveConfig::new(vec![auth.addr], origin())
            .transactions(4 * 40)
            .concurrency(4)
            .timeout(window)
            .max_tries(1);
        let report = resolve_on(cfg, 1).unwrap();
        let (log, _) = auth.stop();
        report.stats.check().unwrap();
        assert_eq!((report.stats.answered, report.stats.timeouts), (159, 1), "{:?}", report.stats);
        let silent_sent = log.iter().find(|(_, lane)| *lane == 0).unwrap().0;
        let others: Vec<Instant> = log.iter().filter(|(_, lane)| *lane != 0).map(|e| e.0).collect();
        assert_eq!(others.len(), 120);
        let last = others.iter().max().unwrap().saturating_duration_since(silent_sent);
        assert!(last < window / 2, "the others' last query went {last:?} into a {window:?} window");
    }

    /// Lane 0's first transaction is truncated and its TCP detour's
    /// reply held 120 ms; meanwhile the other lanes on the same loop
    /// keep going. The server spends 2 ms on each UDP query, so their
    /// 240 transactions outlast the hold, and a loop stuck in the detour
    /// would show as a 120 ms gap between two of a lane's queries.
    #[test]
    fn a_held_tcp_detour_delays_no_other_lane() {
        let hold = Duration::from_millis(120);
        let auth = Scripted::start(
            |lane, id| if (lane, id) == (0, 0) { Script::Truncate } else { Script::Answer },
            Duration::from_millis(2),
            hold,
        );
        // The detour's reply must fit the 200 ms TCP deadline.
        let cfg = ResolveConfig::new(vec![auth.addr], origin())
            .transactions(4 * 80)
            .concurrency(4)
            .timeout(Duration::from_millis(200))
            .max_tries(1);
        let report = resolve_on(cfg, 1).unwrap();
        let (log, tcp_log) = auth.stop();
        report.stats.check().unwrap();
        assert_eq!((report.stats.answered, report.stats.tcp_answered), (320, 1), "{:?}", report.stats);
        let [(held_from, held_to)] = tcp_log[..] else { panic!("one TCP exchange: {tcp_log:?}") };
        let mut during = 0;
        for lane in 1..4 {
            let arrivals: Vec<Instant> = log.iter().filter(|e| e.1 == lane).map(|e| e.0).collect();
            assert_eq!(arrivals.len(), 80, "lane {lane}");
            during += arrivals.iter().filter(|&&t| t > held_from && t < held_to).count();
            let gap = arrivals.windows(2).map(|w| w[1] - w[0]).max().unwrap();
            assert!(gap < Duration::from_millis(60), "lane {lane} stalled {gap:?}");
        }
        assert!(during >= 10, "only {during} other-lane queries during the {hold:?} hold");
    }

    /// A truncated transaction whose TCP detour never gets its reply in
    /// time fails the detour when the window closes — no sooner, and
    /// not when the reply finally comes 400 ms on.
    #[test]
    fn a_tcp_detour_without_a_reply_fails_when_its_window_closes() {
        let window = Duration::from_millis(100);
        let auth = Scripted::start(|_, _| Script::Truncate, Duration::ZERO, Duration::from_millis(400));
        let cfg = ResolveConfig::new(vec![auth.addr], origin())
            .transactions(1)
            .concurrency(1)
            .timeout(window)
            .tcp_reuse(false)
            .max_tries(1);
        let cells = [LaneCell::new(1)];
        let mut lp = one_lane_loop(&cfg, &cells);
        // The detour's window closes at its deadline; the UDP window
        // its truncated attempt waited out comes before it.
        let mut closes = None;
        while lp.lanes[0].stats.servfails == 0 {
            assert!(lp.turn().unwrap(), "the lane finished before its transaction ended");
            if let Phase::Tcp { deadline, .. } = lp.lanes[0].phase {
                closes = Some(deadline);
            }
        }
        let ended = Instant::now();
        let closes = closes.expect("the truncated transaction detoured over TCP");
        lp.run().unwrap();
        auth.stop();
        let stats = cells[0].stats.snapshot();
        stats.check().unwrap();
        assert_eq!((stats.tcp_attempts, stats.tcp_failed, stats.tcp_answered), (1, 1, 0), "{stats:?}");
        let took = ended - (closes - window);
        assert!(ended >= closes, "the detour gave up after {took:?} of a {window:?} window");
        assert!(took < window + Duration::from_millis(100), "the detour took {took:?} for a {window:?} window");
    }

    /// One seeded chaos-proxied run (loss, duplication, mutation, TC=1
    /// cuts; RRL drops and slips at the server; TCP detours through the
    /// proxy) packed onto `loops` event loops: the client's books, a
    /// digest per lane of its trace events, and the server's RRL
    /// verdict counts.
    fn packed_chaos_run(loops: usize) -> (ClientStats, BTreeMap<u64, u64>, (u64, u64)) {
        use crate::chaos::{ChaosProxy, FaultPlan, FaultProfile};
        use dnswild_server::{RateLimitPolicy, RrlScope};
        use dnswild_telemetry::{CollectorConfig, Trace};
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(
            ServeConfig::new("127.0.0.1:0", "FRA", zones)
                .threads(2)
                .tcp(TcpOptions { max_conns: 512, ..TcpOptions::default() })
                .rate_limit(RateLimitPolicy {
                    burst: 10,
                    rate: 1,
                    period: 2,
                    slip: 2,
                    scope: RrlScope::All,
                    key_ports: true,
                    ..RateLimitPolicy::default()
                }),
        )
        .unwrap();
        // No delays: a held duplicate racing the retry into the same
        // RRL bucket would flip verdict order from run to run.
        let faults = FaultProfile {
            drop: 0.04,
            dup: 0.05,
            corrupt: 0.02,
            truncate: 0.03,
            ..FaultProfile::lossless()
        };
        let plan = Arc::new(FaultPlan::new(2017, faults, faults));
        let proxy = ChaosProxy::spawn("127.0.0.1:0", handle.local_addr(), plan, None).unwrap();
        let path = std::env::temp_dir()
            .join(format!("dnswild-client-packed-{loops}-{}.trace", std::process::id()));
        let collector = Arc::new(Collector::start(CollectorConfig::new(&path)).unwrap());
        let cfg = ResolveConfig::new(vec![proxy.local_addr()], origin())
            .transactions(8 * 20)
            .concurrency(8)
            .timeout(Duration::from_millis(150))
            .tcp_reuse(false)
            .collector(Arc::clone(&collector));
        let report = resolve_on(cfg, loops).unwrap();
        proxy.shutdown();
        let server = handle.shutdown();
        collector.finish().unwrap();
        let events = Trace::read_from(&path).unwrap().events;
        let _ = std::fs::remove_file(&path);
        report.stats.check().unwrap();
        // Per lane (its client token), the order-free digest of its
        // events' deterministic content.
        let mut seen: HashMap<(u64, u64), u64> = HashMap::new();
        let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &events {
            let key = ev.content_key();
            let n = seen.entry((ev.client_hash, key)).or_default();
            let digest = lanes.entry(ev.client_hash).or_default();
            *digest = digest.wrapping_add(splitmix64(key ^ splitmix64(*n)));
            *n += 1;
        }
        (report.stats, lanes, (server.rrl_dropped, server.rrl_slipped))
    }

    /// The packing of lanes onto threads is invisible: the same seeded
    /// chaos run on one loop, on two, and on a loop per lane gives the
    /// same books, the same per-lane traces and the same RRL verdicts.
    #[test]
    fn packing_lanes_onto_loops_changes_no_lane() {
        let one = packed_chaos_run(1);
        let (stats, lanes, rrl) = &one;
        assert_eq!(lanes.len(), 8, "one trace stream per lane");
        assert!(stats.retries > 0 && stats.stale > 0 && stats.tcp_attempts > 0, "{stats:?}");
        assert!(rrl.0 > 0 && rrl.1 > 0, "RRL dropped and slipped: {rrl:?}");
        for loops in [2, 8] {
            assert_eq!(packed_chaos_run(loops), one, "packed onto {loops} loops");
        }
    }

    /// `resolve()` packs eight lanes onto at most one thread per core.
    #[test]
    fn resolve_starts_at_most_one_client_thread_per_core() {
        use crate::closed_loop::STARTED;
        let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
        let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
        let cfg = ResolveConfig::new(vec![handle.local_addr()], origin())
            .transactions(64)
            .concurrency(8);
        let before = STARTED.with(|n| n.get());
        let report = resolve(cfg).unwrap();
        let started = STARTED.with(|n| n.get()) - before;
        handle.shutdown();
        assert_eq!(report.stats.answered, 64);
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(started <= cores, "{started} client threads on {cores} cores");
    }

    /// The query a lane writes is, byte for byte, the `Message` the
    /// client used to build and encode — with and without an EDNS size.
    #[test]
    fn written_queries_match_the_message_encoding() {
        let cfg = ResolveConfig::new(vec!["127.0.0.1:53".parse().unwrap()], origin());
        let cells = [LaneCell::new(1)];
        for edns in [None, Some(512u16), Some(4096)] {
            let mut cfg = cfg.clone();
            cfg.edns_size = edns;
            let mut lane = ResolverLane::new(&cfg, 0, &cells[0]).unwrap();
            for (id, label) in [(0u16, "c0-t0"), (7, "c3-t1234"), (u16::MAX, "c31-t99999")] {
                lane.qname = origin().prepend(label).unwrap();
                lane.write_query(id);
                let mut want = Message::iterative_query(id, lane.qname.clone(), RType::Txt);
                if let Some(size) = edns {
                    want.additionals.clear();
                    want.add_edns(size);
                }
                assert_eq!(lane.send_buf, want.encode().unwrap(), "{label} {edns:?}");
            }
        }
    }
}
