//! The allocation budget of the authoritative wire path, enforced with
//! a counting global allocator (test code only; counts are gated to
//! the measuring thread).
//!
//! After warm-up, `AnswerEngine::handle_packet` may allocate at most
//! four times per packet on the six zone-answered paths — what is left
//! is the decoded query itself: its question vector, its qname, its
//! additional-section vector — and eight times for a CHAOS answer;
//! `Zone::lookup` and `Message::encode_into` into a warm buffer allocate
//! nothing; a `Name` is one allocation, the root none.
//!
//! The same seven packets at the commit before the wire path was
//! rebuilt (one boxed slice per label, a `HashMap` compressor per
//! message, an owned `Lookup`, encode-then-discard truncation), measured with this
//! file: wildcard TXT 51, apex NS 115, glue A 41, apex NODATA 61,
//! CH `hostname.bind` 33, TC-512 88, padded TCP 68 (now 3 / 3 / 3 / 3 / 5 / 3 / 3).
//!
//! Also here because it needs the allocator: `Message::decode` must not
//! trust the header's counts for its reservations; and the recursive
//! cache's bounds — a `probe` hit allocates nothing, a warm `resolve()`
//! transaction allocates nothing either, a cold one
//! for its qname and the decoded reply the cache keeps, and a resident
//! entry costs a stated number of bytes (the allocator also keeps
//! allocated − freed, and can count the threads started inside a
//! window, because `resolve()` works on threads of its own; the tests
//! that open a window or start threads take turns, so a window is the
//! only one open).
//!
//! And the simulated probe path: a C2B `Experiment::run` at 250 VPs
//! allocates at most 26 times per answered probe. At the commit before
//! that path stopped building messages to encode and cloning what it
//! kept, the same run made 54.5 allocations and requested 4,849 bytes
//! per probe (25.3 and 1,443 after it; 23.3 and 1,277 since TXT
//! strings are decoded into an exact-fit vector; 21.3 and 1,231 since a
//! TXT is one allocation).
//!
//! And the TCP connection loop: pipelined padded-TCP frames through
//! `serve_stream` allocate no more per frame than the engine's own
//! padded-TCP budget, traced or not — the trace rows keep no copy of
//! the payload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dnswild::{Experiment, StandardConfig};
use dnswild_cache::{CacheConfig, CacheTime, RecordCache};
use dnswild_netio::{
    resolve, serve, serve_stream, write_frame, Collector, CollectorConfig, ResolveConfig,
    ServeConfig, SharedCache,
};
use dnswild_proto::{Class, Message, Name, RType};
use dnswild_server::{AnswerEngine, TransportKind, TruncationPolicy};
use dnswild_zone::presets::{
    attack_test_domain_zone, padded_test_domain_zone, probe_ttl_test_domain_zone, test_domain_zone,
};

struct Counting;

thread_local! {
    /// Set only around a measured call, so each test thread counts its
    /// own allocations and nothing else's.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested minus bytes given back while measuring.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The window open at this thread's first request (see [`WINDOW`]).
    static BORN_IN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The open counting window (0: none) and the requests made in it by
/// the threads it adopted: a thread belongs to the window that was open
/// at its first request, for life — so a window counts the threads
/// started inside it (`resolve()`'s workers) and no test thread that
/// was already running beside it.
static WINDOW: AtomicU64 = AtomicU64::new(0);
static WINDOW_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Held by every test that opens a window or starts threads: one open
/// window at a time (two would close each other's and count each
/// other's threads), and no thread of another test born inside it.
static THREADED: Mutex<()> = Mutex::new(());

fn threaded() -> MutexGuard<'static, ()> {
    THREADED.lock().unwrap_or_else(PoisonError::into_inner)
}

fn note(size: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + size as u64));
    }
    let window = WINDOW.load(Ordering::Relaxed);
    let born_in = BORN_IN.try_with(|b| b.get().unwrap_or_else(|| {
        b.set(Some(window));
        window
    }));
    if window != 0 && born_in == Ok(window) {
        WINDOW_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn note_live(delta: i64) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        LIVE.with(|n| n.set(n.get() + delta));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state
// (the thread-locals are const-initialised and have no destructor, so
// touching them never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations, bytes requested) of one call of `f` on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = (ALLOCS.get(), BYTES.get());
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    drop(black_box(out));
    (ALLOCS.get() - before.0, BYTES.get() - before.1)
}

/// What `f` built, and the bytes it left allocated on this thread
/// (requested − given back, as the program asked for them: an
/// allocator's own rounding and headers are not in it).
fn measure_live<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.get();
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (out, LIVE.get() - before)
}

fn origin() -> Name {
    Name::parse("ourtestdomain.nl").unwrap()
}

fn query(qname: &str, qtype: RType, qclass: Class) -> Vec<u8> {
    let mut q = Message::iterative_query(0x1234, Name::parse(qname).unwrap(), qtype);
    q.questions[0].qclass = qclass;
    q.encode().unwrap()
}

/// One `#[test]`: the budget table is measured top to bottom on one
/// thread, every row printed (`--nocapture`) before any is judged.
#[test]
fn wire_path_allocation_budget() {
    let plain = AnswerEngine::new("FRA", vec![test_domain_zone(&origin(), 4)]);
    let padded = AnswerEngine::new("FRA", vec![padded_test_domain_zone(&origin(), 4, 900)])
        .with_truncation_policy(TruncationPolicy::symmetric(512));
    let probe = || query("p1-r1.ourtestdomain.nl", RType::Txt, Class::In);
    let (udp, tcp) = (TransportKind::Udp, TransportKind::Tcp);
    let packets = [
        ("wildcard TXT", &plain, probe(), udp, 4),
        (
            "apex NS",
            &plain,
            query("ourtestdomain.nl", RType::Ns, Class::In),
            udp,
            4,
        ),
        (
            "glue A",
            &plain,
            query("ns1.ourtestdomain.nl", RType::A, Class::In),
            udp,
            4,
        ),
        (
            "apex NODATA",
            &plain,
            query("ourtestdomain.nl", RType::Txt, Class::In),
            udp,
            4,
        ),
        (
            "CH hostname.bind",
            &plain,
            query("hostname.bind", RType::Txt, Class::Ch),
            udp,
            8,
        ),
        ("TC-512", &padded, probe(), udp, 4),
        ("padded TCP", &padded, probe(), tcp, 4),
    ];
    let mut rows = Vec::new();
    let mut buf = Vec::new();
    for (what, engine, payload, transport, budget) in packets {
        let mut engine = engine.fork();
        for _ in 0..3 {
            assert!(
                engine.handle_packet(&payload, transport, &mut buf).response,
                "{what}"
            );
        }
        let (allocs, _) = measure(|| engine.handle_packet(&payload, transport, &mut buf).response);
        rows.push((format!("handle_packet: {what}"), allocs, budget));
    }

    // The zone alone: every branch of the lookup, glue iterated.
    let zone = attack_test_domain_zone(&origin(), 4, 20);
    for (what, qname, qtype) in [
        ("wildcard", "p1-r1.ourtestdomain.nl", RType::Txt),
        ("exact", "NS1.ourtestdomain.nl", RType::A),
        ("nodata", "ourtestdomain.nl", RType::Txt),
        ("nxdomain", "wt01.void.ourtestdomain.nl", RType::A),
        ("referral", "x.lab.ourtestdomain.nl", RType::A),
        ("out of zone", "example.com", RType::A),
    ] {
        let qname = Name::parse(qname).unwrap();
        let (allocs, _) = measure(|| {
            black_box(zone.lookup(black_box(&qname), qtype));
        });
        rows.push((format!("Zone::lookup: {what}"), allocs, 0));
    }

    // The encoder alone, into a warm buffer: a 20-NS referral with glue
    // (the most names a response of ours carries) and a plain answer.
    let mut attack = AnswerEngine::new("FRA", vec![zone]);
    for (what, payload) in [
        (
            "20-NS referral",
            query("x.lab.ourtestdomain.nl", RType::A, Class::In),
        ),
        (
            "wildcard answer",
            query("p1-r1.ourtestdomain.nl", RType::Txt, Class::In),
        ),
    ] {
        assert!(
            attack
                .handle_packet(&payload, TransportKind::Tcp, &mut buf)
                .response
        );
        let response = Message::decode(&buf).unwrap();
        let mut warm = Vec::with_capacity(4096);
        response.encode_into(&mut warm).unwrap();
        let (allocs, _) = measure(|| response.encode_into(&mut warm).unwrap());
        assert_eq!(
            warm, buf,
            "{what}: re-encoding a decoded response is an identity"
        );
        rows.push((format!("Message::encode_into: {what}"), allocs, 0));
    }

    let name = Name::parse("p1-r1.ourtestdomain.nl").unwrap();
    rows.push(("Name::clone".into(), measure(|| name.clone()).0, 1));
    rows.push(("Name::root".into(), measure(Name::root).0, 0));
    rows.push((
        "Name::root().clone".into(),
        measure(|| Name::root().clone()).0,
        0,
    ));

    for (what, allocs, budget) in &rows {
        eprintln!("alloc-budget {what}: {allocs} (budget {budget})");
    }
    let over: Vec<_> = rows
        .iter()
        .filter(|(_, allocs, budget)| allocs > budget)
        .collect();
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// A header may claim 65 535 entries per section; the reservation must
/// follow the bytes that are there, not the claim (at the parent: one
/// 6.8 MB and one 2 MB request before the parse failed).
#[test]
fn decode_reserves_for_the_bytes_present_not_the_counts_claimed() {
    // 48 bytes: a header claiming ANCOUNT = 65 535, then zeros.
    let mut many_answers = vec![0u8; 48];
    many_answers[6..8].copy_from_slice(&u16::MAX.to_be_bytes());
    // A bare header claiming QDCOUNT = 65 535.
    let mut many_questions = vec![0u8; 12];
    many_questions[4..6].copy_from_slice(&u16::MAX.to_be_bytes());
    let (_, bytes) = measure(|| {
        assert!(Message::decode(black_box(&many_answers)).is_err());
        assert!(Message::decode(black_box(&many_questions)).is_err());
    });
    assert!(
        bytes <= 4096,
        "rejecting two tiny packets requested {bytes} bytes of heap"
    );
}

/// The reply the `resolver_*` workloads cache for `qname`: the wildcard
/// TXT of the 3,600 s probe zone, as the engine answers and the client
/// decodes it.
fn probe_reply(engine: &mut AnswerEngine, qname: &Name, buf: &mut Vec<u8>) -> Message {
    let query = Message::iterative_query(7, qname.clone(), RType::Txt).encode().unwrap();
    assert!(engine.handle_packet(&query, TransportKind::Udp, buf).response);
    Message::decode(buf).unwrap()
}


/// ROADMAP's "stated bounds" for the recursive cache. A `probe` — what
/// a warm transaction does — allocates nothing, hit or miss (`get` at
/// the commit before: 6 per hit, none of them needed by a client that
/// sends no records); `get` allocates for the records it hands out and
/// nothing else; and 100,000 resident entries of the `resolver_*` shape
/// cost the bytes per entry DESIGN §3h breaks down (348 at the commit
/// before), plus 25%.
#[test]
fn cache_probes_allocate_nothing_and_entries_cost_stated_bytes() {
    const ENTRIES: usize = 100_000;
    // 124 records + 27 key + 88 slot × 1.31 slab slack + 4 × 1.31 index.
    const BYTES_PER_ENTRY: i64 = 271;
    let zone = probe_ttl_test_domain_zone(&origin(), 2, 3_600);
    let mut engine = AnswerEngine::new("FRA", vec![zone]);
    let names: Vec<Name> =
        (0..ENTRIES).map(|i| origin().prepend(&format!("c{}-t{i}", i % 8)).unwrap()).collect();
    let mut buf = Vec::new();
    let (mut cache, live) = measure_live(|| {
        let mut cache = RecordCache::new();
        for qname in &names {
            let reply = probe_reply(&mut engine, qname, &mut buf);
            cache.insert_reply(qname, RType::Txt, &reply, CacheTime::ZERO);
        }
        cache
    });
    assert_eq!(cache.len(), ENTRIES);
    let per_entry = live / ENTRIES as i64;
    eprintln!("alloc-budget cache: {per_entry} live bytes per entry (stated {BYTES_PER_ENTRY})");

    let (hit, absent) = (&names[ENTRIES / 2], origin().prepend("absent").unwrap());
    let now = CacheTime::from_micros(1);
    let rows = [
        ("probe hit", measure(|| cache.probe(hit, RType::Txt, now).is_some()).0, 0),
        ("probe miss", measure(|| cache.probe(&absent, RType::Txt, now).is_none()).0, 0),
        ("get miss", measure(|| cache.get(&absent, RType::Txt, now).is_none()).0, 0),
        ("get hit", measure(|| cache.get(hit, RType::Txt, now)).0, 4),
    ];
    for (what, allocs, budget) in rows {
        eprintln!("alloc-budget RecordCache::{what}: {allocs} (budget {budget})");
        assert!(allocs <= budget, "RecordCache::{what} allocated {allocs} times");
    }
    assert!(
        per_entry <= BYTES_PER_ENTRY + BYTES_PER_ENTRY / 4,
        "{per_entry} live bytes per entry, stated {BYTES_PER_ENTRY} (+25%)"
    );
}

/// A warm transaction is a label written, a shard probed, a counter
/// bumped: no heap request. The label goes into a buffer the lane
/// reuses, and over the qname the last hit left in place, when it is as
/// long as the last one — with N = 4,000 on one lane, no label between
/// the N-th and the 2N-th changes length. (1 request while each qname
/// was prepended to the origin anew; 3 when each label was a fresh
/// `format!`.) Measured on the threads `resolve()` starts, as the
/// difference between a pass of N transactions and one of 2N — thread
/// start-up, sockets and the drain cancel — and as the smallest of three
/// repeats, because a test of this binary that happens to start inside
/// a window is counted too, and can only add.
#[test]
fn a_warm_resolve_transaction_allocates_nothing() {
    const N: u64 = 4_000;
    let _threaded = threaded();
    let zones = Arc::new(vec![probe_ttl_test_domain_zone(&origin(), 2, 3_600)]);
    let server = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
    let cache = SharedCache::new(CacheConfig::default());
    let pass = |n: u64| {
        let cfg = ResolveConfig::new(vec![server.local_addr()], origin())
            .transactions(n)
            .concurrency(1)
            .cache(Arc::clone(&cache));
        resolve(cfg).unwrap().stats
    };
    assert_eq!(pass(2 * N).answered, 2 * N, "the priming pass fills the cache");
    let warm_allocs = |n: u64| {
        (0..3)
            .map(|_| {
                let before = WINDOW_ALLOCS.load(Ordering::Relaxed);
                WINDOW.store(before + 1, Ordering::Relaxed); // a value no earlier window had
                let stats = pass(n);
                WINDOW.store(0, Ordering::Relaxed);
                assert_eq!((stats.cache_hits, stats.attempts), (n, 0), "a warm pass is all hits");
                WINDOW_ALLOCS.load(Ordering::Relaxed) - before
            })
            .min()
            .unwrap()
    };
    let (single, double) = (warm_allocs(N), warm_allocs(2 * N));
    server.shutdown();
    let per_txn = (double as f64 - single as f64) / N as f64;
    eprintln!("alloc-budget warm resolve(): {per_txn:.2} per transaction (budget 0)");
    assert!(per_txn <= 0.0, "{per_txn:.2} heap requests per warm transaction");
}

/// A cold transaction — every name new, so each one crosses the wire
/// and ends in a cache insert — allocates at most 4.5 times on the
/// client's threads: the qname, which the cache keeps, and the decoded
/// reply, whose answer records the cache keeps as they are. 19.0 at the
/// commit before the client wrote its queries without building a
/// `Message` and handed the cache its qname and the decoded records
/// instead of copies, and the TXT decoder sized its strings exactly:
/// 8.0 then, measured with one window open at a time (4.3 read with
/// the warm row's window open beside this one and closing it). Now 4.0:
/// the reply is decoded as an answer to the question the client holds,
/// so its question and OPT build nothing, and a TXT is one allocation.
/// Measured like the warm row: a pass of
/// 2N minus a pass of N, each into a fresh cache, the smallest of three.
#[test]
fn a_cold_resolve_transaction_allocates_at_most_4_5_times() {
    const N: u64 = 2_000;
    let _threaded = threaded();
    let zones = Arc::new(vec![probe_ttl_test_domain_zone(&origin(), 2, 3_600)]);
    let server = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones).threads(1)).unwrap();
    let cold_allocs = |n: u64| {
        (0..3)
            .map(|_| {
                let cache = SharedCache::new(CacheConfig::default());
                let cfg = ResolveConfig::new(vec![server.local_addr()], origin())
                    .transactions(n)
                    .concurrency(1)
                    .cache(cache);
                let before = WINDOW_ALLOCS.load(Ordering::Relaxed);
                WINDOW.store(before + 1, Ordering::Relaxed); // a value no earlier window had
                let stats = resolve(cfg).unwrap().stats;
                WINDOW.store(0, Ordering::Relaxed);
                assert_eq!((stats.answered, stats.attempts), (n, n), "a cold pass is all misses");
                WINDOW_ALLOCS.load(Ordering::Relaxed) - before
            })
            .min()
            .unwrap()
    };
    let (single, double) = (cold_allocs(N), cold_allocs(2 * N));
    server.shutdown();
    let per_txn = (double - single) as f64 / N as f64;
    eprintln!("alloc-budget cold resolve(): {per_txn:.2} per transaction (budget 4.5)");
    assert!(per_txn <= 4.5, "{per_txn:.2} heap requests per cold transaction");
}

/// The simulated probe path — stub → recursive → authoritative →
/// recursive → stub, as `Experiment::run` replays it for every VP and
/// round — allocates at most 26 times per answered probe: a C2B run at
/// 250 VPs (seed 2017), set-up and harvest included, divided by its
/// probes (54.5 before, 21.3 now; see the file's header).
#[test]
fn a_simulated_probe_allocates_at_most_26_times() {
    const BUDGET: f64 = 26.0;
    let mut probes = 0;
    let (allocs, bytes) = measure(|| {
        let report = Experiment::standard(StandardConfig::C2B, 2017).vantage_points(250).run();
        probes = report.result.probe_count();
        report
    });
    assert!(probes > 0, "the run answered no probes");
    let (per_probe, bytes_per_probe) = (allocs as f64 / probes as f64, bytes / probes as u64);
    eprintln!(
        "alloc-budget simulated probe: {per_probe:.1} allocations, {bytes_per_probe} bytes \
         per probe over {probes} probes (budget {BUDGET})"
    );
    assert!(per_probe <= BUDGET, "{per_probe:.1} allocations per simulated probe");
}

/// An in-memory TCP peer: pipelined frames to read, and a sink sized so
/// that writing into it never allocates.
struct Pipelined<'a> {
    input: &'a [u8],
    out: &'a mut Vec<u8>,
}

impl Read for Pipelined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Pipelined<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Once warm, a connection of pipelined padded-TCP probes through the
/// connection loop allocates at most the engine's padded-TCP budget (4)
/// per frame, the connection's own buffers included — untraced and
/// traced alike.
#[test]
fn pipelined_tcp_frames_allocate_within_the_engine_budget() {
    const FRAMES: usize = 512;
    const BUDGET: f64 = 4.0;
    let _threaded = threaded();
    let template = AnswerEngine::new("FRA", vec![padded_test_domain_zone(&origin(), 4, 900)])
        .with_truncation_policy(TruncationPolicy::symmetric(512));
    let probe = query("p1-r1.ourtestdomain.nl", RType::Txt, Class::In);
    let (mut wire, mut scratch) = (Vec::new(), Vec::new());
    for _ in 0..FRAMES {
        write_frame(&mut wire, &probe, &mut scratch).unwrap();
    }
    let file = format!("alloc-budget-tcp-{}.trace", std::process::id());
    let path = std::env::temp_dir().join(file);
    let collector = Collector::start(CollectorConfig::new(&path)).unwrap();
    let peer = "192.0.2.1:5300".parse().unwrap();
    let mut out = Vec::with_capacity(FRAMES * 1_024);
    for traced in [false, true] {
        let mut engine = template.fork();
        let mut per_frame = 0.0;
        for _warm_then_measured in 0..2 {
            out.clear();
            let trace = traced.then(|| (collector.producer(), 0));
            let mut stream = Pipelined { input: &wire, out: &mut out };
            let mut books = None;
            let (allocs, _) =
                measure(|| books = Some(serve_stream(&mut stream, peer, &mut engine, trace)));
            let (stats, io, _) = books.unwrap();
            assert_eq!((stats.answers, io.send_errors), (FRAMES as u64, 0));
            per_frame = allocs as f64 / FRAMES as f64;
        }
        eprintln!(
            "alloc-budget serve_stream padded TCP (traced: {traced}): {per_frame:.2} per frame \
             (budget {BUDGET})"
        );
        assert!(per_frame <= BUDGET, "{per_frame:.2} allocations per pipelined TCP frame");
    }
    collector.finish().unwrap();
    let _ = std::fs::remove_file(&path);
}
