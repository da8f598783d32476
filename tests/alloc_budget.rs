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
//! trust the header's counts for its reservations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use dnswild_proto::{Class, Message, Name, RType};
use dnswild_server::{AnswerEngine, TransportKind, TruncationPolicy};
use dnswild_zone::presets::{attack_test_domain_zone, padded_test_domain_zone, test_domain_zone};

struct Counting;

thread_local! {
    /// Set only around a measured call, so each test thread counts its
    /// own allocations and nothing else's.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + size as u64));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state
// (the thread-locals are const-initialised and have no destructor, so
// touching them never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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
