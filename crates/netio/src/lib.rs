//! # dnswild-netio
//!
//! The real-socket serving plane: everything in this crate runs on
//! actual operating-system UDP sockets rather than inside the
//! deterministic simulator.
//!
//! The paper's engineering guidance (§6–§7) is addressed to operators of
//! real authoritative servers under heavy recursive traffic; the rest of
//! this workspace *verifies* the answering semantics in simulation, and
//! this crate puts the same logic on the wire:
//!
//! * [`server`] — a sharded UDP front-end: N worker threads, each
//!   owning a private `SO_REUSEPORT` socket (where the Linux
//!   `dnswild-mmsg` shim is usable; one shared socket elsewhere), a
//!   forked engine, reusable receive/encode buffers and a private
//!   lock-free stats cell — no cross-thread sharing on the hot path.
//!   One worker loop runs over a datagram I/O arm selected at runtime
//!   ([`IoBackend`]): batched `recvmmsg`/`sendmmsg` on Linux, a
//!   `recv_from`/`send_to` batch of one everywhere else. Every worker
//!   drives the *same*
//!   [`dnswild_server::AnswerEngine`] the simulator actor uses, so
//!   behaviour proven by the `exp_*` reproductions is the behaviour
//!   that serves.
//! * [`load`] — the one closed-loop in-process load generator:
//!   configurable concurrency, a seed-deterministic [`Workload`] — the
//!   legitimate query mix over the preset measurement zone, or an
//!   NXDOMAIN / NXNS / spoofed-source flood against the attack zone —
//!   and one report booking every datagram, its bytes both ways and
//!   per-query latency for qps / percentile / amplification reporting.
//! * [`chaos`] — a deterministic, seed-driven fault-injecting UDP proxy
//!   ([`ChaosProxy`]) that drops, duplicates, delays, reorders,
//!   truncates and bit-corrupts datagrams per direction. Every fault
//!   decision is a pure function of `(seed, direction, datagram bytes,
//!   occurrence index)`, so the same seed produces the same fault
//!   schedule regardless of thread scheduling — verifiable through the
//!   order-insensitive [`FaultPlan::schedule_digest`].
//! * [`client`] — a real-socket recursive client that drives the
//!   `dnswild_resolver` selection policies (timeout, exponential
//!   backoff, SRTT re-ranking, give-up/SERVFAIL) over lossy sockets,
//!   with full answered-or-accounted transaction accounting
//!   ([`ClientStats::check`]), retries TC=1 answers over TCP, and —
//!   with a [`SharedCache`] attached — answers repeats from a
//!   wall-clocked record cache (TTL decrement, RFC 2308 negative
//!   caching, prefetch, RFC 8767 serve-stale) with zero socket I/O on
//!   hits.
//! * [`tcp`] — the RFC 7766 stream transport beside the UDP shards:
//!   length-prefixed framing, per-shard accept loops, read/write
//!   deadlines, connection caps, pipelined queries — so every answer
//!   the EDNS payload negotiation truncates has a transport on which
//!   it completes.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dnswild_netio::{blast, serve, LoadConfig, ServeConfig};
//! use dnswild_proto::Name;
//! use dnswild_zone::presets::test_domain_zone;
//!
//! let origin = Name::parse("ourtestdomain.nl").unwrap();
//! let zones = Arc::new(vec![test_domain_zone(&origin, 2)]);
//! let handle = serve(ServeConfig::new("127.0.0.1:0", "FRA", zones)).unwrap();
//! let report = blast(LoadConfig::new(handle.local_addr(), origin)).unwrap();
//! println!("{:.0} qps, p99 {} ns", report.qps(), report.latency_percentile(0.99).unwrap());
//! let stats = handle.shutdown();
//! assert_eq!(stats.queries, report.sent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
mod closed_loop;
pub mod load;
pub mod server;
pub mod tcp;

pub use chaos::{
    ChaosProxy, Delivery, DirTally, Direction, FaultPlan, FaultProfile, TcpFate, TcpFaultProfile,
    TcpFaultTally,
};
pub use client::{resolve, ClientStats, ResolveConfig, ResolveReport, SharedCache, DRAIN_WINDOW};
pub use load::{
    blast, AttackMode, LoadConfig, LoadReport, QueryMix, Workload, DEFAULT_SPOOFED_SOURCES,
    NXNS_EDNS_PAYLOAD,
};
pub use server::{
    batch_io_available, serve, IoBackend, IoErrorStats, ServeConfig, ServeHandle, DEFAULT_BATCH,
};
pub use tcp::{write_frame, FrameReader, TcpConnStats, TcpOptions};

// Telemetry plane: re-exported so callers wiring a collector into
// `ServeConfig` / `LoadConfig` / `ResolveConfig` / `ChaosProxy` don't
// need a direct `dnswild-telemetry` dependency.
pub use dnswild_telemetry::{Collector, CollectorConfig, Trace, TraceSummary};

// Metrics plane: likewise re-exported for callers wiring a registry.
pub use dnswild_metrics::{MetricsServer, Registry};

// Cache plane: the knobs callers need to build a [`SharedCache`].
pub use dnswild_cache::{CacheConfig, CacheStats};

/// Bridges the telemetry collector into a metrics registry: before
/// every registry read the collector's live counters are copied into
/// `dnswild_trace_*` gauges, so the CH TXT `stats.dnswild.` answer, the
/// trace summary and the Prometheus endpoint all report the same
/// numbers. The `dnswild_trace_overflow` gauge doubles as the
/// watchdog's ring-overflow input
/// (`dnswild_metrics::watchdog::inputs::OVERFLOW`).
pub fn mirror_collector(registry: &Registry, collector: &std::sync::Arc<Collector>) {
    let events = registry.gauge("dnswild_trace_events", "telemetry events drained");
    let queries = registry.gauge("dnswild_trace_queries", "telemetry server queries seen");
    let answered = registry.gauge("dnswild_trace_answered", "telemetry server queries answered");
    let decode_errors =
        registry.gauge("dnswild_trace_decode_errors", "telemetry decode-error events");
    let overflow = registry.gauge(
        dnswild_metrics::watchdog::inputs::OVERFLOW,
        "telemetry ring-overflow drops",
    );
    let journeys_recorded = registry.gauge(
        "dnswild_trace_journeys_recorded",
        "journeys admitted to the flight recorder",
    );
    let journeys_dropped = registry.gauge(
        "dnswild_trace_journeys_dropped",
        "journeys evicted from the flight recorder unpinned",
    );
    // A journey-sampled exemplar: the worst client RTT the flight
    // recorder currently retains, so dashboards can point at a concrete
    // slow query rather than a histogram bucket.
    let journey_slowest = registry.gauge(
        "dnswild_journey_slowest_rtt_ns",
        "worst client RTT retained in the flight recorder",
    );
    let collector = std::sync::Arc::clone(collector);
    registry.on_scrape(move || {
        let snap = collector.snapshot();
        events.set(snap.events as f64);
        queries.set(snap.queries as f64);
        answered.set(snap.answered as f64);
        decode_errors.set(snap.decode_errors as f64);
        overflow.set(snap.overflow as f64);
        journeys_recorded.set(snap.journeys_recorded as f64);
        journeys_dropped.set(snap.journeys_dropped as f64);
        journey_slowest.set(snap.journey_slowest_ns as f64);
    });
}

/// Bridges a [`SharedCache`] into a metrics registry: before every
/// registry read the cache's counters are copied into `dnswild_cache_*`
/// gauges, so the warm-vs-cold curves are observable live alongside the
/// trace and server counters.
pub fn mirror_cache(registry: &Registry, cache: &std::sync::Arc<SharedCache>) {
    let hits = registry.gauge("dnswild_cache_hits", "record-cache live hits");
    let misses = registry.gauge("dnswild_cache_misses", "record-cache misses");
    let expired = registry.gauge("dnswild_cache_expired", "record-cache expired-entry misses");
    let negative = registry.gauge("dnswild_cache_negative_hits", "record-cache negative hits");
    let inserts = registry.gauge("dnswild_cache_inserts", "record-cache stores");
    let evictions = registry.gauge("dnswild_cache_evictions", "record-cache LRU evictions");
    let stale = registry.gauge("dnswild_cache_stale_served", "record-cache stale answers served");
    let entries = registry.gauge("dnswild_cache_entries", "record-cache entries resident");
    let cache = std::sync::Arc::clone(cache);
    registry.on_scrape(move || {
        let s = cache.stats();
        hits.set(s.hits as f64);
        misses.set(s.misses as f64);
        expired.set(s.expired as f64);
        negative.set(s.negative_hits as f64);
        inserts.set(s.inserts as f64);
        evictions.set(s.evictions as f64);
        stale.set(s.stale_served as f64);
        entries.set(cache.len() as f64);
    });
}
