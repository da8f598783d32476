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
//!   owning a private `SO_REUSEPORT` socket (where the kernel accepts
//!   the `dnswild-mmsg` shim's `recvmmsg`; one shared socket where it
//!   refuses it), a forked engine, reusable receive/encode buffers and
//!   a private lock-free stats cell — no cross-thread sharing on the
//!   hot path. One worker loop runs over a datagram I/O arm selected at
//!   runtime ([`IoBackend`]): batched `recvmmsg`/`sendmmsg`, or a
//!   `recv_from`/`send_to` batch of one. Every worker
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
//! assert_eq!(stats.queries, report.stats.sent);
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
    blast, AttackMode, LoadConfig, LoadReport, LoadStats, QueryMix, Workload,
    DEFAULT_SPOOFED_SOURCES, NXNS_EDNS_PAYLOAD,
};
pub use server::{
    batch_io_available, serve, IoBackend, IoErrorStats, ServeConfig, ServeHandle, DEFAULT_BATCH,
};
pub use tcp::{serve_stream, write_frame, FrameReader, TcpConnStats, TcpOptions};

// Telemetry plane: re-exported so callers wiring a collector into
// `ServeConfig` / `LoadConfig` / `ResolveConfig` / `ChaosProxy` don't
// need a direct `dnswild-telemetry` dependency.
pub use dnswild_telemetry::{Collector, CollectorConfig, Trace, TraceSummary};

// Metrics plane: likewise re-exported for callers wiring a registry.
pub use dnswild_metrics::{MetricsServer, Registry};

// Cache plane: the knobs callers need to build a [`SharedCache`].
pub use dnswild_cache::{CacheConfig, CacheStats};
