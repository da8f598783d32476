//! Low-overhead capture plane for the real-socket path.
//!
//! The paper validates its Atlas findings against passive production
//! traces (DITL Root and `.nl`, §5). This crate is our stand-in for
//! that capture infrastructure: every datagram handled by the serving
//! plane (and, optionally, by the load/resolver clients and the chaos
//! proxies) is recorded as one compact fixed-size [`Event`] in a
//! per-producer lock-free SPSC ring. A background drain thread spills
//! the rings into a versioned binary trace file (the `trace` module)
//! and keeps only its own books ([`TraceSummary`]: events written,
//! events dropped); what the events say is counted by their owners.
//! The trace is the one store of per-query journeys; the workspace's
//! one histogram type ([`LogHistogram`]) lives here too, for the
//! metrics registry.
//!
//! Design rules, in priority order:
//!
//! 1. **Never block the hot path.** Producers only do atomic loads and
//!    stores; when a ring is full the event is dropped and an overflow
//!    counter is bumped instead (drop accounting, not back-pressure).
//! 2. **Stay deterministic where the planes are.** The trace digest
//!    folds only the content fields that are reproducible under a
//!    fixed seed (qname hash, auth, kind, rcode, byte counts, flags)
//!    and is order-insensitive, so two same-seed runs produce the same
//!    digest even though worker interleaving differs.
//! 3. **Safe code only.** The SPSC ring is built from `AtomicU64`
//!    words with Lamport-style head/tail indices, no `unsafe`.

#![forbid(unsafe_code)]

mod collector;
mod event;
mod hist;
mod ring;
pub mod stats;
mod trace;

pub use collector::{Collector, CollectorConfig, Producer, TraceClock, TraceSummary};
pub use event::{
    hash_bytes, hash_socket_addr, journey_from_payload, journey_id, qname_hash32, EventKind,
    TraceEvent as Event, FLAG_CHAOS_CORRUPT, FLAG_CHAOS_DELAY, FLAG_CHAOS_DROP, FLAG_CHAOS_DUP,
    FLAG_CHAOS_REORDER, FLAG_CHAOS_TRUNCATE, FLAG_ATTACK, FLAG_DECODE_ERROR, FLAG_PREFETCH,
    FLAG_RESPONSE, FLAG_RRL, FLAG_SEND_FAILED, FLAG_TCP, FLAG_TCP_RETRY, FLAG_TC_SEEN,
    FLAG_TIMEOUT, RCODE_NONE,
};
pub use hist::LogHistogram;
pub use ring::SpscRing;
pub use trace::{Trace, TraceWriter, EVENT_BYTES, TRACE_FORMAT_VERSION};
