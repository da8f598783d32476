//! The record cache, generalized over its clock.
//!
//! The paper goes out of its way to defeat caching (unique labels, TTL=5,
//! 4-hour gaps between runs) so that every probe actually reaches an
//! authoritative — which is only meaningful if a cache exists to be cold.
//! This crate is that cache, shared by two planes:
//!
//! * the **simulator** drives it with `SimTime` converted to [`CacheTime`]
//!   (deterministic virtual micros), and
//! * the **real-socket client** drives it with a [`WallClock`] anchored at
//!   process start.
//!
//! Time never comes from inside the cache: every method takes an explicit
//! `now`, so behaviour is a pure function of the call sequence and both
//! planes exercise the exact same expiry/decrement/eviction logic.
//!
//! Beyond plain TTL honoring it implements the recursive-side mechanics
//! the paper's measured resolvers exhibit: RFC 2308 negative caching
//! (NXDOMAIN and NODATA kept distinct, TTL from the SOA minimum),
//! prefetch of an entry hit shortly before expiry, RFC 8767 serve-stale
//! within a window past expiry, and a capacity bound with eviction
//! accounting: an exact LRU threaded through a slab of entries, O(1) to
//! touch and to evict, kept only by a cache that has a bound to enforce.
//!
//! A lookup hashes and compares the caller's `&Name` in place and, as
//! [`RecordCache::probe`], copies out a small [`Hit`] and no record — no
//! heap allocation; [`RecordCache::get`] is the probe plus the records,
//! for the caller that sends them.

#![forbid(unsafe_code)]

mod clock;
mod store;

pub use clock::{CacheTime, Clock, FixedClock, Secs, WallClock};
pub use store::{
    negative_ttl, soa_negative_ttl, CacheConfig, CacheStats, CachedResponse, EntryKind, Hit,
    QuestionHasher, RecordCache, NEGATIVE_TTL_WITHOUT_SOA, STALE_TTL,
};
