//! # dnswild-ledger
//!
//! Every ledger in the workspace — the server's, the cache's, the
//! resolver client's, the load generator's, the chaos plan's and the
//! trace collector's — is one [`counter_set!`] declaration. This crate
//! holds that macro and the [`CounterSet`] trait it implements, and
//! depends on nothing, so the crate that owns a ledger can declare it
//! without depending on the metrics plane that scrapes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;

pub use counters::{assert_counter_set_covers_every_field, kv_line, AtomicSet, CounterSet};
