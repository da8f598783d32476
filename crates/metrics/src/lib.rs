//! # dnswild-metrics
//!
//! The live observability plane: a hermetic (safe-code, zero-dependency
//! beyond the in-tree telemetry crate) metrics subsystem for the
//! real-socket serving path.
//!
//! The paper's engineering guidance (§6) is addressed to operators who
//! need to know *live* whether the laws it measures still hold: is the
//! per-authoritative query share tracking 1/SRTT (Fig 3), are
//! recursives still exploring every authoritative (Fig 2), is the hot
//! path degrading and in which stage? This crate provides:
//!
//! * [`registry`] — a process-wide [`Registry`] of named metrics:
//!   atomic [`Counter`]s, which mirror ledgers kept by their owners, f64
//!   [`Gauge`]s, and log-bucketed [`LogHistogram`]s — the telemetry
//!   crate's one histogram type, re-exported here, so every percentile
//!   in the workspace is quantised identically.
//! * [`counters`] — the `dnswild-ledger` crate, re-exported:
//!   [`counter_set!`] declares a ledger of `u64` counters once, from
//!   which its sum, `(kind, value)` list, lock-free mirror ([`AtomicSet`])
//!   and `k=v` line are derived; [`Registry::mirror_counters`] exposes
//!   such a ledger from where it lives instead of double-writing it.
//! * [`http`] — a minimal HTTP/1.0 responder over
//!   [`std::net::TcpListener`] exposing the registry in Prometheus text
//!   format at `GET /metrics`, plus the matching [`scrape`] client and
//!   a tiny exposition-text parser used by `dnswild top` and the CI
//!   gates.
//! * [`spans`] — per-stage hot-path timing (recv → decode → engine →
//!   encode → send): one monotonic-clock lap per stage into a stage
//!   histogram, disabled at runtime by passing `None`.
//! * [`watchdog`] — a background thread that re-evaluates the paper's
//!   laws as live SLO invariants over the registry (share vs. 1/SRTT,
//!   all-auth coverage, SERVFAIL rate, ring overflow) and exposes
//!   breach state as gauges plus rate-limited structured JSONL lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod registry;
pub mod spans;
pub mod watchdog;

pub use dnswild_ledger as counters;
pub use dnswild_ledger::{counter_set, kv_line, AtomicSet, CounterSet};
pub use dnswild_telemetry::LogHistogram;
pub use http::{scrape, parse_exposition, MetricsServer, Sample};
pub use registry::{Counter, Gauge, Hook, MetricValue, Registry};
pub use spans::{Stage, StageClock, StageSpans, STAGES};
pub use watchdog::{Watchdog, WatchdogHandle, WatchdogReport};
