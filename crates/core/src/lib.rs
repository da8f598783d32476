//! # dnswild
//!
//! A full reproduction of **"Recursives in the Wild: Engineering
//! Authoritative DNS Servers"** (Müller, Moura, Schmidt, Heidemann —
//! IMC 2017) as a Rust library, built on a deterministic network
//! simulator instead of the Internet.
//!
//! The paper measures how recursive resolvers in the wild choose among a
//! zone's authoritative name servers, and derives operator guidance: all
//! NSes must be equally strong — if any is anycast, all should be. This
//! crate is the umbrella over the whole reproduction stack:
//!
//! * [`dnswild_proto`] — DNS wire format, from scratch;
//! * [`dnswild_netsim`] — the discrete-event Internet stand-in (geo
//!   latency, loss, unicast + anycast routing);
//! * [`dnswild_zone`] / [`dnswild_server`] — authoritative zones and the
//!   NSD-like server actor;
//! * [`dnswild_resolver`] — six selection policies modelled on real
//!   implementations, with infrastructure and record caches;
//! * [`dnswild_atlas`] — the synthetic RIPE Atlas (VP population,
//!   probing schedule, per-query records);
//! * [`dnswild_analysis`] — every figure/table analysis in §4–§5;
//! * [`dnswild_netio`] — the real-socket serving plane: the same
//!   authoritative engine on a multi-threaded UDP front-end, with a
//!   closed-loop load generator (`dnswild serve` / `dnswild blast`).
//!
//! On top of those, this crate offers the [`Experiment`] builder, the
//! operator [`guidance`] engine (§7 as what-if analysis), the
//! Figure 7 [`production`] trace generator, and the [`lab`] rig whose
//! gates re-check the socket planes' laws for the `dnswild` CLI, the
//! integration tests and CI alike. The `exp_*` binaries in this
//! crate regenerate every table and figure; see `EXPERIMENTS.md` at the
//! repository root for paper-vs-measured numbers.
//!
//! ```
//! use dnswild::{Experiment, StandardConfig};
//!
//! // Deploy the paper's configuration 2C (Frankfurt + Sydney), probe it
//! // from 50 vantage points, and ask who got the traffic.
//! let report = Experiment::standard(StandardConfig::C2C, 42)
//!     .vantage_points(50)
//!     .rounds(10)
//!     .run();
//! for share in report.share() {
//!     println!("{}: {:.1}% of queries", share.auth, share.share * 100.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod export;
mod experiment;
pub mod guidance;
pub mod lab;
pub mod production;
pub mod report;

pub use experiment::{Experiment, Report};

// Re-export the full stack under one roof.
pub use dnswild_analysis as analysis;
pub use dnswild_atlas as atlas;
pub use dnswild_cache as cache;
pub use dnswild_netio as netio;
pub use dnswild_netsim as netsim;
pub use dnswild_proto as proto;
pub use dnswild_resolver as resolver;
pub use dnswild_server as server;
pub use dnswild_zone as zone;

// The names downstream users reach for constantly.
pub use dnswild_atlas::{
    AuthoritativeSpec, DeploymentSpec, MeasurementConfig, MeasurementResult, PolicyMix,
    StandardConfig,
};
pub use dnswild_netsim::{Continent, LatencyConfig, SimDuration, SimTime};
pub use dnswild_resolver::PolicyKind;
