//! # dnswild-netsim
//!
//! A deterministic discrete-event network simulator: the substrate that
//! stands in for the Internet in the *Recursives in the Wild*
//! reproduction.
//!
//! The paper measured real recursive resolvers across the real Internet
//! between ~9,700 RIPE Atlas probes and seven AWS datacenters. This crate
//! replaces that hardware with:
//!
//! * a virtual clock and event queue ([`SimTime`], [`Simulator`]);
//! * hosts placed on the globe, with UDP-like datagram delivery whose
//!   latency is derived from great-circle distance plus deterministic
//!   per-path inflation, per-packet jitter and loss ([`LatencyModel`]);
//! * unicast and **anycast** addressing — anycast datagrams are routed to
//!   the catchment site with the lowest base latency, the first-order
//!   behaviour of BGP anycast ([`Simulator::bind_anycast`]).
//!
//! Everything is seeded and deterministic: the same seed reproduces the
//! same packet trace, timer order and derived tables bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use dnswild_netsim::{Actor, Context, Datagram, HostConfig, SimDuration, Simulator};
//! use dnswild_netsim::geo::datacenters;
//! use std::any::Any;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_datagram(&mut self, ctx: &mut Context<'_>, d: Datagram) {
//!         ctx.send(d.dst, d.src, d.payload); // bounce it back
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let cfg = HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 64500);
//! let host = sim.add_host(cfg, Box::new(Echo));
//! let _addr = sim.bind_unicast(host);
//! sim.run_until_idle();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod engine;
mod event;
pub mod geo;
mod latency;
mod time;

pub use addr::{AddrFamily, SimAddr};
pub use engine::{Actor, Context, Datagram, HostConfig, HostId, NetStats, Simulator, Transport};
pub use geo::{Continent, GeoPoint, Place};
pub use latency::{LatencyConfig, LatencyModel};
pub use time::{SimDuration, SimTime};
