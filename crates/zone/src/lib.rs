//! # dnswild-zone
//!
//! Authoritative zone data for the *Recursives in the Wild* reproduction:
//! RRsets, the RFC 1034 lookup algorithm (exact match, CNAME chains,
//! delegations, wildcard synthesis, NODATA/NXDOMAIN) and the preset zones,
//! built in code, of the measurement experiments.
//!
//! Wildcards are first-class here because the reproduced measurement
//! methodology relies on them: every probe queries a unique label under
//! the test domain (defeating record caches), and a wildcard TXT record
//! answers all of them.
//!
//! ```
//! use dnswild_proto::{Name, RType};
//! use dnswild_zone::{presets, Lookup};
//!
//! let origin = Name::parse("ourtestdomain.nl").unwrap();
//! let zone = presets::test_domain_zone(&origin, 2);
//! let q = Name::parse("probe-17-round-1.ourtestdomain.nl").unwrap();
//! assert!(matches!(zone.lookup(&q, RType::Txt), Lookup::Answer(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presets;
mod rrset;
mod zone;

pub use rrset::RrSet;
pub use zone::{Answer, Glue, Lookup, Zone};
