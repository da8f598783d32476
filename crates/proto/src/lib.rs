//! # dnswild-proto
//!
//! A from-scratch DNS wire-format implementation (RFC 1034/1035 core,
//! EDNS0 per RFC 6891) used by the *Recursives in the Wild* reproduction.
//!
//! The crate is deliberately transport-agnostic: it encodes and decodes
//! `&[u8]` buffers and knows nothing about sockets or the simulator. It
//! covers exactly the record types the measurement path needs — A, AAAA,
//! NS, SOA, CNAME, PTR, MX, TXT, OPT — and round-trips everything else
//! opaquely.
//!
//! ## Example
//!
//! ```
//! use dnswild_proto::{Message, Name, RType, Rcode, Record, RData, rdata::Txt};
//!
//! // A recursive resolver asks an authoritative for the probe TXT record.
//! let qname = Name::parse("p1.q42.ourtestdomain.nl").unwrap();
//! let query = Message::iterative_query(0x1234, qname.clone(), RType::Txt);
//! let wire = query.encode().unwrap();
//!
//! // The authoritative answers, identifying its site in-band.
//! let query = Message::decode(&wire).unwrap();
//! let mut resp = Message::response_to(&query, Rcode::NoError);
//! resp.header.authoritative = true;
//! resp.answers.push(Record::new(
//!     qname, 5, RData::Txt(Txt::from_string("site=FRA").unwrap()),
//! ));
//! let wire = resp.encode().unwrap();
//! let resp = Message::decode(&wire).unwrap();
//! assert_eq!(resp.answers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edns;
mod error;
mod header;
mod message;
mod name;
mod question;
pub mod rdata;
mod record;
mod types;
mod wire;

pub use edns::{Edns, EXTENDED_RCODE_BADVERS, MIN_EDNS_PAYLOAD};
pub use error::{ProtoError, ProtoResult};
pub use header::Header;
pub use message::{Answer, Message, MessageWriter, Section, DEFAULT_EDNS_PAYLOAD};
pub use name::{Name, NameCompressor, MAX_LABEL_LEN, MAX_NAME_LEN};
pub use question::Question;
pub use rdata::RData;
pub use record::Record;
pub use types::{Class, Opcode, RType, Rcode};
pub use wire::{WireReader, WireWriter, MAX_MESSAGE_SIZE};
