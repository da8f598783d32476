//! # recursives-in-the-wild
//!
//! Root crate of the workspace reproducing *"Recursives in the Wild:
//! Engineering Authoritative DNS Servers"* (IMC 2017). It re-exports the
//! [`dnswild`] umbrella crate and hosts the repository-level integration
//! tests (`tests/`) and runnable examples (`examples/`).
//!
//! Start with [`dnswild::Experiment`] for the high-level API, or see the
//! `exp_*` binaries in the `dnswild` crate for the per-figure
//! reproduction harnesses. `README.md`, `DESIGN.md` and `EXPERIMENTS.md`
//! at the repository root document the architecture, the substitutions
//! made for the paper's Internet-scale hardware, and the paper-vs-
//! measured numbers.

#![forbid(unsafe_code)]

pub use dnswild::*;
