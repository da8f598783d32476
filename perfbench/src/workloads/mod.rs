//! The workloads. Each one sets the program up through its public API,
//! drives it with the benchmark's own load, checks what comes back and
//! fills a [`Report`].

use std::path::PathBuf;

use dnswild_proto::Name;

use crate::gen::ORIGIN;
use crate::report::Report;
use crate::sys::now_ns;

pub mod auth_tcp;
pub mod auth_udp;
pub mod resolver;
pub mod sim;

/// `(name, why)` of every workload, in the order `bench all` runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("auth_udp", "bare UDP serving at the smallest packet size: per-packet cost is everything, and every overhead is compared to it"),
    ("auth_udp_observed", "same traffic with trace collector and metrics registry attached: telemetry does its work here and none in auth_udp"),
    ("auth_tcp", "large answers leaving the UDP fast path: truncating encode, RFC 7766 framer, accept path; auth_udp bypasses all of it"),
    ("resolver_cold", "every name new: each transaction crosses the wire and inserts, so sockets, policy and cache insert dominate and no lookup hits"),
    ("resolver_warm", "every name cached: each transaction is a hit with zero socket I/O, so cache get and its one mutex dominate"),
    ("sim_pipeline", "the simulation plane drives the same proto, zone, engine and policy code with no sockets: the repeatable guard for the reproduction"),
];

/// A set-up is repeated inside one run until the repeats add up to
/// this long (or [`SETUP_MAX_REPEATS`] is reached) and `setup_s` is
/// the fastest of them. The same 12 ms set-up takes 17–20 ms for a few
/// hundred milliseconds at a time on the sandbox (thread spawns and
/// first-touch page faults are what a busy host slows most), so the
/// median of a run's repeats lands on either side by luck, while
/// interference only ever adds time and the minimum repeats within a
/// few percent. Work moved into set-up still shows in it.
pub const SETUP_TIME_NS: u64 = 300_000_000;
/// Most times a set-up is repeated.
pub const SETUP_MAX_REPEATS: usize = 15;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds of measuring (set-up and checks come on top).
    pub seconds: f64,
}

impl Args {
    /// `share` of the measuring time, in nanoseconds.
    pub fn ns(&self, share: f64) -> u64 {
        (self.seconds * share * 1e9) as u64
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, args: Args, report: &mut Report) -> Option<()> {
    match name {
        "auth_udp" => auth_udp::run(args, false, report),
        "auth_udp_observed" => auth_udp::run(args, true, report),
        "auth_tcp" => auth_tcp::run(args, report),
        "resolver_cold" => resolver::run(args, false, report),
        "resolver_warm" => resolver::run(args, true, report),
        "sim_pipeline" => sim::run(args, report),
        _ => return None,
    }
    Some(())
}

/// The zone origin as a parsed name.
pub fn origin() -> Name {
    Name::parse(ORIGIN).expect("origin parses")
}

/// Where a run may leave files: `perfbench/out/` under the directory
/// the benchmark is run from (the root of the checkout).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

/// Sets up repeatedly (see [`SETUP_TIME_NS`]), tearing down all but
/// the last rig, and reports the shortest duration as `setup_s`.
/// Returns the last rig.
pub fn set_up_repeatedly<R>(
    report: &mut Report,
    mut set_up: impl FnMut() -> R,
    mut tear_down: impl FnMut(R),
) -> R {
    let mut secs = Vec::with_capacity(SETUP_MAX_REPEATS);
    let started = now_ns();
    let mut rig = set_up();
    secs.push((now_ns() - started) as f64 / 1e9);
    while secs.len() < SETUP_MAX_REPEATS && now_ns() - started < SETUP_TIME_NS {
        tear_down(rig);
        let t0 = now_ns();
        rig = set_up();
        secs.push((now_ns() - t0) as f64 / 1e9);
    }
    report.set(
        "setup_s",
        secs.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.slices.push(("setup_s".to_string(), secs));
    rig
}

/// The server's counters once `settled` holds for them, or as they are
/// after a second. A worker books a query after it has sent the answer,
/// so its books can trail the last reply the benchmark read by a moment.
pub fn server_books(
    handle: &dnswild_netio::ServeHandle,
    settled: impl Fn(&dnswild_server::ServerStats) -> bool,
) -> dnswild_server::ServerStats {
    let deadline = now_ns() + 1_000_000_000;
    loop {
        let stats = handle.stats();
        if settled(&stats) || now_ns() > deadline {
            return stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
