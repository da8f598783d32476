//! The sharded hot path must be a pure performance change: whatever
//! I/O loop the serving plane runs — portable `recv_from`/`send_to` or
//! Linux `recvmmsg`/`sendmmsg` batches over per-shard `SO_REUSEPORT`
//! sockets — the observable behaviour is identical. The strongest
//! available probe is the chaos gate: every fault decision is a pure
//! function of `(seed, direction, datagram bytes, occurrence)`, so two
//! runs with the same seed must produce byte-identical fault schedules
//! and books *regardless of which backend served them*. A backend that
//! reordered, dropped, duplicated or double-sent datagrams would shift
//! occurrence indices and change the digest.

use dnswild::lab::{run, GateReport, Rig, Scenario};
use dnswild::netio::{batch_io_available, IoBackend};

/// The chaos gate — one server behind two proxies sharing one seeded
/// fault plan, driven by the resolver retry client — on one backend.
fn chaos_on(io: IoBackend) -> GateReport {
    let spec = Scenario { rig: Rig { io, ..Rig::default() }, ..Scenario::chaos(2_000, 2017) };
    let report = run(&spec).unwrap();
    assert!(report.passed(), "{io:?}: {:?}", report.failures);
    assert_eq!(report.io.recv_errors + report.io.send_errors, 0, "{io:?}");
    report
}

#[test]
fn std_and_mmsg_backends_produce_identical_chaos_schedules() {
    let std_run = chaos_on(IoBackend::Std);
    if !batch_io_available() {
        eprintln!("skipping mmsg half: batched I/O unavailable on this host");
        return;
    }
    let mmsg_run = chaos_on(IoBackend::Mmsg);
    assert_eq!(std_run.deterministic(), mmsg_run.deterministic());
    assert_eq!(std_run.server, mmsg_run.server, "backends must be observationally identical");
}

#[test]
fn mmsg_blast_with_concurrency_stays_balanced() {
    if !batch_io_available() {
        eprintln!("skipping: batched I/O unavailable on this host");
        return;
    }
    // Enough concurrent closed-loop clients that recvmmsg actually
    // drains multi-datagram batches.
    let rig = Rig { io: IoBackend::Mmsg, ..Rig::default() };
    let report = run(&Scenario { rig, ..Scenario::blast(4_000, 8) }).unwrap();
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(report.io.send_errors, 0, "{:?}", report.io);
}
