//! `auth_udp` and `auth_udp_observed`: one `serve()` shard answering the
//! recursive-like mix over loopback UDP, bare or with a trace collector
//! and a metrics registry attached.
//!
//! Phase A is a closed loop (window 16) that saturates the shard:
//! throughput and on-CPU cost per query. Phase B is an open loop at a
//! fixed 40k qps, latency timed from each query's due time.

use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dnswild_metrics::Registry;
use dnswild_netio::{
    batch_io_available, serve, Collector, CollectorConfig, IoBackend, ServeConfig, ServeHandle,
};
use dnswild_zone::presets::test_domain_zone;

use super::{origin, out_dir, server_books, set_up_repeatedly, Args};
use crate::check::{Profile, NS_COUNT, SITE};
use crate::gen::{Mix, Pace, Pool, Slice, SpanSink, UdpGen};
use crate::layers;
use crate::report::Report;
use crate::span::{Tracer, NO_PARENT};
use crate::stats::{median, percentile_sorted};
use crate::sys::{Cpu, Threads};

/// Queries kept in flight in the closed loop.
pub const WINDOW: usize = 16;
/// The open-loop rate whose median latency is the end-to-end figure.
pub const RATE: f64 = 40_000.0;
/// Rungs of the traced run's rate ladder.
pub const RUNGS: [(f64, &str); 3] = [(20_000.0, "r20k"), (40_000.0, "r40k"), (80_000.0, "r80k")];
/// Most queries on the wire in the open loop — below what the 208 KiB
/// loopback receive buffer holds, so a stalled vCPU shows as lateness
/// (counted from due time) rather than as kernel drops.
pub const OPEN_CAP: usize = 128;
/// A rung passes only if its p99 from due time stays under this.
const LATENCY_LIMIT_US: f64 = 10_000.0;
const SLICES: usize = 5;

struct Observers {
    collector: Arc<Collector>,
    registry: Arc<Registry>,
    trace_path: PathBuf,
}

/// One server under test and whatever watches it.
struct Server {
    handle: ServeHandle,
    observers: Option<Observers>,
}

struct Rig {
    server: Server,
    pool: Pool,
}

fn set_up(seed: u64, observed: bool) -> Rig {
    Rig {
        server: start_server(observed, IoBackend::Auto),
        pool: Pool::generate(seed, Mix::recursive_like()),
    }
}

fn start_server(observed: bool, io: IoBackend) -> Server {
    let zones = Arc::new(vec![test_domain_zone(&origin(), NS_COUNT)]);
    let mut config = ServeConfig::new("127.0.0.1:0", SITE, zones)
        .threads(1)
        .io(io);
    let observers = observed.then(|| {
        let trace_path = out_dir().join(format!("observed_{}.dwtrace", std::process::id()));
        let collector = Arc::new(
            Collector::start(
                CollectorConfig::new(&trace_path)
                    .auths([SITE])
                    .ring_capacity(1 << 16),
            )
            .expect("start trace collector"),
        );
        Observers {
            collector,
            registry: Arc::new(Registry::new()),
            trace_path,
        }
    });
    if let Some(o) = &observers {
        config = config
            .collector(Arc::clone(&o.collector), 0)
            .metrics(Arc::clone(&o.registry));
    }
    Server {
        handle: serve(config).expect("bind loopback server"),
        observers,
    }
}

/// Stops the server and the observers; returns `(trace events, ring
/// overflow)` for an observed rig.
fn tear_down(server: Server) -> (u64, u64) {
    server.handle.shutdown();
    match server.observers {
        Some(o) => {
            let summary = o.collector.finish().expect("finish trace");
            let _ = std::fs::remove_file(&o.trace_path);
            (summary.events, summary.overflow)
        }
        None => (0, 0),
    }
}

/// One closed-loop slice and what the server's threads booked over it.
fn closed_slice(gen: &mut UdpGen<'_>, threads: &Threads, dur_ns: u64) -> (Slice, Cpu) {
    let before = threads.cpu();
    let slice = gen.slice(dur_ns, Pace::Window(WINDOW));
    (slice, threads.cpu().since(before))
}

/// What a closed-loop phase measured, slice by slice.
#[derive(Default)]
struct ClosedPhase {
    qps: Vec<f64>,
    cpu_us: Vec<f64>,
    busy: Vec<f64>,
    runq_ns: Vec<f64>,
    gen_cpu_ns: Vec<f64>,
    gen_busy: Vec<f64>,
}

impl ClosedPhase {
    fn add(&mut self, slice: &Slice, server: Cpu) {
        let answered = slice.answered.max(1) as f64;
        self.qps.push(slice.qps());
        self.cpu_us.push(server.run_ns as f64 / answered / 1e3);
        self.busy
            .push(server.run_ns as f64 / slice.wall_ns.max(1) as f64);
        self.runq_ns.push(server.wait_ns as f64 / answered);
        self.gen_cpu_ns.push(slice.gen_cpu.run_ns as f64 / answered);
        self.gen_busy
            .push(slice.gen_cpu.run_ns as f64 / slice.wall_ns.max(1) as f64);
    }
}

/// Runs short untimed slices until the server thread is on a CPU of
/// its own. A thread woken by the generator's first packets tends to
/// start on the generator's CPU (wake-affine placement) and the two then
/// take turns; once the load balancer has moved it, a saturated shard
/// never sleeps and so stays put. Gives up after 2 s — the busy share
/// is reported either way.
fn await_placement(gen: &mut UdpGen<'_>, threads: &Threads) {
    for _ in 0..20 {
        let (slice, cpu) = closed_slice(gen, threads, 100_000_000);
        if cpu.run_ns as f64 >= 0.9 * slice.wall_ns as f64 {
            break;
        }
    }
}

fn closed_phase(
    gen: &mut UdpGen<'_>,
    threads: &Threads,
    slices: usize,
    dur_ns: u64,
) -> ClosedPhase {
    await_placement(gen, threads);
    let mut phase = ClosedPhase::default();
    for _ in 0..slices {
        let (slice, cpu) = closed_slice(gen, threads, dur_ns);
        phase.add(&slice, cpu);
    }
    gen.settle();
    phase
}

/// One open-loop rung: latency percentiles from due time plus how late
/// the generator itself ran.
struct Rung {
    p50_us: Vec<f64>,
    latency_ns: Vec<u32>,
    late_ns: Vec<u32>,
    backlog: Vec<u64>,
    failed: u64,
    sent: u64,
}

fn open_rung(gen: &mut UdpGen<'_>, rate: f64, slices: usize, dur_ns: u64) -> Rung {
    let before = gen.tally;
    let mut rung = Rung {
        p50_us: Vec::new(),
        latency_ns: Vec::new(),
        late_ns: Vec::new(),
        backlog: Vec::new(),
        failed: 0,
        sent: 0,
    };
    for _ in 0..slices {
        let mut slice = gen.slice(
            dur_ns,
            Pace::Rate {
                rate,
                cap: OPEN_CAP,
            },
        );
        slice.latency_ns.sort_unstable();
        rung.p50_us
            .push(percentile_sorted(&slice.latency_ns, 0.5) / 1e3);
        rung.latency_ns.append(&mut slice.latency_ns);
        rung.late_ns.append(&mut slice.late_ns);
        rung.backlog.push(slice.backlog_end);
    }
    gen.settle();
    rung.failed = gen.tally.failed() - before.failed();
    rung.sent = gen.tally.sent - before.sent;
    rung.latency_ns.sort_unstable();
    rung.late_ns.sort_unstable();
    rung
}

impl Rung {
    /// Whether the rate was carried: loss ≤ 1%, p99 from due within the
    /// limit, and no backlog building slice over slice. `None` when the
    /// generator itself ran later than the limit — then the rung says
    /// nothing about the program.
    fn verdict(&self) -> Option<bool> {
        if percentile_sorted(&self.late_ns, 0.99) / 1e3 > LATENCY_LIMIT_US {
            return None;
        }
        let loss_ok = self.failed as f64 <= self.sent as f64 * 0.01;
        let p99_ok = percentile_sorted(&self.latency_ns, 0.99) / 1e3 <= LATENCY_LIMIT_US;
        let first = self.backlog.first().copied().unwrap_or(0);
        let backlog_ok = self.backlog.last().copied().unwrap_or(0) <= first + OPEN_CAP as u64;
        Some(loss_ok && p99_ok && backlog_ok)
    }
}

/// Checks the server's own books against what the generator sent.
fn check_server(report: &mut Report, handle: &ServeHandle, sent: u64, what: &str) {
    let stats = server_books(handle, |s| s.queries == sent);
    report.require(stats.queries == sent, || {
        format!(
            "{what}: server counted {} queries, generator sent {sent}",
            stats.queries
        )
    });
    report.require(stats.question_outcomes() == stats.queries, || {
        format!("{what}: outcome counters do not sum to queries: {stats:?}")
    });
    let io = handle.io_errors();
    report.require(
        io.recv_errors + io.decode_errors + io.send_errors == 0,
        || format!("{what}: server I/O errors {io:?}"),
    );
}

/// A bare `recv_from`/`send_to` echo thread: the kernel's share of a
/// query's cost, which only batching or io_uring could move.
struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Echo {
    fn start() -> Echo {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind echo socket");
        sock.set_read_timeout(Some(std::time::Duration::from_millis(10)))
            .expect("echo read timeout");
        let addr = sock.local_addr().expect("echo addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("pb-echo".into())
            .spawn(move || {
                let mut buf = [0u8; 4096];
                // Relaxed: the flag publishes nothing but itself.
                while !flag.load(Ordering::Relaxed) {
                    if let Ok((n, peer)) = sock.recv_from(&mut buf) {
                        let _ = sock.send_to(&buf[..n], peer);
                    }
                }
            })
            .expect("spawn echo thread");
        Echo { addr, stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("echo thread panicked");
    }
}

/// Runs the workload in the mode `report` was made for.
pub fn run(args: Args, observed: bool, report: &mut Report) {
    let rig = set_up_repeatedly(
        report,
        || set_up(args.seed, observed),
        |r| {
            tear_down(r.server);
        },
    );
    let threads = Threads::await_named("netio-shard");
    report.require(threads.len() == 1, || {
        format!("expected one shard thread, found {}", threads.len())
    });
    let mut gen = UdpGen::connect(rig.server.handle.local_addr(), &rig.pool, Profile::Plain)
        .expect("generator socket");

    if report.traced() {
        traced(args, observed, &rig, &threads, &mut gen, report);
    } else {
        let a = closed_phase(&mut gen, &threads, SLICES, args.ns(0.5 / SLICES as f64));
        let b = open_rung(&mut gen, RATE, SLICES, args.ns(0.5 / SLICES as f64));
        report.set_median("ops_per_s", a.qps);
        report.set_median("cpu_us_per_op", a.cpu_us);
        report.set_median("latency_us", b.p50_us);
        report.slices.push(("server_busy_share".into(), a.busy));
    }

    check_server(
        report,
        &rig.server.handle,
        gen.tally.sent,
        "workload server",
    );
    report.require(gen.tally.deep_checked > 0, || {
        "no reply got the deep check".into()
    });
    report.attempted += gen.tally.sent;
    report.failed += gen.tally.failed();
    report.require(gen.tally.bad_header + gen.tally.bad_content == 0, || {
        format!("wrong answers: {:?}", gen.tally)
    });
    let registry = rig
        .server
        .observers
        .as_ref()
        .map(|o| Arc::clone(&o.registry));
    let (events, overflow) = tear_down(rig.server);
    if let Some(registry) = registry {
        report.set("obs.trace_events", events as f64);
        report.set("obs.ring_overflow", overflow as f64);
        report.require(events > 0, || {
            "observed run captured no trace events".into()
        });
        for (labels, hist) in registry.histograms("dnswild_stage_ns") {
            let stage = labels
                .iter()
                .find(|(k, _)| k == "stage")
                .map(|(_, v)| v.as_str());
            if let (Some(stage), true) = (stage, labels.len() == 1) {
                report.set(
                    &format!("netio.server.stage_{stage}_ns"),
                    hist.value_at(50.0).unwrap_or(0) as f64,
                );
            }
        }
    }
    report.set("peak_rss_mb", crate::sys::peak_rss_mb());
}

/// The traced run: per-layer replays, then the workload with spans
/// around every send and every answered query, interleaved with
/// untraced slices so the difference is the tracing overhead.
fn traced(
    args: Args,
    observed: bool,
    rig: &Rig,
    threads: &Threads,
    gen: &mut UdpGen<'_>,
    report: &mut Report,
) {
    let mut tracer = Tracer::with_capacity(1 << 20);
    let root = tracer.open("trace", NO_PARENT);
    layers::replay_all(args.seed, &mut tracer, root, report);

    // The budget's three terms are measured back to back — engine
    // replay, workload, replay, echo floor, replay — because the host
    // drifts between faster and slower stretches lasting tens of
    // seconds, and terms taken a whole run apart would not add up.
    let mut engine = layers::EngineReplay::new();
    let mut handle_packet_ns =
        vec![engine.handle_packet_udp_ns(&rig.pool, &mut tracer, root, layers::CALLS / 4)];

    // Untraced and traced closed-loop slices, alternating.
    let dur = args.ns(0.05);
    let (mut plain, mut spanned) = (ClosedPhase::default(), ClosedPhase::default());
    await_placement(gen, threads);
    let phase_span = tracer.open("workload.closed_loop", root);
    for _ in 0..3 {
        let (slice, cpu) = closed_slice(gen, threads, dur);
        plain.add(&slice, cpu);
        gen.spans = Some(SpanSink {
            tracer,
            parent: phase_span,
        });
        let (slice, cpu) = closed_slice(gen, threads, dur);
        spanned.add(&slice, cpu);
        tracer = gen.spans.take().expect("sink still attached").tracer;
    }
    gen.settle();
    tracer.close(phase_span);
    let bare_qps = median(&plain.qps);
    report.set(
        "trace.overhead_pct",
        (bare_qps - median(&spanned.qps)) / bare_qps.max(1.0) * 100.0,
    );
    report.set_median("netio.server.busy_share", plain.busy);
    report.set_median("netio.server.runq_wait_ns_per_query", plain.runq_ns);
    report.set_median("gen.cpu_ns_per_query", plain.gen_cpu_ns);
    report.set_median("gen.busy_share", plain.gen_busy);
    let workload_cpu_ns = median(&plain.cpu_us) * 1e3;

    handle_packet_ns.push(engine.handle_packet_udp_ns(
        &rig.pool,
        &mut tracer,
        root,
        layers::CALLS / 4,
    ));
    let echo = Echo::start();
    let echo_threads = Threads::await_named("pb-echo");
    let mut echo_gen =
        UdpGen::connect(echo.addr, &rig.pool, Profile::Echo).expect("generator socket");
    let floor = closed_phase(&mut echo_gen, &echo_threads, 3, dur);
    echo.stop();
    report.require(echo_gen.tally.failed() == 0, || {
        format!("echo floor lost datagrams: {:?}", echo_gen.tally)
    });
    handle_packet_ns.push(engine.handle_packet_udp_ns(
        &rig.pool,
        &mut tracer,
        root,
        layers::CALLS / 4,
    ));
    let echo_cpu_ns = median(&floor.cpu_us) * 1e3;
    report.set("floor.echo_cpu_ns_per_datagram", echo_cpu_ns);
    report.set_median("floor.echo_sat_qps", floor.qps);
    // What a query costs the shard, what the layers we can time from
    // outside add up to, and what is left unexplained.
    if !observed {
        let engine_ns = median(&handle_packet_ns);
        report.set("budget.e2e_ns", workload_cpu_ns);
        report.set("budget.sum_layers_ns", echo_cpu_ns + engine_ns);
        report.set(
            "budget.residual_ns",
            workload_cpu_ns - echo_cpu_ns - engine_ns,
        );
    }

    // The rate ladder: tails per rung, and the highest rung carried.
    let mut max_ok = 0.0;
    for (rate, tag) in RUNGS {
        let rung = open_rung(gen, rate, 3, args.ns(0.04));
        report.set(
            &format!("tail.{tag}.p99_us"),
            percentile_sorted(&rung.latency_ns, 0.99) / 1e3,
        );
        report.set(
            &format!("tail.{tag}.p999_us"),
            percentile_sorted(&rung.latency_ns, 0.999) / 1e3,
        );
        report.set(&format!("tail.{tag}.samples"), rung.latency_ns.len() as f64);
        if rung.verdict() == Some(true) {
            max_ok = rate;
        }
        if rate == RATE {
            report.set(
                "gen.late_p99_us",
                percentile_sorted(&rung.late_ns, 0.99) / 1e3,
            );
            report.set(
                "gen.late_max_us",
                f64::from(rung.late_ns.last().copied().unwrap_or(0)) / 1e3,
            );
        }
    }
    report.set("load.max_rate_ok", max_ok);

    // The same closed loop against other servers: each I/O backend (is
    // recvmmsg buying anything at one shard?) and the bare twin of an
    // observed server.
    let against = |report: &mut Report, io: IoBackend, observed: bool| -> ClosedPhase {
        let other = start_server(observed, io);
        // Both servers' shards match the prefix; the idle one books nothing.
        let threads = Threads::await_named("netio-shard");
        let mut gen = UdpGen::connect(other.handle.local_addr(), &rig.pool, Profile::Plain)
            .expect("generator socket");
        let phase = closed_phase(&mut gen, &threads, 2, dur);
        check_server(report, &other.handle, gen.tally.sent, "comparison server");
        report.attempted += gen.tally.sent;
        report.failed += gen.tally.failed();
        tear_down(other);
        phase
    };
    let std = against(report, IoBackend::Std, false);
    report.set_median("netio.server.sat_qps_std", std.qps);
    if batch_io_available() {
        let mmsg = against(report, IoBackend::Mmsg, false);
        report.set_median("netio.server.sat_qps_mmsg", mmsg.qps);
    }
    if observed {
        let bare = against(report, IoBackend::Auto, false);
        report.set(
            "obs.cpu_ns_per_query_delta",
            workload_cpu_ns - median(&bare.cpu_us) * 1e3,
        );
    }

    let io = rig.server.handle.io_errors();
    report.set("netio.server.recv_errors", io.recv_errors as f64);
    report.set("netio.server.decode_errors", io.decode_errors as f64);
    report.set("netio.server.send_errors", io.send_errors as f64);
    tracer.close(root);
    layers::finish_trace(
        &tracer,
        if observed {
            "auth_udp_observed"
        } else {
            "auth_udp"
        },
        report,
    );
}
