//! Per-layer replays: each layer's public entry point called on the
//! same seeded payloads the generator sends, timed in batches so the
//! clock read is under 2% of a span. The crate names are the layers.
//!
//! Every replay is the same whichever workload the traced run belongs
//! to, so a layer's cost can be read beside any workload's counters.

use std::net::Ipv4Addr;
use std::sync::Arc;

use detrand::DetRng;
use dnswild_cache::{CacheConfig, CacheTime, RecordCache};
use dnswild_metrics::{Registry, Stage, StageClock, StageSpans};
use dnswild_netio::{write_frame, Collector, CollectorConfig, FrameReader};
use dnswild_netsim::geo::datacenters;
use dnswild_netsim::{
    Actor, Context, Datagram, HostConfig, LatencyConfig, SimAddr, SimDuration, SimTime, Simulator,
};
use dnswild_proto::rdata::Txt;
use dnswild_proto::{Message, Name, RData, RType, Rcode, Record};
use dnswild_resolver::{InfraCache, PolicyKind};
use dnswild_server::{AnswerEngine, RateLimitPolicy, RateLimiter, TransportKind, TruncationPolicy};
use dnswild_telemetry::{Event, EventKind};
use dnswild_zone::presets::{padded_test_domain_zone, test_domain_zone};

use crate::check::{NS_COUNT, SITE};
use crate::gen::{Kind, Mix, Pool, POOL};
use crate::report::Report;
use crate::span::{SpanId, Tracer};
use crate::stats::median;
use crate::sys::now_ns;
use crate::workloads::{origin, out_dir};

/// Calls per layer.
pub const CALLS: usize = 102_400;
/// Calls per timed span: two clock reads (~50 ns) against ≥ 64 calls.
const BATCH: usize = 64;
/// Distinct pre-built inputs a replay cycles through.
const RING: usize = 4_096;

/// Times `calls` invocations of `f` in batches under a span named
/// `name`; returns the median batch's nanoseconds per call.
fn timed(
    tracer: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    calls: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let layer = tracer.open(name, parent);
    let mut per_call = Vec::with_capacity(calls / BATCH);
    for first in (0..calls).step_by(BATCH) {
        let t0 = now_ns();
        for i in first..first + BATCH {
            f(i);
        }
        let t1 = now_ns();
        tracer.push("batch", t0, t1, layer, first as u64);
        per_call.push((t1 - t0) as f64 / BATCH as f64);
    }
    tracer.close(layer);
    median(&per_call)
}

struct Echo;
impl Actor for Echo {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, d: Datagram) {
        ctx.send(d.dst, d.src, d.payload);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

struct Chatter {
    peer: SimAddr,
    remaining: u32,
}
impl Actor for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let own = ctx.own_addr();
        ctx.send(own, self.peer, vec![0u8; 64]);
    }
    fn on_datagram(&mut self, ctx: &mut Context<'_>, d: Datagram) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(d.dst, d.src, d.payload);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Nanoseconds per delivered event of a two-host ping-pong.
fn netsim_event_ns(tracer: &mut Tracer, parent: SpanId) -> f64 {
    const ROUNDS: u32 = 2_000;
    let layer = tracer.open("netsim.event", parent);
    let mut per_event = Vec::new();
    for run in 0..25 {
        let mut sim = Simulator::with_latency(
            1,
            LatencyConfig {
                loss_rate: 0.0,
                ..LatencyConfig::default()
            },
        );
        let echo = sim.add_host(
            HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
            Box::new(Echo),
        );
        let echo_addr = sim.bind_unicast(echo);
        let chatter = sim.add_host(
            HostConfig::at_place(&datacenters::DUB, SimDuration::from_millis(1), 2),
            Box::new(Chatter {
                peer: echo_addr,
                remaining: ROUNDS,
            }),
        );
        sim.bind_unicast(chatter);
        let t0 = now_ns();
        sim.run_until_idle();
        let t1 = now_ns();
        tracer.push("batch", t0, t1, layer, run);
        per_event.push((t1 - t0) as f64 / sim.stats().delivered.max(1) as f64);
    }
    tracer.close(layer);
    median(&per_event)
}

/// `AnswerEngine::handle_packet` over the plain zone, on its own so the
/// budget can repeat it beside the phases it is compared with.
pub struct EngineReplay {
    engine: AnswerEngine,
    buf: Vec<u8>,
}

impl EngineReplay {
    /// An engine over `test_domain_zone`, as `serve()` builds one.
    pub fn new() -> EngineReplay {
        let zone = test_domain_zone(&origin(), NS_COUNT);
        EngineReplay {
            engine: AnswerEngine::new(SITE, vec![zone]),
            buf: Vec::with_capacity(2048),
        }
    }

    /// Nanoseconds per `handle_packet(.., Udp, ..)` over `pool`'s mix,
    /// from `calls` calls.
    pub fn handle_packet_udp_ns(
        &mut self,
        pool: &Pool,
        tracer: &mut Tracer,
        parent: SpanId,
        calls: usize,
    ) -> f64 {
        timed(tracer, parent, "server.handle_packet_udp", calls, |i| {
            let handled = self.engine.handle_packet(
                std::hint::black_box(pool.payload((i % POOL) as u16)),
                TransportKind::Udp,
                &mut self.buf,
            );
            std::hint::black_box(handled.response);
        })
    }
}

/// Runs every replay on the recursive-like pool of `seed` and sets the
/// per-layer metrics.
pub fn replay_all(seed: u64, tracer: &mut Tracer, root: SpanId, report: &mut Report) {
    use std::hint::black_box;
    let layers = tracer.open("layers", root);
    let t = &mut *tracer;
    let pool = &Pool::generate(seed, Mix::recursive_like());

    // Fixtures, all derived from the seeded pool.
    let zone = test_domain_zone(&origin(), NS_COUNT);
    let mut engine = AnswerEngine::new(SITE, vec![zone.clone()]);
    let queries: Vec<Message> = (0..RING)
        .map(|i| Message::decode(pool.payload(i as u16)).expect("pool payload decodes"))
        .collect();
    let mut buf = Vec::with_capacity(2048);
    let replies: Vec<Vec<u8>> = (0..RING)
        .map(|i| {
            engine.handle_packet(pool.payload(i as u16), TransportKind::Udp, &mut buf);
            buf.clone()
        })
        .collect();
    let responses: Vec<Message> = replies
        .iter()
        .map(|r| Message::decode(r).expect("reply decodes"))
        .collect();
    let names_of = |kind: Kind| -> Vec<(Name, RType)> {
        pool.ids_of(kind, RING)
            .into_iter()
            .map(|id| {
                let q = Message::decode(pool.payload(id)).expect("pool payload decodes");
                let q = q.question().expect("one question");
                (q.qname.clone(), q.qtype)
            })
            .collect()
    };

    // proto
    let decode_query = timed(t, layers, "proto.decode_query", CALLS, |i| {
        black_box(Message::decode(black_box(pool.payload((i % POOL) as u16))).is_ok());
    });
    report.set("proto.decode_query_ns", decode_query);
    let v = timed(t, layers, "proto.decode_response", CALLS, |i| {
        black_box(Message::decode(black_box(&replies[i % RING])).is_ok());
    });
    report.set("proto.decode_response_ns", v);
    let v = timed(t, layers, "proto.encode_query", CALLS, |i| {
        queries[i % RING]
            .encode_into(&mut buf)
            .expect("query encodes");
        black_box(buf.len());
    });
    report.set("proto.encode_query_ns", v);
    let encode_response = timed(t, layers, "proto.encode_into_response", CALLS, |i| {
        responses[i % RING]
            .encode_into(&mut buf)
            .expect("response encodes");
        black_box(buf.len());
    });
    report.set("proto.encode_into_response_ns", encode_response);

    // zone: one kind at a time, then the workload's own mix for the
    // engine's self time.
    for (kind, metric, span) in [
        (
            Kind::ProbeTxt,
            "zone.lookup_wildcard_ns",
            "zone.lookup_wildcard",
        ),
        (Kind::GlueA, "zone.lookup_exact_ns", "zone.lookup_exact"),
        (Kind::ApexTxt, "zone.lookup_nodata_ns", "zone.lookup_nodata"),
    ] {
        let names = names_of(kind);
        let v = timed(t, layers, span, CALLS, |i| {
            let (name, qtype) = &names[i % names.len()];
            black_box(zone.lookup(black_box(name), *qtype));
        });
        report.set(metric, v);
    }
    let mixed: Vec<(Name, RType)> = queries
        .iter()
        .filter_map(|q| q.question().map(|q| (q.qname.clone(), q.qtype)))
        .filter(|(name, _)| name.is_subdomain_of(zone.origin()))
        .collect();
    let lookup_mix = timed(t, layers, "zone.lookup_mix", CALLS, |i| {
        let (name, qtype) = &mixed[i % mixed.len()];
        black_box(zone.lookup(black_box(name), *qtype));
    });

    // server
    let handle_udp = EngineReplay {
        engine,
        buf: Vec::with_capacity(2048),
    }
    .handle_packet_udp_ns(pool, t, layers, CALLS);
    report.set("server.handle_packet_udp_ns", handle_udp);
    report.set(
        "server.engine_self_ns",
        handle_udp - decode_query - lookup_mix - encode_response,
    );
    let padded = padded_test_domain_zone(&origin(), NS_COUNT, 900);
    let mut padded_engine = AnswerEngine::new(SITE, vec![padded])
        .with_truncation_policy(TruncationPolicy::symmetric(512));
    let probes = pool.ids_of(Kind::ProbeTxt, RING);
    let v = timed(t, layers, "server.handle_packet_tcp", CALLS / 2, |i| {
        let q = pool.payload(probes[i % probes.len()]);
        black_box(
            padded_engine
                .handle_packet(black_box(q), TransportKind::Tcp, &mut buf)
                .response,
        );
    });
    report.set("server.handle_packet_tcp_ns", v);
    // The truncating path: the whole ~1 kB answer is encoded, found
    // over the 512-byte ceiling, and replaced by an empty TC=1 reply.
    let v = timed(t, layers, "proto.encode_truncated_512", CALLS / 2, |i| {
        let q = pool.payload(probes[i % probes.len()]);
        black_box(
            padded_engine
                .handle_packet(black_box(q), TransportKind::Udp, &mut buf)
                .response,
        );
    });
    report.set("proto.encode_truncated_512_ns", v);
    let mut limiter = RateLimiter::new(RateLimitPolicy::default());
    let v = timed(t, layers, "server.rrl_verdict", CALLS, |i| {
        black_box(limiter.verdict((i % 1_024) as u64, false));
    });
    report.set("server.rrl_verdict_ns", v);

    // telemetry + metrics
    let trace_path = out_dir().join(format!("replay_{}.dwtrace", std::process::id()));
    let collector = Collector::start(
        CollectorConfig::new(&trace_path)
            .auths([SITE])
            .ring_capacity(1 << 16),
    )
    .expect("start collector");
    let producer = collector.producer();
    let v = timed(t, layers, "telemetry.record", CALLS, |i| {
        let mut ev = Event::new(EventKind::ServerQuery);
        ev.ts_ns = producer.now_ns();
        ev.client_hash = i as u64;
        ev.qname_hash = i as u32;
        ev.latency_ns = 42_000;
        ev.bytes_in = 64;
        ev.bytes_out = 128;
        black_box(producer.record(&ev));
    });
    report.set("telemetry.record_ns", v);
    drop(producer);
    collector.finish().expect("finish replay trace");
    let _ = std::fs::remove_file(&trace_path);

    let registry = Arc::new(Registry::new());
    let counter = registry.counter_with("bench_events_total", "replay counter", &[("k", "a")]);
    let hist = registry.histogram("bench_ns", "replay histogram");
    let spans = StageSpans::register(&registry);
    let v = timed(t, layers, "metrics.counter_hist_record", CALLS, |i| {
        counter.inc();
        hist.record((i as u64).wrapping_mul(4_097) & 0xfff_ffff);
    });
    report.set("metrics.counter_hist_record_ns", v);
    let mut on = StageClock::start(true);
    let v = timed(t, layers, "metrics.span_lap_enabled", CALLS, |_| {
        on.lap(Some(&spans), Stage::Engine)
    });
    report.set("metrics.span_lap_enabled_ns", v);
    let mut off = StageClock::start(false);
    let v = timed(t, layers, "metrics.span_lap_disabled", CALLS, |_| {
        off.lap(black_box(Some(&spans)), Stage::Engine)
    });
    report.set("metrics.span_lap_disabled_ns", v);

    // netio.tcp framing over an in-memory pipe
    let mut pipe = Vec::with_capacity(2048);
    let mut scratch = Vec::with_capacity(2048);
    let mut reader = FrameReader::new();
    let v = timed(t, layers, "netio.tcp.frame_codec", CALLS, |i| {
        pipe.clear();
        write_frame(&mut pipe, &replies[i % RING], &mut scratch).expect("frame fits");
        let frame = reader.read_frame(&mut &pipe[..]).expect("frame reads");
        black_box(frame.map(<[u8]>::len));
    });
    report.set("netio.tcp.frame_codec_ns", v);

    // cache: a resident set a tenth of the inserts, like a bounded
    // recursive under unique-name load.
    let name_n = |i: usize| origin().prepend(&format!("c{i:06}")).expect("short label");
    let record_for = |name: &Name| {
        vec![Record::new(
            name.clone(),
            3_600,
            RData::Txt(Txt::from_string("site=FRA").expect("short")),
        )]
    };
    let resident: Vec<Name> = (0..CALLS / 10).map(name_n).collect();
    let absent: Vec<Name> = (CALLS..CALLS + RING).map(name_n).collect();
    let mut cache = RecordCache::new();
    for name in &resident {
        cache.insert(
            name.clone(),
            RType::Txt,
            record_for(name),
            Rcode::NoError,
            300,
            CacheTime::ZERO,
        );
    }
    let v = timed(t, layers, "cache.get_hit", CALLS, |i| {
        black_box(
            cache
                .get(&resident[i % resident.len()], RType::Txt, CacheTime::ZERO)
                .is_some(),
        );
    });
    report.set("cache.get_hit_ns", v);
    let v = timed(t, layers, "cache.get_miss", CALLS, |i| {
        black_box(
            cache
                .get(&absent[i % RING], RType::Txt, CacheTime::ZERO)
                .is_some(),
        );
    });
    report.set("cache.get_miss_ns", v);
    for (metric, span, capacity) in [
        ("cache.insert_ns", "cache.insert", 0),
        ("cache.insert_evict_ns", "cache.insert_evict", CALLS / 10),
    ] {
        let mut fresh: Vec<Option<(Name, Vec<Record>)>> = (0..CALLS)
            .map(|i| {
                let name = name_n(i);
                let records = record_for(&name);
                Some((name, records))
            })
            .collect();
        let mut cache = RecordCache::with_config(CacheConfig {
            capacity,
            ..CacheConfig::default()
        });
        let v = timed(t, layers, span, CALLS, |i| {
            let (name, records) = fresh[i].take().expect("each input used once");
            cache.insert(
                name,
                RType::Txt,
                records,
                Rcode::NoError,
                300,
                CacheTime::ZERO,
            );
        });
        report.set(metric, v);
        if capacity > 0 {
            assert_eq!(
                cache.stats().evictions as usize,
                CALLS - capacity,
                "bounded cache must evict the overflow"
            );
        }
    }

    // resolver policy over two equally near servers
    let addrs: Vec<SimAddr> = (1..=2u8)
        .map(|i| SimAddr::from_ipv4(Ipv4Addr::new(10, 0, 0, i)).expect("10.x encodes"))
        .collect();
    let kind = PolicyKind::BindSrtt;
    let mut policy = kind.build();
    let mut infra = InfraCache::new(kind.default_infra_expiry(), kind.smoothing());
    let mut rng = DetRng::seed_from_u64(4);
    for &a in &addrs {
        infra.observe_rtt(a, SimDuration::from_millis(30), SimTime::from_micros(0));
    }
    let v = timed(t, layers, "resolver.policy_select", CALLS, |i| {
        let now = SimTime::from_micros(i as u64 * 20);
        black_box(policy.select(&addrs, &[], &mut infra, now, &mut rng));
    });
    report.set("resolver.policy_select_ns", v);
    let v = timed(t, layers, "resolver.infra_update", CALLS, |i| {
        // The infra cache's clock may not run backwards: carry on from
        // where the selection replay stopped.
        let now = SimTime::from_micros((CALLS + i) as u64 * 20);
        infra.observe_rtt(
            addrs[i % 2],
            SimDuration::from_micros(40 + (i % 50) as u64),
            now,
        );
    });
    report.set("resolver.infra_update_ns", v);

    report.set("netsim.event_ns", netsim_event_ns(t, layers));

    // Calibration: a fixed integer loop whose cost depends only on the
    // host, so rows from different machines can be normalised.
    let v = timed(t, layers, "calib.spin", CALLS / 4, |i| {
        let mut x = i as u64 | 1;
        for _ in 0..256 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    });
    report.set("calib.spin_ns", v);

    tracer.close(layers);
}

/// Writes the spans to `perfbench/out/trace_<workload>.json`, prints
/// per-name totals, and records how many spans there were.
pub fn finish_trace(tracer: &Tracer, workload: &str, report: &mut Report) {
    report.set("trace.spans", tracer.len() as f64);
    report.require(tracer.dropped() == 0, || {
        format!("span store overflowed: {} spans dropped", tracer.dropped())
    });
    for (name, totals) in tracer.totals() {
        if name != "batch" {
            println!(
                "{workload} span {name} count={} total_ns={} self_ns={}",
                totals.count, totals.total_ns, totals.self_ns
            );
        }
    }
    let path = out_dir().join(format!("trace_{workload}.json"));
    let file = std::fs::File::create(&path).expect("create trace file");
    let mut w = std::io::BufWriter::new(file);
    tracer.write_json(&mut w).expect("write trace file");
    std::io::Write::flush(&mut w).expect("flush trace file");
}
