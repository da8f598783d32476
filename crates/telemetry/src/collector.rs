//! The collector: owns the trace file, hands out per-worker producers,
//! and runs the drain thread that moves events from the SPSC rings into
//! the trace. The trace is the one journey store: per-query timelines,
//! slowest and failed journeys alike, are read back from it (`dnswild
//! explain`), never kept a second time here.
//!
//! Producers register dynamically (chaos-proxy sessions spawn threads
//! on demand), so the ring list sits behind a mutex — but that mutex is
//! only touched at registration and by the drain sweep, never on the
//! per-event path.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::event::{EventKind, TraceEvent};
use crate::ring::SpscRing;
use crate::trace::TraceWriter;

/// How the collector is wired up; start one with [`Collector::start`].
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Trace file path (created/truncated).
    pub path: PathBuf,
    /// Auth/site codes written into the trace's auth table; events
    /// reference them by index (`auth_id`).
    pub auths: Vec<String>,
    /// Per-producer ring capacity (rounded up to a power of two). The
    /// default of 8192 gives a worker ~160k events/s of headroom per
    /// 50 ms drain interval — well above what the serving plane
    /// reaches on one host.
    pub ring_capacity: usize,
    /// How often the drain thread sweeps the rings.
    pub drain_interval: Duration,
}

impl CollectorConfig {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CollectorConfig {
            path: path.into(),
            auths: Vec::new(),
            ring_capacity: 8192,
            // Sparse on purpose: every drain wakeup preempts a worker
            // on small hosts, so the sweep cadence trades snapshot
            // freshness for hot-path quiet. 50 ms keeps the traced
            // throughput within a few percent of untraced.
            drain_interval: Duration::from_millis(50),
        }
    }

    pub fn auths<I, S>(mut self, auths: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.auths = auths.into_iter().map(Into::into).collect();
        self
    }

    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    pub fn drain_interval(mut self, interval: Duration) -> Self {
        self.drain_interval = interval;
        self
    }
}

dnswild_ledger::counter_set! {
    /// The collector's books: what the trace holds and what the rings
    /// dropped. [`Collector::finish`] returns the final ones and
    /// [`Collector::snapshot`] the live ones; the labels are the `kind`s
    /// of the scraped `dnswild_trace_events_total`. What the events
    /// *say* (queries, answers, cache and limiter outcomes) is counted
    /// by its owner, not here.
    pub struct TraceSummary {
        /// Events drained into the trace.
        events => "events",
        /// Events dropped because their ring was full.
        overflow => "overflow",
    }
}

struct Shared {
    rings: Mutex<Vec<Arc<SpscRing>>>,
    stop: AtomicBool,
    /// Events drained so far; the drain thread is the only writer.
    events: AtomicU64,
    /// Worst `ClientQuery` latency drained so far.
    journey_slowest_ns: AtomicU64,
    /// Overflow carried over from retired rings (producer dropped,
    /// backlog fully drained), so the footer never loses drops.
    retired_overflow: AtomicU64,
    /// Wakes the drain thread out of its inter-sweep wait so `finish`
    /// returns promptly regardless of the configured interval.
    wake_lock: Mutex<()>,
    wake_cv: Condvar,
}

impl Shared {
    /// Sum of overflow counters across every live ring plus what
    /// retired rings left behind. Rings retire under the list lock, so
    /// reading both under it counts each ring exactly once and the total
    /// never goes backwards.
    fn total_overflow(&self) -> u64 {
        let rings = self.rings.lock().unwrap();
        self.retired_overflow.load(Ordering::Relaxed)
            + rings.iter().map(|r| r.overflow()).sum::<u64>()
    }
}

/// A collector's timestamp base, copied out of a [`Producer`] so a
/// thread that shares one behind a lock can stamp events without
/// taking it.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    epoch: Instant,
}

impl TraceClock {
    /// Nanoseconds since the collector started (event timestamp base).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Hot-path handle: one per worker thread. Recording is two atomic
/// loads, five stores, and one store — or a counter bump on overflow.
pub struct Producer {
    ring: Arc<SpscRing>,
    clock: TraceClock,
}

impl Producer {
    /// Nanoseconds since the collector started (event timestamp base).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// This producer's timestamp base.
    pub fn clock(&self) -> TraceClock {
        self.clock
    }

    /// Record one event; returns `false` if the ring was full (the
    /// drop has been counted — nothing else to do).
    pub fn record(&self, ev: &TraceEvent) -> bool {
        self.ring.push(ev)
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // Let the drain thread retire this ring once it has swept the
        // remaining backlog — long-lived collectors (benches, chaos
        // proxies spawning sessions) must not accumulate dead rings.
        self.ring.abandon();
    }
}

/// The drain thread's join handle; it reports the final books.
type DrainHandle = thread::JoinHandle<io::Result<TraceSummary>>;

pub struct Collector {
    shared: Arc<Shared>,
    epoch: Instant,
    ring_capacity: usize,
    drain: Mutex<Option<DrainHandle>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("ring_capacity", &self.ring_capacity)
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Open the trace file, write its header, and start the drain
    /// thread.
    pub fn start(config: CollectorConfig) -> io::Result<Collector> {
        let writer = TraceWriter::create(&config.path, &config.auths)?;
        let shared = Arc::new(Shared {
            rings: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            events: AtomicU64::new(0),
            journey_slowest_ns: AtomicU64::new(0),
            retired_overflow: AtomicU64::new(0),
            wake_lock: Mutex::new(()),
            wake_cv: Condvar::new(),
        });
        let drain_shared = Arc::clone(&shared);
        let interval = config.drain_interval;
        let handle = thread::Builder::new()
            .name("dnswild-telemetry-drain".into())
            .spawn(move || drain_loop(drain_shared, writer, interval))
            .expect("spawn telemetry drain thread");
        Ok(Collector {
            shared,
            epoch: Instant::now(),
            ring_capacity: config.ring_capacity,
            drain: Mutex::new(Some(handle)),
        })
    }

    /// Register a new producer ring (configured capacity). Producers
    /// registered at any time share the collector's epoch, so their
    /// timestamps are comparable. Stop all producers *before* calling
    /// [`Collector::finish`]; events pushed after the final sweep are
    /// not written.
    pub fn producer(&self) -> Producer {
        let ring = Arc::new(SpscRing::new(self.ring_capacity));
        self.shared.rings.lock().unwrap().push(Arc::clone(&ring));
        Producer { ring, clock: TraceClock { epoch: self.epoch } }
    }

    /// Number of live producer rings (dropped producers are retired by
    /// the drain thread once their backlog is swept). Tests and stats.
    pub fn ring_count(&self) -> usize {
        self.shared.rings.lock().unwrap().len()
    }

    /// Live books: drained events only — the gap to the rings is at
    /// most one drain interval's worth — but ring overflow as the rings
    /// count it now, so a drop is visible before the next sweep.
    pub fn snapshot(&self) -> TraceSummary {
        TraceSummary {
            events: self.shared.events.load(Ordering::Relaxed),
            overflow: self.shared.total_overflow(),
        }
    }

    /// Worst `ClientQuery` latency drained so far (exemplar): `explain
    /// <trace> --slowest 1` prints that journey's timeline.
    pub fn journey_slowest_ns(&self) -> u64 {
        self.shared.journey_slowest_ns.load(Ordering::Relaxed)
    }

    /// Stop the drain thread, drain whatever is left in the rings,
    /// write the trace footer, and return the totals.
    pub fn finish(&self) -> io::Result<TraceSummary> {
        let handle = self
            .drain
            .lock()
            .unwrap()
            .take()
            .ok_or_else(|| io::Error::other("collector already finished"))?;
        self.shared.stop.store(true, Ordering::Release);
        // Notify under the wake lock so the drain thread cannot check
        // `stop` and then miss the wakeup while entering its wait.
        {
            let _guard = self.shared.wake_lock.lock().unwrap();
            self.shared.wake_cv.notify_all();
        }
        handle.join().map_err(|_| io::Error::other("telemetry drain thread panicked"))?
    }
}

fn drain_loop(
    shared: Arc<Shared>,
    mut writer: TraceWriter<std::io::BufWriter<std::fs::File>>,
    interval: Duration,
) -> io::Result<TraceSummary> {
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        // Snapshot the ring list, then sweep without holding the lock
        // so registration never contends with producers.
        let rings: Vec<Arc<SpscRing>> = shared.rings.lock().unwrap().clone();
        let mut slowest_ns = 0;
        for ring in &rings {
            while let Some(ev) = ring.pop() {
                writer.write_event(&ev)?;
                if ev.kind == EventKind::ClientQuery {
                    slowest_ns = slowest_ns.max(u64::from(ev.latency_ns));
                }
            }
        }
        // Retire rings whose producer is gone and whose backlog the
        // sweep above fully drained: abandoned + empty can never grow
        // again. Their overflow moves into the retired counter so the
        // footer keeps accounting for every drop.
        if rings.iter().any(|r| r.is_abandoned() && r.is_empty()) {
            shared.rings.lock().unwrap().retain(|r| {
                if r.is_abandoned() && r.is_empty() {
                    shared.retired_overflow.fetch_add(r.overflow(), Ordering::Relaxed);
                    false
                } else {
                    true
                }
            });
        }
        let events = writer.events_written();
        shared.events.store(events, Ordering::Relaxed);
        shared.journey_slowest_ns.fetch_max(slowest_ns, Ordering::Relaxed);
        if stopping {
            // One final sweep happened above (stop was read before the
            // sweep), so every event pushed before `finish` is in.
            let overflow = shared.total_overflow();
            writer.finish(overflow)?;
            return Ok(TraceSummary { events, overflow });
        }
        // Always wait out the interval between sweeps — each sweep
        // empties the rings entirely, so pacing costs nothing, and a
        // free-running loop would eat a whole core under sustained
        // traffic (on a single-core host that starves the very workers
        // being traced). `finish` interrupts the wait via the condvar.
        let guard = shared.wake_lock.lock().unwrap();
        if !shared.stop.load(Ordering::Acquire) {
            drop(shared.wake_cv.wait_timeout(guard, interval));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FLAG_RESPONSE, RCODE_NONE};
    use crate::trace::Trace;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dnswild-telemetry-{name}-{}.dwt", std::process::id()));
        p
    }

    fn server_event(p: &Producer, i: u32, answered: bool) -> TraceEvent {
        let mut ev = TraceEvent::new(EventKind::ServerQuery);
        ev.ts_ns = p.now_ns();
        ev.qname_hash = i;
        ev.latency_ns = 1_000 + i;
        ev.flags = if answered { FLAG_RESPONSE } else { 0 };
        ev.rcode = if answered { 0 } else { RCODE_NONE };
        ev
    }

    #[test]
    fn trace_summary_covers_every_field() {
        dnswild_ledger::assert_counter_set_covers_every_field::<TraceSummary, 2>();
    }

    #[test]
    fn collects_from_multiple_producers_into_one_trace() {
        let path = temp_path("multi");
        let collector =
            Collector::start(CollectorConfig::new(&path).auths(["FRA", "GRU"])).unwrap();
        let threads: Vec<_> = (0..3)
            .map(|t| {
                let p = collector.producer();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        assert!(p.record(&server_event(&p, t * 1000 + i, i % 4 != 0)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let summary = collector.finish().unwrap();
        assert_eq!(summary.events, 1500);
        assert_eq!(summary.overflow, 0);
        let trace = Trace::read_from(&path).unwrap();
        assert_eq!(trace.events.len(), 1500);
        assert_eq!(trace.overflow, 0);
        assert_eq!(trace.auths, vec!["FRA", "GRU"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_counters_and_slowest_client_rtt_track_events() {
        let path = temp_path("snap");
        let collector = Collector::start(CollectorConfig::new(&path).auths(["FRA"])).unwrap();
        let p = collector.producer();
        for i in 0..100u32 {
            p.record(&server_event(&p, i, i < 90));
        }
        // Only client attempts set the slowest-RTT gauge: the server
        // events above carry larger latencies than this one.
        let mut client = TraceEvent::new(EventKind::ClientQuery);
        client.latency_ns = 500;
        p.record(&client);
        // Wait for the drain thread to catch up, then check the books.
        let deadline = Instant::now() + Duration::from_secs(5);
        while collector.snapshot().events < 101 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(collector.snapshot(), TraceSummary { events: 101, overflow: 0 });
        assert_eq!(collector.journey_slowest_ns(), 500);
        let summary = collector.finish().unwrap();
        assert_eq!(summary, collector.snapshot(), "the live books end as the footer");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflow_is_counted_and_lands_in_the_footer() {
        let path = temp_path("overflow");
        // Long drain interval + tiny ring: pushes outrun the drain.
        let config = CollectorConfig::new(&path)
            .auths(["FRA"])
            .ring_capacity(8)
            .drain_interval(Duration::from_secs(3600));
        let collector = Collector::start(config).unwrap();
        let p = collector.producer();
        let mut dropped = 0;
        for i in 0..64u32 {
            if !p.record(&server_event(&p, i, true)) {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "tiny ring never overflowed");
        let summary = collector.finish().unwrap();
        assert_eq!(summary.events + summary.overflow, 64);
        let trace = Trace::read_from(&path).unwrap();
        assert_eq!(trace.overflow, summary.overflow);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_producers_retire_their_rings_but_keep_their_overflow() {
        let path = temp_path("retire");
        let config = CollectorConfig::new(&path)
            .auths(["FRA"])
            .ring_capacity(8)
            .drain_interval(Duration::from_millis(100));
        let collector = Collector::start(config).unwrap();
        {
            let p = collector.producer();
            assert_eq!(collector.ring_count(), 1);
            for i in 0..64u32 {
                // Some of these overflow the 8-slot ring; the retired
                // ring's drop count must still reach the footer.
                p.record(&server_event(&p, i, true));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while collector.ring_count() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(collector.ring_count(), 0, "abandoned ring never retired");
        let summary = collector.finish().unwrap();
        assert_eq!(summary.events + summary.overflow, 64, "retired overflow lost");
        let trace = Trace::read_from(&path).unwrap();
        assert_eq!(trace.overflow, summary.overflow);
        assert_eq!(trace.events.len() as u64, summary.events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_twice_errors() {
        let path = temp_path("twice");
        let collector = Collector::start(CollectorConfig::new(&path)).unwrap();
        collector.finish().unwrap();
        assert!(collector.finish().is_err());
        std::fs::remove_file(&path).ok();
    }
}
