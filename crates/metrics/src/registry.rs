//! The metric registry: named counters, gauges and histograms with
//! Prometheus-text rendering.
//!
//! Hot-path handles ([`Counter`], [`Gauge`], [`LogHistogram`]) are
//! `Arc`s handed out at registration time; recording through them never
//! touches the registry lock. The lock only guards the name→handle
//! table, taken on registration and on scrape — both rare.
//!
//! No serving, client, proxy or drain loop writes a registry counter:
//! each ledger lives with its owner and is mirrored in on read
//! ([`Registry::mirror_counters`]), so a [`Counter`]'s writers are the
//! mirror hooks, which run under their own lock, and the watchdog's
//! once-per-interval tick. One plain atomic is all that needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::counters::CounterSet;
use crate::LogHistogram;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The count so far.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value, stored as `f64` bits in one atomic word.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads the gauge.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The handle held by one registered metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// An instantaneous f64 gauge.
    Gauge(Arc<Gauge>),
    /// A log-bucketed value histogram.
    Histogram(Arc<LogHistogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    value: MetricValue,
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<Entry>,
    /// `(name, rendered labels)` → index into `entries`, so registering
    /// the same series twice hands back the same hot-path handle.
    index: BTreeMap<(String, String), usize>,
}

type ScrapeHook = Arc<dyn Fn() + Send + Sync>;

/// One registered scrape hook, handed back so the owner of a source that
/// stops changing can [`Registry::settle`] it; dropping it keeps the
/// hook for the registry's lifetime.
pub struct Hook(ScrapeHook);

/// Every series of one metric name, as `(label pairs, value)` rows —
/// the readback shape of [`Registry::counters`] / [`Registry::gauges`]
/// / [`Registry::histograms`].
pub type LabeledSeries<T> = Vec<(Vec<(String, String)>, T)>;

/// A process-wide table of named metrics.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    /// Callbacks run before every read of the registry ([`Registry::render`],
    /// [`Registry::counters`], [`Registry::gauges`]) — they refresh the
    /// series that mirror counters living elsewhere (the trace
    /// collector's books, the serving plane's shard cells).
    scrape_hooks: Mutex<Vec<ScrapeHook>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

fn label_key(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    for (k, v) in labels {
        let _ = write!(out, "{k}=\"{}\",", escape_label(v));
    }
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricValue,
    ) -> MetricValue {
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let key = (name.to_string(), label_key(&labels));
        let mut inner = self.inner.lock().unwrap();
        if let Some(&i) = inner.index.get(&key) {
            return inner.entries[i].value.clone();
        }
        let value = make();
        let i = inner.entries.len();
        inner.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            value: value.clone(),
        });
        inner.index.insert(key, i);
        value
    }

    /// Registers (or fetches) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or fetches) a counter with labels. Same `(name,
    /// labels)` always returns the same handle.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, || MetricValue::Counter(Arc::default())) {
            MetricValue::Counter(c) => c,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Registers (or fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or fetches) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, || MetricValue::Gauge(Arc::default())) {
            MetricValue::Gauge(g) => g,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Registers (or fetches) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<LogHistogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or fetches) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<LogHistogram> {
        match self.register(name, help, labels, || {
            MetricValue::Histogram(Arc::new(LogHistogram::new()))
        }) {
            MetricValue::Histogram(h) => h,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Runs `f` before every read of the registry — an HTTP scrape and
    /// an in-process reader (the watchdog) see the same freshness. `f`
    /// must not read the registry itself.
    pub fn on_scrape(&self, f: impl Fn() + Send + Sync + 'static) -> Hook {
        let hook: ScrapeHook = Arc::new(f);
        self.scrape_hooks.lock().unwrap().push(Arc::clone(&hook));
        Hook(hook)
    }

    /// Runs `hooks` one last time and unregisters them: the series they
    /// feed keep their final values, and the registry stops reading —
    /// and holding — their sources. For a source that has stopped
    /// changing, such as a finished run's cells, so that repeated runs
    /// against one registry do not pile up hooks.
    pub fn settle(&self, hooks: impl IntoIterator<Item = Hook>) {
        let hooks: Vec<Hook> = hooks.into_iter().collect();
        self.scrape_hooks.lock().unwrap().retain(|h| !hooks.iter().any(|s| Arc::ptr_eq(h, &s.0)));
        for Hook(h) in hooks {
            h();
        }
    }

    /// Feeds the counter family `name{labels.., kind=<label>}` — one
    /// series per field of `S` — from wherever those counters already
    /// live: before every read, each series is advanced by what `read`
    /// has grown since the previous one. The owner keeps writing its own
    /// cells only, so the exposition equals the owner's books by
    /// construction rather than by a second write on the hot path.
    pub fn mirror_counters<S: CounterSet<N>, const N: usize>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> S + Send + Sync + 'static,
    ) -> Hook {
        let series = S::LABELS.map(|kind| {
            let mut labels = labels.to_vec();
            labels.push(("kind", kind));
            self.counter_with(name, help, &labels)
        });
        // The lock serialises concurrent readers, so no growth is
        // published twice.
        let published = Mutex::new([0u64; N]);
        self.on_scrape(move || {
            let mut published = published.lock().unwrap();
            for ((series, seen), now) in series.iter().zip(published.iter_mut()).zip(read().values()) {
                advance(series, seen, now);
            }
        })
    }

    /// [`Registry::mirror_counters`] for one series `name{labels}` whose
    /// source is a single monotone count rather than a counter set.
    pub fn mirror_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) -> Hook {
        let series = self.counter_with(name, help, labels);
        let published = Mutex::new(0u64);
        self.on_scrape(move || advance(&series, &mut published.lock().unwrap(), read()))
    }

    fn run_scrape_hooks(&self) {
        let hooks: Vec<ScrapeHook> = self.scrape_hooks.lock().unwrap().clone();
        for h in &hooks {
            h();
        }
    }

    /// All counter series under `name` as `(labels, value)` pairs (after
    /// running the scrape hooks).
    pub fn counters(&self, name: &str) -> LabeledSeries<u64> {
        self.run_scrape_hooks();
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Counter(c) => Some((e.labels.clone(), c.value())),
                _ => None,
            })
            .collect()
    }

    /// All gauge series under `name` as `(labels, value)` pairs (after
    /// running the scrape hooks).
    pub fn gauges(&self, name: &str) -> LabeledSeries<f64> {
        self.run_scrape_hooks();
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Gauge(g) => Some((e.labels.clone(), g.value())),
                _ => None,
            })
            .collect()
    }

    /// All histogram series under `name` as `(labels, handle)` pairs.
    pub fn histograms(&self, name: &str) -> LabeledSeries<Arc<LogHistogram>> {
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                MetricValue::Histogram(h) => Some((e.labels.clone(), Arc::clone(h))),
                _ => None,
            })
            .collect()
    }

    /// Renders every metric in Prometheus text exposition format (after
    /// running the scrape hooks).
    pub fn render(&self) -> String {
        self.run_scrape_hooks();
        let inner = self.inner.lock().unwrap();
        // Group series by metric name (first-appearance order) so all
        // samples of one metric are contiguous under one HELP/TYPE pair,
        // as the exposition format requires.
        let mut names: Vec<&str> = Vec::new();
        for e in &inner.entries {
            if !names.contains(&e.name.as_str()) {
                names.push(&e.name);
            }
        }
        let mut out = String::new();
        for name in names {
            let group: Vec<&Entry> = inner.entries.iter().filter(|e| e.name == name).collect();
            let kind = match group[0].value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {name} {}", group[0].help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for e in group {
                let labels = render_labels(&e.labels);
                match &e.value {
                    MetricValue::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.value());
                    }
                    MetricValue::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.value());
                    }
                    MetricValue::Histogram(h) => render_histogram(&mut out, name, &e.labels, h),
                }
            }
        }
        out
    }
}

/// Adds to a mirrored `series` what its source grew since `seen`.
fn advance(series: &Counter, seen: &mut u64, now: u64) {
    if now > *seen {
        series.add(now - *seen);
        *seen = now;
    }
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &LogHistogram) {
    for (le, cum) in h.cumulative_le() {
        let mut l: Vec<(String, String)> = labels.to_vec();
        l.push(("le".to_string(), le.to_string()));
        let _ = writeln!(out, "{name}_bucket{} {cum}", render_labels(&l));
    }
    let mut l: Vec<(String, String)> = labels.to_vec();
    l.push(("le".to_string(), "+Inf".to_string()));
    let _ = writeln!(out, "{name}_bucket{} {}", render_labels(&l), h.count());
    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels), h.sum());
    let _ = writeln!(out, "{name}_count{} {}", render_labels(labels), h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("test_total", "a test counter");
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        c.add(5);
        assert_eq!(c.value(), 40_005);
        // Re-registration returns the same handle.
        assert_eq!(reg.counter("test_total", "a test counter").value(), 40_005);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::default();
        g.set(0.25);
        assert_eq!(g.value(), 0.25);
        g.set(-3.5);
        assert_eq!(g.value(), -3.5);
    }

    #[test]
    fn render_groups_series_and_runs_hooks() {
        let reg = Arc::new(Registry::new());
        let a = reg.counter_with("req_total", "requests", &[("auth", "FRA")]);
        let b = reg.counter_with("req_total", "requests", &[("auth", "AMS")]);
        let g = reg.gauge("up", "liveness");
        a.add(3);
        b.add(4);
        {
            let g = Arc::clone(&g);
            reg.on_scrape(move || g.set(1.0));
        }
        let text = reg.render();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{auth=\"FRA\"} 3"));
        assert!(text.contains("req_total{auth=\"AMS\"} 4"));
        assert!(text.contains("up 1"), "scrape hook must run before render: {text}");
        // HELP/TYPE emitted once per name even with two series.
        assert_eq!(text.matches("# TYPE req_total").count(), 1);
    }

    #[test]
    fn mirrored_counters_track_their_source_on_every_read() {
        crate::counter_set! {
            /// A ledger living outside the registry.
            struct Doors {
                /// In.
                entered => "in",
                /// Out.
                left => "out",
            }
        }
        let cell = Arc::new(crate::AtomicSet::<Doors, 2>::default());
        let reg = Registry::new();
        let source = Arc::clone(&cell);
        reg.mirror_counters("doors_total", "door events", &[("site", "FRA")], move || {
            source.snapshot()
        });
        let value = |kind: &str| {
            reg.counters("doors_total")
                .into_iter()
                .find(|(labels, _)| labels.contains(&("kind".into(), kind.into())))
                .map(|(labels, v)| {
                    assert_eq!(labels[0], ("site".to_string(), "FRA".to_string()));
                    v
                })
        };
        assert_eq!((value("in"), value("out")), (Some(0), Some(0)), "series exist at zero");
        cell.add(Doors { entered: 3, left: 1 });
        assert_eq!((value("in"), value("out")), (Some(3), Some(1)));
        // Reading twice publishes nothing twice; growth is picked up.
        cell.add(Doors { entered: 2, ..Default::default() });
        assert_eq!(value("in"), Some(5));
        assert!(reg.render().contains("doors_total{site=\"FRA\",kind=\"in\"} 5"));
        assert!(reg.render().contains("# TYPE doors_total counter"));
        // Two sources under one label set sum, like two writers did.
        reg.mirror_counters("doors_total", "door events", &[("site", "FRA")], || Doors {
            entered: 10,
            left: 0,
        });
        assert_eq!(value("in"), Some(15));
    }

    #[test]
    fn a_settled_hook_keeps_its_final_value_and_lets_go_of_its_source() {
        let cell = Arc::new(AtomicU64::new(0));
        let reg = Registry::new();
        let source = Arc::clone(&cell);
        let hook =
            reg.mirror_counter("runs_total", "runs", &[], move || source.load(Ordering::Relaxed));
        cell.store(4, Ordering::Relaxed);
        reg.settle([hook]);
        cell.store(9, Ordering::Relaxed);
        assert_eq!(reg.counters("runs_total")[0].1, 4, "settled at the source's last value");
        assert_eq!(Arc::strong_count(&cell), 1, "the registry no longer holds the source");
    }

    #[test]
    fn series_readback_by_name() {
        let reg = Registry::new();
        reg.counter_with("x_total", "x", &[("k", "a")]).add(7);
        reg.gauge_with("y", "y", &[("k", "b")]).set(2.5);
        let cs = reg.counters("x_total");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].1, 7);
        assert_eq!(cs[0].0[0], ("k".to_string(), "a".to_string()));
        let gs = reg.gauges("y");
        assert_eq!(gs[0].1, 2.5);
        assert!(reg.counters("y").is_empty(), "kind filter holds");
    }
}
