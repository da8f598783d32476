//! The SLO watchdog: re-evaluates the paper's laws as live invariants
//! over the registry.
//!
//! * **Share vs. 1/SRTT** (Fig 3, §4.2): each authoritative's share of
//!   client attempts should track the 1/SRTT-proportional expectation.
//!   The law only *predicts* a sharp split when the SRTTs actually
//!   differ, so the breach condition is gated on the observed SRTT
//!   spread (`SRTT_SPREAD_MIN`) and a minimum sample count; the raw
//!   deviation gauge is always exposed.
//! * **All-auth coverage** (Fig 2, §4.1): recursives keep probing every
//!   authoritative; the fraction of known auths with at least one
//!   attempt should stay at 1.
//! * **SERVFAIL/give-up rate** and **ring overflow**: operational
//!   health of the client plane and the telemetry capture.
//!
//! Breach state is exposed as gauges (so it scrapes like everything
//! else) and emitted as rate-limited structured JSONL lines on stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::registry::{Gauge, LabeledSeries, Registry};

/// Input metric names the watchdog reads. Kept here so the wiring code
/// and the watchdog cannot drift apart.
pub mod inputs {
    /// Per-auth client attempt counter (label `auth`).
    pub const ATTEMPTS: &str = "dnswild_client_attempts_total";
    /// Per-auth smoothed RTT gauge in milliseconds (label `auth`).
    pub const SRTT_MS: &str = "dnswild_client_srtt_ms";
    /// The resolver client's ledger (label `kind`, one series per
    /// `ClientStats` field). The SERVFAIL law reads the `txns` and
    /// `servfail` kinds.
    pub const CLIENT_EVENTS: &str = "dnswild_client_events_total";
    /// The trace collector's books (label `kind`: `events` and
    /// `overflow`, one series per `TraceSummary` field). The overflow
    /// law reads the `overflow` kind.
    pub const TRACE_EVENTS: &str = "dnswild_trace_events_total";
    /// Per-auth server outcome counters (labels `auth`, `kind`). The
    /// attack-pressure law reads the `queries`, `rrl_dropped` and
    /// `rrl_slipped` kinds — the same single-source-of-truth series the
    /// serving plane's scrape-equality gate pins.
    pub const SERVER_EVENTS: &str = "dnswild_server_events_total";
}

/// The sum of `kind` over every series of a `{…, kind}` family.
fn kind_total(series: &LabeledSeries<u64>, kind: &str) -> u64 {
    series
        .iter()
        .filter(|(labels, _)| labels.iter().any(|(k, v)| k == "kind" && v == kind))
        .map(|(_, n)| n)
        .sum()
}

// The laws' thresholds. Every program runs the watchdog with these, so
// they are constants rather than settings.

/// Evaluation period.
const INTERVAL: Duration = Duration::from_millis(500);
/// Max allowed |actual − expected| per-auth share deviation.
const SHARE_TOLERANCE: f64 = 0.25;
/// Attempts across all auths before the share law is judged.
const MIN_SHARE_SAMPLES: u64 = 200;
/// Minimum `srtt_max / srtt_min` before the share law is judged — with
/// near-equal SRTTs the 1/SRTT law predicts nothing sharp.
const SRTT_SPREAD_MIN: f64 = 2.0;
/// Minimum covered-auth fraction.
const COVERAGE_MIN: f64 = 0.99;
/// Max SERVFAIL/give-up fraction of finished transactions.
const SERVFAIL_RATE_MAX: f64 = 0.05;
/// Transactions before coverage and SERVFAIL laws are judged.
const MIN_TXN_SAMPLES: u64 = 100;
/// Max fraction of server queries the rate limiter may intervene on
/// (drop or slip) before the attack-pressure law breaches — under
/// legitimate closed-loop load the limiter should be all but idle.
const ATTACK_RATE_MAX: f64 = 0.02;
/// Server queries before the attack-pressure law is judged.
const MIN_ATTACK_SAMPLES: u64 = 100;
/// Per-law floor between two JSONL breach lines.
const LOG_EVERY: Duration = Duration::from_secs(5);

/// One evaluation's verdicts (also mirrored into gauges).
#[derive(Debug, Clone, Copy, Default)]
pub struct WatchdogReport {
    /// Max per-auth |actual − expected| share deviation (0 when the law
    /// has nothing to judge yet).
    pub share_dev: f64,
    /// Whether the share law was actually judged (enough samples and
    /// SRTT spread).
    pub share_judged: bool,
    /// Share law breached.
    pub share_breach: bool,
    /// Covered-auth fraction (1 when no auths are known yet).
    pub coverage: f64,
    /// Coverage law breached.
    pub coverage_breach: bool,
    /// SERVFAIL fraction of finished transactions.
    pub servfail_rate: f64,
    /// SERVFAIL law breached.
    pub servfail_breach: bool,
    /// Telemetry ring-overflow count.
    pub overflow: f64,
    /// Overflow law breached.
    pub overflow_breach: bool,
    /// Fraction of server queries the rate limiter dropped or slipped.
    pub attack_rate: f64,
    /// Attack-pressure law breached — the serving plane is actively
    /// shedding a flood.
    pub attack_breach: bool,
}

impl WatchdogReport {
    /// True when no law is in breach.
    pub fn healthy(&self) -> bool {
        !(self.share_breach
            || self.coverage_breach
            || self.servfail_breach
            || self.overflow_breach
            || self.attack_breach)
    }
}

struct OutputGauges {
    share_dev: Arc<Gauge>,
    share_breach: Arc<Gauge>,
    coverage: Arc<Gauge>,
    coverage_breach: Arc<Gauge>,
    servfail_rate: Arc<Gauge>,
    servfail_breach: Arc<Gauge>,
    overflow_breach: Arc<Gauge>,
    attack_rate: Arc<Gauge>,
    attack_breach: Arc<Gauge>,
}

/// The evaluator. Create with [`Watchdog::new`], then either drive it
/// manually with [`Watchdog::eval_now`] or let [`Watchdog::spawn`] run
/// it on its own thread.
pub struct Watchdog {
    registry: Arc<Registry>,
    out: OutputGauges,
    evals: Arc<crate::registry::Counter>,
    /// Per-law instant of the last JSONL line, for rate limiting.
    last_log: Mutex<[Option<Instant>; 5]>,
}

impl Watchdog {
    /// Registers the breach gauges on `registry` and returns the
    /// evaluator.
    pub fn new(registry: Arc<Registry>) -> Watchdog {
        let g = |name: &str, help: &str| registry.gauge(name, help);
        let out = OutputGauges {
            share_dev: g(
                "dnswild_watchdog_share_dev",
                "max per-auth |actual - 1/SRTT-expected| share deviation",
            ),
            share_breach: g(
                "dnswild_watchdog_share_breach",
                "1 when the share-vs-1/SRTT law is breached",
            ),
            coverage: g("dnswild_watchdog_coverage", "fraction of known auths with attempts"),
            coverage_breach: g(
                "dnswild_watchdog_coverage_breach",
                "1 when the all-auth coverage law is breached",
            ),
            servfail_rate: g(
                "dnswild_watchdog_servfail_rate",
                "SERVFAIL/give-up fraction of finished transactions",
            ),
            servfail_breach: g(
                "dnswild_watchdog_servfail_breach",
                "1 when the SERVFAIL-rate law is breached",
            ),
            overflow_breach: g(
                "dnswild_watchdog_overflow_breach",
                "1 when telemetry rings have dropped events",
            ),
            attack_rate: g(
                "dnswild_watchdog_attack_rate",
                "fraction of server queries dropped or slipped by the rate limiter",
            ),
            attack_breach: g(
                "dnswild_watchdog_attack_breach",
                "1 when the attack-pressure law is breached (the serving plane is shedding)",
            ),
        };
        let evals = registry.counter("dnswild_watchdog_evals_total", "watchdog evaluations run");
        Watchdog { registry, out, evals, last_log: Mutex::new([None; 5]) }
    }

    /// Runs one evaluation: reads the input metrics, updates the breach
    /// gauges, emits rate-limited JSONL for fresh breaches, and returns
    /// the verdicts.
    pub fn eval_now(&self) -> WatchdogReport {
        let mut r = WatchdogReport { coverage: 1.0, ..Default::default() };

        // Share vs 1/SRTT over auths that have both an attempt counter
        // and an SRTT estimate.
        let attempts = self.registry.counters(inputs::ATTEMPTS);
        let srtts = self.registry.gauges(inputs::SRTT_MS);
        let mut pairs: Vec<(u64, f64)> = Vec::new();
        for (labels, n) in &attempts {
            let auth = labels.iter().find(|(k, _)| k == "auth").map(|(_, v)| v.as_str());
            if let Some(srtt) = srtts
                .iter()
                .find(|(l, _)| l.iter().any(|(k, v)| k == "auth" && Some(v.as_str()) == auth))
                .map(|(_, v)| *v)
            {
                if srtt.is_finite() && srtt > 0.0 {
                    pairs.push((*n, srtt));
                }
            }
        }
        if pairs.len() >= 2 {
            let total: u64 = pairs.iter().map(|(n, _)| n).sum();
            let inv_sum: f64 = pairs.iter().map(|(_, s)| 1.0 / s).sum();
            if total > 0 && inv_sum > 0.0 {
                r.share_dev = pairs
                    .iter()
                    .map(|&(n, s)| {
                        let actual = n as f64 / total as f64;
                        let expected = (1.0 / s) / inv_sum;
                        (actual - expected).abs()
                    })
                    .fold(0.0, f64::max);
                let spread = pairs.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max)
                    / pairs.iter().map(|&(_, s)| s).fold(f64::MAX, f64::min);
                r.share_judged = total >= MIN_SHARE_SAMPLES && spread >= SRTT_SPREAD_MIN;
                r.share_breach = r.share_judged && r.share_dev > SHARE_TOLERANCE;
            }
        }

        // Coverage: every known auth (one with an SRTT entry) keeps
        // receiving attempts.
        let client = self.registry.counters(inputs::CLIENT_EVENTS);
        let txns = kind_total(&client, "txns");
        if !attempts.is_empty() {
            let covered = attempts.iter().filter(|(_, n)| *n > 0).count();
            r.coverage = covered as f64 / attempts.len() as f64;
            r.coverage_breach = txns >= MIN_TXN_SAMPLES && r.coverage < COVERAGE_MIN;
        }

        // SERVFAIL/give-up rate over finished transactions.
        let servfails = kind_total(&client, "servfail");
        if txns > 0 {
            r.servfail_rate = servfails as f64 / txns as f64;
            r.servfail_breach = txns >= MIN_TXN_SAMPLES && r.servfail_rate > SERVFAIL_RATE_MAX;
        }

        // Telemetry ring overflow: any drop is a capture-integrity loss.
        r.overflow = kind_total(&self.registry.counters(inputs::TRACE_EVENTS), "overflow") as f64;
        r.overflow_breach = r.overflow > 0.0;

        // Attack pressure: the share of server queries the rate limiter
        // intervened on, summed across auths. Breaching here is the
        // *defense working* — the gate pairs it with the goodput laws
        // above staying green for legitimate clients.
        let server = self.registry.counters(inputs::SERVER_EVENTS);
        let server_queries = kind_total(&server, "queries");
        let limited = kind_total(&server, "rrl_dropped") + kind_total(&server, "rrl_slipped");
        if server_queries > 0 {
            r.attack_rate = limited as f64 / server_queries as f64;
            r.attack_breach =
                server_queries >= MIN_ATTACK_SAMPLES && r.attack_rate > ATTACK_RATE_MAX;
        }

        self.out.share_dev.set(r.share_dev);
        self.out.share_breach.set(f64::from(r.share_breach));
        self.out.coverage.set(r.coverage);
        self.out.coverage_breach.set(f64::from(r.coverage_breach));
        self.out.servfail_rate.set(r.servfail_rate);
        self.out.servfail_breach.set(f64::from(r.servfail_breach));
        self.out.overflow_breach.set(f64::from(r.overflow_breach));
        self.out.attack_rate.set(r.attack_rate);
        self.out.attack_breach.set(f64::from(r.attack_breach));
        self.evals.inc();

        for (law, breached, detail) in [
            (0usize, r.share_breach, format!("\"dev\":{:.4},\"tolerance\":{}", r.share_dev, SHARE_TOLERANCE)),
            (1, r.coverage_breach, format!("\"coverage\":{:.4},\"min\":{}", r.coverage, COVERAGE_MIN)),
            (2, r.servfail_breach, format!("\"rate\":{:.4},\"max\":{}", r.servfail_rate, SERVFAIL_RATE_MAX)),
            (3, r.overflow_breach, format!("\"overflow\":{}", r.overflow)),
            (4, r.attack_breach, format!("\"rate\":{:.4},\"max\":{}", r.attack_rate, ATTACK_RATE_MAX)),
        ] {
            if breached {
                self.log_breach(law, &detail);
            }
        }
        r
    }

    /// One JSONL line per law per `LOG_EVERY`, on stderr.
    fn log_breach(&self, law: usize, detail: &str) {
        let mut last = self.last_log.lock().unwrap();
        let now = Instant::now();
        if last[law].is_some_and(|t| now.duration_since(t) < LOG_EVERY) {
            return;
        }
        last[law] = Some(now);
        let name =
            ["share_vs_srtt", "coverage", "servfail_rate", "ring_overflow", "attack_pressure"][law];
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        eprintln!("{{\"ts_ms\":{ts_ms},\"watchdog\":\"{name}\",\"breach\":true,{detail}}}");
    }

    /// Runs the evaluator on a background thread, one evaluation per
    /// `INTERVAL`, until the handle is shut down. The thread parks
    /// between evaluations, so a shutdown wakes it instead of waiting
    /// out the interval.
    pub fn spawn(self) -> std::io::Result<WatchdogHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let watchdog = Arc::new(self);
        let thread = {
            let stop = Arc::clone(&stop);
            let wd = Arc::clone(&watchdog);
            std::thread::Builder::new().name("metrics-watchdog".into()).spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    wd.eval_now();
                    std::thread::park_timeout(INTERVAL);
                }
            })?
        };
        Ok(WatchdogHandle { watchdog, stop, thread: Some(thread) })
    }
}

/// A running watchdog thread.
pub struct WatchdogHandle {
    watchdog: Arc<Watchdog>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl WatchdogHandle {
    /// Stops the thread, runs one final synchronous evaluation (so a
    /// caller that just finished a workload judges its end state, not a
    /// half-second-old one) and returns its verdicts.
    pub fn shutdown(mut self) -> WatchdogReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
        self.watchdog.eval_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(attempts: &[(&str, u64)], srtt: &[(&str, f64)]) -> (Arc<Registry>, Watchdog) {
        let reg = Arc::new(Registry::new());
        for (auth, n) in attempts {
            reg.counter_with(inputs::ATTEMPTS, "t", &[("auth", auth)]).add(*n);
        }
        for (auth, s) in srtt {
            reg.gauge_with(inputs::SRTT_MS, "t", &[("auth", auth)]).set(*s);
        }
        let wd = Watchdog::new(Arc::clone(&reg));
        (reg, wd)
    }

    #[test]
    fn share_tracking_srtt_is_healthy() {
        // 10ms vs 30ms SRTT → expected shares 0.75/0.25; actual 0.72/0.28.
        let (reg, wd) = fixture(&[("a", 720), ("b", 280)], &[("a", 10.0), ("b", 30.0)]);
        reg.counter_with(inputs::CLIENT_EVENTS, "t", &[("kind", "txns")]).add(1000);
        let r = wd.eval_now();
        assert!(r.share_judged);
        assert!(!r.share_breach, "dev {} should be in tolerance", r.share_dev);
        assert!(r.healthy());
        assert_eq!(reg.gauges("dnswild_watchdog_share_breach")[0].1, 0.0);
    }

    #[test]
    fn inverted_share_breaches_and_logs_breach_gauge() {
        // Slow server hogging the traffic: actual 0.9 where 1/SRTT says 0.25.
        let (reg, wd) = fixture(&[("slow", 900), ("fast", 100)], &[("slow", 30.0), ("fast", 10.0)]);
        let r = wd.eval_now();
        assert!(r.share_judged && r.share_breach, "dev={}", r.share_dev);
        assert!(!r.healthy());
        assert_eq!(reg.gauges("dnswild_watchdog_share_breach")[0].1, 1.0);
    }

    #[test]
    fn near_equal_srtts_make_the_share_law_vacuous() {
        // A skewed split over ~equal SRTTs must not breach: the law
        // predicts nothing sharp without RTT spread.
        let (_, wd) = fixture(&[("a", 900), ("b", 100)], &[("a", 10.0), ("b", 11.0)]);
        let r = wd.eval_now();
        assert!(!r.share_judged);
        assert!(!r.share_breach);
        assert!(r.share_dev > 0.3, "deviation still exposed: {}", r.share_dev);
    }

    #[test]
    fn few_samples_defer_judgement() {
        let (_, wd) = fixture(&[("a", 9), ("b", 1)], &[("a", 10.0), ("b", 100.0)]);
        let r = wd.eval_now();
        assert!(!r.share_judged && !r.share_breach);
    }

    #[test]
    fn coverage_servfail_and_overflow_laws() {
        let (reg, wd) = fixture(&[("a", 500), ("b", 0)], &[("a", 10.0), ("b", 10.0)]);
        reg.counter_with(inputs::CLIENT_EVENTS, "t", &[("kind", "txns")]).add(500);
        reg.counter_with(inputs::CLIENT_EVENTS, "t", &[("kind", "servfail")]).add(100);
        reg.counter_with(inputs::TRACE_EVENTS, "t", &[("kind", "overflow")]).add(3);
        let r = wd.eval_now();
        assert!(r.coverage_breach, "auth b starved: coverage {}", r.coverage);
        assert!(r.servfail_breach, "rate {}", r.servfail_rate);
        assert!(r.overflow_breach);
        assert_eq!(reg.gauges("dnswild_watchdog_coverage")[0].1, 0.5);
        assert!(reg.counters("dnswild_watchdog_evals_total")[0].1 >= 1);
    }

    #[test]
    fn hook_fed_inputs_are_judged_without_anyone_scraping() {
        // The overflow series (like the server-events series) is only
        // refreshed by a scrape hook. A watchdog on a registry nobody
        // scrapes must still see the live value.
        let (reg, wd) = fixture(&[], &[]);
        let drops = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let source = Arc::clone(&drops);
        reg.mirror_counter(inputs::TRACE_EVENTS, "t", &[("kind", "overflow")], move || {
            source.load(Ordering::Relaxed)
        });
        assert!(!wd.eval_now().overflow_breach);
        drops.store(3, Ordering::Relaxed);
        let r = wd.eval_now();
        assert!(r.overflow_breach, "overflow {} never reached the watchdog", r.overflow);
    }

    #[test]
    fn attack_pressure_breaches_only_under_real_shedding() {
        // A flood being shed: 48% of queries limited → breach, gauge up.
        let (reg, wd) = fixture(&[], &[]);
        let ev = |kind: &str, n: u64| {
            reg.counter_with(inputs::SERVER_EVENTS, "t", &[("auth", "FRA"), ("kind", kind)])
                .add(n)
        };
        ev("queries", 2000);
        ev("rrl_dropped", 600);
        ev("rrl_slipped", 360);
        let r = wd.eval_now();
        assert!(r.attack_breach, "rate {}", r.attack_rate);
        assert!((r.attack_rate - 0.48).abs() < 1e-9);
        assert!(!r.healthy());
        assert_eq!(reg.gauges("dnswild_watchdog_attack_breach")[0].1, 1.0);
        assert_eq!(reg.gauges("dnswild_watchdog_attack_rate")[0].1, r.attack_rate);
    }

    #[test]
    fn quiet_rate_limiter_keeps_the_attack_law_green() {
        // RRL enabled but idle: 1% limited stays under the 2% ceiling.
        let (reg, wd) = fixture(&[], &[]);
        reg.counter_with(inputs::SERVER_EVENTS, "t", &[("auth", "FRA"), ("kind", "queries")])
            .add(1000);
        reg.counter_with(inputs::SERVER_EVENTS, "t", &[("auth", "FRA"), ("kind", "rrl_slipped")])
            .add(10);
        let r = wd.eval_now();
        assert!(!r.attack_breach, "rate {}", r.attack_rate);
        assert!(r.healthy());
        assert!((r.attack_rate - 0.01).abs() < 1e-9);
    }

    #[test]
    fn attack_law_defers_judgement_below_min_samples() {
        let (reg, wd) = fixture(&[], &[]);
        reg.counter_with(inputs::SERVER_EVENTS, "t", &[("auth", "FRA"), ("kind", "queries")])
            .add(10);
        reg.counter_with(inputs::SERVER_EVENTS, "t", &[("auth", "FRA"), ("kind", "rrl_dropped")])
            .add(9);
        let r = wd.eval_now();
        assert!(!r.attack_breach, "too few samples to judge");
        assert!(r.attack_rate > 0.8, "rate still exposed: {}", r.attack_rate);
    }

    #[test]
    fn spawned_watchdog_evaluates_until_shutdown() {
        let (reg, wd) = fixture(&[("a", 600), ("b", 400)], &[("a", 10.0), ("b", 15.0)]);
        let handle = wd.spawn().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // The evaluator is parked for most of its 500 ms interval here;
        // shutting down must wake it, not wait the interval out.
        let started = Instant::now();
        let r = handle.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        assert!(r.healthy());
        assert!(reg.counters("dnswild_watchdog_evals_total")[0].1 >= 1);
    }
}
