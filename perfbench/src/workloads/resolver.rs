//! `resolver_cold` and `resolver_warm`: `resolve()` (BIND-style SRTT
//! policy, two workers) against two `serve()` instances on a 3600 s
//! TTL zone, N unique names per pass.
//!
//! Cold: every pass goes into a fresh cache, so every transaction
//! crosses the wire and ends in an insert. Warm: every pass re-asks
//! what a priming pass cached, so every transaction is a hit with zero
//! socket I/O. `resolve()` names its queries from the worker index and
//! the transaction number, so a pass with the same N and concurrency
//! asks exactly the same names again.

use std::net::SocketAddr;
use std::sync::Arc;

use dnswild_netio::{
    resolve, serve, CacheConfig, ResolveConfig, ResolveReport, ServeConfig, ServeHandle,
    SharedCache, DRAIN_WINDOW,
};
use dnswild_zone::presets::probe_ttl_test_domain_zone;

use super::{origin, set_up_repeatedly, Args};
use crate::check::{NS_COUNT, SITE};
use crate::layers;
use crate::report::Report;
use crate::span::{Tracer, NO_PARENT};
use crate::sys::{now_ns, peak_rss_mb, process_cpu_s};

/// Transactions (unique names) per pass — enough that the client's
/// fixed 200 ms drain tail, subtracted anyway, is a small share.
pub const N: u64 = 100_000;
/// `resolve()` worker threads of a cold pass. At two workers a cold
/// pass wanders between 41k and 74k txn/s on the 2-vCPU sandbox as
/// client/server pairs fall in and out of lock-step (every transaction
/// is two thread wake-ups); eight keep both vCPUs saturated, so the
/// figure is bounded by CPU work and repeats within a few percent.
pub const COLD_CONCURRENCY: usize = 8;
/// Worker threads of a warm pass: two contenders for the cache's one
/// mutex, the smallest number that shows it.
pub const WARM_CONCURRENCY: usize = 2;
const MIN_PASSES: usize = 3;

struct Rig {
    servers: Vec<ServeHandle>,
    addrs: Vec<SocketAddr>,
}

fn resolve_n(
    addrs: &[SocketAddr],
    seed: u64,
    cache: &Arc<SharedCache>,
    concurrency: usize,
    n: u64,
) -> ResolveReport {
    let mut cfg = ResolveConfig::new(addrs.to_vec(), origin())
        .transactions(n)
        .concurrency(concurrency)
        .cache(Arc::clone(cache));
    cfg.seed = seed;
    resolve(cfg).expect("resolve runs")
}

fn one_pass(
    addrs: &[SocketAddr],
    seed: u64,
    cache: &Arc<SharedCache>,
    concurrency: usize,
) -> ResolveReport {
    resolve_n(addrs, seed, cache, concurrency, N)
}

fn set_up() -> Rig {
    let zones = Arc::new(vec![probe_ttl_test_domain_zone(&origin(), NS_COUNT, 3_600)]);
    let servers: Vec<ServeHandle> = (0..2)
        .map(|_| {
            serve(ServeConfig::new("127.0.0.1:0", SITE, Arc::clone(&zones)).threads(1))
                .expect("bind loopback server")
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(ServeHandle::local_addr).collect();
    Rig { servers, addrs }
}

fn tear_down(rig: Rig) {
    for s in rig.servers {
        s.shutdown();
    }
}

/// Seconds one pass took, net of the client's fixed drain tail.
fn net_secs(report: &ResolveReport) -> f64 {
    report
        .elapsed
        .saturating_sub(DRAIN_WINDOW)
        .as_secs_f64()
        .max(1e-9)
}

/// Checks one pass's books and folds it into the report's counts.
fn check_pass(report: &mut Report, pass: &ResolveReport, warm: bool) {
    let s = &pass.stats;
    if let Err(e) = s.check() {
        report.violation(format!("client books do not balance: {e}"));
    }
    report.require(s.transactions == N && s.answered + s.servfails == N, || {
        format!("transactions unaccounted: {s:?}")
    });
    if warm {
        report.require(s.cache_hits == N && s.attempts == 0, || {
            format!("warm pass touched the wire: {s:?}")
        });
    } else {
        report.require(s.cache_hits == 0, || {
            format!("a fresh cache cannot hit: {s:?}")
        });
    }
    report.attempted += N;
    report.failed += s.servfails;
}

/// Runs the workload in the mode `report` was made for.
pub fn run(args: Args, warm: bool, report: &mut Report) {
    let rig = set_up_repeatedly(report, set_up, tear_down);
    let concurrency = if warm {
        WARM_CONCURRENCY
    } else {
        COLD_CONCURRENCY
    };
    // Untimed, like any cache fill before timing: the whole priming pass
    // when the workload is the warm one (the passes re-ask exactly what
    // it cached), a tenth of a pass into a throwaway cache otherwise.
    let first = SharedCache::new(CacheConfig::default());
    let warm_up = resolve_n(
        &rig.addrs,
        args.seed,
        &first,
        concurrency,
        if warm { N } else { N / 10 },
    );
    assert_eq!(
        warm_up.stats.servfails, 0,
        "warm-up pass lost transactions: {:?}",
        warm_up.stats
    );
    let primed = warm.then_some(first);
    let queries_before: u64 = rig.servers.iter().map(|s| s.stats().queries).sum();
    let mut tracer = report.traced().then(|| Tracer::with_capacity(1 << 18));
    let root = tracer
        .as_mut()
        .map_or(NO_PARENT, |t| t.open("trace", NO_PARENT));
    if let Some(t) = &mut tracer {
        layers::replay_all(args.seed, t, root, report);
    }

    let (mut txn_per_s, mut latency_us, mut cpu_s, mut attempts) =
        (Vec::new(), Vec::new(), 0.0, 0u64);
    let mut last = None;
    let started = now_ns();
    let budget = args.ns(if report.traced() { 0.6 } else { 1.0 });
    while txn_per_s.len() < MIN_PASSES || now_ns() - started < budget {
        // A cold pass needs an empty cache; dropping the previous one
        // first keeps peak memory at one cache, and both stay outside
        // the pass's own clock.
        drop(last.take());
        let cache = primed
            .clone()
            .unwrap_or_else(|| SharedCache::new(CacheConfig::default()));
        let span = tracer.as_mut().map(|t| t.open("netio.resolve.pass", root));
        let cpu0 = process_cpu_s();
        let pass = one_pass(&rig.addrs, args.seed, &cache, concurrency);
        cpu_s += process_cpu_s() - cpu0;
        if let (Some(t), Some(id)) = (&mut tracer, span) {
            t.close(id);
        }
        check_pass(report, &pass, warm);
        attempts += pass.stats.attempts;
        let secs = net_secs(&pass);
        txn_per_s.push(N as f64 / secs);
        // Each worker runs its transactions one after another, so a
        // transaction's mean latency is the pass time over its share.
        latency_us.push(secs * 1e6 * concurrency as f64 / N as f64);
        last = Some((pass, cache));
    }
    let passes = txn_per_s.len() as f64;
    report.set("cpu_us_per_op", cpu_s * 1e6 / (N as f64 * passes));
    if warm {
        report.set(
            "netio.client.warm_txn_ns_c2",
            crate::stats::median(&latency_us) * 1e3,
        );
    }
    report.set_median("ops_per_s", txn_per_s);
    report.set_median("latency_us", latency_us);

    let (pass, cache) = last.expect("at least one pass ran");
    let stats = cache.stats();
    report.set("cache.hits", stats.hits as f64);
    report.set("cache.inserts", stats.inserts as f64);
    report.set("cache.evictions", stats.evictions as f64);
    report.set("netio.client.retries", pass.stats.retries as f64);
    report.set("netio.client.tc_seen", pass.stats.tc_seen as f64);
    let total: u64 = pass.per_server.iter().sum();
    if total > 0 {
        let max = pass.per_server.iter().copied().max().unwrap_or(0);
        report.set(
            "netio.client.per_server_share_max",
            max as f64 / total as f64,
        );
    }

    // One warm pass at one worker: the same code without a second
    // thread contending for the cache's mutex.
    if let (true, Some(t)) = (warm, &mut tracer) {
        let solo = SharedCache::new(CacheConfig::default());
        let prime = one_pass(&rig.addrs, args.seed, &solo, 1);
        attempts += prime.stats.attempts;
        let span = t.open("netio.resolve.pass_c1", root);
        let pass = one_pass(&rig.addrs, args.seed, &solo, 1);
        t.close(span);
        check_pass(report, &pass, true);
        report.set(
            "netio.client.warm_txn_ns_c1",
            net_secs(&pass) * 1e9 / N as f64,
        );
    }

    // Every attempt the client made is a query some server counted.
    // (`resolve()` returns only after its 200 ms drain window, so the
    // servers' books have long settled.)
    let queries_after: u64 = rig.servers.iter().map(|s| s.stats().queries).sum();
    report.require(queries_after - queries_before == attempts, || {
        format!(
            "servers counted {} queries, client made {attempts} attempts",
            queries_after - queries_before
        )
    });
    tear_down(rig);
    if let Some(t) = &mut tracer {
        t.close(root);
        layers::finish_trace(
            t,
            if warm {
                "resolver_warm"
            } else {
                "resolver_cold"
            },
            report,
        );
    }
    report.set("peak_rss_mb", peak_rss_mb());
}
