//! Bridges real-socket telemetry traces into the measurement shapes the
//! sim-plane analyses consume.
//!
//! The paper validates the testbed findings against passive traces
//! (§5); this module is the reverse direction for our reproduction: a
//! binary trace captured by `dnswild-telemetry` on the *real-socket*
//! plane is reshaped into a [`MeasurementResult`] so the very same
//! [`coverage`](crate::coverage), [`query_share`](crate::query_share)
//! and [`rank_profile`](crate::rank_profile) code that renders Figures
//! 2, 3 and 7 from simulation also runs on live traffic.
//!
//! The mapping is lossy but honest about it: a trace has no continents,
//! policies or forwarder middleboxes, so those VP fields are fixed
//! placeholders ([`Continent::Eu`], [`PolicyKind::BindSrtt`],
//! `forwarded = false`) that none of the three target analyses read.
//! What the analyses *do* read — per-client probe sequences, per-auth
//! counts, RTT samples — comes straight from the events.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use dnswild_atlas::{
    AuthoritativeSpec, DeploymentSpec, MeasurementResult, ProbeRecord, VpResult,
};
use dnswild_netsim::{Continent, SimAddr, SimDuration, SimTime};
use dnswild_proto::Name;
use dnswild_resolver::{PolicyKind, UpstreamSample};
use dnswild_telemetry::{Event, EventKind, Trace, FLAG_PREFETCH, FLAG_RESPONSE, FLAG_TIMEOUT};

/// Synthetic service address for authoritative id `id`: `10.0.H.L`
/// where `H.L` is `id + 1`. Mirrors how simulated addresses travel in
/// glue records, giving the share analysis an `addr_to_auth` key.
fn auth_addr(id: u16) -> SimAddr {
    let n = u32::from(id) + 1;
    SimAddr::from_ipv4(Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8))
        .expect("10.0.x.x always decodes")
}

fn sim_time(ev: &Event) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(ev.ts_ns / 1_000)
}

fn sim_rtt(ev: &Event) -> SimDuration {
    SimDuration::from_micros(u64::from(ev.latency_ns) / 1_000)
}

/// Per-authoritative count of decoded queries the *servers* saw
/// (`ServerQuery` events only — `ServerBad` datagrams never reached the
/// question stage). Keyed by auth code, deterministically ordered.
/// This is the closure value `verify.sh` balances against the serving
/// plane's own `ServerStats::queries` counters.
pub fn trace_auth_counts(trace: &Trace) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind == EventKind::ServerQuery {
            *counts.entry(trace.auth_code(ev.auth_id).to_string()).or_default() += 1;
        }
    }
    counts
}

/// Record-cache activity recovered from a trace: one [`CacheLookup`]
/// event per probe of the cache (hit when `FLAG_RESPONSE` is set, a
/// stale serve when `FLAG_TIMEOUT` is set, otherwise a miss), plus the
/// prefetch attempts that rode `ClientQuery` events under
/// [`FLAG_PREFETCH`]. All zeros for traces captured without a cache —
/// the §4.4 cache-decay re-derivation is a no-op then.
///
/// [`CacheLookup`]: EventKind::CacheLookup
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceCacheCounts {
    /// Live cache hits (no socket I/O happened for these).
    pub hits: u64,
    /// Misses — the transaction went to the wire.
    pub misses: u64,
    /// Expired entries served under RFC 8767 serve-stale.
    pub stale_served: u64,
    /// Prefetch refresh attempts (client-side, `FLAG_PREFETCH`).
    pub prefetches: u64,
}

impl TraceCacheCounts {
    /// Hit rate over all cache probes, `None` when the trace carries no
    /// cache events at all.
    pub fn hit_rate(&self) -> Option<f64> {
        let probes = self.hits + self.misses + self.stale_served;
        (probes != 0).then(|| self.hits as f64 / probes as f64)
    }

    /// True when the trace recorded no cache activity.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// Tallies the cache plane's footprint in a trace — the counts behind
/// the warm-vs-cold curves of the cache-decay experiments.
pub fn trace_cache_counts(trace: &Trace) -> TraceCacheCounts {
    let mut counts = TraceCacheCounts::default();
    for ev in &trace.events {
        match ev.kind {
            EventKind::CacheLookup => {
                if ev.flags & FLAG_RESPONSE != 0 {
                    counts.hits += 1;
                } else if ev.flags & FLAG_TIMEOUT != 0 {
                    counts.stale_served += 1;
                } else {
                    counts.misses += 1;
                }
            }
            EventKind::ClientQuery if ev.flags & FLAG_PREFETCH != 0 => counts.prefetches += 1,
            _ => {}
        }
    }
    counts
}

/// Per-client query counts over authoritative codes, in client-hash
/// order — the input shape of [`rank_profile`](crate::rank_profile)
/// (Figure 7). Prefers the client-side view (`ClientQuery` events, one
/// per attempt) when the trace has one; otherwise falls back to the
/// server-side view grouped by client hash.
pub fn trace_client_counts(trace: &Trace) -> Vec<HashMap<String, u64>> {
    let has_client_view = trace.events.iter().any(|e| e.kind == EventKind::ClientQuery);
    let kind = if has_client_view { EventKind::ClientQuery } else { EventKind::ServerQuery };
    let mut per_client: BTreeMap<u64, HashMap<String, u64>> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind == kind {
            *per_client
                .entry(ev.client_hash)
                .or_default()
                .entry(trace.auth_code(ev.auth_id).to_string())
                .or_default() += 1;
        }
    }
    per_client.into_values().collect()
}

/// Reshapes a trace into a [`MeasurementResult`]: one VP per distinct
/// client hash, answered `ServerQuery` events as its probe sequence (in
/// capture order), answered `ClientQuery` events as its upstream RTT
/// samples, and unanswered events as failures.
pub fn trace_to_measurement(trace: &Trace) -> MeasurementResult {
    let authoritatives: Vec<AuthoritativeSpec> = trace
        .auths
        .iter()
        .map(|code| AuthoritativeSpec { code: code.clone(), sites: Vec::new() })
        .collect();
    let deployment = DeploymentSpec { name: "trace".to_string(), authoritatives };
    let addr_to_auth: HashMap<SimAddr, String> = trace
        .auths
        .iter()
        .enumerate()
        .map(|(id, code)| (auth_addr(id as u16), code.clone()))
        .collect();
    let qname = Name::parse("probe.trace.invalid").expect("static name parses");

    // BTreeMap so VP indices are stable across runs regardless of the
    // thread interleaving that produced the event order.
    let mut groups: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for ev in &trace.events {
        if matches!(ev.kind, EventKind::ServerQuery | EventKind::ClientQuery) {
            groups.entry(ev.client_hash).or_default().push(ev);
        }
    }

    let mut vps = Vec::with_capacity(groups.len());
    let mut rounds = 0u32;
    for (index, (_client, events)) in groups.into_iter().enumerate() {
        let mut probes = Vec::new();
        let mut samples = Vec::new();
        let mut failures = 0u32;
        let mut failure_times = Vec::new();
        for ev in events {
            let answered = ev.flags & FLAG_RESPONSE != 0;
            match ev.kind {
                EventKind::ServerQuery if answered => probes.push(ProbeRecord {
                    time: sim_time(ev),
                    round: probes.len() as u32,
                    auth: trace.auth_code(ev.auth_id).to_string(),
                    site: trace.auth_code(ev.auth_id).to_string(),
                    rtt: sim_rtt(ev),
                }),
                EventKind::ClientQuery if answered => samples.push(UpstreamSample {
                    time: sim_time(ev),
                    server: auth_addr(ev.auth_id),
                    rtt: sim_rtt(ev),
                    qname: qname.clone(),
                }),
                _ => {
                    failures += 1;
                    failure_times.push(sim_time(ev));
                }
            }
        }
        rounds = rounds.max(probes.len() as u32);
        vps.push(VpResult {
            index,
            continent: Continent::Eu,
            city: "trace".to_string(),
            policy: PolicyKind::BindSrtt,
            forwarded: false,
            probes,
            failures,
            failure_times,
            samples,
        });
    }

    MeasurementResult {
        deployment,
        interval: SimDuration::from_millis(1),
        rounds,
        vps,
        addr_to_auth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, client: u64, auth: u16, answered: bool, ts: u64) -> Event {
        let mut e = Event::new(kind);
        e.client_hash = client;
        e.auth_id = auth;
        e.ts_ns = ts;
        e.latency_ns = 250_000;
        if answered {
            e.flags = FLAG_RESPONSE;
            e.rcode = 0;
        }
        e
    }

    fn sample_trace() -> Trace {
        Trace {
            version: 1,
            auths: vec!["FRA".into(), "SYD".into()],
            events: vec![
                ev(EventKind::ServerQuery, 1, 0, true, 1_000),
                ev(EventKind::ServerQuery, 1, 1, true, 2_000),
                ev(EventKind::ServerQuery, 1, 0, true, 3_000),
                ev(EventKind::ServerQuery, 2, 0, true, 1_500),
                ev(EventKind::ServerQuery, 2, 0, false, 2_500),
                ev(EventKind::ClientQuery, 3, 1, true, 4_000),
            ],
            overflow: 0,
        }
    }

    #[test]
    fn auth_counts_cover_server_queries_only() {
        let counts = trace_auth_counts(&sample_trace());
        assert_eq!(counts.get("FRA"), Some(&4));
        assert_eq!(counts.get("SYD"), Some(&1));
        assert_eq!(counts.len(), 2, "client events must not contribute");
    }

    #[test]
    fn client_counts_prefer_client_view_and_fall_back() {
        let t = sample_trace();
        let counts = trace_client_counts(&t);
        // The trace has a ClientQuery event, so only the client view counts.
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].get("SYD"), Some(&1));

        let mut server_only = t;
        server_only.events.retain(|e| e.kind == EventKind::ServerQuery);
        let counts = trace_client_counts(&server_only);
        assert_eq!(counts.len(), 2, "falls back to server-side grouping");
        assert_eq!(counts[0].get("FRA"), Some(&2));
        assert_eq!(counts[0].get("SYD"), Some(&1));
        assert_eq!(counts[1].get("FRA"), Some(&2));
    }

    #[test]
    fn measurement_feeds_coverage_and_share() {
        let result = trace_to_measurement(&sample_trace());
        assert_eq!(result.deployment.ns_count(), 2);
        assert_eq!(result.vps.len(), 3);
        // Client 1 saw both auths: probes in capture order, rounds 0..n.
        let vp1 = &result.vps[0];
        assert_eq!(vp1.probes.len(), 3);
        assert_eq!(vp1.probes[1].auth, "SYD");
        assert_eq!(vp1.probes.iter().map(|p| p.round).collect::<Vec<_>>(), vec![0, 1, 2]);
        // Client 2's unanswered query became a failure, not a probe.
        let vp2 = &result.vps[1];
        assert_eq!((vp2.probes.len(), vp2.failures), (1, 1));
        // Client 3 contributed a resolver-side RTT sample resolvable
        // through addr_to_auth.
        let vp3 = &result.vps[2];
        assert_eq!(vp3.samples.len(), 1);
        assert_eq!(result.addr_to_auth.get(&vp3.samples[0].server).map(String::as_str), Some("SYD"));

        // The real analyses run end-to-end on the reshaped result.
        let cov = crate::coverage(&result);
        assert_eq!(cov.vp_count, 2, "only VPs with probes count");
        let shares = crate::query_share(&result);
        let total: f64 = shares.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-6, "hot-cache shares sum to 1, got {total}");
    }

    #[test]
    fn cache_counts_partition_lookup_events_by_flags() {
        let mut t = sample_trace();
        assert!(trace_cache_counts(&t).is_empty(), "cacheless traces tally zero");
        let mut hit = ev(EventKind::CacheLookup, 1, 0, true, 5_000);
        hit.flags = FLAG_RESPONSE;
        let mut stale = ev(EventKind::CacheLookup, 1, 0, false, 6_000);
        stale.flags = FLAG_TIMEOUT;
        let miss = ev(EventKind::CacheLookup, 1, 0, false, 7_000);
        let mut prefetch = ev(EventKind::ClientQuery, 1, 0, true, 8_000);
        prefetch.flags |= FLAG_PREFETCH;
        t.events.extend([hit, stale, miss, miss, prefetch]);
        let counts = trace_cache_counts(&t);
        assert_eq!(
            (counts.hits, counts.misses, counts.stale_served, counts.prefetches),
            (1, 2, 1, 1)
        );
        assert_eq!(counts.hit_rate(), Some(0.25));

        // Cache events must not leak into the figure analyses: the
        // measurement reshaping only reads server/client queries.
        let result = trace_to_measurement(&t);
        assert_eq!(result.vps.len(), 3, "CacheLookup events add no VPs");
    }

    #[test]
    fn rank_profile_runs_on_trace_counts() {
        let t = sample_trace();
        let counts = trace_client_counts(&t);
        let profile = crate::rank_profile(&counts, 2, 1);
        assert_eq!(profile.client_count, 1);
    }
}
