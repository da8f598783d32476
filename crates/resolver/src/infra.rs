//! The infrastructure cache: per-authoritative latency state.
//!
//! Besides the record cache, real recursives keep an *infrastructure
//! cache* with smoothed round-trip-time (SRTT) estimates per server
//! address (§2 of the paper). BIND's ADB keeps entries for ~10 minutes,
//! Unbound's infra cache for ~15 minutes (§4.4); PowerDNS effectively
//! remembers speeds for as long as the process lives. The expiry of this
//! cache is exactly what the paper's Figure 6 probes by varying the query
//! interval.

use dnswild_netsim::{SimAddr, SimDuration, SimTime};

/// Latency state for one authoritative server address.
#[derive(Debug, Clone, Copy)]
pub struct InfraEntry {
    /// Smoothed RTT, milliseconds.
    pub srtt_ms: f64,
    /// RTT variance estimate, milliseconds (TCP-style, for RTO).
    pub rttvar_ms: f64,
    /// Consecutive timeouts since the last successful response.
    pub timeouts: u32,
    /// Last time this entry was read or written; expiry is measured from
    /// here (BIND and Unbound both expire on disuse, not absolute age).
    pub last_used: SimTime,
    /// Whether a real RTT sample has ever been observed (false while the
    /// entry only carries a synthetic exploration value).
    pub measured: bool,
}

impl InfraEntry {
    /// Retransmission timeout derived from this entry, clamped to
    /// `[floor, ceil]`.
    ///
    /// The SRTT is multiplied by 1.5 so the RTO keeps a margin above the
    /// converged RTT even when RTTVAR shrinks toward zero on a stable
    /// path — otherwise every response would race its own timer.
    pub fn rto(&self, floor: SimDuration, ceil: SimDuration) -> SimDuration {
        let rto_ms = self.srtt_ms * 1.5 + 4.0 * self.rttvar_ms;
        let rto = SimDuration::from_millis_f64(rto_ms);
        rto.max(floor).min(ceil)
    }
}

/// Smoothing parameters for RTT samples.
#[derive(Debug, Clone, Copy)]
pub struct Smoothing {
    /// Weight of the new sample in the SRTT update (TCP uses 1/8; BIND's
    /// ADB uses a heavier 0.3).
    pub alpha: f64,
    /// Weight of the new deviation in the RTTVAR update (TCP uses 1/4).
    pub beta: f64,
}

impl Smoothing {
    /// TCP-style smoothing (RFC 6298), used by Unbound.
    pub const TCP: Smoothing = Smoothing { alpha: 0.125, beta: 0.25 };
    /// Heavier smoothing resembling BIND's ADB adjustment.
    pub const BIND: Smoothing = Smoothing { alpha: 0.3, beta: 0.25 };
}

/// The cache itself.
///
/// Bounded by construction: it holds at most one entry per server
/// address it has been told about (a zone's NS set — 2 to 13 addresses
/// in every experiment here). An expired entry is dropped when it is
/// next touched or overwritten in place by the next sample, never
/// duplicated. So the table is a small vector scanned in one pass, with
/// no hashing.
#[derive(Debug, Clone)]
pub struct InfraCache {
    entries: Vec<(SimAddr, InfraEntry)>,
    /// Entries unused for this long are forgotten; `None` never expires.
    expiry: Option<SimDuration>,
    smoothing: Smoothing,
}

impl InfraCache {
    /// Creates a cache with the given expiry and smoothing.
    pub fn new(expiry: Option<SimDuration>, smoothing: Smoothing) -> Self {
        InfraCache { entries: Vec::new(), expiry, smoothing }
    }

    /// The configured expiry.
    pub fn expiry(&self) -> Option<SimDuration> {
        self.expiry
    }

    /// Looks up a live entry, refreshing its use-time (reads count as use,
    /// matching BIND/Unbound disuse-based expiry).
    pub fn touch(&mut self, addr: SimAddr, now: SimTime) -> Option<InfraEntry> {
        let i = self.position(addr)?;
        let entry = &mut self.entries[i].1;
        if self.expiry.is_some_and(|expiry| now.since(entry.last_used) > expiry) {
            self.entries.swap_remove(i);
            return None;
        }
        entry.last_used = now;
        Some(*entry)
    }

    /// Looks up a live entry without refreshing it.
    pub fn peek(&self, addr: SimAddr, now: SimTime) -> Option<InfraEntry> {
        let (_, entry) = self.entries.iter().find(|&&(a, _)| a == addr)?;
        match self.expiry {
            Some(expiry) if now.since(entry.last_used) > expiry => None,
            _ => Some(*entry),
        }
    }

    fn position(&self, addr: SimAddr) -> Option<usize> {
        self.entries.iter().position(|&(a, _)| a == addr)
    }

    /// Records a successful RTT sample.
    pub fn observe_rtt(&mut self, addr: SimAddr, rtt: SimDuration, now: SimTime) {
        let rtt_ms = rtt.as_millis_f64();
        let Smoothing { alpha, beta } = self.smoothing;
        let fresh = InfraEntry {
            srtt_ms: rtt_ms,
            rttvar_ms: rtt_ms / 2.0,
            timeouts: 0,
            last_used: now,
            measured: true,
        };
        let expiry = self.expiry;
        let Some(i) = self.position(addr) else {
            self.entries.push((addr, fresh));
            return;
        };
        let e = &mut self.entries[i].1;
        if e.measured && expiry.is_none_or(|expiry| now.since(e.last_used) <= expiry) {
            let deviation = (e.srtt_ms - rtt_ms).abs();
            e.rttvar_ms = (1.0 - beta) * e.rttvar_ms + beta * deviation;
            e.srtt_ms = (1.0 - alpha) * e.srtt_ms + alpha * rtt_ms;
            e.timeouts = 0;
            e.last_used = now;
        } else {
            *e = fresh; // a synthetic or expired estimate starts over
        }
    }

    /// Records a timeout: doubles the effective SRTT (capped) so the
    /// server looks slower, the standard back-off behaviour.
    pub fn observe_timeout(&mut self, addr: SimAddr, now: SimTime) {
        const TIMEOUT_CAP_MS: f64 = 8_000.0;
        let i = self.position(addr).unwrap_or_else(|| {
            let fresh = InfraEntry {
                srtt_ms: 400.0,
                rttvar_ms: 200.0,
                timeouts: 0,
                last_used: now,
                measured: false,
            };
            self.entries.push((addr, fresh));
            self.entries.len() - 1
        });
        let entry = &mut self.entries[i].1;
        entry.srtt_ms = (entry.srtt_ms * 2.0).min(TIMEOUT_CAP_MS);
        entry.timeouts += 1;
        entry.last_used = now;
    }

    /// Seeds a synthetic exploration entry (e.g. BIND's random initial
    /// SRTT for servers it has never queried). Does not overwrite a
    /// measured entry.
    pub fn seed_unmeasured(&mut self, addr: SimAddr, srtt_ms: f64, now: SimTime) {
        // `touch` drops an expired entry, so a miss leaves none behind.
        if self.touch(addr, now).is_none() {
            self.entries.push((
                addr,
                InfraEntry {
                    srtt_ms,
                    rttvar_ms: srtt_ms / 2.0,
                    timeouts: 0,
                    last_used: now,
                    measured: false,
                },
            ));
        }
    }

    /// Multiplies the stored SRTT of `addr` by `factor` (BIND-style aging
    /// of non-selected servers, so slower servers are retried eventually).
    pub fn decay(&mut self, addr: SimAddr, factor: f64) {
        if let Some(i) = self.position(addr) {
            self.entries[i].1.srtt_ms *= factor;
        }
    }

    /// Number of live entries (expired entries may still be counted until
    /// next touch; exposed for tests and stats only).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    fn addr(i: u32) -> SimAddr {
        // Addresses are only comparable tokens here; mint them through a
        // simulator to stay within the public API.
        use dnswild_netsim::geo::datacenters;
        use dnswild_netsim::{HostConfig, SimDuration, Simulator};
        struct Nop;
        impl dnswild_netsim::Actor for Nop {
            fn on_datagram(&mut self, _: &mut dnswild_netsim::Context<'_>, _: dnswild_netsim::Datagram) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Simulator::new(0);
        let mut last = None;
        for _ in 0..=i {
            let h = sim.add_host(
                HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
                Box::new(Nop),
            );
            last = Some(sim.bind_unicast(h));
        }
        last.unwrap()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn first_sample_initializes() {
        let mut c = InfraCache::new(None, Smoothing::TCP);
        c.observe_rtt(addr(0), SimDuration::from_millis(100), t(0));
        let e = c.peek(addr(0), t(0)).unwrap();
        assert_eq!(e.srtt_ms, 100.0);
        assert!(e.measured);
    }

    #[test]
    fn smoothing_converges_toward_samples() {
        let mut c = InfraCache::new(None, Smoothing::TCP);
        let a = addr(0);
        c.observe_rtt(a, SimDuration::from_millis(100), t(0));
        for i in 1..50 {
            c.observe_rtt(a, SimDuration::from_millis(20), t(i));
        }
        let e = c.peek(a, t(50)).unwrap();
        assert!((e.srtt_ms - 20.0).abs() < 5.0, "srtt {}", e.srtt_ms);
    }

    #[test]
    fn expiry_on_disuse() {
        let mut c = InfraCache::new(Some(SimDuration::from_mins(10)), Smoothing::BIND);
        let a = addr(0);
        c.observe_rtt(a, SimDuration::from_millis(50), t(0));
        assert!(c.touch(a, t(9 * 60)).is_some(), "alive inside expiry");
        // Touch refreshed last_used, so it survives to 18 minutes.
        assert!(c.touch(a, t(18 * 60)).is_some());
        // But 11 minutes of silence kills it.
        assert!(c.touch(a, t(18 * 60 + 11 * 60)).is_none());
    }

    #[test]
    fn expiry_boundaries_match_bind_and_unbound_timeouts() {
        // §4.4: expiry is strict-greater on disuse, so the documented
        // BIND (10 min) and Unbound (15 min) windows are inclusive at
        // exactly the boundary and dead one second past it.
        let a = addr(0);
        let mut bind = InfraCache::new(PolicyKind::BindSrtt.default_infra_expiry(), Smoothing::BIND);
        bind.observe_rtt(a, SimDuration::from_millis(50), t(0));
        assert!(bind.peek(a, t(599)).is_some());
        assert!(bind.peek(a, t(600)).is_some(), "exactly 10 min of silence is still alive");
        assert!(bind.peek(a, t(601)).is_none(), "601 s of silence ages the entry out");

        let mut unbound =
            InfraCache::new(PolicyKind::UnboundBand.default_infra_expiry(), Smoothing::TCP);
        unbound.observe_rtt(a, SimDuration::from_millis(50), t(0));
        assert!(unbound.peek(a, t(900)).is_some(), "exactly 15 min of silence is still alive");
        assert!(unbound.peek(a, t(901)).is_none(), "901 s of silence ages the entry out");

        // PowerDNS never expires.
        assert!(PolicyKind::PowerDnsSpeed.default_infra_expiry().is_none());
    }

    #[test]
    fn post_expiry_sample_restarts_the_entry() {
        // A fresh sample after the disuse window starts the estimate
        // over instead of smoothing into the stale one — this is what
        // lets a preference re-form from scratch after a quiet gap.
        let a = addr(0);
        let mut c = InfraCache::new(Some(SimDuration::from_mins(10)), Smoothing::BIND);
        c.observe_rtt(a, SimDuration::from_millis(400), t(0));
        c.observe_rtt(a, SimDuration::from_millis(20), t(2_000));
        let e = c.peek(a, t(2_000)).unwrap();
        assert_eq!(e.srtt_ms, 20.0, "stale estimate discarded, not smoothed against");
    }

    #[test]
    fn no_expiry_when_none() {
        let mut c = InfraCache::new(None, Smoothing::BIND);
        let a = addr(0);
        c.observe_rtt(a, SimDuration::from_millis(50), t(0));
        assert!(c.touch(a, t(86_400)).is_some());
    }

    #[test]
    fn timeout_penalizes() {
        let mut c = InfraCache::new(None, Smoothing::TCP);
        let a = addr(0);
        c.observe_rtt(a, SimDuration::from_millis(100), t(0));
        c.observe_timeout(a, t(1));
        let e = c.peek(a, t(1)).unwrap();
        assert_eq!(e.srtt_ms, 200.0);
        assert_eq!(e.timeouts, 1);
        // A success resets the timeout count.
        c.observe_rtt(a, SimDuration::from_millis(100), t(2));
        assert_eq!(c.peek(a, t(2)).unwrap().timeouts, 0);
    }

    #[test]
    fn timeout_on_unknown_server_creates_entry() {
        let mut c = InfraCache::new(None, Smoothing::TCP);
        c.observe_timeout(addr(0), t(0));
        let e = c.peek(addr(0), t(0)).unwrap();
        assert!(!e.measured);
        assert_eq!(e.srtt_ms, 800.0);
    }

    #[test]
    fn seed_does_not_overwrite_measured() {
        let mut c = InfraCache::new(None, Smoothing::TCP);
        let a = addr(0);
        c.observe_rtt(a, SimDuration::from_millis(70), t(0));
        c.seed_unmeasured(a, 5.0, t(1));
        assert_eq!(c.peek(a, t(1)).unwrap().srtt_ms, 70.0);
    }

    #[test]
    fn seed_then_measure_replaces_synthetic_value() {
        let mut c = InfraCache::new(None, Smoothing::TCP);
        let a = addr(0);
        c.seed_unmeasured(a, 5.0, t(0));
        assert!(!c.peek(a, t(0)).unwrap().measured);
        c.observe_rtt(a, SimDuration::from_millis(300), t(1));
        let e = c.peek(a, t(1)).unwrap();
        assert!(e.measured);
        assert_eq!(e.srtt_ms, 300.0, "synthetic value discarded, not smoothed");
    }

    #[test]
    fn decay_ages_srtt() {
        let mut c = InfraCache::new(None, Smoothing::TCP);
        let a = addr(0);
        c.observe_rtt(a, SimDuration::from_millis(100), t(0));
        c.decay(a, 0.5);
        assert_eq!(c.peek(a, t(0)).unwrap().srtt_ms, 50.0);
    }

    #[test]
    fn rto_clamped() {
        let e = InfraEntry {
            srtt_ms: 10.0,
            rttvar_ms: 1.0,
            timeouts: 0,
            last_used: SimTime::ZERO,
            measured: true,
        };
        let floor = SimDuration::from_millis(50);
        let ceil = SimDuration::from_secs(5);
        assert_eq!(e.rto(floor, ceil), floor);
        let slow = InfraEntry { srtt_ms: 50_000.0, ..e };
        assert_eq!(slow.rto(floor, ceil), ceil);
    }
}
