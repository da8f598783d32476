//! Authoritative-server selection policies.
//!
//! Yu et al. ("Authority Server Selection in DNS Caching Resolvers",
//! CCR 2012 — reference [33] of the reproduced paper) dissected how the
//! major recursive implementations choose among a zone's NS addresses:
//! roughly half chase the lowest latency, the rest spread queries
//! uniformly or nearly so. The reproduced paper then measured the
//! *aggregate* of whatever mix runs in the wild. These policy
//! implementations generate that aggregate from the documented per-
//! implementation algorithms.

use std::borrow::Cow;

use detrand::{DetRng, Rng, SliceRandom};

use dnswild_netsim::{SimAddr, SimDuration, SimTime};

use crate::infra::{InfraCache, Smoothing};

/// Which implementation family a resolver models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// BIND-like: lowest SRTT wins; unqueried servers start with a small
    /// random SRTT (forcing early exploration); non-selected servers'
    /// SRTTs decay so they are retried eventually. ADB expires after
    /// ~10 minutes of disuse.
    BindSrtt,
    /// Unbound-like: uniform choice among servers whose RTO lies within a
    /// 400 ms band above the best; infra cache expires after ~15 minutes.
    UnboundBand,
    /// PowerDNS-like: pick the lowest SRTT after multiplying each by a
    /// small random jitter; speed estimates never expire.
    PowerDnsSpeed,
    /// Pure uniform random choice per query (djbdns/dnscache-like).
    UniformRandom,
    /// Round-robin rotation from a random starting point.
    RoundRobin,
    /// Sticky: pin one server and stay with it unless it times out
    /// repeatedly (models simple forwarders and embedded stubs; the
    /// paper sees ~20% of Root clients querying a single letter).
    StickyPrimary,
    /// Strict configuration order: always the FIRST listed server,
    /// walking down the list only on failures (dnsmasq with
    /// `strict-order`, and various embedded stacks). Unlike
    /// [`PolicyKind::StickyPrimary`], every such resolver pins the same
    /// server, concentrating load on NS #1.
    FixedOrder,
}

impl PolicyKind {
    /// All kinds, for sweeps.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::BindSrtt,
        PolicyKind::UnboundBand,
        PolicyKind::PowerDnsSpeed,
        PolicyKind::UniformRandom,
        PolicyKind::RoundRobin,
        PolicyKind::StickyPrimary,
        PolicyKind::FixedOrder,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::BindSrtt => "bind-srtt",
            PolicyKind::UnboundBand => "unbound-band",
            PolicyKind::PowerDnsSpeed => "pdns-speed",
            PolicyKind::UniformRandom => "random",
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::StickyPrimary => "sticky",
            PolicyKind::FixedOrder => "fixed-order",
        }
    }

    /// The infrastructure-cache expiry this implementation family uses.
    pub fn default_infra_expiry(self) -> Option<SimDuration> {
        match self {
            PolicyKind::BindSrtt => Some(SimDuration::from_mins(10)),
            PolicyKind::UnboundBand => Some(SimDuration::from_mins(15)),
            // PowerDNS keeps its speed table for the process lifetime.
            PolicyKind::PowerDnsSpeed => None,
            // Latency-blind policies don't meaningfully use the cache.
            PolicyKind::UniformRandom => Some(SimDuration::from_mins(10)),
            PolicyKind::RoundRobin => Some(SimDuration::from_mins(10)),
            PolicyKind::StickyPrimary => Some(SimDuration::from_mins(10)),
            PolicyKind::FixedOrder => Some(SimDuration::from_mins(10)),
        }
    }

    /// The smoothing constants this family applies to RTT samples.
    pub fn smoothing(self) -> Smoothing {
        match self {
            PolicyKind::BindSrtt => Smoothing::BIND,
            PolicyKind::UnboundBand => Smoothing::TCP,
            _ => Smoothing::BIND,
        }
    }

    /// Builds the policy state machine.
    pub fn build(self) -> Box<dyn SelectionPolicy> {
        match self {
            PolicyKind::BindSrtt => Box::new(BindSrtt),
            PolicyKind::UnboundBand => Box::new(UnboundBand::default()),
            PolicyKind::PowerDnsSpeed => Box::new(PowerDnsSpeed::default()),
            PolicyKind::UniformRandom => Box::new(UniformRandom),
            PolicyKind::RoundRobin => Box::new(RoundRobin::default()),
            PolicyKind::StickyPrimary => Box::new(StickyPrimary::default()),
            PolicyKind::FixedOrder => Box::new(FixedOrder),
        }
    }
}

/// A server-selection algorithm. Stateful: policies may keep rotation
/// counters or pinned choices.
pub trait SelectionPolicy: Send {
    /// Picks the server for the next query. `candidates` is never empty;
    /// `exclude` lists servers that just timed out for this query and
    /// should be avoided if any alternative exists.
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        infra: &mut InfraCache,
        now: SimTime,
        rng: &mut DetRng,
    ) -> SimAddr;

    /// The policy's kind (for reporting).
    fn kind(&self) -> PolicyKind;
}

/// The candidates not in `exclude` — or all of them, if that leaves
/// none. Borrowed unless something is actually filtered out, so the
/// common case (a first attempt excludes nothing) copies nothing.
fn usable<'a>(candidates: &'a [SimAddr], exclude: &[SimAddr]) -> Cow<'a, [SimAddr]> {
    if !candidates.iter().any(|c| exclude.contains(c)) {
        return Cow::Borrowed(candidates);
    }
    let filtered: Vec<SimAddr> =
        candidates.iter().copied().filter(|c| !exclude.contains(c)).collect();
    if filtered.is_empty() {
        Cow::Borrowed(candidates)
    } else {
        Cow::Owned(filtered)
    }
}

/// BIND-like SRTT selection. See [`PolicyKind::BindSrtt`].
#[derive(Debug, Default)]
pub struct BindSrtt;

/// How strongly BIND ages the SRTT of servers it did *not* pick. The real
/// ADB multiplies by a factor close to one; the effect is that a server
/// believed slow is retried after enough queries.
const BIND_AGING_FACTOR: f64 = 0.98;
/// Upper bound of the synthetic SRTT assigned to never-queried servers.
const BIND_INITIAL_SRTT_MS: f64 = 32.0;

impl SelectionPolicy for BindSrtt {
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        infra: &mut InfraCache,
        now: SimTime,
        rng: &mut DetRng,
    ) -> SimAddr {
        let usable = usable(candidates, exclude);
        // Seed unknown servers with small random SRTTs: this is what makes
        // a cold-cache BIND probe every authoritative early on.
        for &c in usable.iter() {
            if infra.peek(c, now).is_none() {
                let seed = rng.gen_range(1.0..BIND_INITIAL_SRTT_MS);
                infra.seed_unmeasured(c, seed, now);
            }
        }
        let chosen = usable
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let sa = infra.peek(a, now).map(|e| e.srtt_ms).unwrap_or(f64::MAX);
                let sb = infra.peek(b, now).map(|e| e.srtt_ms).unwrap_or(f64::MAX);
                sa.partial_cmp(&sb).expect("srtt is never NaN")
            })
            .expect("candidates is never empty");
        // Age everyone else so they win again eventually.
        for &c in candidates {
            if c != chosen {
                infra.decay(c, BIND_AGING_FACTOR);
            }
        }
        let _ = infra.touch(chosen, now);
        chosen
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::BindSrtt
    }
}

/// Floor applied to every computed retransmission timeout, in
/// milliseconds (Unbound's `RTT_MIN_TIMEOUT`): even a LAN-fast server
/// is never trusted with less than 50 ms before a retry.
pub const RTT_MIN_TIMEOUT_MS: f64 = 50.0;
/// Ceiling applied to every computed retransmission timeout, in
/// milliseconds (Unbound's `RTT_MAX_TIMEOUT` is 120 s): repeated
/// timeout-doubling saturates here instead of growing without bound.
pub const RTT_MAX_TIMEOUT_MS: f64 = 120_000.0;
/// RTO assumed for never-queried servers (Unbound's
/// `UNKNOWN_SERVER_NICENESS`, 376 ms). Deliberately below
/// [`RTT_MIN_TIMEOUT_MS`]` + `[`RTT_BAND_MS`], so an unknown server
/// always lands inside the selection band of even the fastest known
/// one and gets explored naturally.
pub const UNKNOWN_SERVER_RTO_MS: f64 = 376.0;
/// Width of the selection band in milliseconds (Unbound's `RTT_BAND`):
/// servers whose RTO lies within this many ms of the best candidate
/// are equally eligible, trading a little latency for load spread.
pub const RTT_BAND_MS: f64 = 400.0;

/// Clamps a computed retransmission timeout into Unbound's legal
/// window `[`[`RTT_MIN_TIMEOUT_MS`]`, `[`RTT_MAX_TIMEOUT_MS`]`]`.
pub fn clamp_rto(rto_ms: f64) -> f64 {
    rto_ms.clamp(RTT_MIN_TIMEOUT_MS, RTT_MAX_TIMEOUT_MS)
}

/// Named constant bundles lifted from real resolver implementations,
/// for callers who want a policy parameterised exactly as the modeled
/// software ships rather than hand-tuned fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyPreset {
    /// Unbound's production RTT constants: [`RTT_BAND_MS`] selection
    /// band, [`UNKNOWN_SERVER_RTO_MS`] optimism for unprobed servers,
    /// RTOs clamped to `[`[`RTT_MIN_TIMEOUT_MS`]`,
    /// `[`RTT_MAX_TIMEOUT_MS`]`]`.
    Unbound,
}

impl PolicyPreset {
    /// The concrete parameterised policy this preset names, with its
    /// fields inspectable (unlike the boxed [`PolicyPreset::build`]).
    pub fn unbound_band(self) -> UnboundBand {
        match self {
            PolicyPreset::Unbound => UnboundBand {
                band_ms: RTT_BAND_MS,
                unknown_rto_ms: UNKNOWN_SERVER_RTO_MS,
            },
        }
    }

    /// Builds the preset's policy state machine.
    pub fn build(self) -> Box<dyn SelectionPolicy> {
        match self {
            PolicyPreset::Unbound => Box::new(self.unbound_band()),
        }
    }
}

/// Unbound-like band selection. See [`PolicyKind::UnboundBand`].
#[derive(Debug)]
pub struct UnboundBand {
    /// Servers whose RTO is within this many milliseconds of the best are
    /// equally eligible (Unbound's `RTT_BAND` is 400 ms).
    pub band_ms: f64,
    /// RTO assumed for never-queried servers (Unbound's
    /// `UNKNOWN_SERVER_NICENESS` is 376 ms — low enough to get explored).
    pub unknown_rto_ms: f64,
}

impl Default for UnboundBand {
    fn default() -> Self {
        UnboundBand { band_ms: RTT_BAND_MS, unknown_rto_ms: UNKNOWN_SERVER_RTO_MS }
    }
}

impl SelectionPolicy for UnboundBand {
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        infra: &mut InfraCache,
        now: SimTime,
        rng: &mut DetRng,
    ) -> SimAddr {
        let usable = usable(candidates, exclude);
        let rto = |addr: SimAddr| -> f64 {
            clamp_rto(
                infra
                    .peek(addr, now)
                    .map(|e| e.srtt_ms + 4.0 * e.rttvar_ms)
                    .unwrap_or(self.unknown_rto_ms),
            )
        };
        let best = usable.iter().map(|&a| rto(a)).fold(f64::MAX, f64::min);
        let in_band = |&a: &SimAddr| rto(a) <= best + self.band_ms;
        // Usually every server is in the band: choose among them as they
        // are, rather than copying them into a band of the same order.
        let chosen = if usable.iter().all(in_band) {
            *usable.choose(rng).expect("candidates is never empty")
        } else {
            let band: Vec<SimAddr> = usable.iter().copied().filter(in_band).collect();
            *band.choose(rng).expect("band always contains the best server")
        };
        let _ = infra.touch(chosen, now);
        chosen
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::UnboundBand
    }
}

/// PowerDNS-like jittered fastest selection. See
/// [`PolicyKind::PowerDnsSpeed`].
#[derive(Debug)]
pub struct PowerDnsSpeed {
    /// Multiplicative jitter half-width (0.1 → factors in `[0.9, 1.1)`).
    pub jitter: f64,
}

impl Default for PowerDnsSpeed {
    fn default() -> Self {
        PowerDnsSpeed { jitter: 0.1 }
    }
}

impl SelectionPolicy for PowerDnsSpeed {
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        infra: &mut InfraCache,
        now: SimTime,
        rng: &mut DetRng,
    ) -> SimAddr {
        let usable = usable(candidates, exclude);
        let chosen = usable
            .iter()
            .copied()
            .min_by(|&a, &b| {
                // Unqueried servers score 0: PowerDNS tries them first.
                let score = |addr: SimAddr, rng: &mut DetRng| -> f64 {
                    let base = infra.peek(addr, now).map(|e| e.srtt_ms).unwrap_or(0.0);
                    base * rng.gen_range(1.0 - self.jitter..1.0 + self.jitter)
                };
                let sa = score(a, rng);
                let sb = score(b, rng);
                sa.partial_cmp(&sb).expect("scores are never NaN")
            })
            .expect("candidates is never empty");
        let _ = infra.touch(chosen, now);
        chosen
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::PowerDnsSpeed
    }
}

/// Uniform random selection. See [`PolicyKind::UniformRandom`].
#[derive(Debug)]
pub struct UniformRandom;

impl SelectionPolicy for UniformRandom {
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        _infra: &mut InfraCache,
        _now: SimTime,
        rng: &mut DetRng,
    ) -> SimAddr {
        *usable(candidates, exclude).choose(rng).expect("candidates is never empty")
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::UniformRandom
    }
}

/// Round-robin selection. See [`PolicyKind::RoundRobin`].
#[derive(Debug, Default)]
pub struct RoundRobin {
    counter: Option<usize>,
}

impl SelectionPolicy for RoundRobin {
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        _infra: &mut InfraCache,
        _now: SimTime,
        rng: &mut DetRng,
    ) -> SimAddr {
        let start = *self.counter.get_or_insert_with(|| rng.gen_range(0..candidates.len()));
        self.counter = Some(start.wrapping_add(1));
        // Walk the rotation, skipping excluded servers if possible.
        for i in 0..candidates.len() {
            let c = candidates[(start + i) % candidates.len()];
            if !exclude.contains(&c) {
                return c;
            }
        }
        candidates[start % candidates.len()]
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::RoundRobin
    }
}

/// Sticky-primary selection. See [`PolicyKind::StickyPrimary`].
///
/// Models fixed-upstream forwarders: on a timeout they *retransmit to
/// the same server* (one entry in `exclude`), and only fall back to an
/// alternative — without re-pinning — after repeated failures within the
/// same query. This is what keeps ~20% of busy Root clients on a single
/// letter in the paper's Figure 7 despite packet loss.
#[derive(Debug, Default)]
pub struct StickyPrimary {
    pinned: Option<SimAddr>,
}

/// Failures of the pinned server within one query before a sticky
/// resolver temporarily tries another server.
const STICKY_FAILOVER_THRESHOLD: usize = 2;

impl SelectionPolicy for StickyPrimary {
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        _infra: &mut InfraCache,
        _now: SimTime,
        rng: &mut DetRng,
    ) -> SimAddr {
        if let Some(p) = self.pinned {
            if candidates.contains(&p) {
                let failures = exclude.iter().filter(|&&e| e == p).count();
                if failures < STICKY_FAILOVER_THRESHOLD {
                    return p; // retransmit to the configured upstream
                }
                // Temporary failover: keep the pin for the next query.
                let others: Vec<SimAddr> =
                    candidates.iter().copied().filter(|&c| c != p).collect();
                if let Some(&alt) = others.choose(rng) {
                    return alt;
                }
                return p;
            }
        }
        let choice =
            *usable(candidates, exclude).choose(rng).expect("candidates is never empty");
        self.pinned = Some(choice);
        choice
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::StickyPrimary
    }
}

/// Strict-order selection. See [`PolicyKind::FixedOrder`].
#[derive(Debug, Default)]
pub struct FixedOrder;

impl SelectionPolicy for FixedOrder {
    fn select(
        &mut self,
        candidates: &[SimAddr],
        exclude: &[SimAddr],
        _infra: &mut InfraCache,
        _now: SimTime,
        _rng: &mut DetRng,
    ) -> SimAddr {
        // Walk the configured order, skipping servers that failed this
        // query (once each is enough to step past them).
        for &c in candidates {
            if !exclude.contains(&c) {
                return c;
            }
        }
        candidates[0]
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::FixedOrder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Mints `n` distinct addresses through a throwaway simulator.
    fn addrs(n: usize) -> Vec<SimAddr> {
        use dnswild_netsim::geo::datacenters;
        use dnswild_netsim::{HostConfig, Simulator};
        struct Nop;
        impl dnswild_netsim::Actor for Nop {
            fn on_datagram(
                &mut self,
                _: &mut dnswild_netsim::Context<'_>,
                _: dnswild_netsim::Datagram,
            ) {
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Simulator::new(0);
        (0..n)
            .map(|_| {
                let h = sim.add_host(
                    HostConfig::at_place(&datacenters::FRA, SimDuration::from_millis(1), 1),
                    Box::new(Nop),
                );
                sim.bind_unicast(h)
            })
            .collect()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// Runs `n` selections feeding back synthetic RTTs from `rtts`, and
    /// returns per-server selection counts.
    fn drive(
        kind: PolicyKind,
        servers: &[SimAddr],
        rtts: &HashMap<SimAddr, u64>,
        n: usize,
        seed: u64,
    ) -> HashMap<SimAddr, usize> {
        let mut policy = kind.build();
        let mut infra = InfraCache::new(kind.default_infra_expiry(), kind.smoothing());
        let mut rng = DetRng::seed_from_u64(seed);
        let mut counts: HashMap<SimAddr, usize> = HashMap::new();
        for i in 0..n {
            let now = t(i as u64 * 2);
            let chosen = policy.select(servers, &[], &mut infra, now, &mut rng);
            *counts.entry(chosen).or_default() += 1;
            infra.observe_rtt(chosen, SimDuration::from_millis(rtts[&chosen]), now);
        }
        counts
    }

    #[test]
    fn bind_prefers_fast_server_strongly() {
        let servers = addrs(2);
        let rtts = HashMap::from([(servers[0], 10u64), (servers[1], 300u64)]);
        let counts = drive(PolicyKind::BindSrtt, &servers, &rtts, 100, 1);
        let fast = counts.get(&servers[0]).copied().unwrap_or(0);
        assert!(fast >= 90, "bind should strongly prefer the fast server, got {fast}/100");
        // ... but still must have tried the slow one at least once (cold
        // cache exploration).
        assert!(counts.get(&servers[1]).copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn bind_explores_all_servers_early() {
        let servers = addrs(4);
        let rtts: HashMap<_, _> =
            servers.iter().enumerate().map(|(i, &s)| (s, 20 + 80 * i as u64)).collect();
        let counts = drive(PolicyKind::BindSrtt, &servers, &rtts, 30, 2);
        assert_eq!(counts.len(), 4, "all four servers probed within 30 queries: {counts:?}");
    }

    #[test]
    fn unbound_band_spreads_when_rtts_close() {
        let servers = addrs(2);
        let rtts = HashMap::from([(servers[0], 40u64), (servers[1], 60u64)]);
        let counts = drive(PolicyKind::UnboundBand, &servers, &rtts, 400, 3);
        let share0 = counts[&servers[0]] as f64 / 400.0;
        assert!((0.35..0.65).contains(&share0), "near-uniform split, got {share0}");
    }

    #[test]
    fn unbound_band_excludes_far_outliers() {
        let servers = addrs(2);
        // 40ms vs 800ms: the slow one falls outside the 400ms band once
        // its RTT is measured (plus RTTVAR inflation keeps it out).
        let rtts = HashMap::from([(servers[0], 40u64), (servers[1], 2_000u64)]);
        let counts = drive(PolicyKind::UnboundBand, &servers, &rtts, 300, 4);
        let share0 = counts[&servers[0]] as f64 / 300.0;
        assert!(share0 > 0.9, "slow server mostly shunned, got {share0}");
    }

    #[test]
    fn pdns_prefers_fast_with_some_spill() {
        let servers = addrs(2);
        let rtts = HashMap::from([(servers[0], 30u64), (servers[1], 35u64)]);
        let counts = drive(PolicyKind::PowerDnsSpeed, &servers, &rtts, 300, 5);
        let share0 = counts[&servers[0]] as f64 / 300.0;
        // With 10% jitter on a 30-vs-35ms gap, the fast one wins most but
        // not all selections.
        assert!(share0 > 0.6, "fast mostly wins, got {share0}");
        assert!(share0 < 1.0, "jitter lets the other win sometimes, got {share0}");
    }

    #[test]
    fn uniform_random_is_roughly_fair() {
        let servers = addrs(4);
        let rtts: HashMap<_, _> = servers.iter().map(|&s| (s, 50u64)).collect();
        let counts = drive(PolicyKind::UniformRandom, &servers, &rtts, 4_000, 6);
        for &s in &servers {
            let share = counts[&s] as f64 / 4_000.0;
            assert!((0.2..0.3).contains(&share), "share {share}");
        }
    }

    #[test]
    fn round_robin_is_exactly_fair() {
        let servers = addrs(3);
        let rtts: HashMap<_, _> = servers.iter().map(|&s| (s, 50u64)).collect();
        let counts = drive(PolicyKind::RoundRobin, &servers, &rtts, 300, 7);
        for &s in &servers {
            assert_eq!(counts[&s], 100);
        }
    }

    #[test]
    fn sticky_uses_one_server() {
        let servers = addrs(4);
        let rtts: HashMap<_, _> = servers.iter().map(|&s| (s, 50u64)).collect();
        let counts = drive(PolicyKind::StickyPrimary, &servers, &rtts, 100, 8);
        assert_eq!(counts.len(), 1, "sticky never strays: {counts:?}");
        assert_eq!(counts.values().sum::<usize>(), 100);
    }

    #[test]
    fn sticky_retransmits_once_then_fails_over_without_repinning() {
        let servers = addrs(2);
        let mut policy = PolicyKind::StickyPrimary.build();
        let mut infra = InfraCache::new(None, Smoothing::TCP);
        let mut rng = DetRng::seed_from_u64(9);
        let first = policy.select(&servers, &[], &mut infra, t(0), &mut rng);
        // One failure: retransmit to the same upstream.
        let retry = policy.select(&servers, &[first], &mut infra, t(1), &mut rng);
        assert_eq!(retry, first);
        // Two failures: temporary failover to the other server.
        let failover = policy.select(&servers, &[first, first], &mut infra, t(2), &mut rng);
        assert_ne!(failover, first);
        // Next fresh query goes back to the pinned primary.
        let next = policy.select(&servers, &[], &mut infra, t(3), &mut rng);
        assert_eq!(next, first);
    }

    #[test]
    fn exclusion_honored_when_alternatives_exist() {
        let servers = addrs(3);
        // Each excluded server listed twice: past any retransmit
        // threshold, so even sticky resolvers must avoid them.
        let exclude =
            vec![servers[0], servers[1], servers[0], servers[1]];
        for kind in PolicyKind::ALL {
            let mut policy = kind.build();
            let mut infra = InfraCache::new(None, Smoothing::TCP);
            let mut rng = DetRng::seed_from_u64(10);
            for round in 0..20 {
                let chosen = policy.select(&servers, &exclude, &mut infra, t(round), &mut rng);
                assert_eq!(chosen, servers[2], "{kind:?} must honor exclusion");
            }
        }
    }

    #[test]
    fn exclusion_of_everything_still_selects() {
        let servers = addrs(2);
        for kind in PolicyKind::ALL {
            let mut policy = kind.build();
            let mut infra = InfraCache::new(None, Smoothing::TCP);
            let mut rng = DetRng::seed_from_u64(11);
            let chosen = policy.select(&servers, &servers, &mut infra, t(0), &mut rng);
            assert!(servers.contains(&chosen), "{kind:?} must still pick someone");
        }
    }

    #[test]
    fn fixed_order_always_first_until_failure() {
        let servers = addrs(3);
        let mut policy = PolicyKind::FixedOrder.build();
        let mut infra = InfraCache::new(None, Smoothing::TCP);
        let mut rng = DetRng::seed_from_u64(12);
        for round in 0..10 {
            assert_eq!(policy.select(&servers, &[], &mut infra, t(round), &mut rng), servers[0]);
        }
        // First server failed: walk to the second.
        let second = policy.select(&servers, &servers[..1], &mut infra, t(11), &mut rng);
        assert_eq!(second, servers[1]);
        // Both failed: third.
        let third = policy.select(&servers, &servers[..2], &mut infra, t(12), &mut rng);
        assert_eq!(third, servers[2]);
        // Next fresh query returns to the head of the list.
        assert_eq!(policy.select(&servers, &[], &mut infra, t(13), &mut rng), servers[0]);
    }

    #[test]
    fn bind_preference_ages_out_and_reforms_after_gap() {
        // §4.4: a learned BIND preference lives in the infra cache, so
        // ten minutes of disuse erases it. After the gap the resolver
        // re-explores, and under reversed RTT conditions the preference
        // re-forms toward the *other* server.
        let kind = PolicyKind::BindSrtt;
        let servers = addrs(2);
        let mut policy = kind.build();
        let mut infra = InfraCache::new(kind.default_infra_expiry(), kind.smoothing());
        let mut rng = DetRng::seed_from_u64(17);

        // Phase 1: servers[0] is fast; a strong preference forms.
        let rtts = HashMap::from([(servers[0], 10u64), (servers[1], 300u64)]);
        let mut phase1: HashMap<SimAddr, usize> = HashMap::new();
        for i in 0..100u64 {
            let now = t(i * 2);
            let chosen = policy.select(&servers, &[], &mut infra, now, &mut rng);
            *phase1.entry(chosen).or_default() += 1;
            infra.observe_rtt(chosen, SimDuration::from_millis(rtts[&chosen]), now);
        }
        let fast = phase1.get(&servers[0]).copied().unwrap_or(0);
        assert!(fast >= 90, "preference forms for the fast server, got {fast}/100");

        // Pin both entries' last_used to a common point, then let the
        // cache sit idle past the 10-minute ADB expiry.
        let last = t(200);
        for &s in &servers {
            infra.observe_rtt(s, SimDuration::from_millis(rtts[&s]), last);
        }
        assert!(infra.peek(servers[0], last + SimDuration::from_mins(10)).is_some());
        let after_gap = last + SimDuration::from_mins(11);
        assert!(infra.peek(servers[0], after_gap).is_none(), "entries age out on disuse");
        assert!(infra.peek(servers[1], after_gap).is_none());

        // Phase 2: RTTs reversed. The old preference is gone, so the
        // policy converges on the newly fast servers[1].
        let rtts = HashMap::from([(servers[0], 300u64), (servers[1], 10u64)]);
        let mut phase2: HashMap<SimAddr, usize> = HashMap::new();
        for i in 0..100u64 {
            let now = after_gap + SimDuration::from_secs(i * 2);
            let chosen = policy.select(&servers, &[], &mut infra, now, &mut rng);
            *phase2.entry(chosen).or_default() += 1;
            infra.observe_rtt(chosen, SimDuration::from_millis(rtts[&chosen]), now);
        }
        let refast = phase2.get(&servers[1]).copied().unwrap_or(0);
        assert!(refast >= 90, "preference re-forms toward the new fast server, got {refast}/100");
    }

    #[test]
    fn rto_clamp_boundaries() {
        // Below, at, inside, at, and above the legal window.
        assert_eq!(clamp_rto(0.0), RTT_MIN_TIMEOUT_MS);
        assert_eq!(clamp_rto(49.999), RTT_MIN_TIMEOUT_MS);
        assert_eq!(clamp_rto(RTT_MIN_TIMEOUT_MS), RTT_MIN_TIMEOUT_MS);
        assert_eq!(clamp_rto(UNKNOWN_SERVER_RTO_MS), UNKNOWN_SERVER_RTO_MS);
        assert_eq!(clamp_rto(RTT_MAX_TIMEOUT_MS), RTT_MAX_TIMEOUT_MS);
        assert_eq!(clamp_rto(RTT_MAX_TIMEOUT_MS + 1.0), RTT_MAX_TIMEOUT_MS);
        assert_eq!(clamp_rto(7_000_000.0), RTT_MAX_TIMEOUT_MS);
    }

    #[test]
    fn unknown_rto_sits_inside_the_band_of_the_floor() {
        // The whole point of 376: even against a server pinned at the
        // 50 ms clamp floor, an unknown server stays band-eligible.
        const { assert!(UNKNOWN_SERVER_RTO_MS < RTT_MIN_TIMEOUT_MS + RTT_BAND_MS) };
    }

    #[test]
    fn unbound_preset_uses_documented_constants() {
        let band = PolicyPreset::Unbound.unbound_band();
        assert_eq!(band.band_ms, RTT_BAND_MS);
        assert_eq!(band.unknown_rto_ms, UNKNOWN_SERVER_RTO_MS);
        assert_eq!(PolicyPreset::Unbound.build().kind(), PolicyKind::UnboundBand);
    }

    #[test]
    fn unbound_preset_keeps_exploring_an_unprobed_server() {
        // servers[0] is measured blazing fast (RTO clamps to the 50 ms
        // floor); servers[1] is never observed, so it keeps its 376 ms
        // optimism — inside the 450 ms band top, hence ~uniform picks.
        let servers = addrs(2);
        let mut policy = PolicyPreset::Unbound.build();
        let mut infra = InfraCache::new(None, Smoothing::TCP);
        let mut rng = DetRng::seed_from_u64(13);
        let mut unknown_picks = 0usize;
        for i in 0..400u64 {
            let now = t(i);
            let chosen = policy.select(&servers, &[], &mut infra, now, &mut rng);
            if chosen == servers[1] {
                unknown_picks += 1;
            } else {
                infra.observe_rtt(chosen, SimDuration::from_millis(1), now);
            }
        }
        let share = unknown_picks as f64 / 400.0;
        assert!((0.35..0.65).contains(&share), "unknown server explored, got {share}");
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            PolicyKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }
}
