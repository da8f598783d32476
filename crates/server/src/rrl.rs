//! Response-rate limiting: per-client token buckets, BIND-style RRL
//! slip answers, and a per-site NXDOMAIN budget.
//!
//! The paper's §7 warning — recursive retry machinery multiplies load
//! on authoritative servers — turns hostile in NXNSAttack and the
//! random-subdomain "water torture" floods: a spoofed or hijacked
//! client bank can make an authoritative amplify and reflect. The
//! classic defense (Vixie/Schryver RRL, deployed in BIND and NSD)
//! rate-limits *responses* per client prefix and answers a configurable
//! 1-in-N of the limited ones with a truncated (TC=1) reply, so a
//! *legitimate* recursive behind the limited prefix still gets through
//! by retrying over TCP — which a spoofed source cannot do.
//!
//! Determinism contract: buckets refill in **request ticks**, not
//! wall-clock time. Every charged query advances the bucket by
//! `rate/period` tokens (fractional part carried exactly in integer
//! arithmetic), so the verdict for the n-th charged query of a key is a
//! pure function of `(policy, n)` — independent of timing, thread
//! scheduling and interleaving with other keys. That is what lets the
//! attack gates replay byte-identically across runs, the same property
//! the chaos proxy's seeded fault schedule has.
//!
//! The per-site NXDOMAIN budget is a second, site-global bucket charged
//! only by NXDOMAIN responses that already passed their per-client
//! bucket; its verdict sequence is therefore a pure function of the
//! count of such key-passes, again interleaving-independent.

use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};

use dnswild_metrics::{LogHistogram, Registry};

/// What the rate limiter decided to do with one chargeable response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrlVerdict {
    /// Within budget: send the real response.
    Answer,
    /// Limited, but this is the 1-in-`slip` response that goes out as a
    /// minimal TC=1 reply inviting a TCP retry.
    Slip,
    /// Limited: send nothing.
    Drop,
}

impl RrlVerdict {
    /// The `verdict` label value used in the registry.
    pub fn name(self) -> &'static str {
        match self {
            RrlVerdict::Answer => "answer",
            RrlVerdict::Slip => "slip",
            RrlVerdict::Drop => "drop",
        }
    }
}

/// All three verdicts, in severity order.
pub const VERDICTS: [RrlVerdict; 3] = [RrlVerdict::Answer, RrlVerdict::Slip, RrlVerdict::Drop];

/// Which responses are charged against the client's bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrlScope {
    /// Charge only the response classes attacks monetise — NXDOMAIN,
    /// referrals and REFUSED. Positive answers, NODATA and CHAOS flow
    /// free, so a legitimate mix keeps 100% goodput under any policy.
    Abusive,
    /// Charge every proper question (classic RRL). Needed when positive
    /// answers themselves are the amplification vector.
    All,
}

/// Rate-limiting policy: per-client token buckets plus a site-wide
/// NXDOMAIN budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitPolicy {
    /// Bucket capacity: chargeable responses a fresh client may burst
    /// before the refill rate takes over.
    pub burst: u32,
    /// Tokens refilled per `period` charged queries (steady-state pass
    /// ratio is `rate/period` for a hammering key).
    pub rate: u32,
    /// Charged queries per refill batch (0 is treated as 1).
    pub period: u32,
    /// Answer 1-in-`slip` limited responses with TC=1 instead of
    /// dropping (0 = never slip, 1 = always slip).
    pub slip: u32,
    /// Site-wide NXDOMAIN bucket capacity (0 = no NXDOMAIN budget).
    pub nxdomain_budget: u32,
    /// Which response classes are charged.
    pub scope: RrlScope,
    /// Maximum tracked client buckets before LRU eviction.
    pub max_buckets: usize,
    /// Mix the source port into the client key. On loopback every
    /// client shares 127.0.0.1, so the attack harness uses ephemeral
    /// ports as its spoofed-source dimension; real deployments keep
    /// this off and aggregate by prefix only.
    pub key_ports: bool,
}

impl Default for RateLimitPolicy {
    fn default() -> Self {
        RateLimitPolicy {
            burst: 50,
            rate: 1,
            period: 8,
            slip: 2,
            nxdomain_budget: 0,
            scope: RrlScope::Abusive,
            max_buckets: 4096,
            key_ports: false,
        }
    }
}

/// IPv4 prefix length clients are aggregated on (BIND default /24).
const PREFIX_V4: u32 = 24;
/// IPv6 prefix length clients are aggregated on (BIND default /56).
const PREFIX_V6: u32 = 56;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RateLimitPolicy {
    /// The bucket key for a client address: a hash of the
    /// prefix-masked source IP (ports mixed in iff `key_ports`).
    /// Aggregating on a prefix is what makes RRL robust against one
    /// attacker rotating through a /24 of spoofed sources.
    pub fn client_key(&self, addr: &SocketAddr) -> u64 {
        let mut h = match addr.ip() {
            IpAddr::V4(ip) => {
                let mask = u32::MAX << (32 - PREFIX_V4);
                splitmix64(0x7272_6c34 ^ u64::from(u32::from_be_bytes(ip.octets()) & mask))
            }
            IpAddr::V6(ip) => {
                let bits = u128::from_be_bytes(ip.octets()) & (u128::MAX << (128 - PREFIX_V6));
                splitmix64(splitmix64(0x7272_6c36 ^ (bits >> 64) as u64) ^ bits as u64)
            }
        };
        if self.key_ports {
            h = splitmix64(h ^ u64::from(addr.port()));
        }
        h
    }
}

/// One token bucket: integer tokens plus an exact fractional-refill
/// accumulator (`frac/period` tokens pending), a slip sequence counter
/// and an LRU stamp.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: u64,
    frac: u64,
    slip_seq: u64,
    last_use: u64,
}

impl Bucket {
    fn full(cap: u32) -> Bucket {
        Bucket { tokens: u64::from(cap), frac: 0, slip_seq: 0, last_use: 0 }
    }

    /// One request tick: accrue `rate/period` of a token, exactly.
    fn refill(&mut self, rate: u32, period: u64, cap: u32) {
        self.frac += u64::from(rate);
        if self.frac >= period {
            self.tokens = (self.tokens + self.frac / period).min(u64::from(cap));
            self.frac %= period;
        }
    }

    /// Consumes one token if available.
    fn take(&mut self) -> bool {
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Slip-or-drop for a limited response: every `slip`-th limited
    /// response of this bucket slips out as TC=1.
    fn limited(&mut self, slip: u32) -> RrlVerdict {
        self.slip_seq += 1;
        if slip != 0 && self.slip_seq.is_multiple_of(u64::from(slip)) {
            RrlVerdict::Slip
        } else {
            RrlVerdict::Drop
        }
    }
}

/// What one [`RateLimiter::verdict`] call decided, plus whether making
/// room for the key evicted another bucket (the caller's
/// `bucket_evictions` counter feed — returned rather than accumulated
/// here so per-shard stats stay additive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrlDecision {
    /// Answer, slip or drop.
    pub verdict: RrlVerdict,
    /// An LRU bucket was evicted to admit this key.
    pub evicted: bool,
}

/// The RRL state machine: per-client-key token buckets with LRU
/// eviction, plus the site-global NXDOMAIN budget bucket.
///
/// One limiter is shared (behind a mutex) by every engine fork of a
/// serving plane: the per-site NXDOMAIN budget is semantically
/// site-wide, and sharing keeps the verdict sequence independent of
/// how the kernel's reuseport hash spreads clients over shards.
#[derive(Debug)]
pub struct RateLimiter {
    policy: RateLimitPolicy,
    buckets: HashMap<u64, Bucket>,
    nx: Bucket,
    use_seq: u64,
}

/// A limiter shared across the forks of one serving plane.
pub type SharedRateLimiter = Arc<Mutex<RateLimiter>>;

impl RateLimiter {
    /// A fresh limiter under `policy` (all buckets start full).
    pub fn new(policy: RateLimitPolicy) -> RateLimiter {
        RateLimiter {
            policy,
            buckets: HashMap::new(),
            nx: Bucket::full(policy.nxdomain_budget),
            use_seq: 0,
        }
    }

    /// A fresh limiter behind the shared handle engine forks clone.
    pub fn shared(policy: RateLimitPolicy) -> SharedRateLimiter {
        Arc::new(Mutex::new(RateLimiter::new(policy)))
    }

    /// The policy this limiter enforces.
    pub fn policy(&self) -> &RateLimitPolicy {
        &self.policy
    }

    /// Currently tracked client buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Charges one chargeable response for client `key` (`nxdomain`
    /// additionally charges the site-wide NXDOMAIN budget) and returns
    /// the verdict. Purely request-tick driven — see the module docs
    /// for the determinism contract.
    pub fn verdict(&mut self, key: u64, nxdomain: bool) -> RrlDecision {
        self.use_seq += 1;
        let p = self.policy;
        let period = u64::from(p.period.max(1));
        let mut evicted = false;
        if !self.buckets.contains_key(&key) && self.buckets.len() >= p.max_buckets.max(1) {
            // O(n) LRU scan: eviction only happens past max_buckets
            // distinct prefixes, far off the per-packet hot path.
            if let Some(oldest) =
                self.buckets.iter().min_by_key(|(k, b)| (b.last_use, **k)).map(|(k, _)| *k)
            {
                self.buckets.remove(&oldest);
                evicted = true;
            }
        }
        let bucket = self.buckets.entry(key).or_insert_with(|| Bucket::full(p.burst));
        bucket.last_use = self.use_seq;
        bucket.refill(p.rate, period, p.burst);
        if !bucket.take() {
            return RrlDecision { verdict: bucket.limited(p.slip), evicted };
        }
        // Key bucket passed; NXDOMAINs additionally draw on the
        // site-wide budget (0 = unlimited).
        if nxdomain && p.nxdomain_budget > 0 {
            self.nx.refill(p.rate, period, p.nxdomain_budget);
            if !self.nx.take() {
                return RrlDecision { verdict: self.nx.limited(p.slip), evicted };
            }
        }
        RrlDecision { verdict: RrlVerdict::Answer, evicted }
    }

    #[cfg(test)]
    fn assert_invariants(&self) {
        let p = self.policy;
        let period = u64::from(p.period.max(1));
        for b in self.buckets.values() {
            assert!(b.tokens <= u64::from(p.burst), "tokens {} > burst {}", b.tokens, p.burst);
            assert!(b.frac < period, "frac {} >= period {period}", b.frac);
        }
        assert!(self.nx.tokens <= u64::from(p.nxdomain_budget));
        assert!(self.nx.frac < period);
        assert!(self.buckets.len() <= p.max_buckets.max(1));
    }
}

/// The `{verdict}` span histograms: time spent in the RRL decision,
/// one `dnswild_rrl_verdict_ns{verdict=...}` series per verdict.
///
/// Deliberately *not* a sixth [`dnswild_metrics::Stage`]: the stage
/// histograms carry a one-sample-per-packet invariant the metrics gate
/// checks, while verdict spans only exist for charged packets and only
/// when rate limiting is enabled.
#[derive(Debug, Clone)]
pub struct VerdictSpans {
    hists: [Arc<LogHistogram>; 3],
}

impl VerdictSpans {
    /// Registers the three verdict histograms (idempotent per registry).
    pub fn register(registry: &Registry) -> VerdictSpans {
        let hists = VERDICTS.map(|v| {
            registry.histogram_with(
                "dnswild_rrl_verdict_ns",
                "rate-limit decision time by verdict, nanoseconds",
                &[("verdict", v.name())],
            )
        });
        VerdictSpans { hists }
    }

    /// Records one decision duration under its verdict.
    #[inline]
    pub fn record(&self, verdict: RrlVerdict, ns: u64) {
        self.hists[verdict as usize].record(ns);
    }

    /// The histogram backing one verdict.
    pub fn histogram(&self, verdict: RrlVerdict) -> &LogHistogram {
        &self.hists[verdict as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::qc;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddrV4, SocketAddrV6};

    fn policy(burst: u32, rate: u32, period: u32, slip: u32) -> RateLimitPolicy {
        RateLimitPolicy { burst, rate, period, slip, ..RateLimitPolicy::default() }
    }

    #[test]
    fn burst_then_steady_state_ratio() {
        // burst 4, rate 1/period 4: the burst (plus the one token that
        // refills across its four ticks) drains, then exactly every
        // fourth charged query passes.
        let mut lim = RateLimiter::new(policy(4, 1, 4, 0));
        let verdicts: Vec<RrlVerdict> = (0..16).map(|_| lim.verdict(7, false).verdict).collect();
        use RrlVerdict::*;
        assert_eq!(
            verdicts,
            [
                Answer, Answer, Answer, Answer, Answer, // burst + 1 refilled
                Drop, Drop, Answer, // tick 8: frac reached 4 again
                Drop, Drop, Drop, Answer, Drop, Drop, Drop, Answer,
            ]
        );
    }

    #[test]
    fn slip_answers_one_in_n_limited() {
        let mut lim = RateLimiter::new(policy(0, 0, 1, 2));
        let verdicts: Vec<RrlVerdict> = (0..6).map(|_| lim.verdict(1, false).verdict).collect();
        use RrlVerdict::*;
        assert_eq!(verdicts, [Drop, Slip, Drop, Slip, Drop, Slip]);
        let mut always = RateLimiter::new(policy(0, 0, 1, 1));
        assert_eq!(always.verdict(1, false).verdict, Slip);
        let mut never = RateLimiter::new(policy(0, 0, 1, 0));
        assert_eq!(never.verdict(1, false).verdict, Drop);
    }

    #[test]
    fn nxdomain_budget_is_site_wide_across_keys() {
        // Generous per-key buckets; NXDOMAIN budget of 3 with no refill
        // pressure to speak of (rate 0 keeps the budget from refilling).
        let p = RateLimitPolicy { nxdomain_budget: 3, ..policy(100, 0, 1, 0) };
        let mut lim = RateLimiter::new(p);
        let mut answers = 0;
        for key in 0..10u64 {
            if lim.verdict(key, true).verdict == RrlVerdict::Answer {
                answers += 1;
            }
        }
        assert_eq!(answers, 3, "budget caps NXDOMAINs across all keys");
        // Non-NXDOMAIN traffic is untouched by the budget.
        assert_eq!(lim.verdict(99, false).verdict, RrlVerdict::Answer);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_reported() {
        let p = RateLimitPolicy { max_buckets: 2, ..policy(1, 0, 1, 0) };
        let mut lim = RateLimiter::new(p);
        assert!(!lim.verdict(10, false).evicted);
        assert!(!lim.verdict(20, false).evicted);
        // Key 30 must evict key 10 (the least recently used).
        assert!(lim.verdict(30, false).evicted);
        assert_eq!(lim.bucket_count(), 2);
        // Key 10 returns with a *fresh* bucket (burst available again),
        // evicting key 20.
        let d = lim.verdict(10, false);
        assert!(d.evicted);
        assert_eq!(d.verdict, RrlVerdict::Answer);
        // Key 30 was just used, so it kept its bucket — now empty.
        assert_eq!(lim.verdict(30, false).verdict, RrlVerdict::Drop);
    }

    #[test]
    fn client_keys_aggregate_on_prefixes() {
        let p = RateLimitPolicy::default();
        let v4 = |a, b, c, d, port| {
            SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::new(a, b, c, d), port))
        };
        // Same /24 → same key, regardless of host byte or port.
        assert_eq!(p.client_key(&v4(192, 0, 2, 1, 1000)), p.client_key(&v4(192, 0, 2, 99, 2000)));
        assert_ne!(p.client_key(&v4(192, 0, 2, 1, 1000)), p.client_key(&v4(192, 0, 3, 1, 1000)));
        // key_ports separates loopback clients by source port.
        let pp = RateLimitPolicy { key_ports: true, ..p };
        assert_ne!(pp.client_key(&v4(127, 0, 0, 1, 1000)), pp.client_key(&v4(127, 0, 0, 1, 1001)));
        assert_eq!(pp.client_key(&v4(127, 0, 0, 1, 1000)), pp.client_key(&v4(127, 0, 0, 1, 1000)));
        // v6: same /56 collapses, different /56 does not.
        let v6 = |segs: [u16; 8]| {
            SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::from(segs), 53, 0, 0))
        };
        assert_eq!(
            p.client_key(&v6([0x2001, 0xdb8, 0, 0x0100, 0, 0, 0, 1])),
            p.client_key(&v6([0x2001, 0xdb8, 0, 0x01ff, 9, 9, 9, 9]))
        );
        assert_ne!(
            p.client_key(&v6([0x2001, 0xdb8, 0, 0x0100, 0, 0, 0, 1])),
            p.client_key(&v6([0x2001, 0xdb8, 0, 0x0200, 0, 0, 0, 1]))
        );
    }

    /// Draws a small-but-adversarial policy: tiny bursts, rates and
    /// periods around the carry boundaries, occasional extreme values.
    fn gen_policy(g: &mut qc::Gen) -> RateLimitPolicy {
        RateLimitPolicy {
            burst: g.u32_in(0..6),
            rate: g.u32_in(0..5),
            period: g.u32_in(0..6), // 0 exercises the max(1) clamp
            slip: g.u32_in(0..4),
            nxdomain_budget: g.u32_in(0..5),
            max_buckets: g.usize_in(1..5),
            ..RateLimitPolicy::default()
        }
    }

    #[test]
    fn qc_refill_arithmetic_never_overflows_or_escapes_caps() {
        qc::property("server/rrl-refill-invariants").cases(2048).check(|g| {
            let p = gen_policy(g);
            let mut lim = RateLimiter::new(p);
            let steps = g.usize_in(1..200);
            for _ in 0..steps {
                let key = g.u64_in(0..8);
                let nx = g.bool();
                lim.verdict(key, nx);
                lim.assert_invariants();
            }
        });
    }

    #[test]
    fn qc_verdict_counts_sum_to_offered_load() {
        qc::property("server/rrl-books-balance").cases(2048).check(|g| {
            let p = gen_policy(g);
            let mut lim = RateLimiter::new(p);
            let offered = g.usize_in(1..300);
            let (mut answer, mut slip, mut drop) = (0u64, 0u64, 0u64);
            for _ in 0..offered {
                match lim.verdict(g.u64_in(0..6), g.bool()).verdict {
                    RrlVerdict::Answer => answer += 1,
                    RrlVerdict::Slip => slip += 1,
                    RrlVerdict::Drop => drop += 1,
                }
            }
            assert_eq!(answer + slip + drop, offered as u64);
        });
    }

    #[test]
    fn qc_same_charge_sequence_same_verdict_sequence() {
        qc::property("server/rrl-verdict-deterministic").cases(2048).check(|g| {
            let p = gen_policy(g);
            let seq: Vec<(u64, bool)> =
                g.vec(1..200, |g| (g.u64_in(0..8), g.bool()));
            let run = |seq: &[(u64, bool)]| -> Vec<RrlDecision> {
                let mut lim = RateLimiter::new(p);
                seq.iter().map(|&(k, nx)| lim.verdict(k, nx)).collect()
            };
            assert_eq!(run(&seq), run(&seq), "replay must be byte-identical");
        });
    }

    #[test]
    fn verdict_spans_record_under_their_label() {
        let reg = Registry::new();
        let spans = VerdictSpans::register(&reg);
        spans.record(RrlVerdict::Slip, 100);
        spans.record(RrlVerdict::Drop, 50);
        assert_eq!(spans.histogram(RrlVerdict::Slip).count(), 1);
        assert_eq!(spans.histogram(RrlVerdict::Drop).count(), 1);
        assert_eq!(spans.histogram(RrlVerdict::Answer).count(), 0);
        let text = reg.render();
        assert!(text.contains("dnswild_rrl_verdict_ns_bucket{verdict=\"slip\""));
    }
}
