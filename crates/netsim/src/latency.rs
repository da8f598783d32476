//! The latency model: how long a datagram takes between two hosts.
//!
//! One-way delay is composed of:
//!
//! * **propagation** — great-circle distance at two-thirds the speed of
//!   light, stretched by a deterministic per-pair *path inflation* factor
//!   (real Internet paths are not great circles, and different host pairs
//!   see different detours);
//! * **access delay** — each host contributes a fixed last-mile delay
//!   (home links are slower than datacenter links);
//! * **jitter** — a small per-packet random component.
//!
//! The per-pair inflation is derived from a hash of the two host ids and
//! the simulation salt, so it is stable across a run (a given recursive
//! always sees roughly the same RTT to a given authoritative — exactly the
//! signal SRTT-based selection feeds on) but varies across pairs.

use detrand::{splitmix64, Rng};

use crate::engine::HostId;
use crate::geo::GeoPoint;
use crate::time::SimDuration;

/// Speed of light in fibre, expressed as kilometres per millisecond.
const FIBRE_KM_PER_MS: f64 = 200.0;

/// Tunable parameters of the latency model.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Minimum per-pair path inflation (multiplier on the great-circle
    /// propagation time). Internet measurements put typical path stretch
    /// around 1.5–2.5×.
    pub inflation_min: f64,
    /// Maximum per-pair path inflation.
    pub inflation_max: f64,
    /// Mean of the per-packet exponential jitter, in milliseconds.
    pub jitter_mean_ms: f64,
    /// Probability that a datagram is silently dropped.
    pub loss_rate: f64,
    /// Fixed per-datagram processing overhead, milliseconds.
    pub overhead_ms: f64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            inflation_min: 1.4,
            inflation_max: 2.4,
            jitter_mean_ms: 1.5,
            loss_rate: 0.003,
            overhead_ms: 0.3,
        }
    }
}

/// The latency model bound to its configuration and salt.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    config: LatencyConfig,
    salt: u64,
}

impl LatencyModel {
    /// Creates a model. `salt` decorrelates per-pair inflation across
    /// simulations with different seeds.
    pub fn new(config: LatencyConfig, salt: u64) -> Self {
        LatencyModel { config, salt }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LatencyConfig {
        &self.config
    }

    /// Deterministic per-pair inflation factor, symmetric in its inputs.
    pub fn pair_inflation(&self, a: HostId, b: HostId) -> f64 {
        let (lo, hi) = if a.index() <= b.index() { (a, b) } else { (b, a) };
        let h = splitmix64(
            self.salt ^ ((lo.index() as u64) << 32) ^ (hi.index() as u64).wrapping_mul(0x9e37),
        );
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        self.config.inflation_min + unit * (self.config.inflation_max - self.config.inflation_min)
    }

    /// The deterministic (no-jitter) one-way delay between two placed hosts.
    pub fn base_one_way(
        &self,
        src: HostId,
        src_point: &GeoPoint,
        src_access: SimDuration,
        dst: HostId,
        dst_point: &GeoPoint,
        dst_access: SimDuration,
    ) -> SimDuration {
        let distance_km = src_point.distance_km(dst_point);
        let propagation_ms = distance_km / FIBRE_KM_PER_MS * self.pair_inflation(src, dst);
        let access_ms = (src_access.as_millis_f64() + dst_access.as_millis_f64()) / 2.0;
        SimDuration::from_millis_f64(propagation_ms + access_ms + self.config.overhead_ms)
    }

    /// Samples the per-packet jitter.
    pub fn sample_jitter<R: Rng>(&self, rng: &mut R) -> SimDuration {
        if self.config.jitter_mean_ms <= 0.0 {
            return SimDuration::ZERO;
        }
        // Inverse-CDF sample of an exponential distribution.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        SimDuration::from_millis_f64(-self.config.jitter_mean_ms * u.ln())
    }

    /// Whether this datagram is lost.
    pub fn sample_loss<R: Rng>(&self, rng: &mut R) -> bool {
        self.config.loss_rate > 0.0 && rng.gen_bool(self.config.loss_rate.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::datacenters;
    use detrand::DetRng;

    fn host(i: u32) -> HostId {
        HostId(i)
    }

    #[test]
    fn inflation_is_symmetric_and_bounded() {
        let m = LatencyModel::new(LatencyConfig::default(), 42);
        for a in 0..20u32 {
            for b in 0..20u32 {
                let f = m.pair_inflation(host(a), host(b));
                assert_eq!(f, m.pair_inflation(host(b), host(a)));
                assert!((1.4..=2.4).contains(&f), "inflation {f}");
            }
        }
    }

    #[test]
    fn inflation_varies_across_pairs() {
        let m = LatencyModel::new(LatencyConfig::default(), 42);
        let f1 = m.pair_inflation(host(1), host(2));
        let f2 = m.pair_inflation(host(1), host(3));
        assert!((f1 - f2).abs() > 1e-6);
    }

    #[test]
    fn base_delay_scales_with_distance() {
        let m = LatencyModel::new(LatencyConfig::default(), 7);
        let access = SimDuration::from_millis(2);
        let near = m.base_one_way(
            host(0),
            &datacenters::FRA.point,
            access,
            host(1),
            &datacenters::DUB.point,
            access,
        );
        let far = m.base_one_way(
            host(0),
            &datacenters::FRA.point,
            access,
            host(2),
            &datacenters::SYD.point,
            access,
        );
        assert!(far.as_millis_f64() > 4.0 * near.as_millis_f64());
        // FRA-SYD one-way should be in the vicinity of 120–220 ms.
        assert!(
            (100.0..260.0).contains(&far.as_millis_f64()),
            "FRA-SYD one-way {far}"
        );
    }

    #[test]
    fn jitter_positive_and_small_on_average() {
        let m = LatencyModel::new(LatencyConfig::default(), 7);
        let mut rng = DetRng::seed_from_u64(1);
        let n = 10_000;
        let total: f64 = (0..n).map(|_| m.sample_jitter(&mut rng).as_millis_f64()).sum();
        let mean = total / n as f64;
        assert!((0.5..4.0).contains(&mean), "jitter mean {mean}");
    }

    #[test]
    fn loss_rate_respected() {
        let cfg = LatencyConfig { loss_rate: 0.1, ..LatencyConfig::default() };
        let m = LatencyModel::new(cfg, 7);
        let mut rng = DetRng::seed_from_u64(2);
        let n = 20_000;
        let lost = (0..n).filter(|_| m.sample_loss(&mut rng)).count();
        let rate = lost as f64 / n as f64;
        assert!((0.07..0.13).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn zero_loss_never_drops() {
        let cfg = LatencyConfig { loss_rate: 0.0, ..LatencyConfig::default() };
        let m = LatencyModel::new(cfg, 7);
        let mut rng = DetRng::seed_from_u64(3);
        assert!((0..1000).all(|_| !m.sample_loss(&mut rng)));
    }
}
