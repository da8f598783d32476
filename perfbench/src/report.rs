//! Metric names and the result a run builds. The two tables here are
//! the code's half of the contract in `BENCHMARK.json` (a unit test
//! keeps the two in step).

use std::fmt::Write as _;

use crate::stats::median;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("latency_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, from the traced run. A metric the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proto.decode_query_ns", "ns"),
    ("proto.decode_response_ns", "ns"),
    ("proto.encode_query_ns", "ns"),
    ("proto.encode_into_response_ns", "ns"),
    ("proto.encode_truncated_512_ns", "ns"),
    ("zone.lookup_wildcard_ns", "ns"),
    ("zone.lookup_exact_ns", "ns"),
    ("zone.lookup_nodata_ns", "ns"),
    ("server.handle_packet_udp_ns", "ns"),
    ("server.handle_packet_tcp_ns", "ns"),
    ("server.engine_self_ns", "ns"),
    ("server.rrl_verdict_ns", "ns"),
    ("telemetry.record_ns", "ns"),
    ("metrics.counter_hist_record_ns", "ns"),
    ("metrics.span_lap_enabled_ns", "ns"),
    ("metrics.span_lap_disabled_ns", "ns"),
    ("netio.tcp.frame_codec_ns", "ns"),
    ("cache.get_hit_ns", "ns"),
    ("cache.get_miss_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("resolver.policy_select_ns", "ns"),
    ("resolver.infra_update_ns", "ns"),
    ("netsim.event_ns", "ns"),
    ("calib.spin_ns", "ns"),
    ("floor.echo_cpu_ns_per_datagram", "ns"),
    ("floor.echo_sat_qps", "1/s"),
    ("netio.server.busy_share", "ratio"),
    ("netio.server.runq_wait_ns_per_query", "ns"),
    ("netio.server.sat_qps_std", "1/s"),
    ("netio.server.sat_qps_mmsg", "1/s"),
    ("netio.server.recv_errors", "count"),
    ("netio.server.decode_errors", "count"),
    ("netio.server.send_errors", "count"),
    ("netio.server.stage_recv_ns", "ns"),
    ("netio.server.stage_decode_ns", "ns"),
    ("netio.server.stage_engine_ns", "ns"),
    ("netio.server.stage_encode_ns", "ns"),
    ("netio.server.stage_send_ns", "ns"),
    ("obs.cpu_ns_per_query_delta", "ns"),
    ("obs.trace_events", "count"),
    ("obs.ring_overflow", "count"),
    ("netio.tcp.accepted", "count"),
    ("netio.tcp.over_cap", "count"),
    ("netio.tcp.frame_errors", "count"),
    ("netio.tcp.fresh_qps", "1/s"),
    ("netio.tcp.fresh_conn_cpu_us", "us"),
    ("netio.tcp.detour_fresh_p50_us", "us"),
    ("cache.hits", "count"),
    ("cache.inserts", "count"),
    ("cache.evictions", "count"),
    ("netio.client.warm_txn_ns_c1", "ns"),
    ("netio.client.warm_txn_ns_c2", "ns"),
    ("netio.client.retries", "count"),
    ("netio.client.tc_seen", "count"),
    ("netio.client.per_server_share_max", "ratio"),
    ("atlas.run_ns_per_probe", "ns"),
    ("analysis.pipeline_ms", "ms"),
    ("gen.cpu_ns_per_query", "ns"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("gen.busy_share", "ratio"),
    ("tail.r20k.p99_us", "us"),
    ("tail.r20k.p999_us", "us"),
    ("tail.r20k.samples", "count"),
    ("tail.r40k.p99_us", "us"),
    ("tail.r40k.p999_us", "us"),
    ("tail.r40k.samples", "count"),
    ("tail.r80k.p99_us", "us"),
    ("tail.r80k.p999_us", "us"),
    ("tail.r80k.samples", "count"),
    ("load.max_rate_ok", "1/s"),
    ("budget.e2e_ns", "ns"),
    ("budget.sum_layers_ns", "ns"),
    ("budget.residual_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
    /// The slice (or pass) values behind each median, kept for the
    /// detail file.
    pub slices: Vec<(String, Vec<f64>)>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed (lost, timed out, answered wrongly).
    pub failed: u64,
    /// Broken invariants; any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Report {
    /// An empty report over the end-to-end or the per-layer table.
    pub fn new(trace: bool) -> Report {
        let table = if trace { PER_LAYER } else { END_TO_END };
        Report {
            traced: trace,
            table,
            values: vec![0.0; table.len()],
            slices: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Sets a metric of this run's table. A name from the other table
    /// is ignored, so a workload states everything it knows once and
    /// each mode keeps its own half; a name in neither is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(i) = self.table.iter().position(|(n, _)| *n == name) {
            self.values[i] = value;
        } else {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
                "metric {name} is in neither table"
            );
        }
    }

    /// Sets a metric to the median of its slice values and keeps them.
    pub fn set_median(&mut self, name: &str, values: Vec<f64>) {
        self.set(name, median(&values));
        self.slices.push((name.to_string(), values));
    }

    /// The value a metric currently holds.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.table
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0.0, |i| self.values[i])
    }

    /// Records a broken invariant.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Requires `cond`, recording `what` as a violation otherwise.
    pub fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.violations.push(what());
        }
    }

    /// Whether every answer and invariant checked out.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// `(name, unit, value)` rows in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, u, v))
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.rows().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number as JSON (non-finite values have no JSON form; they
/// only arise from a broken measurement and read as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn each_mode_keeps_its_own_half() {
        let mut e2e = Report::new(false);
        e2e.set("ops_per_s", 5.0);
        e2e.set("cache.hits", 9.0);
        assert_eq!(e2e.get("ops_per_s"), 5.0);
        assert!(!e2e.result_line().contains("cache.hits"));
        let mut traced = Report::new(true);
        traced.set_median("cache.hits", vec![1.0, 9.0, 4.0]);
        assert_eq!(traced.get("cache.hits"), 4.0);
        assert!(traced
            .result_line()
            .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        traced.violation("x");
        assert!(traced.result_line().starts_with("{\"correct\": false"));
    }
}
