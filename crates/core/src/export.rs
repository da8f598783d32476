//! Exporting raw measurement data as TSV — the machine-readable series
//! behind each figure, for external plotting (gnuplot, pandas, R).
//!
//! Every `exp_*` binary with raw series accepts `--dump DIR` and writes
//! them here; the tables printed to stdout are derived from the same
//! data.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use dnswild_analysis::{IntervalPoint, RankProfile, SensitivityPoint, TimeBucket};
use dnswild_atlas::MeasurementResult;

/// Per-probe records: one row per successful probe.
///
/// Columns: `vp continent policy forwarded round time_ms auth site rtt_ms`
pub fn probes_tsv(result: &MeasurementResult) -> String {
    let mut out = String::from("vp\tcontinent\tpolicy\tforwarded\tround\ttime_ms\tauth\tsite\trtt_ms\n");
    for vp in &result.vps {
        for p in &vp.probes {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{:.3}\t{}\t{}\t{:.3}",
                vp.index,
                vp.continent.code(),
                vp.policy.label(),
                vp.forwarded as u8,
                p.round,
                p.time.as_millis_f64(),
                p.auth,
                p.site,
                p.rtt.as_millis_f64(),
            );
        }
    }
    out
}

/// Per-upstream-exchange records from the recursives' viewpoint.
///
/// Columns: `vp auth time_ms rtt_ms`
pub fn samples_tsv(result: &MeasurementResult) -> String {
    let mut out = String::from("vp\tauth\ttime_ms\trtt_ms\n");
    for vp in &result.vps {
        for s in &vp.samples {
            let auth = result
                .addr_to_auth
                .get(&s.server)
                .map(String::as_str)
                .unwrap_or("?");
            let _ = writeln!(
                out,
                "{}\t{}\t{:.3}\t{:.3}",
                vp.index,
                auth,
                s.time.as_millis_f64(),
                s.rtt.as_millis_f64(),
            );
        }
    }
    out
}

/// Figure 5 points. Columns: `continent site vps median_rtt_ms mean_fraction`
pub fn sensitivity_tsv(points: &[SensitivityPoint]) -> String {
    let mut out = String::from("continent\tsite\tvps\tmedian_rtt_ms\tmean_fraction\n");
    for p in points {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{:.3}\t{:.4}",
            p.continent.code(),
            p.site,
            p.vp_count,
            p.median_rtt_ms,
            p.mean_fraction
        );
    }
    out
}

/// Figure 6 points. Columns: `interval_min continent fraction queries`
pub fn interval_tsv(points: &[IntervalPoint]) -> String {
    let mut out = String::from("interval_min\tcontinent\tfraction\tqueries\n");
    for p in points {
        let _ = writeln!(
            out,
            "{}\t{}\t{:.4}\t{}",
            p.interval_min,
            p.continent.code(),
            p.fraction,
            p.queries
        );
    }
    out
}

/// Figure 7 profile. Columns: `rank at_least_k_pct mean_rank_share`
pub fn rank_tsv(profile: &RankProfile) -> String {
    let mut out = String::from("rank\tat_least_k_pct\tmean_rank_share\n");
    for k in 1..=profile.n_auths {
        let _ = writeln!(
            out,
            "{}\t{:.2}\t{:.5}",
            k,
            profile.at_least_k_pct[k - 1],
            profile.mean_rank_share[k - 1]
        );
    }
    out
}

/// Outage timeline. Columns: `start_ms probes failures failure_rate median_rtt_ms share...`
pub fn timeline_tsv(buckets: &[TimeBucket], auths: &[String]) -> String {
    let mut out = String::from("start_ms\tprobes\tfailures\tfailure_rate\tmedian_rtt_ms");
    for a in auths {
        let _ = write!(out, "\tshare_{a}");
    }
    out.push('\n');
    for b in buckets {
        let _ = write!(
            out,
            "{:.0}\t{}\t{}\t{:.4}\t{}",
            b.start.as_millis_f64(),
            b.probes,
            b.failures,
            b.failure_rate(),
            b.median_rtt_ms.map(|r| format!("{r:.2}")).unwrap_or_else(|| "nan".into()),
        );
        for s in &b.share {
            let _ = write!(out, "\t{s:.4}");
        }
        out.push('\n');
    }
    out
}

/// Writes `content` to `dir/name`, creating the directory if needed.
pub fn write_dump(dir: &str, name: &str, content: &str) -> io::Result<()> {
    let dir = Path::new(dir);
    fs::create_dir_all(dir)?;
    fs::write(dir.join(name), content)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_atlas::{run_measurement, MeasurementConfig, StandardConfig};

    fn small_result() -> MeasurementResult {
        let mut cfg = MeasurementConfig::quick(StandardConfig::C2B, 10, 91);
        cfg.rounds = 4;
        run_measurement(&cfg)
    }

    #[test]
    fn probes_tsv_has_header_and_rows() {
        let result = small_result();
        let tsv = probes_tsv(&result);
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].starts_with("vp\tcontinent"));
        assert_eq!(lines.len() - 1, result.probe_count());
        // Every data row has the full column count.
        let cols = lines[0].split('\t').count();
        for l in &lines[1..] {
            assert_eq!(l.split('\t').count(), cols, "bad row {l}");
        }
    }

    #[test]
    fn samples_tsv_resolves_auth_codes() {
        let result = small_result();
        let tsv = samples_tsv(&result);
        assert!(tsv.contains("DUB") || tsv.contains("FRA"));
        assert!(!tsv.contains("\t?\t"), "all sample servers resolve to auth codes");
    }

    #[test]
    fn timeline_tsv_shape() {
        use dnswild_netsim::SimDuration;
        let result = small_result();
        let buckets = dnswild_analysis::timeline(&result, SimDuration::from_mins(2));
        let tsv = timeline_tsv(&buckets, &result.auth_codes());
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].contains("share_DUB"));
        assert_eq!(lines.len() - 1, buckets.len());
    }

    #[test]
    fn write_dump_creates_files() {
        let dir = std::env::temp_dir().join("dnswild-export-test");
        let dir = dir.to_str().unwrap();
        write_dump(dir, "x.tsv", "a\tb\n1\t2\n").unwrap();
        let content = std::fs::read_to_string(Path::new(dir).join("x.tsv")).unwrap();
        assert!(content.ends_with("1\t2\n"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
