//! Result files of `bench all` and their comparison: the tool every
//! later performance change uses to show "no regression" row by row.

use std::fmt::Write as _;

use crate::json::{quote, Json};
use crate::report::json_num;
use crate::stats::{median, spread};

/// One `(workload, metric)` row: every run's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// One value per run.
    pub values: Vec<f64>,
}

/// A metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub metric: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the first file's median the metric may worsen by.
    pub bound: f64,
}

/// How a row of the second file compares with the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Pass,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, so the medians cannot
    /// settle it either way.
    Unresolved,
}

/// Renders rows (plus free-form header members) as a result file.
pub fn render_file(header: &[(&str, String)], rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(s, "  {}: {v},", quote(k));
    }
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let values: Vec<String> = r.values.iter().map(|v| json_num(*v)).collect();
        let _ = writeln!(
            s,
            "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"median\": {}, \"spread\": {}, \"values\": [{}]}}{}",
            quote(&r.workload),
            quote(&r.metric),
            quote(&r.unit),
            json_num(median(&r.values)),
            json_num(spread(&r.values)),
            values.join(", "),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Reads the rows of a result file back.
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = Json::parse(text)?;
    let rows = doc.get("rows").ok_or("no \"rows\" member")?;
    rows.items()
        .iter()
        .map(|r| {
            let field = |k: &str| {
                r.get(k)
                    .and_then(Json::str)
                    .map(str::to_string)
                    .ok_or(format!("row without {k}"))
            };
            Ok(Row {
                workload: field("workload")?,
                metric: field("metric")?,
                unit: field("unit")?,
                values: r
                    .get("values")
                    .map(|v| v.items().iter().filter_map(Json::num).collect())
                    .unwrap_or_default(),
            })
        })
        .collect()
}

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(text)?;
    doc.get("end_to_end")
        .ok_or("no \"end_to_end\" member")?
        .items()
        .iter()
        .map(|m| {
            Ok(Bound {
                metric: m
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Compares one row of the first file (`a`) with the same row of the
/// second (`b`).
pub fn compare(a: &[f64], b: &[f64], rule: &Bound) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if rule.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if spread(a).max(spread(b)) > rule.bound {
        // Too noisy for medians; only a clean sweep settles it.
        let every_b_better = a.iter().all(|&x| {
            b.iter()
                .all(|&y| if rule.lower_is_better { y < x } else { y > x })
        });
        return (
            worse_by,
            if every_b_better {
                Verdict::Pass
            } else {
                Verdict::Unresolved
            },
        );
    }
    (
        worse_by,
        if worse_by > rule.bound {
            Verdict::Regressed
        } else {
            Verdict::Pass
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool, bound: f64) -> Bound {
        Bound {
            metric: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn files_round_trip() {
        let rows = vec![Row {
            workload: "w".into(),
            metric: "m".into(),
            unit: "1/s".into(),
            values: vec![1.5, 2.0, 2.5],
        }];
        let text = render_file(&[("seed", "7".into())], &rows);
        assert_eq!(parse_rows(&text).unwrap(), rows);
        assert_eq!(
            Json::parse(&text).unwrap().get("seed").and_then(Json::num),
            Some(7.0)
        );
    }

    #[test]
    fn bounds_come_from_the_contract_file() {
        let text = r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        assert_eq!(
            parse_bounds(text).unwrap(),
            vec![Bound {
                metric: "ops_per_s".into(),
                lower_is_better: false,
                bound: 0.1
            }]
        );
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(
            compare(&steady, &slower, &rule(true, 0.1)).1,
            Verdict::Regressed
        );
        assert_eq!(
            compare(&steady, &slower, &rule(false, 0.1)).1,
            Verdict::Pass
        );
        assert_eq!(
            compare(&steady, &slower, &rule(true, 0.25)).1,
            Verdict::Pass
        );
        let noisy = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(
            compare(&noisy, &steady, &rule(true, 0.1)).1,
            Verdict::Unresolved
        );
        let clearly_better = [10.0, 11.0, 12.0, 10.5, 11.5];
        assert_eq!(
            compare(&noisy, &clearly_better, &rule(true, 0.1)).1,
            Verdict::Pass
        );
    }
}
