//! `bench` — the repository's one performance ruler.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what the driver calls)
//! bench all [--seed n] [--seconds s] [--runs k] [--out file]       every workload, each in a fresh process
//! bench trace <workload> [--seed n] [--seconds s]                  the traced run: per-layer numbers + budget
//! bench check-repeat A.json B.json [--bounds BENCHMARK.json]       compare two `bench all` files row by row
//! ```
//!
//! A run prints every metric as `workload metric value unit` and, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero if any answer
//! or invariant was wrong.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::{Command, ExitCode, Stdio};

mod check;
mod gen;
mod json;
mod layers;
mod repeat;
mod report;
mod span;
mod stats;
mod sys;
mod workloads;

use json::Json;
use repeat::{Row, Verdict};
use report::{json_num, Report, END_TO_END};
use workloads::{Args, WORKLOADS};

/// Default measuring time per run; `BENCHMARK.json` fixes the same.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 2017;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  bench all [--seed n] [--seconds s] [--runs k] [--out file]\n  bench trace <workload> [--seed n] [--seconds s]\n  bench check-repeat A.json B.json [--bounds BENCHMARK.json]\nworkloads: {}",
        WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs; `None` on a stray word or a missing value.
fn flags(args: &[String]) -> Option<Vec<(&str, &str)>> {
    let mut out = Vec::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => out.push((&flag[2..], value.as_str())),
            _ => return None,
        }
    }
    Some(out)
}

fn flag<T: std::str::FromStr>(flags: &[(&str, &str)], name: &str, default: T) -> Option<T> {
    match flags.iter().find(|(k, _)| *k == name) {
        Some((_, v)) => v.parse().ok(),
        None => Some(default),
    }
}

/// One run of one workload in this process.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    if !(seconds > 0.0 && seconds <= 600.0) {
        eprintln!("--seconds must be in (0, 600]");
        return ExitCode::from(2);
    }
    let mut report = Report::new(trace);
    if workloads::run(workload, Args { seed, seconds }, &mut report).is_none() {
        eprintln!("unknown workload {workload}");
        return usage();
    }
    for (name, unit, value) in report.rows() {
        println!("{workload} {name} {} {unit}", json_num(value));
    }
    for v in &report.violations {
        eprintln!("{workload} VIOLATION {v}");
    }
    write_detail(workload, seed, seconds, trace, &report);
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Keeps the slice values behind every median in
/// `perfbench/out/run_<workload>_seed<seed>_trace<0|1>.json`.
fn write_detail(workload: &str, seed: u64, seconds: f64, trace: bool, report: &Report) {
    let mut s = format!(
        "{{\n  \"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {trace}, \"nproc\": {},\n  \"result\": {},\n  \"violations\": [{}],\n  \"slices\": {{\n",
        json::quote(workload),
        json_num(seconds),
        std::thread::available_parallelism().map_or(0, usize::from),
        report.result_line(),
        report.violations.iter().map(|v| json::quote(v)).collect::<Vec<_>>().join(", "),
    );
    for (i, (name, values)) in report.slices.iter().enumerate() {
        let values: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
        let comma = if i + 1 == report.slices.len() {
            ""
        } else {
            ","
        };
        s.push_str(&format!(
            "    {}: [{}]{comma}\n",
            json::quote(name),
            values.join(", ")
        ));
    }
    s.push_str("  }\n}\n");
    let path = workloads::out_dir().join(format!(
        "run_{workload}_seed{seed}_trace{}.json",
        u8::from(trace)
    ));
    std::fs::write(path, s).expect("write detail file");
}

/// Every workload, `runs` times, each run in a fresh child process of
/// this binary so peak memory is per workload.
fn run_all(seed: u64, seconds: f64, runs: u64, out: Option<String>) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut rows: Vec<Row> = Vec::new();
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    for run in 0..runs {
        for (workload, _) in WORKLOADS {
            let child = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args([
                    "--seed",
                    &(seed + run).to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .expect("spawn workload process");
            let stdout = String::from_utf8_lossy(&child.stdout);
            let (human, last) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{human}");
            let result = Json::parse(last).ok();
            let correct = child.status.success()
                && result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
            if !correct {
                eprintln!(
                    "{workload} seed {} FAILED its checks (exit {:?})",
                    seed + run,
                    child.status.code()
                );
                all_correct = false;
            }
            let Some(result) = result else { continue };
            attempted += result.get("attempted").and_then(Json::num).unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::num).unwrap_or(0.0);
            for (metric, unit) in END_TO_END {
                let Some(value) = result
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num)
                else {
                    continue;
                };
                match rows
                    .iter_mut()
                    .find(|r| r.workload == *workload && r.metric == *metric)
                {
                    Some(row) => row.values.push(value),
                    None => rows.push(Row {
                        workload: workload.to_string(),
                        metric: metric.to_string(),
                        unit: unit.to_string(),
                        values: vec![value],
                    }),
                }
            }
        }
    }
    println!(
        "\n{:<20} {:<14} {:>14} {:<5} {:>8}  runs={runs}",
        "workload", "metric", "median", "unit", "spread"
    );
    for r in &rows {
        println!(
            "{:<20} {:<14} {:>14.4} {:<5} {:>7.2}%",
            r.workload,
            r.metric,
            stats::median(&r.values),
            r.unit,
            stats::spread(&r.values) * 100.0
        );
    }
    println!(
        "fail_share {}",
        json_num(if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        })
    );
    let header = [
        ("schema", json::quote("dnswild-perfbench/1")),
        ("seed", seed.to_string()),
        ("runs", runs.to_string()),
        ("seconds", json_num(seconds)),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("correct", all_correct.to_string()),
        ("attempted", json_num(attempted)),
        ("failed", json_num(failed)),
    ];
    let path = out.unwrap_or_else(|| {
        workloads::out_dir()
            .join(format!("all_seed{seed}_runs{runs}.json"))
            .to_string_lossy()
            .into_owned()
    });
    std::fs::write(&path, repeat::render_file(&header, &rows)).expect("write result file");
    println!("wrote {path}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares two `bench all` files against the bounds in `BENCHMARK.json`.
fn check_repeat(a: &str, b: &str, bounds: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let load = || {
        Ok::<_, String>((
            repeat::parse_rows(&read(a)?)?,
            repeat::parse_rows(&read(b)?)?,
            repeat::parse_bounds(&read(bounds)?)?,
        ))
    };
    let (rows_a, rows_b, rules) = match load() {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("check-repeat: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0;
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    for ra in &rows_a {
        let Some(rule) = rules.iter().find(|r| r.metric == ra.metric) else {
            continue;
        };
        let Some(rb) = rows_b
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric)
        else {
            println!("{:<20} {:<14} missing from {b}", ra.workload, ra.metric);
            bad += 1;
            continue;
        };
        let (worse_by, verdict) = repeat::compare(&ra.values, &rb.values, rule);
        let word = match verdict {
            Verdict::Pass => "pass",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        };
        bad += usize::from(verdict != Verdict::Pass);
        println!(
            "{:<20} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {word}",
            ra.workload,
            ra.metric,
            stats::median(&ra.values),
            stats::median(&rb.values),
            worse_by * 100.0,
            rule.bound * 100.0
        );
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{bad} row(s) regressed, unresolved or missing");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    sys::now_ns(); // start the clock: process start, for setup_s and span stamps
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest): (&str, &[String]) = match args.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word, &args[1..]),
        _ => ("run", &args[..]),
    };
    match command {
        "run" => {
            let Some(f) = flags(rest) else { return usage() };
            let (Some(seed), Some(seconds), Some(trace)) = (
                flag(&f, "seed", DEFAULT_SEED),
                flag(&f, "seconds", DEFAULT_SECONDS),
                flag(&f, "trace", 0u8),
            ) else {
                return usage();
            };
            match f.iter().find(|(k, _)| *k == "workload") {
                Some((_, workload)) if trace <= 1 => run_one(workload, seed, seconds, trace == 1),
                _ => usage(),
            }
        }
        "trace" => {
            let (Some(workload), Some(f)) = (rest.first(), flags(rest.get(1..).unwrap_or(&[])))
            else {
                return usage();
            };
            match (
                flag(&f, "seed", DEFAULT_SEED),
                flag(&f, "seconds", DEFAULT_SECONDS),
            ) {
                (Some(seed), Some(seconds)) => run_one(workload, seed, seconds, true),
                _ => usage(),
            }
        }
        "all" => {
            let Some(f) = flags(rest) else { return usage() };
            match (
                flag(&f, "seed", DEFAULT_SEED),
                flag(&f, "seconds", DEFAULT_SECONDS),
                flag(&f, "runs", 1u64),
            ) {
                (Some(seed), Some(seconds), Some(runs)) if runs >= 1 => run_all(
                    seed,
                    seconds,
                    runs,
                    f.iter()
                        .find(|(k, _)| *k == "out")
                        .map(|(_, v)| v.to_string()),
                ),
                _ => usage(),
            }
        }
        "check-repeat" => match rest {
            [a, b, tail @ ..] => match flags(tail) {
                Some(f) => check_repeat(
                    a,
                    b,
                    f.iter()
                        .find(|(k, _)| *k == "bounds")
                        .map_or("BENCHMARK.json", |(_, v)| v),
                ),
                None => usage(),
            },
            _ => usage(),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The code's metric tables and workload list are one half of the
    /// contract, `BENCHMARK.json` the other; they must say the same.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
        )
        .unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let second = m
                        .get("unit")
                        .or_else(|| m.get("why"))
                        .and_then(Json::str)
                        .unwrap();
                    (
                        m.get("name").and_then(Json::str).unwrap().to_string(),
                        second.to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(report::PER_LAYER));
        assert_eq!(names("workloads"), table(WORKLOADS));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::num),
            Some(DEFAULT_SECONDS)
        );
        for m in doc.get("end_to_end").unwrap().items() {
            let bound = m.get("bound").and_then(Json::num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn flag_parsing_rejects_strays_and_defaults_missing() {
        let args: Vec<String> = ["--seed", "9", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = flags(&args).unwrap();
        assert_eq!(flag(&f, "seed", 1u64), Some(9));
        assert_eq!(flag(&f, "seconds", 10.0), Some(10.0));
        assert_eq!(flag::<u64>(&f, "trace", 0), Some(1));
        let stray: Vec<String> = ["--seed", "9", "oops"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(flags(&stray).is_none());
        let bad: Vec<String> = ["--seed", "x"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag(&flags(&bad).unwrap(), "seed", 1u64), None);
    }
}
