//! The operator surface, driven through the real binaries: every
//! `dnswild` subcommand and `exp_*` binary answers `--help` with exit 0
//! and its whole flag table, rejects bogus input with exit 2, and
//! rejects — naming both flags — the combinations a mode would
//! otherwise silently ignore.

use std::process::{Command, Output};

const DNSWILD: &str = env!("CARGO_BIN_EXE_dnswild");

/// Every flag of every subcommand.
const SUBCOMMANDS: [(&str, &[&str]); 8] = [
    (
        "serve",
        &[
            "--addr", "--threads", "--io", "--site", "--origin", "--ns", "--pad", "--attack-zone",
            "--tcp", "--edns-size", "--duration", "--trace", "--metrics-addr", "--rrl",
            "--rrl-burst", "--rrl-rate", "--rrl-period", "--rrl-slip", "--rrl-nx-budget",
            "--rrl-all", "--rrl-key-ports",
        ],
    ),
    (
        "blast",
        &[
            "--addr", "--concurrency", "--queries", "--timeout-ms", "--seed", "--origin",
            "--probe-only", "--attack", "--spoofed-sources", "--chaos", "--loss", "--corrupt",
            "--edns-size", "--no-tcp-fallback", "--cache", "--cache-cap", "--serve-stale",
            "--prefetch", "--trace", "--json", "--metrics-addr",
        ],
    ),
    (
        "chaos",
        &[
            "--listen", "--upstream", "--seed", "--drop", "--dup", "--corrupt", "--truncate",
            "--reorder", "--delay-min-ms", "--delay-max-ms", "--tcp-refuse", "--tcp-reset",
            "--tcp-stall", "--tcp-badlen", "--duration",
        ],
    ),
    (
        "smoke",
        &[
            "--queries", "--threads", "--io", "--concurrency", "--attack", "--rrl", "--chaos",
            "--cache", "--cache-cap", "--serve-stale", "--prefetch", "--seed", "--loss",
            "--corrupt", "--tcp", "--edns-size", "--budget-secs", "--trace", "--json",
            "--metrics-addr",
        ],
    ),
    ("gate", &["<name>"]),
    ("top", &["--addr", "--interval-ms", "--iterations", "--plain"]),
    ("report", &["--from-trace", "--min-queries", "--tails"]),
    ("explain", &["<trace>", "--txn", "--slowest", "--failed", "--canonical"]),
];

/// The nine figure binaries that share `ExpArgs`' table; `exp_table1`
/// takes no flags.
const EXP_BINARIES: [&str; 9] = [
    env!("CARGO_BIN_EXE_exp_fig2"),
    env!("CARGO_BIN_EXE_exp_fig3"),
    env!("CARGO_BIN_EXE_exp_fig4_table2"),
    env!("CARGO_BIN_EXE_exp_fig5"),
    env!("CARGO_BIN_EXE_exp_fig6"),
    env!("CARGO_BIN_EXE_exp_fig7"),
    env!("CARGO_BIN_EXE_exp_guidance"),
    env!("CARGO_BIN_EXE_exp_outage"),
    env!("CARGO_BIN_EXE_exp_ablation"),
];
const EXP_TABLE1: &str = env!("CARGO_BIN_EXE_exp_table1");
/// The two figure binaries with no raw series, hence no `--dump` row.
const EXP_GUIDANCE: &str = env!("CARGO_BIN_EXE_exp_guidance");
const EXP_ABLATION: &str = env!("CARGO_BIN_EXE_exp_ablation");

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary).args(args).output().expect("binary runs")
}

/// `--help` exits 0 and prints one entry per row — each flag, and no
/// flag beyond the list.
fn assert_help_lists(binary: &str, args: &[&str], flags: &[&str]) {
    let out = run(binary, args);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {text}");
    for flag in flags {
        assert!(text.contains(&format!("\n  {flag} ")), "{args:?} does not list {flag}:\n{text}");
    }
    let rows = text.lines().filter(|l| l.starts_with("  --") || l.starts_with("  <")).count();
    assert_eq!(rows, flags.len(), "{args:?}:\n{text}");
}

/// `args` exits 2 with a message naming every one of `names`.
fn assert_usage_error(binary: &str, args: &[&str], names: &[&str]) {
    let out = run(binary, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for name in names {
        assert!(stderr.contains(name), "{args:?} does not name {name}: {stderr}");
    }
}

#[test]
fn help_exits_zero_and_lists_every_flag() {
    for (command, flags) in SUBCOMMANDS {
        assert_help_lists(DNSWILD, &[command, "--help"], flags);
    }
    for binary in EXP_BINARIES {
        let undumped = [EXP_GUIDANCE, EXP_ABLATION].contains(&binary);
        let flags: &[&str] = if undumped {
            &["--vps", "--seed", "--full"]
        } else {
            &["--vps", "--seed", "--full", "--dump"]
        };
        assert_help_lists(binary, &["--help"], flags);
    }
    assert_help_lists(EXP_TABLE1, &["--help"], &[]);
    let out = run(DNSWILD, &["--help"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    for (command, _) in SUBCOMMANDS {
        assert!(text.contains(&format!("\n  {command} ")), "{command} missing:\n{text}");
    }
}

#[test]
fn bogus_input_exits_two_and_names_it() {
    assert_usage_error(DNSWILD, &[], &["usage: dnswild <command>"]);
    assert_usage_error(DNSWILD, &["bogus"], &["unknown command: bogus"]);
    for (command, _) in SUBCOMMANDS {
        assert_usage_error(DNSWILD, &[command, "--bogus"], &["--bogus"]);
    }
    for binary in EXP_BINARIES.into_iter().chain([EXP_TABLE1]) {
        assert_usage_error(binary, &["--bogus"], &["--bogus"]);
    }
    // A value-taking flag with no value, and a value of the wrong type.
    assert_usage_error(DNSWILD, &["serve", "--addr"], &["--addr needs a value"]);
    assert_usage_error(DNSWILD, &["blast", "--queries", "many"], &["--queries", "many"]);
    assert_usage_error(DNSWILD, &["smoke", "--attack", "ddos"], &["--attack", "ddos"]);
    assert_usage_error(EXP_BINARIES[1], &["--vps"], &["--vps needs a value"]);
    assert_usage_error(DNSWILD, &["explain"], &["<trace> is required"]);
    assert_usage_error(DNSWILD, &["gate"], &["<name> is required"]);
    assert_usage_error(DNSWILD, &["gate", "chaos", "plain"], &["unknown argument plain"]);
    assert_usage_error(DNSWILD, &["gate", "no-such-gate"], &["unknown gate: no-such-gate"]);
    assert_usage_error(DNSWILD, &["report"], &["--from-trace is required"]);
}

/// Flags the chosen mode never reads: each was accepted without a word
/// at the parent (the smoke ones even printed PASS).
#[test]
fn flags_the_mode_never_reads_are_rejected() {
    let cases: [(&[&str], [&str; 2]); 12] = [
        (&["smoke", "--loss", "0.9", "--queries", "50"], ["--loss", "--chaos"]),
        (&["smoke", "--corrupt", "0.5"], ["--corrupt", "--chaos"]),
        (&["smoke", "--budget-secs", "1"], ["--budget-secs", "--chaos"]),
        (&["smoke", "--seed", "5"], ["--seed", "--chaos"]),
        (&["smoke", "--cache", "--concurrency", "1"], ["--concurrency", "--cache"]),
        (&["smoke", "--chaos", "--concurrency", "1"], ["--concurrency", "--chaos"]),
        (&["blast", "--loss", "0.2"], ["--loss", "--chaos"]),
        (&["blast", "--corrupt", "0.2"], ["--corrupt", "--chaos"]),
        (&["blast", "--chaos", "--timeout-ms", "40"], ["--timeout-ms", "--chaos"]),
        (&["blast", "--chaos", "--probe-only"], ["--probe-only", "--chaos"]),
        (&["blast", "--spoofed-sources", "4"], ["--spoofed-sources", "--attack"]),
        (&["exp_fig3", "--full", "--vps", "60"], ["--full", "--vps"]),
    ];
    for (args, names) in cases {
        match args {
            ["exp_fig3", rest @ ..] => assert_usage_error(EXP_BINARIES[1], rest, &names),
            _ => assert_usage_error(DNSWILD, args, &names),
        }
    }
}

/// A sample of the rules the parent already enforced by hand: same
/// outcome, now from the table.
#[test]
fn the_parents_rules_hold() {
    let cases: [(&[&str], [&str; 2]); 6] = [
        (&["serve", "--trace", "/tmp/x"], ["--trace", "--duration"]),
        (&["serve", "--attack-zone", "--pad", "100"], ["--attack-zone", "--pad"]),
        (&["blast", "--cache"], ["--cache", "--chaos"]),
        (&["blast", "--attack", "nxns", "--json"], ["--attack", "--json"]),
        (&["smoke", "--chaos", "--edns-size", "512"], ["--edns-size", "--tcp"]),
        (&["explain", "/tmp/x", "--txn", "1", "--failed"], ["--txn", "--failed"]),
    ];
    for (args, names) in cases {
        assert_usage_error(DNSWILD, args, &names);
    }
}

/// The trace is the one journey store (`explain <trace> --failed |
/// --slowest N`): smoke no longer takes an in-memory recorder's dump
/// path, and says so rather than ignoring it.
#[test]
fn the_removed_recorder_dump_flag_is_a_usage_error() {
    assert_usage_error(DNSWILD, &["smoke", "--trace", "t", "--flight-dump", "f"], &["--flight-dump"]);
}

/// `--dump` is never accepted and then ignored: `exp_fig2` writes one
/// probe series per configuration, as `exp_fig4_table2` does, and the
/// binaries with no raw series reject the flag, naming it.
#[test]
fn dump_is_written_where_accepted_and_rejected_elsewhere() {
    for binary in [EXP_GUIDANCE, EXP_ABLATION] {
        assert_usage_error(binary, &["--dump", "/tmp/never-written"], &["unknown argument --dump"]);
    }
    let dir = std::env::temp_dir().join(format!("dnswild-fig2-dump-{}", std::process::id()));
    let out = run(EXP_BINARIES[0], &["--vps", "30", "--dump", dir.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    for config in ["2A", "2B", "2C", "3A", "3B", "4A", "4B"] {
        let path = dir.join(format!("fig2_{config}_probes.tsv"));
        let tsv = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(tsv.starts_with("vp\tcontinent\t") && tsv.lines().count() > 1, "{path:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_list_prints_the_eleven_gates_in_order() {
    let out = run(DNSWILD, &["gate", "list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = text.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(
        names,
        [
            "plain",
            "chaos",
            "truncation",
            "trace-closure",
            "trace-digest",
            "metrics",
            "watchdog",
            "attack",
            "cache",
            "explain",
            "attack-sweep",
        ]
    );
    for ((gate, law, _), line) in dnswild::lab::GATES.iter().zip(text.lines()) {
        assert_eq!(line, format!("{gate:<14} {law}"));
    }
}
