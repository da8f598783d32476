//! One path for the CLI and the gate: `dnswild smoke` maps its flags
//! onto a `lab::Scenario` and `dnswild gate` runs the named scenarios,
//! both through `lab::run`. Given the attack gate's configuration on
//! the command line, the smoke must print the gate's `attack-` lines
//! byte for byte.

use std::process::Command;

const DNSWILD: &str = env!("CARGO_BIN_EXE_dnswild");

/// Runs `dnswild` with `args`, requires exit 0, and returns the stdout
/// lines that start with `attack-`.
fn attack_lines(args: &[&str]) -> Vec<String> {
    let out = Command::new(DNSWILD).args(args).output().expect("dnswild runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}:\n{stdout}{stderr}");
    stdout.lines().filter(|l| l.starts_with("attack-")).map(String::from).collect()
}

#[test]
fn smoke_with_the_attack_gates_flags_prints_the_gates_attack_lines() {
    let trace = std::env::temp_dir().join(format!("dnswild-smoke-gate-{}.dwt", std::process::id()));
    let smoke = attack_lines(&[
        "smoke",
        "--attack",
        "nxdomain",
        "--rrl",
        "--queries",
        "400",
        "--concurrency",
        "4",
        "--seed",
        "2017",
        "--trace",
        trace.to_str().expect("utf-8 path"),
        "--metrics-addr",
        "127.0.0.1:0",
    ]);
    let _ = std::fs::remove_file(&trace);
    let gate = attack_lines(&["gate", "attack"]);
    assert!(smoke.iter().any(|l| l.starts_with("attack-amp: ")), "{smoke:?}");
    assert!(smoke.iter().any(|l| l.starts_with("attack-watchdog: ")), "{smoke:?}");
    assert_eq!(smoke, gate);
}
