//! End-to-end tests of the adversarial workload plane: a real serving
//! plane under a seeded flood must shed attack traffic through the
//! rate-limit policy while legitimate goodput holds, expose the
//! breach through the watchdog's attack-pressure law, grant the
//! attacker less bandwidth amplification than the legitimate baseline
//! (derived from the recorded telemetry trace), and replay the whole
//! engagement byte-identically for a fixed seed. Without the defense
//! the same zone must be a real threat — the NXNS referral flood has a
//! pinned amplification floor — and the limiter's TC=1 slips must lead
//! a legitimate client to the TCP retry path RRL never limits.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dnswild::lab::{self, origin, run_gate, Rig, Scenario, NXNS_AMP_FLOOR};
use dnswild_analysis::amplification;
use dnswild_netio::{resolve, serve, AttackMode, ResolveConfig, ServeConfig, TcpOptions};
use dnswild_server::{RateLimitPolicy, RrlScope};
use dnswild_zone::presets::test_domain_zone;

fn temp_trace(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dnswild-attack-{name}-{}.dwt", std::process::id()));
    p
}

/// The tentpole gate: a rate-limiting server with live metrics and
/// telemetry, a legitimate blast and an NXDOMAIN flood running
/// concurrently. The attack gate itself holds every defense property —
/// goodput at 100%, limiter books equal to the attacker's, the
/// attack-pressure law breaching alone, traced attacker amplification
/// under the legitimate baseline — and the engagement replays
/// byte-identically: verdicts are request-tick driven and the schedules
/// are `detrand` streams, so no deterministic line may move between
/// runs of the same seed.
#[test]
fn defended_flood_replays_byte_identically_and_holds_goodput() {
    let spec = Scenario::attack(AttackMode::NxdomainFlood, true, 300, 2, 2017);
    let path = temp_trace("flood");
    let run = || {
        let report = lab::run(&Scenario { rig: Rig::traced(&path).metered(), ..spec.clone() });
        let report = report.unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        report
    };
    let (first, second) = (run(), run());
    let _ = std::fs::remove_file(&path);
    assert_eq!(first.deterministic(), second.deterministic());

    let flood = first.attack.as_ref().unwrap();
    assert!(flood.stats.timeouts > 0 && flood.stats.tc_slips > 0, "{flood:?}");
    assert!(first.watchdog.unwrap().attack_breach);
    let amp = amplification(first.trace.as_ref().unwrap());
    assert_eq!(amp.legit_queries, first.load.as_ref().unwrap().stats.sent, "{amp:?}");
    assert!(amp.attack_factor().unwrap() < amp.legit_factor().unwrap(), "{amp:?}");
}

/// The no-defense baseline: with rate limiting off, the NXNS referral
/// flood is answered in full and grants the attacker an amplification
/// factor past the pinned floor — from the server-side trace partition
/// (the gate's own check) and from the attacker's own books.
#[test]
fn undefended_nxns_amplification_exceeds_the_pinned_floor() {
    let spec = Scenario::attack(AttackMode::NxnsReferral, false, 200, 2, 2017);
    let path = temp_trace("nxns");
    let report = lab::run(&Scenario { rig: Rig::traced(&path), ..spec }).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(report.server.referrals, 200, "no limiter: every referral is served");
    let client_amp = report.attack.unwrap().amplification().unwrap();
    assert!(
        client_amp >= NXNS_AMP_FLOOR,
        "attacker-side amplification {client_amp:.2}x under the {NXNS_AMP_FLOOR}x floor"
    );
}

/// `results/attack_amp.txt` is a seed-deterministic finding, not a
/// timing: the six-cell sweep must regenerate it byte for byte.
#[test]
fn attack_sweep_regenerates_the_committed_table() {
    let sweep = run_gate("attack-sweep").unwrap().unwrap();
    assert!(sweep.passed(), "{:?}", sweep.failures);
    let committed = include_str!("../results/attack_amp.txt");
    assert_eq!(sweep.deterministic(), committed.lines().collect::<Vec<_>>());
}

/// RRL's legitimate-client escape hatch, end to end: under an `All`
/// scope policy with `slip 1`, every limited UDP answer goes out as a
/// minimal TC=1 reply, and the resolver client follows it onto the TCP
/// transport — which the limiter never touches — so every transaction
/// still completes. This is the PR 7 truncation harness with the TC bit
/// set by the limiter instead of the EDNS size negotiation.
#[test]
fn slipped_tc_replies_complete_over_the_unlimited_tcp_path() {
    let policy = RateLimitPolicy {
        burst: 4,
        rate: 0,
        period: 1,
        slip: 1,
        scope: RrlScope::All,
        ..RateLimitPolicy::default()
    };
    let zones = Arc::new(vec![test_domain_zone(&origin(), 2)]);
    let handle = serve(
        ServeConfig::new("127.0.0.1:0", "FRA", zones)
            .threads(1)
            .tcp(TcpOptions::default())
            .rate_limit(policy),
    )
    .unwrap();
    // One sequential worker keeps the charge sequence — and therefore
    // every verdict — fully deterministic.
    let mut cfg =
        ResolveConfig::new(vec![handle.local_addr()], origin()).transactions(20).concurrency(1);
    cfg.timeout = Duration::from_millis(250);
    let report = resolve(cfg).unwrap();
    let stats = handle.shutdown();

    report.stats.check().unwrap();
    assert_eq!(report.stats.answered, 20, "every transaction completes: {:?}", report.stats);
    assert_eq!(report.stats.servfails, 0);
    assert_eq!(report.stats.tc_seen, 16, "past the burst of 4, every UDP answer slips TC=1");
    assert_eq!(report.stats.tcp_attempts, 16);
    assert_eq!(report.stats.tcp_answered, 16, "each slip completed over TCP");
    assert_eq!(report.stats.tcp_failed, 0);
    // Server side agrees: 20 UDP + 16 TCP queries, 16 slips, and no
    // silent drops — slip 1 always offers the stream escape hatch.
    assert_eq!(stats.rrl_slipped, 16);
    assert_eq!(stats.rrl_dropped, 0);
    assert_eq!(stats.tcp_queries, 16);
    assert_eq!(stats.queries, 36);
}
