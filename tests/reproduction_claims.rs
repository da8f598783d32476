//! The paper's headline claims, asserted as integration tests at
//! moderate scale. Each test names the claim and the paper section.

use dnswild::guidance::{compare, demo_pair};
use dnswild::production::{run_production, ProductionConfig};
use dnswild::{Continent, Experiment, PolicyMix, SimDuration, StandardConfig};

/// §4.1: "Most recursives query all authoritatives (75 to 96%)."
#[test]
fn most_recursives_query_all_authoritatives() {
    for config in [StandardConfig::C2A, StandardConfig::C4B] {
        let report = Experiment::standard(config, 10).vantage_points(300).run();
        let cov = report.coverage();
        assert!(
            (70.0..=100.0).contains(&cov.pct_reaching_all),
            "{}: {:.0}%",
            config.label(),
            cov.pct_reaching_all
        );
    }
}

/// §4.1: "with two authoritatives half the recursives probe the second
/// authoritative already on their second query; with four it takes a
/// median of up to 7 queries."
#[test]
fn median_queries_to_cover_scales_with_ns_count() {
    let two = Experiment::standard(StandardConfig::C2A, 11).vantage_points(300).run();
    let four = Experiment::standard(StandardConfig::C4A, 11).vantage_points(300).run();
    let m2 = two.coverage().queries_after_first.unwrap().median;
    let m4 = four.coverage().queries_after_first.unwrap().median;
    assert!(m2 <= 2.0, "two-NS median {m2}");
    assert!((3.0..=8.0).contains(&m4), "four-NS median {m4}");
    assert!(m4 > m2);
}

/// §4.2: "Servers to which clients see shorter RTT will likely receive
/// most queries."
#[test]
fn lower_rtt_attracts_more_queries() {
    let report = Experiment::standard(StandardConfig::C2C, 12).vantage_points(400).run();
    let shares = report.share();
    let by_rtt = |code: &str| {
        let s = shares.iter().find(|s| s.auth == code).unwrap();
        (s.share, s.median_rtt_ms.unwrap())
    };
    let (fra_share, fra_rtt) = by_rtt("FRA");
    let (syd_share, syd_rtt) = by_rtt("SYD");
    assert!(fra_rtt < syd_rtt);
    assert!(fra_share > syd_share);
    assert!(fra_share > 0.6, "FRA share {fra_share:.2}");
}

/// §4.3: weak preference for ~60-70% of RTT-gapped recursives, strong
/// for a sizable minority, strongest in configuration 2C.
#[test]
fn preference_percentages_in_paper_band() {
    let report = Experiment::standard(StandardConfig::C2C, 13).vantage_points(500).run();
    let p = report.preference();
    assert!((50.0..=95.0).contains(&p.weak_pct), "weak {:.0}%", p.weak_pct);
    assert!((15.0..=60.0).contains(&p.strong_pct), "strong {:.0}%", p.strong_pct);
}

/// §4.3: "The distribution of queries per authoritative is inversely
/// proportional to the median RTT": EU prefers FRA, OC prefers SYD.
#[test]
fn geographic_preference_is_symmetric() {
    let report = Experiment::standard(StandardConfig::C2C, 14).vantage_points(900).run();
    let p = report.preference();
    let row = |c: Continent| p.table.iter().find(|r| r.continent == c).unwrap();
    let eu = row(Continent::Eu);
    assert!(eu.share[0] > 0.65, "EU→FRA {:.2}", eu.share[0]);
    let oc = row(Continent::Oc);
    if oc.vp_count >= 10 {
        assert!(oc.share[1] > 0.6, "OC→SYD {:.2}", oc.share[1]);
    }
}

/// §4.4: preference weakens with the probing interval but persists past
/// the 10/15-minute infrastructure-cache timeouts.
#[test]
fn preference_persists_beyond_cache_timeouts() {
    let run = |minutes: u64| {
        let report = Experiment::standard(StandardConfig::C2C, 15)
            .vantage_points(250)
            .interval(SimDuration::from_mins(minutes))
            .rounds(12)
            .run();
        let result = &report.result;
        let mut fra = 0u64;
        let mut total = 0u64;
        for vp in result.vps.iter().filter(|v| v.continent == Continent::Eu) {
            for probe in &vp.probes {
                total += 1;
                if probe.auth == "FRA" {
                    fra += 1;
                }
            }
        }
        fra as f64 / total as f64
    };
    let at2 = run(2);
    let at30 = run(30);
    assert!(at2 > at30, "sharper at 2min: {at2:.2} vs {at30:.2}");
    assert!(at30 > 0.5, "persists at 30min: {at30:.2}");
}

/// §5 / Figure 7: at the Root, a material share of busy clients query a
/// single letter; at .nl the majority query all observed NSes.
#[test]
fn production_profiles_match_paper_shapes() {
    let root = run_production(&ProductionConfig::root(150, 16));
    let rp = dnswild::analysis::rank_profile(&root.per_client_counts, 10, 250);
    assert!(rp.single_auth_pct > 8.0, "root single-letter {:.0}%", rp.single_auth_pct);
    assert!(rp.all_auths_pct < 50.0, "few query all 10: {:.0}%", rp.all_auths_pct);

    let nl = run_production(&ProductionConfig::nl(100, 17));
    let np = dnswild::analysis::rank_profile(&nl.per_client_counts, 4, 250);
    assert!(np.all_auths_pct > 50.0, ".nl all-4 {:.0}%", np.all_auths_pct);
    assert!(
        np.single_auth_pct < rp.single_auth_pct,
        ".nl fewer single-NS clients than root"
    );
}

/// §7: "worst-case latency will be limited by the least anycast
/// authoritative" — upgrading the unicast NS improves the tail.
#[test]
fn anycast_upgrade_improves_tail_latency() {
    let (mixed, all) = demo_pair();
    let results = compare(vec![mixed, all], 150, 12, 18, &PolicyMix::default());
    assert!(results[1].p90_rtt_ms < results[0].p90_rtt_ms);
    assert_eq!(results[0].worst_auth.as_ref().unwrap().0, "GRU");
}

/// §3.1: "middleboxes have only minor effects on our data" — the paper
/// compares client-side and authoritative-side views to confirm that
/// forwarders between VPs and recursives do not distort the preference
/// analysis. Here: a population with 25% of VPs behind round-robin
/// forwarders yields nearly the same aggregate as one without.
#[test]
fn middleboxes_have_minor_effects() {
    use dnswild::atlas::{run_measurement, MeasurementConfig};
    let run = |fraction: f64| {
        let mut cfg = MeasurementConfig::standard(StandardConfig::C2C, 20);
        cfg.vp_count = 400;
        cfg.rounds = 25;
        cfg.forwarder_fraction = fraction;
        let result = run_measurement(&cfg);
        let p = dnswild::analysis::preference(&result);
        (p.weak_pct_unfiltered, result)
    };
    let (weak_plain, _) = run(0.0);
    let (weak_forwarded, result) = run(0.25);
    assert!(
        (weak_plain - weak_forwarded).abs() < 12.0,
        "aggregate distortion should be minor: {weak_plain:.0}% vs {weak_forwarded:.0}%"
    );
    // Sanity: the forwarded population really exists and got answers.
    let forwarded = result.vps.iter().filter(|v| v.forwarded).count();
    assert!((50..=150).contains(&forwarded), "forwarded VPs: {forwarded}");
    assert!(
        result.vps.iter().filter(|v| v.forwarded).all(|v| !v.probes.is_empty()),
        "forwarded VPs get answers"
    );
}

/// §3.1: the IPv6 spot-check — recursives follow the same strategy over
/// IPv6.
#[test]
fn ipv6_preference_matches_ipv4() {
    let run = |ipv6: bool| {
        let report = Experiment::standard(StandardConfig::C2C, 19)
            .vantage_points(300)
            .rounds(15)
            .ipv6(ipv6)
            .run();
        report.preference().weak_pct
    };
    let v4 = run(false);
    let v6 = run(true);
    assert!((v4 - v6).abs() < 15.0, "v4 {v4:.0}% vs v6 {v6:.0}%");
}
