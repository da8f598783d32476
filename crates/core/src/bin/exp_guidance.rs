//! §7 what-if analysis: the paper's primary recommendation, quantified.
//!
//! Compares (a) a mixed anycast/unicast deployment against its
//! all-anycast upgrade, and (b) the `.nl` case study — 5 unicast NSes in
//! the Netherlands plus 3 anycast services, as SIDN ran it, versus
//! upgrading the unicast five.

use dnswild::analysis::TextTable;
use dnswild::cli::ExpArgs;
use dnswild::guidance::{catchment_map, compare, demo_pair, nl_case_study, primary_recommendation};
use dnswild::PolicyMix;

fn render(assessments: &[dnswild::guidance::DeploymentAssessment]) -> String {
    let mut t = TextTable::new([
        "deployment",
        "mean RTT(ms)",
        "median RTT(ms)",
        "p90 RTT(ms)",
        "worst NS",
        "worst NS p90(ms)",
    ]);
    for a in assessments {
        let (worst, worst_rtt) = a
            .worst_auth
            .as_ref()
            .map(|(n, r)| (n.clone(), format!("{r:.0}")))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        t.push_row([
            a.name.clone(),
            format!("{:.0}", a.mean_rtt_ms),
            format!("{:.0}", a.median_rtt_ms),
            format!("{:.0}", a.p90_rtt_ms),
            worst,
            worst_rtt,
        ]);
    }
    t.render()
}

fn main() {
    let args = ExpArgs::parse_without_dump("exp_guidance", 1_500);
    let mix = PolicyMix::default();
    let rounds = 16;

    println!(
        "== Guidance (paper §7): worst-case latency is bounded by the least \
         anycast NS ({} VPs, seed {}) ==\n",
        args.vps, args.seed
    );

    println!("--- demo: one anycast NS + one unicast NS vs all anycast ---\n");
    let (mixed, all) = demo_pair();
    let results = compare(vec![mixed, all], args.vps, rounds, args.seed, &mix);
    println!("{}", render(&results));
    println!("{}", primary_recommendation(&results[0], &results[1]));

    println!("--- catchments of the demo anycast service (routing only) ---\n");
    let (mixed, _) = demo_pair();
    let mut t = TextTable::new(["site", "population share", "mean RTT(ms)"]);
    for row in catchment_map(&mixed.authoritatives[0], args.vps, args.seed) {
        t.push_row([
            row.site,
            format!("{:.0}%", row.share * 100.0),
            format!("{:.0}", row.mean_rtt_ms),
        ]);
    }
    println!("{}", t.render());

    println!("--- .nl case study: 5 unicast NL + 3 anycast, vs all anycast ---\n");
    let (as_deployed, upgraded) = nl_case_study();
    let results = compare(vec![as_deployed, upgraded], args.vps, rounds, args.seed, &mix);
    println!("{}", render(&results));
    // How much of the as-deployed unicast traffic comes from far away?
    let us_leak: f64 = results[0]
        .per_auth
        .iter()
        .filter(|a| a.auth.starts_with("nl-u"))
        .map(|a| a.share)
        .sum();
    println!(
        "share of all queries still landing on the five unicast NL servers: {:.0}%\n\
         (the paper reports 23% of queries to SIDN's unicast NSes come from\n\
         the US alone, despite the three anycast services)\n",
        us_leak * 100.0
    );
    println!("{}", primary_recommendation(&results[0], &results[1]));
}
