//! Ablations over the unknowns of the wild: which findings survive when
//! the resolver mix, the infrastructure-cache lifetime, or the network's
//! loss rate change?
//!
//! Three sweeps, all on configuration 2C (FRA + SYD), reporting the
//! weak/strong preference shares of §4.3:
//!
//! 1. **Mix sweep** — 0% to 100% latency-driven resolvers;
//! 2. **Pure-policy panel** — each selection policy alone;
//! 3. **Loss sweep** — packet loss from 0% to 5%;
//! 4. **Infra-cache expiry sweep** — cache lifetimes vs a 30-minute
//!    probing interval (the mechanism behind Figure 6).

use dnswild::analysis::TextTable;
use dnswild::atlas::{run_measurement, MeasurementConfig};
use dnswild::cli::ExpArgs;
use dnswild::{
    Continent, Experiment, LatencyConfig, PolicyKind, PolicyMix, SimDuration, StandardConfig,
};

fn preference_for(mix: PolicyMix, latency: LatencyConfig, vps: usize, seed: u64) -> (f64, f64) {
    let report = Experiment::standard(StandardConfig::C2C, seed)
        .vantage_points(vps)
        .mix(mix)
        .latency(latency)
        .run();
    let p = report.preference();
    (p.weak_pct, p.strong_pct)
}

fn main() {
    let args = ExpArgs::parse_without_dump("exp_ablation", 1_200);
    println!(
        "== Ablations on config 2C: robustness of the preference findings \
         ({} VPs/point, seed {}) ==\n",
        args.vps, args.seed
    );

    println!("--- 1. latency-driven share sweep (BIND-like vs uniform-random) ---\n");
    let mut t = TextTable::new(["%latency-driven", "weak-pref %", "strong-pref %"]);
    for pct in [0, 25, 50, 75, 100] {
        let mix = if pct == 0 {
            PolicyMix::pure(PolicyKind::UniformRandom)
        } else if pct == 100 {
            PolicyMix::pure(PolicyKind::BindSrtt)
        } else {
            PolicyMix::new(vec![
                (PolicyKind::BindSrtt, pct as f64 / 100.0),
                (PolicyKind::UniformRandom, 1.0 - pct as f64 / 100.0),
            ])
        };
        let (weak, strong) =
            preference_for(mix, LatencyConfig::default(), args.vps, args.seed);
        t.push_row([format!("{pct}"), format!("{weak:.0}"), format!("{strong:.0}")]);
    }
    println!("{}", t.render());
    println!(
        "reading: the paper's 69%/37% (2C) lands between the 50% and 100%\n\
         latency-driven rows — aggregate preference pins down the share of\n\
         latency-driven implementations in the wild.\n"
    );

    println!("--- 2. pure-policy panel ---\n");
    let mut t = TextTable::new(["policy", "weak-pref %", "strong-pref %"]);
    for kind in PolicyKind::ALL {
        let (weak, strong) = preference_for(
            PolicyMix::pure(kind),
            LatencyConfig::default(),
            args.vps,
            args.seed,
        );
        t.push_row([kind.label().to_string(), format!("{weak:.0}"), format!("{strong:.0}")]);
    }
    println!("{}", t.render());

    println!("--- 3. loss-rate sweep (default mix) ---\n");
    let mut t = TextTable::new(["loss %", "weak-pref %", "strong-pref %"]);
    for loss in [0.0, 0.003, 0.01, 0.03, 0.05] {
        let latency = LatencyConfig { loss_rate: loss, ..LatencyConfig::default() };
        let (weak, strong) =
            preference_for(PolicyMix::default(), latency, args.vps, args.seed);
        t.push_row([
            format!("{:.1}", loss * 100.0),
            format!("{weak:.0}"),
            format!("{strong:.0}"),
        ]);
    }
    println!("{}", t.render());
    println!(
        "reading: moderate loss barely moves the aggregate — preference is a\n\
         latency phenomenon, not a loss artifact.\n"
    );

    println!("--- 4. infra-cache expiry sweep (pure bind-srtt, 30-min probes) ---\n");
    let mut t = TextTable::new(["expiry (min)", "EU fraction to FRA"]);
    let sweep: [(&str, Option<Option<SimDuration>>); 5] = [
        ("1", Some(Some(SimDuration::from_mins(1)))),
        ("10", Some(Some(SimDuration::from_mins(10)))),
        ("30", Some(Some(SimDuration::from_mins(30)))),
        ("60", Some(Some(SimDuration::from_mins(60)))),
        ("never", Some(None)),
    ];
    for (label, expiry) in sweep {
        let mut cfg = MeasurementConfig::standard(StandardConfig::C2C, args.seed);
        cfg.vp_count = args.vps / 2;
        cfg.interval = SimDuration::from_mins(30);
        cfg.rounds = 12;
        cfg.mix = PolicyMix::pure(PolicyKind::BindSrtt);
        cfg.infra_expiry_override = expiry;
        let result = run_measurement(&cfg);
        let (mut fra, mut total) = (0u64, 0u64);
        for vp in result.vps.iter().filter(|v| v.continent == Continent::Eu) {
            for probe in &vp.probes {
                total += 1;
                if probe.auth == "FRA" {
                    fra += 1;
                }
            }
        }
        t.push_row([label.to_string(), format!("{:.2}", fra as f64 / total.max(1) as f64)]);
    }
    println!("{}", t.render());
    println!(
        "reading: with 30-minute probes, SRTT state that expires before the\n\
         next probe resets exploration each round (fraction near the cold-\n\
         start level); lifetimes at or beyond the interval preserve the\n\
         preference — the paper's Figure 6 persistence needs long-memory\n\
         implementations in the mix."
    );
}
