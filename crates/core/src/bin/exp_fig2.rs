//! Figure 2: queries needed (after the first) for a recursive to probe
//! all authoritatives, per configuration, with the percentage of
//! recursives that reach them all.
//!
//! Paper's result: 75–96% of recursives query all authoritatives; with
//! two NSes, half probe the second NS by their second query; with four,
//! the median is up to 7 queries.

use dnswild::cli::ExpArgs;
use dnswild::report::render_coverage;
use dnswild::{Experiment, StandardConfig};

fn main() {
    let args = ExpArgs::parse("exp_fig2", 2_000);
    println!(
        "== Figure 2: queries to probe all authoritatives ({} VPs/config, seed {}) ==\n",
        args.vps, args.seed
    );
    let rows: Vec<_> = StandardConfig::ALL
        .iter()
        .map(|&config| {
            let report =
                Experiment::standard(config, args.seed).vantage_points(args.vps).run();
            let summary = report.coverage();
            eprintln!("  {} done", config.label());
            args.dump_tsv(&format!("fig2_{}_probes.tsv", config.label()), || {
                dnswild::export::probes_tsv(&report.result)
            });
            summary
        })
        .collect();
    println!("{}", render_coverage(&rows));

    // The figure itself, in ASCII: one box per configuration.
    let box_rows: Vec<(String, dnswild::analysis::BoxStats)> = rows
        .iter()
        .filter_map(|r| r.queries_after_first.map(|b| (r.config.clone(), b)))
        .collect();
    let max = box_rows.iter().map(|(_, b)| b.p90).fold(1.0f64, f64::max) * 1.15;
    println!("queries after the first until all NSes seen (p10 | [q1 M q3] | p90):\n");
    println!("{}", dnswild::analysis::ascii::boxplot(&box_rows, max, 60));
    println!(
        "paper: %query-all 2A 96.0, 2B 95.5, 2C 82.4, 3A 91.3, 3B 84.8, 4A 94.7, 4B 75.2;\n\
         median queries-after-first: 1 for two NSes, up to 7 for four NSes."
    );
}
