//! `sim_pipeline`: the other plane. One pass is the paper's C2B
//! measurement (DUB + FRA) at 2500 vantage points followed by the
//! coverage, share, preference and sensitivity analyses — the same
//! `proto`, `zone`, `AnswerEngine` and `resolver::policy` code as the
//! socket workloads, with no sockets, one thread and no wall-clock
//! dependence, so it is the most repeatable guard of all.

use dnswild::{Experiment, StandardConfig};

use super::{set_up_repeatedly, Args};
use crate::layers;
use crate::report::Report;
use crate::span::{Tracer, NO_PARENT};
use crate::sys::{now_ns, peak_rss_mb, this_thread_cpu};

/// Vantage points per pass (the paper's scale is ~9000; a quarter
/// keeps a pass near 1.5 s).
pub const VANTAGE_POINTS: usize = 2_500;
/// Vantage points of the warm-up pass that set-up runs.
const WARMUP_VANTAGE_POINTS: usize = 250;
const MIN_PASSES: usize = 3;

/// What one pass measured.
struct Pass {
    probes: u64,
    run_ns: u64,
    analysis_ns: u64,
    cpu_ns: u64,
    digest: u64,
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn one_pass(seed: u64, vantage_points: usize) -> Pass {
    let cpu0 = this_thread_cpu();
    let t0 = now_ns();
    let result = Experiment::standard(StandardConfig::C2B, seed)
        .vantage_points(vantage_points)
        .run();
    let t1 = now_ns();
    let analyses = format!(
        "{:?}|{:?}|{:?}|{:?}",
        result.coverage(),
        result.share(),
        result.preference(),
        result.sensitivity()
    );
    let t2 = now_ns();
    Pass {
        probes: result.result.probe_count() as u64,
        run_ns: t1 - t0,
        analysis_ns: t2 - t1,
        cpu_ns: this_thread_cpu().since(cpu0).run_ns,
        digest: fnv1a(&analyses),
    }
}

/// Runs the workload in the mode `report` was made for.
pub fn run(args: Args, report: &mut Report) {
    // Set-up is a small pass: it pages the code in and sizes the
    // allocator's pools the way the timed passes will use them.
    set_up_repeatedly(
        report,
        || one_pass(args.seed, WARMUP_VANTAGE_POINTS),
        |_| (),
    );
    let mut tracer = report.traced().then(|| Tracer::with_capacity(1 << 18));
    let root = tracer
        .as_mut()
        .map_or(NO_PARENT, |t| t.open("trace", NO_PARENT));
    if let Some(t) = &mut tracer {
        layers::replay_all(args.seed, t, root, report);
    }

    let mut passes: Vec<Pass> = Vec::new();
    let started = now_ns();
    let budget = args.ns(if report.traced() { 0.6 } else { 1.0 });
    while passes.len() < MIN_PASSES || now_ns() - started < budget {
        let pass = one_pass(args.seed, VANTAGE_POINTS);
        if let Some(t) = &mut tracer {
            let end = now_ns();
            let id = t.push(
                "sim.pass",
                end - pass.run_ns - pass.analysis_ns,
                end,
                root,
                passes.len() as u64,
            );
            t.push(
                "atlas.run",
                end - pass.run_ns - pass.analysis_ns,
                end - pass.analysis_ns,
                id,
                passes.len() as u64,
            );
            t.push(
                "analysis.pipeline",
                end - pass.analysis_ns,
                end,
                id,
                passes.len() as u64,
            );
        }
        passes.push(pass);
    }

    let first = &passes[0];
    report.require(first.probes > 0, || {
        "the measurement produced no probes".into()
    });
    report.require(
        passes
            .iter()
            .all(|p| p.digest == first.digest && p.probes == first.probes),
        || {
            format!(
                "same seed, different results: digests {:x?}",
                passes.iter().map(|p| p.digest).collect::<Vec<_>>()
            )
        },
    );
    report.attempted += passes.iter().map(|p| p.probes).sum::<u64>();
    let per = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    report.set_median(
        "ops_per_s",
        per(&|p| p.probes as f64 * 1e9 / p.run_ns as f64),
    );
    report.set_median(
        "cpu_us_per_op",
        per(&|p| p.cpu_ns as f64 / 1e3 / p.probes as f64),
    );
    report.set_median(
        "latency_us",
        per(&|p| (p.run_ns + p.analysis_ns) as f64 / 1e3),
    );
    report.set_median(
        "atlas.run_ns_per_probe",
        per(&|p| p.run_ns as f64 / p.probes as f64),
    );
    report.set_median("analysis.pipeline_ms", per(&|p| p.analysis_ns as f64 / 1e6));
    if let Some(t) = &mut tracer {
        t.close(root);
        layers::finish_trace(t, "sim_pipeline", report);
    }
    report.set("peak_rss_mb", peak_rss_mb());
}
