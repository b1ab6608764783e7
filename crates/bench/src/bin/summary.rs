//! The headline-numbers check: reruns the full evaluation (all five
//! configurations, all four patterns) and prints measured saturation
//! points side by side with the values the paper reports in Sections
//! 8–11, in both normalized (fraction of capacity) and absolute
//! (bits/ns) units. This is the data EXPERIMENTS.md records.

use bench::{paper_patterns, run_manifest, run_panel, write_artifact, Options, PanelSeries};
use netsim::scenario::paper_scenarios;
use netstats::Table;
use std::time::Instant;
use traffic::Pattern;

/// Paper-reported saturation fractions (Sections 8–10), where stated.
fn paper_saturation(label: &str, pattern: Pattern) -> Option<f64> {
    let v = match (label, pattern) {
        ("cube, deterministic", Pattern::Uniform) => 0.60,
        ("cube, Duato", Pattern::Uniform) => 0.80,
        ("fat tree, 1 vc", Pattern::Uniform) => 0.36,
        ("fat tree, 2 vc", Pattern::Uniform) => 0.55,
        ("fat tree, 4 vc", Pattern::Uniform) => 0.72,
        ("cube, deterministic", Pattern::Complement) => 0.47,
        ("cube, Duato", Pattern::Complement) => 0.35,
        ("fat tree, 1 vc", Pattern::Complement) => 0.95,
        ("fat tree, 2 vc", Pattern::Complement) => 0.95,
        ("fat tree, 4 vc", Pattern::Complement) => 0.95,
        ("cube, deterministic", Pattern::Transpose) => 0.22,
        ("cube, Duato", Pattern::Transpose) => 0.50,
        ("fat tree, 1 vc", Pattern::Transpose) => 0.33,
        ("fat tree, 2 vc", Pattern::Transpose) => 0.60,
        ("fat tree, 4 vc", Pattern::Transpose) => 0.78,
        ("cube, deterministic", Pattern::BitReversal) => 0.20,
        ("cube, Duato", Pattern::BitReversal) => 0.60,
        ("fat tree, 1 vc", Pattern::BitReversal) => 0.35,
        ("fat tree, 2 vc", Pattern::BitReversal) => 0.60,
        ("fat tree, 4 vc", Pattern::BitReversal) => 0.75,
        _ => return None,
    };
    Some(v)
}

fn measured_saturation(s: &PanelSeries) -> (f64, f64) {
    let sat = bench::saturation_of(s, 0.05);
    // Never saturated within the grid: report the last point.
    (
        sat.offered
            .unwrap_or_else(|| *s.offered.last().expect("non-empty sweep")),
        sat.sustained,
    )
}

fn main() {
    let opts = Options::from_args();
    let len = opts.run_length();
    let specs = paper_scenarios();

    let mut t = Table::with_columns([
        "pattern",
        "configuration",
        "paper_saturation",
        "measured_saturation_offered",
        "measured_sustained_accepted",
        "accepted_bits_ns",
        "latency_at_30pct_cycles",
        "latency_at_30pct_ns",
    ]);

    let start = Instant::now();
    for (pattern, _) in paper_patterns() {
        let series = run_panel(&specs, pattern, len, opts.seed_salt());
        for (s, spec) in series.iter().zip(&specs) {
            let (sat_off, sat_acc) = measured_saturation(s);
            let norm = spec.normalization();
            // Latency at 30% of capacity: below every saturation point,
            // a fair "pre-saturation latency" probe.
            let curve = s.cnf_curve();
            let lat30 = curve.latency.interpolate(0.30).unwrap_or(f64::NAN);
            t.push_row(vec![
                pattern.name().into(),
                s.label.clone().into(),
                paper_saturation(&s.label, pattern)
                    .unwrap_or(f64::NAN)
                    .into(),
                sat_off.into(),
                sat_acc.into(),
                norm.fraction_to_bits_per_ns(sat_acc).into(),
                lat30.into(),
                norm.cycles_to_ns(lat30).into(),
            ]);
        }
    }

    println!("{}", t.to_pretty());
    let manifest = run_manifest(
        "summary",
        "summary.csv",
        &opts,
        &specs,
        None,
        &[],
        start.elapsed().as_secs_f64(),
    );
    let path = write_artifact(&t, &opts.out_dir, "summary.csv", &manifest);
    eprintln!("wrote {}", path.display());
}
