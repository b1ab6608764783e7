//! Latency-decomposition panel: where do cycles go?
//!
//! Runs the paper's five configurations (Figures 5–7) under uniform
//! traffic at three regimes — low load (20% of capacity), medium (50%)
//! and saturation (90%) — with the telemetry probe recording every
//! packet's lifecycle, and writes `latency_breakdown.csv`: one row per
//! (configuration, regime) decomposing mean packet latency into the
//! four telemetry components (source queueing, routing decisions,
//! blocked cycles, transfer cycles). The per-packet identity
//! `src_queue + routing + blocked + transfer == delivered − created`
//! is asserted for every delivered packet before the summary is
//! written, so the panel cannot silently drift from the event stream.
//!
//! Accepts the standard harness flags (`--quick`, `--seed <salt>`,
//! `--out <dir>`); the manifest is written with the
//! `netperf-run-manifest/2` schema since the run records telemetry.

use bench::{run_manifest_with_telemetry, write_artifact, Options, PanelSeries};
use netsim::scenario::paper_scenarios;
use netsim::scenario::SeedMode;
use netstats::export::{Manifest, ManifestValue};
use netstats::Table;
use std::time::Instant;
use telemetry::TelemetryConfig;
use traffic::Pattern;

/// The three load regimes of the panel: name, offered fraction.
const REGIMES: [(&str, f64); 3] = [("low", 0.20), ("medium", 0.50), ("saturation", 0.90)];

/// Utilization sampling stride (cycles). Events are not recorded: the
/// decomposition only needs the per-packet accumulators, and the five
/// full-length runs would otherwise hold tens of millions of events.
const STRIDE: u32 = 100;

fn main() {
    let opts = Options::from_args();
    let len = opts.run_length();
    let specs = paper_scenarios();
    let tcfg = TelemetryConfig {
        stride: STRIDE,
        record_events: false,
    };

    let mut t = Table::with_columns([
        "configuration",
        "regime",
        "offered",
        "accepted",
        "packets",
        "mean_src_queue",
        "mean_routing",
        "mean_blocked",
        "mean_transfer",
        "mean_network",
        "mean_total",
        "blocked_share",
        "max_blocked",
    ]);

    let start = Instant::now();
    let mut series: Vec<PanelSeries> = Vec::new();
    for spec in &specs {
        eprintln!("  tracing {} under uniform traffic...", spec.label());
        let scenario = spec
            .clone()
            .with_run_length(len)
            .with_seed(SeedMode::Derived {
                salt: opts.seed_salt(),
            })
            .with_telemetry(tcfg);
        let mut outcomes = Vec::new();
        for (regime, offered) in REGIMES {
            let (out, rec) = scenario
                .try_simulate_traced(offered)
                .unwrap_or_else(|e| panic!("{} at {offered}: {e}", scenario.label()));
            // The decomposition identity, checked per packet: the four
            // components must sum to the packet's total latency.
            for b in rec.breakdowns() {
                assert_eq!(
                    b.src_queue + b.routing + b.blocked + b.transfer,
                    b.total(),
                    "latency components of packet {} do not sum to its total",
                    b.packet
                );
            }
            let sum = rec
                .breakdown_summary()
                .unwrap_or_else(|| panic!("{}: no packets delivered at {regime}", spec.label()));
            t.push_row(vec![
                spec.label().into(),
                regime.into(),
                offered.into(),
                out.accepted_fraction.into(),
                (sum.packets as f64).into(),
                sum.mean_src_queue.into(),
                sum.mean_routing.into(),
                sum.mean_blocked.into(),
                sum.mean_transfer.into(),
                sum.mean_network.into(),
                sum.mean_total.into(),
                sum.blocked_share().into(),
                (sum.max_blocked as f64).into(),
            ]);
            outcomes.push(out);
        }
        series.push(PanelSeries {
            label: spec.label().to_string(),
            offered: REGIMES.iter().map(|&(_, f)| f).collect(),
            outcomes,
        });
    }

    println!("{}", t.to_pretty());

    let mut tele = Manifest::new();
    tele.push("stride", STRIDE as f64);
    tele.push("record_events", false);
    tele.push(
        "regimes",
        ManifestValue::List(
            REGIMES
                .iter()
                .map(|&(name, f)| {
                    let mut r = Manifest::new();
                    r.push("regime", name);
                    r.push("offered", f);
                    ManifestValue::Object(r)
                })
                .collect(),
        ),
    );
    let manifest = run_manifest_with_telemetry(
        "latency_breakdown",
        "latency_breakdown.csv",
        &opts,
        &specs,
        Some(Pattern::Uniform),
        &series,
        start.elapsed().as_secs_f64(),
        Some(&tele),
    );
    let path = write_artifact(&t, &opts.out_dir, "latency_breakdown.csv", &manifest);
    eprintln!("wrote {}", path.display());
}
