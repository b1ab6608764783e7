//! Degradation panel: accepted load and latency versus the fraction of
//! failed links, for the paper's five configurations.
//!
//! For each registry entry of [`PAPER_FIVE`] this sweeps a grid of
//! dead-link fractions (0%, 5%, 10%, 15%; `--quick` drops the 10%
//! point) crossed with a small offered-load grid, and writes one row
//! per (configuration, fault fraction, load) with the accepted
//! bandwidth, latency, and the delivered / dropped / unroutable packet
//! accounting. The 0% rows are bit-identical to the healthy scenarios
//! (same derived traffic seeds — the fault entries deliberately keep
//! the default labels), so the degradation read off the panel is pure
//! fault effect.
//!
//! Artifacts: `results/fault_sweep.csv` plus a
//! `netperf-run-manifest/3` manifest recording every faulted scenario
//! description (fault spec, digest, compiled dead-link counts).
//!
//! A wedged run (possible in principle under adversarial fault sets)
//! is reported as a structured one-line error, not a hang: the sweep
//! goes through `try_sweep_outcomes` and the engine watchdog.

use bench::{manifest_path, write_csv, write_manifest, Options};
use netsim::scenario::{named, SeedMode, PAPER_FIVE};
use netsim::FaultPlan;
use netstats::export::{Manifest, ManifestValue};
use netstats::{Cell, Table};
use std::time::Instant;

/// Dead-link fractions of the panel (the paper-config degradation
/// grid). `--quick` keeps the endpoints plus 5%.
fn fault_fractions(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.05, 0.15]
    } else {
        vec![0.0, 0.05, 0.10, 0.15]
    }
}

/// Offered-load grid per fault fraction.
fn load_grid(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.5]
    } else {
        vec![0.3, 0.6, 0.9]
    }
}

fn main() {
    let opts = Options::from_args();
    let fractions = fault_fractions(opts.quick);
    let loads = load_grid(opts.quick);
    let start = Instant::now();

    let mut table = Table::with_columns([
        "config",
        "fault_fraction",
        "dead_links",
        "offered_fraction",
        "generated_fraction",
        "accepted_fraction",
        "latency_cycles",
        "created_packets",
        "delivered_packets",
        "dropped_packets",
        "unroutable_packets",
    ]);
    let mut scenario_manifests: Vec<ManifestValue> = Vec::new();
    let (mut sims, mut created, mut delivered) = (0usize, 0u64, 0u64);
    let (mut dropped, mut unroutable) = (0u64, 0u64);

    for name in PAPER_FIVE {
        let base = named(name)
            .expect("paper entry present")
            .with_run_length(opts.run_length())
            .with_seed(SeedMode::Derived {
                salt: opts.seed_salt(),
            });
        for &fraction in &fractions {
            // 0% rows run the healthy scenario itself (no plan, fault
            // machinery monomorphized out) — the panel's baseline.
            let spec = FaultPlan::dead_links(fraction).spec_string();
            let s = base
                .with_pairs(&[("faults", spec)])
                .unwrap_or_else(|e| panic!("fault plan rejected for {name}: {e}"));
            let dead = s.faults().map(|p| compiled_dead_links(&s, p)).unwrap_or(0);
            eprintln!(
                "  {name}: {:.0}% dead links ({dead} links), {} load points...",
                fraction * 100.0,
                loads.len()
            );
            let outs = s
                .try_sweep_outcomes(&loads)
                .unwrap_or_else(|e| panic!("{name} at {fraction}: {e}"));
            for (&load, out) in loads.iter().zip(&outs) {
                sims += 1;
                created += out.created_packets;
                delivered += out.delivered_packets;
                dropped += out.dropped_packets;
                unroutable += out.unroutable_packets;
                let lat = out.mean_latency_cycles();
                table.push_row(vec![
                    Cell::Text(name.to_string()),
                    Cell::Num(fraction),
                    Cell::Num(dead as f64),
                    Cell::Num(load),
                    Cell::Num(out.generated_fraction),
                    Cell::Num(out.accepted_fraction),
                    Cell::Num(if lat.is_nan() { 0.0 } else { lat }),
                    Cell::Num(out.created_packets as f64),
                    Cell::Num(out.delivered_packets as f64),
                    Cell::Num(out.dropped_packets as f64),
                    Cell::Num(out.unroutable_packets as f64),
                ]);
            }
            if fraction > 0.0 {
                scenario_manifests.push(ManifestValue::Object(s.manifest()));
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let mut m = Manifest::new();
    m.push(
        "schema",
        netstats::export::run_manifest_schema_tag(false, true),
    );
    m.push("generator", "fault_sweep");
    m.push("artifact", "fault_sweep.csv");
    m.push("quick", opts.quick);
    let len = opts.run_length();
    let mut rl = Manifest::new();
    rl.push("warmup", len.warmup as f64);
    rl.push("total", len.total as f64);
    m.push("run_length", rl);
    m.push("seed_salt", format!("0x{:016x}", opts.seed_salt()));
    m.push("threads", netsim::scenario::sweep_threads() as f64);
    let mut engine = Manifest::new();
    for (feature, enabled) in netsim::engine_features() {
        engine.push(feature, enabled);
    }
    m.push("engine", engine);
    m.push(
        "fault_fractions",
        ManifestValue::List(fractions.iter().map(|&f| ManifestValue::Num(f)).collect()),
    );
    m.push(
        "loads",
        ManifestValue::List(loads.iter().map(|&l| ManifestValue::Num(l)).collect()),
    );
    m.push("scenarios", ManifestValue::List(scenario_manifests));
    m.push("wall_clock_secs", wall);
    let mut counters = Manifest::new();
    counters.push("simulations", sims as f64);
    counters.push("created_packets", created as f64);
    counters.push("delivered_packets", delivered as f64);
    counters.push("dropped_packets", dropped as f64);
    counters.push("unroutable_packets", unroutable as f64);
    m.push("counters", counters);

    let path = opts.out_dir.join("fault_sweep.csv");
    write_csv(&table, &path).unwrap_or_else(|e| panic!("write fault_sweep.csv: {e}"));
    write_manifest(&m, manifest_path(&opts.out_dir, "fault_sweep.csv"))
        .unwrap_or_else(|e| panic!("write fault_sweep manifest: {e}"));
    eprintln!("wrote {}", path.display());
    eprintln!(
        "totals: {created} created = {delivered} delivered + {dropped} dropped + \
         {unroutable} unroutable + backlog"
    );
}

/// Dead-link count of a plan compiled against the scenario's topology
/// (for the panel's `dead_links` column).
fn compiled_dead_links(s: &netsim::Scenario, plan: &FaultPlan) -> usize {
    use netsim::wiring::Wiring;
    let w = Wiring::from_topology(&*s.topology().build());
    plan.compile(&w)
        .expect("plan validated at scenario build")
        .dead_links()
}
