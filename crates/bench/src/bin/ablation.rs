//! Ablation studies beyond the paper: how sensitive are the headline
//! results to the modelling choices DESIGN.md calls out?
//!
//! * **Buffer depth** — the paper fixes 4-flit lanes; we sweep 2..=8.
//! * **Injection throttle** — the limited-injection threshold that keeps
//!   cube throughput stable above saturation (paper reference \[28\]).
//! * **Virtual channels on the tree** — extends Figure 5's 1/2/4 sweep
//!   with 3, 6 and 8 VCs to expose the diminishing returns predicted in
//!   Section 11 (with the matching Chien clock for each).
//! * **Torus vs mesh** — the wrap-around links, via the scenario
//!   registry's mesh entries.
//!
//! Each ablation drives the paper network at a fixed stress load and
//! reports sustained accepted bandwidth.

use bench::{run_manifest, write_artifact, Options};
use costmodel::chien::tree_adaptive_timing;
use netsim::scenario::{named, RunLength, Scenario, SeedMode, SpecVisitor};
use netsim::sim::run_simulation;
use netstats::Table;
use std::time::Instant;
use traffic::Pattern;

fn main() {
    let opts = Options::from_args();
    let len = opts.run_length();
    let salt = opts.seed_salt();

    // Buffer depth ablation (both networks, uniform, moderately above
    // each network's saturation).
    let start = Instant::now();
    let mut t = Table::with_columns(["configuration", "buffer_depth", "accepted_fraction"]);
    for (spec, load) in [
        (paper("cube-duato", len), 0.9),
        (paper("tree-2vc", len), 0.9),
    ] {
        for depth in [2usize, 4, 6, 8] {
            let algo = spec.build_algorithm();
            let mut cfg = spec.config_at(load);
            cfg.buffer_depth = depth;
            cfg.seed ^= salt;
            let out = run_simulation(algo.as_ref(), &cfg);
            t.push_row(vec![
                spec.label().into(),
                (depth as f64).into(),
                out.accepted_fraction.into(),
            ]);
        }
    }
    println!("Ablation: lane depth (paper fixes 4 flits)");
    println!("{}", t.to_pretty());
    write_artifact(
        &t,
        &opts.out_dir,
        "ablation_buffer_depth.csv",
        &run_manifest(
            "ablation",
            "ablation_buffer_depth.csv",
            &opts,
            &[],
            Some(Pattern::Uniform),
            &[],
            start.elapsed().as_secs_f64(),
        ),
    );

    // Injection-limit ablation on the cube (uniform at full offered
    // load; the default is 8 of the 16 network lanes).
    let start = Instant::now();
    let mut t = Table::with_columns(["algorithm", "limit", "accepted_fraction"]);
    for spec in [paper("cube-det", len), paper("cube-duato", len)] {
        for limit in [None, Some(4u32), Some(6), Some(8), Some(10), Some(12)] {
            let algo = spec.build_algorithm();
            let mut cfg = spec.config_at(1.0);
            cfg.injection_limit = limit;
            cfg.seed ^= salt;
            let out = run_simulation(algo.as_ref(), &cfg);
            t.push_row(vec![
                spec.label().into(),
                limit.map(|l| l as f64).unwrap_or(f64::NAN).into(),
                out.accepted_fraction.into(),
            ]);
        }
    }
    println!("Ablation: limited-injection threshold (offered = 100%)");
    println!("{}", t.to_pretty());
    write_artifact(
        &t,
        &opts.out_dir,
        "ablation_injection_limit.csv",
        &run_manifest(
            "ablation",
            "ablation_injection_limit.csv",
            &opts,
            &[],
            Some(Pattern::Uniform),
            &[],
            start.elapsed().as_secs_f64(),
        ),
    );

    // Virtual-channel count on the tree, with the matching clock from
    // the cost model: diminishing (and eventually negative) returns once
    // the router becomes routing-limited.
    let start = Instant::now();
    let mut t = Table::with_columns([
        "virtual_channels",
        "accepted_fraction",
        "clock_ns",
        "accepted_bits_ns",
    ]);
    for vcs in [1usize, 2, 3, 4, 6, 8] {
        let vcs_value = vcs.to_string();
        let pairs = [
            ("topology", "tree"),
            ("k", "4"),
            ("n", "4"),
            ("vcs", vcs_value.as_str()),
        ];
        let out = Scenario::from_pairs(&pairs)
            .expect("legal tree configuration")
            .with_run_length(len)
            .with_seed(SeedMode::Derived { salt })
            .try_simulate(0.95)
            .expect("a healthy tree never deadlocks");
        let timing = tree_adaptive_timing(4, vcs);
        // Aggregate absolute throughput with this VC count's own clock.
        let bits_ns = out.accepted_fraction * 256.0 * 1.0 * 16.0 / timing.clock_ns();
        t.push_row(vec![
            (vcs as f64).into(),
            out.accepted_fraction.into(),
            timing.clock_ns().into(),
            bits_ns.into(),
        ]);
    }
    println!("Ablation: tree virtual channels at 95% offered load");
    println!("{}", t.to_pretty());
    write_artifact(
        &t,
        &opts.out_dir,
        "ablation_tree_vcs.csv",
        &run_manifest(
            "ablation",
            "ablation_tree_vcs.csv",
            &opts,
            &[],
            Some(Pattern::Uniform),
            &[],
            start.elapsed().as_secs_f64(),
        ),
    );

    // Torus vs mesh: what do the wrap-around links (and the dateline
    // machinery they force) actually buy? Same 256-node grid, same
    // per-node injection rate in flits/cycle, uniform traffic.
    torus_vs_mesh(&opts, len);
}

/// A paper registry entry (uniform traffic) at the given run length.
fn paper(name: &str, len: RunLength) -> Scenario {
    named(name)
        .expect("paper entry present")
        .with_run_length(len)
}

fn torus_vs_mesh(opts: &Options, len: RunLength) {
    let start = Instant::now();
    let mut t = Table::with_columns([
        "topology",
        "flits_per_node_cycle",
        "accepted_flits_per_node_cycle",
        "latency_cycles",
    ]);
    // The mesh configurations come straight from the scenario registry;
    // the torus is its cube-det sibling. Both run deterministic routing
    // with the cube's throttle rule so only the wrap-around links (and
    // halved bisection) differ.
    let torus: Scenario = named("cube-det").expect("registry entry");
    let mesh: Scenario = named("mesh-det").expect("registry entry");
    for scenario in [&torus, &mesh] {
        let scenario = scenario.clone().with_run_length(len);
        let capacity = scenario.normalization().capacity_flits_per_cycle();
        let label = match scenario.label() {
            "cube, deterministic" => "16-ary 2-cube (torus)",
            _ => "16-ary 2-mesh",
        };
        for rate_flits in [0.1, 0.2, 0.3] {
            // Fixed per-node flit rate, so the fraction of capacity
            // differs between the two networks by design.
            let fraction = rate_flits / capacity;
            let mut cfg = scenario.config_at(fraction);
            cfg.seed = 99 ^ opts.seed_salt();
            cfg.injection_limit = Some(8);
            let out = scenario.with_algorithm(RunWith { cfg: &cfg });
            t.push_row(vec![
                label.into(),
                rate_flits.into(),
                out.accepted_flits_per_node_cycle.into(),
                out.mean_latency_cycles().into(),
            ]);
        }
    }
    println!("Ablation: torus vs mesh (same grid, wrap-around links removed)");
    println!("{}", t.to_pretty());
    write_artifact(
        &t,
        &opts.out_dir,
        "ablation_torus_vs_mesh.csv",
        &run_manifest(
            "ablation",
            "ablation_torus_vs_mesh.csv",
            opts,
            &[],
            Some(Pattern::Uniform),
            &[],
            start.elapsed().as_secs_f64(),
        ),
    );
}

struct RunWith<'c> {
    cfg: &'c netsim::sim::SimConfig,
}

impl SpecVisitor for RunWith<'_> {
    type Out = netsim::sim::SimOutcome;
    fn visit<A: routing::RoutingAlgorithm>(self, algo: A) -> Self::Out {
        run_simulation(&algo, self.cfg)
    }
}
