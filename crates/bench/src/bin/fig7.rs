//! Regenerates **Figure 7** of the paper: "Normalized communication
//! performance of a 16-ary 2-cube and a 4-ary 4-tree" — the final
//! apples-to-apples comparison. The raw curves of Figures 5 and 6 are
//! converted to absolute units using each configuration's own clock
//! period from Chien's cost model: traffic in bits/ns (4-byte flits on
//! the cube, 2-byte flits on the tree) and latency in nanoseconds.

use bench::{absolute_table, paper_patterns, run_manifest, run_panel, write_artifact, Options};
use netsim::scenario::paper_scenarios;
use std::time::Instant;

fn main() {
    let opts = Options::from_args();
    let len = opts.run_length();
    let specs = paper_scenarios();

    println!("Clock periods (Chien model):");
    for s in &specs {
        let n = s.normalization();
        println!(
            "  {:22} clock {:5.2} ns, capacity {:6.1} bits/ns aggregate",
            s.label(),
            n.timing().clock_ns(),
            n.capacity_bits_per_ns()
        );
    }

    for (pattern, panels) in paper_patterns() {
        eprintln!("Figure 7 {panels}) — {}", pattern.title());
        let start = Instant::now();
        let series = run_panel(&specs, pattern, len, opts.seed_salt());
        let secs = start.elapsed().as_secs_f64();
        let table = absolute_table(&series, &specs);
        println!("\nFigure 7 {panels}) {} (absolute units)", pattern.title());
        println!("{}", table.to_pretty());
        let artifact = format!("fig7_{}.csv", pattern.name());
        let manifest = run_manifest(
            "fig7",
            &artifact,
            &opts,
            &specs,
            Some(pattern),
            &series,
            secs,
        );
        let path = write_artifact(&table, &opts.out_dir, &artifact, &manifest);
        eprintln!("wrote {}", path.display());
    }

    println!("paper reference points (saturation, bits/ns):");
    println!("  uniform:    Duato ~440 > deterministic ~350 > tree-4vc ~280 > tree-1vc ~150");
    println!("  complement: tree (all) ~400 > deterministic ~280 > Duato");
    println!(
        "  transpose/bitrev: Duato + tree-2vc/4vc grouped at 250-300; det + tree-1vc at 100-150"
    );
    println!("  latency: cube ~0.5 us below saturation, about half the fat-tree's");
}
