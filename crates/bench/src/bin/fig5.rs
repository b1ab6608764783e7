//! Regenerates **Figure 5** of the paper: "Communication performance of
//! a 4-ary 4-tree with adaptive routing and one, two and four virtual
//! channels" — eight panels (accepted bandwidth and network latency
//! under uniform, complement, transpose and bit-reversal traffic), in
//! Chaos Normal Form (offered load normalized to the uniform-traffic
//! capacity, latency in cycles).

use bench::{
    cnf_table, paper_patterns, run_manifest, run_panel, saturation_table, write_artifact, Options,
};
use netsim::scenario::{named, Scenario};
use std::time::Instant;

fn main() {
    let opts = Options::from_args();
    let len = opts.run_length();
    let specs: Vec<Scenario> = ["tree-1vc", "tree-2vc", "tree-4vc"]
        .iter()
        .map(|name| named(name).expect("paper entry present"))
        .collect();

    for (pattern, panels) in paper_patterns() {
        eprintln!("Figure 5 {panels}) — {}", pattern.title());
        let start = Instant::now();
        let series = run_panel(&specs, pattern, len, opts.seed_salt());
        let secs = start.elapsed().as_secs_f64();
        let table = cnf_table(&series);
        println!("\nFigure 5 {panels}) {}", pattern.title());
        println!("{}", table.to_pretty());
        println!("{}", saturation_table(&series).to_pretty());
        let artifact = format!("fig5_{}.csv", pattern.name());
        let manifest = run_manifest(
            "fig5",
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

    println!("paper reference points (saturation, fraction of capacity):");
    println!("  uniform:    36% (1 vc), 55% (2 vc), 72% (4 vc)");
    println!("  complement: ~95% for all variants");
    println!("  transpose:  33% (1 vc), 60% (2 vc), 78% (4 vc)");
    println!("  bitrev:     similar to transpose");
}
