//! Regenerates **Figure 6** of the paper: "Communication performance of
//! a 16-ary 2-cube with deterministic and minimal adaptive routing" —
//! eight panels (accepted bandwidth and network latency under uniform,
//! complement, transpose and bit-reversal traffic) in Chaos Normal Form.

use bench::{
    cnf_table, paper_patterns, run_manifest, run_panel, saturation_table, write_artifact, Options,
};
use netsim::scenario::named;
use std::time::Instant;

fn main() {
    let opts = Options::from_args();
    let len = opts.run_length();
    let specs = ["cube-det", "cube-duato"].map(|name| named(name).expect("paper entry present"));

    for (pattern, panels) in paper_patterns() {
        eprintln!("Figure 6 {panels}) — {}", pattern.title());
        let start = Instant::now();
        let series = run_panel(&specs, pattern, len, opts.seed_salt());
        let secs = start.elapsed().as_secs_f64();
        let table = cnf_table(&series);
        println!("\nFigure 6 {panels}) {}", pattern.title());
        println!("{}", table.to_pretty());
        println!("{}", saturation_table(&series).to_pretty());
        let artifact = format!("fig6_{}.csv", pattern.name());
        let manifest = run_manifest(
            "fig6",
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
    println!("  uniform:    80% (Duato), 60% (deterministic); latency ~70 cycles pre-saturation");
    println!(
        "  complement: 47% (deterministic, near the 50% bound), 35% (Duato, early saturation)"
    );
    println!("  transpose:  50% (Duato), less than half of that deterministic");
    println!("  bitrev:     60% (Duato), 20% (deterministic)");
}
