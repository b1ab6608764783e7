//! The paper's headline experiment in miniature: compare all five
//! router configurations under uniform and transpose traffic at a few
//! offered loads, in the absolute units of Figure 7 (bits/ns and ns).
//!
//! ```sh
//! cargo run --release --example fat_tree_vs_cube
//! ```
//!
//! Expect the ordering of Section 10: under uniform traffic the cube
//! wins decisively (wider flits, shorter wires, faster clock); under the
//! non-uniform permutations the adaptive cube and the multi-VC trees
//! group together, with the deterministic cube and the 1-VC tree far
//! behind.

use netperf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let specs = paper_scenarios();
    let loads = [0.3, 0.6, 0.9];

    for pattern in [Pattern::Uniform, Pattern::Transpose] {
        println!("\n=== {} ===", pattern.title());
        println!(
            "{:24} {:>22} {:>22} {:>12}",
            "configuration", "offered (bits/ns)", "accepted (bits/ns)", "latency"
        );
        for spec in &specs {
            let norm = spec.normalization();
            for &f in &loads {
                let out = spec
                    .with_pairs(&[("pattern", pattern.spec())])?
                    .try_simulate(f)?;
                let lat_ns = norm.cycles_to_ns(out.mean_latency_cycles());
                println!(
                    "{:24} {:>17.0} ({:>2.0}%) {:>17.0} ({:>2.0}%) {:>9.2} us",
                    spec.label(),
                    norm.fraction_to_bits_per_ns(f),
                    f * 100.0,
                    norm.fraction_to_bits_per_ns(out.accepted_fraction),
                    out.accepted_fraction * 100.0,
                    lat_ns / 1000.0,
                );
            }
        }
    }

    println!("\nPaper, Section 11: \"the bi-dimensional cube outperforms the quaternary");
    println!("fat-tree under uniform traffic, both in terms of network throughput and");
    println!("latency\"; with transpose \"the throughput with two and four virtual channels");
    println!("on the fat-tree is tantamount to the adaptive algorithm on the cube\".");
    Ok(())
}
