//! "Theoretical models of the interconnection network often prove
//! overly simplistic and are not able to capture important performance
//! aspects" — Section 1 of the paper. This example quantifies that
//! claim: an Agarwal-style M/D/1 contention model against the
//! flit-level simulation, on both 256-node networks.
//!
//! ```sh
//! cargo run --release --example model_vs_simulation
//! ```
//!
//! Expect close agreement at low load (the zero-load pipeline is
//! modelled exactly), growing divergence from ~50% load, and a
//! qualitatively wrong saturation prediction: the closed forms say both
//! networks saturate at ~100% of capacity; the simulation says 36–85%
//! depending on routing and flow control.

use netperf::analytic::{CubeModel, TreeModel};
use netperf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9];

    println!("16-ary 2-cube, Duato adaptive routing, uniform traffic");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "load", "model (cycles)", "sim (cycles)", "error"
    );
    let model = CubeModel::new(16, 2, 16);
    let spec = named("cube-duato").unwrap();
    for &f in &loads {
        let predicted = model.predicted_latency(f);
        let sim = spec.try_simulate(f)?;
        let measured = sim.mean_latency_cycles();
        println!(
            "{:>7.0}% {:>16.1} {:>16.1} {:>7.0}%",
            f * 100.0,
            predicted,
            measured,
            100.0 * (predicted - measured) / measured
        );
    }
    println!(
        "model says saturation at {:.0}% of capacity; simulation saturates at ~80%",
        100.0 * model.saturation_fraction()
    );

    println!("\n4-ary 4-tree, adaptive routing with 2 VCs, uniform traffic");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "load", "model (cycles)", "sim (cycles)", "error"
    );
    let model = TreeModel::new(4, 4, 32);
    let spec = named("tree-2vc").unwrap();
    for &f in &loads {
        let predicted = model.predicted_latency(f);
        let sim = spec.try_simulate(f)?;
        let measured = sim.mean_latency_cycles();
        println!(
            "{:>7.0}% {:>16.1} {:>16.1} {:>7.0}%",
            f * 100.0,
            predicted,
            measured,
            100.0 * (predicted - measured) / measured
        );
    }
    println!(
        "model says saturation at {:.0}% of capacity; simulation saturates at ~55%",
        100.0 * model.saturation_fraction()
    );

    println!("\nThe models capture the pipeline and first-order contention but miss");
    println!("virtual-channel multiplexing, head-of-line blocking and backpressure —");
    println!("which is precisely why the paper builds a detailed simulator.");
    Ok(())
}
