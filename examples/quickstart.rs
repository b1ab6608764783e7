//! Quickstart: simulate the paper's 16-ary 2-cube under uniform traffic
//! at 40% of capacity and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use netperf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One of the paper's five configurations: the 256-node bi-dimensional
    // cube with Duato's minimal adaptive routing (2 adaptive + 2 escape
    // virtual channels, 4-byte flits).
    let spec = named("cube-duato").unwrap();

    // Physical normalization: flit width, capacity, and the router clock
    // derived from Chien's cost model.
    let norm = spec.normalization();
    println!("network:   {}", spec.label());
    println!(
        "flit:      {} bytes ({} flits per 64-byte packet)",
        norm.flit_bytes(),
        norm.flits_per_packet()
    );
    println!(
        "capacity:  {} flits/node/cycle",
        norm.capacity_flits_per_cycle()
    );
    println!(
        "clock:     {:.2} ns ({})",
        norm.timing().clock_ns(),
        norm.timing().bottleneck()
    );

    // Simulate at 40% of capacity with the paper's protocol
    // (2000 warm-up cycles, measurement until cycle 20000).
    let outcome = spec.try_simulate(0.40)?;

    println!(
        "\noffered:   {:.1}% of capacity",
        100.0 * outcome.offered_fraction
    );
    println!(
        "accepted:  {:.1}% of capacity ({:.0} bits/ns aggregate)",
        100.0 * outcome.accepted_fraction,
        norm.fraction_to_bits_per_ns(outcome.accepted_fraction)
    );
    println!(
        "latency:   {:.1} cycles = {:.0} ns (min {:.0}, max {:.0} cycles)",
        outcome.mean_latency_cycles(),
        norm.cycles_to_ns(outcome.mean_latency_cycles()),
        outcome.latency.min(),
        outcome.latency.max()
    );
    println!(
        "packets:   {} delivered in the measurement window",
        outcome.delivered_packets
    );
    assert!(
        !outcome.is_saturated(0.05),
        "40% load is well below saturation"
    );
    println!("\nBelow saturation, accepted tracks offered — as Section 6 of the paper notes.");
    Ok(())
}
