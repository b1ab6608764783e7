//! Spatial congestion maps — reproducing Section 9's geometric claims.
//!
//! ```sh
//! cargo run --release --example congestion_map
//! ```
//!
//! * Transpose: "the destination of each packet is a reflection of the
//!   source along the diagonal. This causes a continuous area of
//!   congestion along this diagonal and on the opposite corners of the
//!   logically flattened torus."
//! * Bit reversal: "there are 16 nodes that have a palindrome bit
//!   string and do not inject any packet into the network. They
//!   generate some underloaded areas that are located along or near the
//!   two main diagonals according to a symmetric layout."
//!
//! The engine counts flits per directed channel; we aggregate per
//! router and print the 16 x 16 grid as an ASCII heat map.

use netperf::netsim::engine::Engine;
use netperf::prelude::*;
use netperf::traffic::{Bernoulli, TrafficGen};

fn heat_map(pattern: Pattern) -> Vec<u64> {
    let spec = named("cube-duato").unwrap();
    let norm = spec.normalization();
    let algo = spec.build_algorithm();
    let rate = norm.packet_rate(0.5);
    let gen = TrafficGen::new(pattern, 256);
    let mut eng = Engine::new(
        algo.as_ref(),
        4,
        norm.flits_per_packet() as u16,
        gen,
        &move |_| Box::new(Bernoulli::new(rate)),
        0xC0FFEE,
    );
    eng.run(20_000);
    eng.router_forwarded_flits()
}

fn print_grid(loads: &[u64]) {
    let max = *loads.iter().max().unwrap() as f64;
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    println!(
        "    {}",
        "0123456789abcdef"
            .chars()
            .map(|c| format!("{c} "))
            .collect::<String>()
    );
    for y in 0..16 {
        print!("{y:>3} ");
        for x in 0..16 {
            // Router (x, y): node index x + 16 y (dimension 0 = x).
            let load = loads[x + 16 * y] as f64 / max;
            let idx = ((load * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1);
            print!("{} ", shades[idx]);
        }
        println!();
    }
}

fn main() {
    println!("Forwarded-flit heat maps on the 16-ary 2-cube (Duato, 50% load)");
    println!("(rows = dimension-1 coordinate, columns = dimension-0 coordinate)\n");

    for pattern in [Pattern::Transpose, Pattern::BitReversal, Pattern::Uniform] {
        println!("== {} ==", pattern.title());
        let loads = heat_map(pattern);
        print_grid(&loads);

        // Quantify the claims.
        let diag: Vec<u64> = (0..16).map(|i| loads[i + 16 * i]).collect();
        let anti: Vec<u64> = (0..16).map(|i| loads[(15 - i) + 16 * i]).collect();
        let total: u64 = loads.iter().sum();
        let mean = total as f64 / 256.0;
        let diag_mean = diag.iter().sum::<u64>() as f64 / 16.0;
        let anti_mean = anti.iter().sum::<u64>() as f64 / 16.0;
        println!(
            "main diagonal load: {:+.0}% vs grid mean; anti-diagonal: {:+.0}%\n",
            100.0 * (diag_mean / mean - 1.0),
            100.0 * (anti_mean / mean - 1.0),
        );
    }

    println!("Transpose piles traffic on the main diagonal (sources and their");
    println!("reflections meet there); bit reversal leaves the palindromic rows");
    println!("quiet; uniform is flat — all three exactly as Section 9 describes.");
}
